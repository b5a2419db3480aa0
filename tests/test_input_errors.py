"""External inputs the timing stack cannot take fail with structured
errors: a gate whose cell the library lacks, a library cell whose
Λ-peak data breaks its direction rule, a primary output wired to a
primary input, clock or period values that are not finite and > 0,
sigmas and served numbers that are not finite, and ATPG counts the
search cannot use.
"""

import copy
import json
import math

import pytest

import repro.cli
from repro.atpg import AtpgConfig
from repro.characterize import CellLibrary, LibraryFormatError
from repro.circuit import CircuitError, UnknownCellError, parse_bench
from repro.cli import main
from repro.obs import get_registry
from repro.pvt import STANDARD_CORNERS, CornerLibrary
from repro.server import ServerError, ServerThread, validate_request
from repro.sta import TimingAnalyzer
from repro.sta.optimize import SizingConfig
from repro.stat import VariationModel, run_mc

#: Netlists the packaged library has no cell for, and that cell.
MISSING_CELLS = {
    "nand9": ("INPUT(a)\nOUTPUT(y)\ny = NAND(a, a, a, a, a, a, a, a, a)\n",
              "NAND9"),
    "xor3": ("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n",
             "XOR3"),
}

#: Circuit subcommands and their extra arguments.
CIRCUIT_COMMANDS = {
    "sta": [], "optimize": [], "mc": ["--samples", "4"], "sim": ["0", "1"],
    "atpg": [], "report": [], "serve": ["--port", "0"],
}

BAD_TIMES = [math.nan, math.inf, -1e-9, 0.0]


@pytest.mark.parametrize("name", sorted(MISSING_CELLS))
def test_missing_cell_names_the_gate(name, library):
    text, cell = MISSING_CELLS[name]
    circuit = parse_bench(text)
    with pytest.raises(UnknownCellError) as err:
        TimingAnalyzer(circuit, library)
    message = str(err.value)
    assert "'y'" in message and repr(cell) in message, message
    assert isinstance(err.value, CircuitError)
    with pytest.raises(UnknownCellError, match=cell):
        run_mc(circuit, library, samples=2)


@pytest.mark.parametrize("command", sorted(CIRCUIT_COMMANDS))
@pytest.mark.parametrize("name", sorted(MISSING_CELLS))
def test_missing_cell_is_a_structured_cli_error(name, command, capsys,
                                                tmp_path):
    """Every circuit subcommand, ``serve`` included (before it starts),
    prints ``error: ...`` and exits 2."""
    text, cell = MISSING_CELLS[name]
    path = tmp_path / f"{name}.bench"
    path.write_text(text)
    previous = get_registry()
    code = main([command, str(path), *CIRCUIT_COMMANDS[command]])
    # Refused before serve installs its live metrics registry.
    assert get_registry() is previous
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: gate 'y' needs cell ") and cell in err, err
    assert "Traceback" not in err


def _with_nand6(library):
    """``library`` plus a NAND6, a cell the packaged library lacks:
    NAND5's data, with pin 4's arcs, cap and pair scales copied to the
    sixth pin."""
    doc = library.to_dict()
    cell = copy.deepcopy(doc["cells"]["NAND5"])
    cell.update(name="NAND6", n_inputs=6)
    cell["input_caps"].append(cell["input_caps"][4])
    for d in ("RF", "FR"):
        cell["arcs"][f"5:{d}"] = dict(cell["arcs"][f"4:{d}"], pin=5)
    ctrl = cell["ctrl"]
    for i in range(5):
        ctrl["pair_scale"][f"{i}-5"] = ctrl["pair_scale"][f"{min(i, 3)}-4"]
    for key in ("multi_scale", "trans_multi_scale"):
        ctrl[key]["6"] = ctrl[key]["5"]
    doc["cells"]["NAND6"] = cell
    return CellLibrary.from_dict(doc)


@pytest.mark.parametrize("argv", [
    ["sta"], ["mc", "--samples", "4"], ["optimize", "--passes", "1"],
])
def test_cells_are_checked_in_the_libraries_a_command_runs_on(
    argv, library, capsys, tmp_path
):
    """With ``--corner-library`` a subcommand runs on the file's
    libraries alone, so a cell only they hold is no error there, and
    still one without them."""
    bench = tmp_path / "nand6.bench"
    bench.write_text(
        "".join(f"INPUT({pi})\n" for pi in "abcdef")
        + "OUTPUT(y)\ny = NAND(a, b, c, d, e, f)\n"
    )
    corners = tmp_path / "corners.json"
    CornerLibrary.derived(
        _with_nand6(library),
        [STANDARD_CORNERS["typ"], STANDARD_CORNERS["slow"]],
    ).save(corners)
    command, *rest = argv
    assert main([command, str(bench), *rest]) == 2
    assert "needs cell 'NAND6'" in capsys.readouterr().err
    code = main([command, str(bench), "--corner-library", str(corners),
                 *rest])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "slow" in captured.out


#: Ways to break the rule a cell's Λ-peak data keeps: it responds in
#: the direction opposite the to-controlling response, whose data it
#: needs (its tails are the cell's to-non-controlling arcs).
PEAK_FAULTS = {
    "same_direction": lambda cell: cell["nonctrl"].update(
        out_rising=cell["ctrl"]["out_rising"]
    ),
    "no_ctrl": lambda cell: cell.update(ctrl=None),
}


@pytest.mark.parametrize("fault", sorted(PEAK_FAULTS))
def test_malformed_peak_cell_is_refused_at_load(fault, library, capsys,
                                               tmp_path):
    """A library whose NAND2 breaks the Λ-peak rule fails to load with a
    :class:`LibraryFormatError` naming the cell, both directly and as a
    ``--corner-library`` file (``error:`` and exit 2)."""
    doc = library.to_dict()
    PEAK_FAULTS[fault](doc["cells"]["NAND2"])
    with pytest.raises(LibraryFormatError, match="'NAND2'"):
        CellLibrary.from_dict(doc)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doc))
    assert main(["sta", "c17", "--corner-library", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cell 'NAND2'"), err
    assert "Traceback" not in err


def test_server_refuses_a_circuit_with_a_missing_cell(library):
    circuit = parse_bench(MISSING_CELLS["nand9"][0])
    with pytest.raises(UnknownCellError, match="NAND9"):
        ServerThread({"bad": circuit}, library=library)


def test_output_wired_to_an_input_prints_no_ratio(capsys, tmp_path):
    """A primary output that is a primary input has min delay 0 under
    both models, so the pin-to-pin/proposed ratio is undefined."""
    path = tmp_path / "wire.bench"
    path.write_text("INPUT(a)\nINPUT(b)\nOUTPUT(a)\nOUTPUT(y)\n"
                    "y = NAND(a, b)\n")
    assert main(["sta", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ratio              : n/a" in out


@pytest.mark.parametrize("value", BAD_TIMES)
def test_clock_and_period_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="clock must be finite and > 0"):
        SizingConfig(clock=value)
    with pytest.raises(ValueError, match="period must be finite and > 0"):
        AtpgConfig(period=value)
    SizingConfig(clock=1e-9)
    AtpgConfig(period=1e-9)


def test_mc_summary_period_must_be_finite_and_positive(library):
    from repro.circuit import load_packaged_bench

    result = run_mc(load_packaged_bench("c17"), library, samples=4)
    for value in BAD_TIMES:
        with pytest.raises(ValueError, match=f"got {value!r}"):
            result.summary(period=value)
    assert result.summary(period=1e-9)["period_s"] == 1e-9


@pytest.mark.parametrize("argv", [
    ["optimize", "c17", "--clock", "nan"],
    ["optimize", "c17", "--clock", "-1"],
    ["atpg", "c17", "--period-fraction", "-1", "--faults", "2"],
    ["mc", "c17", "--period", "nan", "--samples", "4"],
    ["mc", "c17", "--period", "0", "--samples", "4",
     "--corners", "typ,slow"],
])
def test_bad_clock_or_period_exits_2(argv, capsys, monkeypatch):
    """Refused in the argument checks, before any analysis runs."""
    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran before the argument checks")

    monkeypatch.setattr(repro.cli, "run_mc", analysis)
    monkeypatch.setattr(repro.cli, "CrosstalkAtpg", analysis)
    monkeypatch.setattr(repro.cli, "TimingAnalyzer", analysis)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite and > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["mc", "c17", "--sigma", "nan", "--samples", "4"],
    ["mc", "c17", "--sigma-corr", "inf", "--samples", "4"],
    ["mc", "c17", "--sigma-ind", "-0.1", "--samples", "4"],
    ["atpg", "c432s", "--backtrack-limit", "-1", "--faults", "3"],
])
def test_negative_or_non_finite_sigma_or_limit_exits_2(argv, capsys,
                                                       monkeypatch):
    """A sigma or backtrack limit that is not finite and >= 0 is refused
    by its flag's name, before any analysis runs."""
    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran before the argument checks")

    monkeypatch.setattr(repro.cli, "run_mc", analysis)
    monkeypatch.setattr(repro.cli, "CrosstalkAtpg", analysis)
    monkeypatch.setattr(repro.cli, "generate_fault_list", analysis)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[2]} must be finite and >= 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("sigmas", [
    {"sigma_corr": math.nan}, {"sigma_ind": math.inf}, {"sigma_ind": -0.1},
])
def test_variation_sigmas_must_be_finite_and_non_negative(sigmas):
    name, value = next(iter(sigmas.items()))
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        VariationModel(**sigmas)
    VariationModel(sigma_corr=0.0, sigma_ind=0.0)


def test_backtrack_limit_must_be_non_negative():
    with pytest.raises(ValueError, match="backtrack_limit must be >= 0"):
        AtpgConfig(backtrack_limit=-1)
    AtpgConfig(backtrack_limit=0)


@pytest.mark.parametrize("payload", [
    {"method": "mc", "params": {"sigma_corr": math.nan}},
    {"method": "mc", "params": {"sigma_ind": math.inf}},
    {"method": "windows", "timeout_s": math.nan},
    {"method": "windows", "timeout_s": math.inf},
])
def test_served_non_finite_numbers_are_bad_requests(payload):
    """The daemon parses bodies with ``json.loads``, which takes ``NaN``
    and ``Infinity``; the request normalizers refuse both."""
    with pytest.raises(ServerError) as err:
        validate_request({"circuit": "c17", **payload})
    assert err.value.code == "bad_request"
    assert "must be finite" in str(err.value)


@pytest.mark.parametrize("argv", [
    ["report", "c17", "--worst", "-1"],
    ["report", "c17", "--worst", "0"],
    ["sta", "c17", "--max-outputs", "-1"],
    ["sta", "c17", "--max-outputs", "0", "--corners", "typ,slow"],
    ["mc", "c17", "--max-outputs", "-1", "--samples", "4"],
    ["atpg", "c17", "--faults", "0"],
    ["atpg", "c17", "--faults", "-1"],
])
def test_row_count_below_one_exits_2(argv, capsys, monkeypatch):
    """A table row count below 1 would silently drop rows (a negative
    slice end), and a fault count below 1 leaves ATPG an empty list; each
    is refused before any analysis runs."""
    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran before the argument checks")

    monkeypatch.setattr(repro.cli, "run_mc", analysis)
    monkeypatch.setattr(repro.cli, "TimingAnalyzer", analysis)
    monkeypatch.setattr(repro.cli, "_corner_set", analysis)
    monkeypatch.setattr(repro.cli, "CrosstalkAtpg", analysis)
    monkeypatch.setattr(repro.cli, "generate_fault_list", analysis)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[2]} must be finite and > 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, rule", [
    (["optimize", "c17", "--passes", "-1"], "--passes", ">= 0"),
    (["optimize", "c17", "--gates-per-pass", "0"], "--gates-per-pass",
     "> 0"),
    (["optimize", "c17", "--anneal", "-3"], "--anneal", ">= 0"),
    (["mc", "c17", "--samples", "4", "--jobs", "0"], "--jobs", "> 0"),
    (["mc", "c17", "--samples", "4", "--jobs", "-2"], "--jobs", "> 0"),
    (["atpg", "c17", "--jobs", "0"], "--jobs", "> 0"),
    (["fuzz", "--cases", "2", "--jobs", "0"], "--jobs", "> 0"),
])
def test_bad_pass_step_or_worker_count_exits_2(argv, flag, rule, capsys,
                                               monkeypatch):
    """A negative pass or anneal-step count, fewer than one gate per pass
    or fewer than one worker is refused by its flag's name before any
    analysis runs (these runs used to go ahead, sizing nothing or
    running serially)."""
    def analysis(*args, **kwargs):
        raise AssertionError("an analysis ran before the argument checks")

    from repro.sta import optimize

    monkeypatch.setattr(optimize, "optimize_sizing", analysis)
    monkeypatch.setattr(repro.cli, "run_mc", analysis)
    monkeypatch.setattr(repro.cli, "CrosstalkAtpg", analysis)
    monkeypatch.setattr(repro.cli, "generate_fault_list", analysis)
    monkeypatch.setattr(repro.cli, "run_fuzz", analysis)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be finite and {rule}"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("max_passes", -1, "max_passes must be >= 0, got -1"),
    ("anneal_steps", -3, "anneal_steps must be >= 0, got -3"),
    ("gates_per_pass", 0, "gates_per_pass must be >= 1, got 0"),
    ("anneal_batch", 0, "anneal_batch must be >= 1, got 0"),
    ("min_gain", math.nan, "min_gain must be finite, got nan"),
    ("min_gain", -math.inf, "min_gain must be finite, got -inf"),
    ("anneal_temp", math.nan, "anneal_temp must be finite and > 0"),
    ("anneal_temp", 0.0, "anneal_temp must be finite and > 0, got 0.0"),
    ("anneal_decay", -1.0, "anneal_decay must be finite and > 0, got -1.0"),
    ("anneal_decay", math.inf, "anneal_decay must be finite and > 0"),
])
def test_sizing_counts_and_annealing_knobs_are_checked(field, value,
                                                      message):
    """:class:`SizingConfig` refuses what the sizing loop cannot run
    (``anneal_batch=0`` used to fail deep inside ``try_edits``) and the
    non-finite gains and temperatures it used to accept."""
    with pytest.raises(ValueError) as info:
        SizingConfig(**{field: value})
    assert message in str(info.value)
    SizingConfig(max_passes=0, anneal_steps=0, gates_per_pass=1,
                 anneal_batch=1, min_gain=0.0, anneal_temp=None)


@pytest.mark.parametrize("v1", ["22222", "0a010"])
def test_sim_vectors_must_be_bits(v1, capsys):
    assert main(["sim", "c17", v1, "00000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vectors must be strings of 0 and 1 bits")
    assert "Traceback" not in err


@pytest.mark.parametrize("values", [(2, 0), (0, -1), ("1", 0)])
def test_pi_stimulus_takes_logic_values_only(values):
    from repro.sta.simulate import PiStimulus

    with pytest.raises(ValueError, match="logic values must be 0 or 1"):
        PiStimulus(*values)


@pytest.mark.parametrize("method,field", [
    ("slack", "clock_ns"), ("whatif", "clock_ns"), ("mc", "period_ns"),
])
@pytest.mark.parametrize("value", BAD_TIMES)
def test_served_clock_and_period_are_bad_requests(method, field, value):
    params = {field: value}
    if method == "whatif":
        params["edits"] = [{"op": "resize", "line": "G10", "value": 2.0}]
    with pytest.raises(ServerError) as err:
        validate_request({"circuit": "c17", "method": method,
                          "params": params})
    assert err.value.code == "bad_request"
    assert field in str(err.value)

"""Tests for the command-line interface."""

import json
import logging

import pytest

from repro.cli import build_parser, main
from repro.obs import get_registry


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sta_defaults(self):
        args = build_parser().parse_args(["sta", "c17"])
        assert args.circuit == "c17"
        assert args.max_outputs == 8

    def test_atpg_flags(self):
        args = build_parser().parse_args(
            ["atpg", "c432s", "--no-itr", "--faults", "5"]
        )
        assert args.itr is False
        assert args.faults == 5

    def test_no_spice_check_flag(self):
        args = build_parser().parse_args(["atpg", "c17", "--no-spice-check"])
        assert args.spice_check == 0

    def test_global_flags_accepted_on_both_sides(self):
        before = build_parser().parse_args(["--stats", "bench"])
        after = build_parser().parse_args(["bench", "--stats"])
        assert getattr(before, "stats", False)
        assert getattr(after, "stats", False)
        # Unset global flags stay absent (argparse.SUPPRESS defaults).
        plain = build_parser().parse_args(["bench"])
        assert not hasattr(plain, "stats")

    def test_verbose_counts(self):
        args = build_parser().parse_args(["-vv", "sta", "c17"])
        assert args.verbose == 2

    def test_characterize_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.cells is None
        assert args.jobs is None
        assert args.cache is True
        assert args.force is False

    def test_characterize_flags(self):
        args = build_parser().parse_args([
            "characterize", "--cells", "inv,nand2", "--jobs", "4",
            "--no-cache", "--force", "--t-grid", "0.2,0.6",
        ])
        assert args.cells == "inv,nand2"
        assert args.jobs == 4
        assert args.cache is False
        assert args.force is True
        assert args.t_grid == "0.2,0.6"

    def test_cell_spec_parsing(self):
        from repro.cli import _parse_cells

        assert _parse_cells("inv,nand2,nor3") == (
            ("inv", 1), ("nand", 2), ("nor", 3),
        )
        assert _parse_cells("buf") == (("buf", 1),)
        assert _parse_cells("xor") == (("xor", 2),)
        with pytest.raises(ValueError):
            _parse_cells("frob2")
        with pytest.raises(ValueError):
            _parse_cells("")


class TestCommands:
    def test_bench_lists_circuits(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "c17" in out
        assert "c7552s" in out

    def test_sta_on_c17(self, capsys):
        assert main(["sta", "c17"]) == 0
        out = capsys.readouterr().out
        assert "min-delay proposed" in out
        assert "ratio" in out

    def test_sta_on_bench_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.bench"
        path.write_text(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n"
        )
        assert main(["sta", str(path)]) == 0
        out = capsys.readouterr().out
        assert "z" in out

    def test_sim_prints_events(self, capsys):
        assert main(["sim", "c17", "11111", "01111"]) == 0
        out = capsys.readouterr().out
        assert "(static)" in out
        assert "G22" in out

    def test_sim_rejects_wrong_vector_length(self, capsys):
        assert main(["sim", "c17", "111", "000"]) == 2
        err = capsys.readouterr().err
        assert "5 bits" in err

    def test_atpg_compare_runs(self, capsys):
        code = main([
            "atpg", "c17", "--faults", "2", "--compare",
            "--backtrack-limit", "4", "--no-spice-check",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "with ITR" in out
        assert "no ITR" in out
        assert "efficiency" in out


#: Every subcommand that loads one circuit, with its other required
#: arguments after the circuit.
CIRCUIT_COMMANDS = {
    "sta": [], "optimize": [], "mc": [], "sim": ["0", "1"],
    "atpg": [], "report": [],
}

#: (file text or None for a missing file, expected message fragment).
BAD_CIRCUITS = {
    "missing": (None, "missing.bench"),
    "unparsable": ("INPUT(a)\nOUTPUT(y)\ny := NAND a\n", "cannot parse"),
    "cycle": (
        "INPUT(a)\nOUTPUT(y)\nx = NAND(a, y)\ny = NAND(a, x)\n",
        "combinational cycle",
    ),
}


@pytest.mark.parametrize("bad", sorted(BAD_CIRCUITS))
@pytest.mark.parametrize("command", sorted(CIRCUIT_COMMANDS))
def test_bad_circuit_is_a_structured_error(command, bad, capsys, tmp_path):
    """A missing file, an unparsable line or a cyclic netlist prints
    ``error: ...`` and exits 2 on every circuit subcommand."""
    text, fragment = BAD_CIRCUITS[bad]
    path = tmp_path / "missing.bench"
    if text is not None:
        path.write_text(text)
    code = main([command, str(path), *CIRCUIT_COMMANDS[command]])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and fragment in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", sorted(CIRCUIT_COMMANDS))
@pytest.mark.parametrize("spec", [
    "{tmp}/nope/missing.bench", "{tmp}/missing", "missing.bench",
])
def test_missing_circuit_file_names_the_path(command, spec, capsys,
                                              tmp_path):
    """A spec with a ``.bench`` suffix or a directory part that names no
    file is reported as a missing file, not as a packaged name."""
    spec = spec.format(tmp=tmp_path)
    code = main([command, spec, *CIRCUIT_COMMANDS[command]])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: no such circuit file: {spec}\n", err


def test_unknown_bare_name_is_a_packaged_lookup(capsys):
    assert main(["sta", "c99999"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no packaged benchmark named 'c99999'"), err


@pytest.mark.parametrize("argv, fragment", [
    (["--sizes", "0"], "got 0.0"),
    (["--sizes", "1.0,nan"], "got nan"),
    (["--sizes", "inf"], "got inf"),
    (["--cost", "mc_q95", "--mc-samples", "0"], "mc_samples must be > 0"),
])
def test_optimize_rejects_bad_sizing_config(argv, fragment, capsys):
    assert main(["optimize", "c17", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err, err


class TestMcCommand:
    def test_mc_parser_defaults(self):
        args = build_parser().parse_args(["mc", "c17"])
        assert args.samples == 256
        assert args.seed == 0
        assert args.jobs == 1
        assert args.model == "vshape"
        assert args.quantiles == "0.5,0.95,0.99"

    def test_mc_on_c17_writes_summary(self, capsys, tmp_path):
        out_path = tmp_path / "mc.json"
        code = main([
            "mc", "c17", "--samples", "32", "--seed", "7", "--block", "16",
            "--sigma", "0.08", "--json", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "monte carlo [vshape]" in out
        assert "criticality" in out
        summary = json.loads(out_path.read_text())
        assert summary["samples"] == 32
        assert summary["seed"] == 7
        q = {float(k): v for k, v in summary["quantiles_s"].items()}
        assert q[0.5] <= q[0.95] <= q[0.99]

    def test_mc_rejects_bad_quantiles(self, capsys):
        assert main(["mc", "c17", "--quantiles", "1.5"]) == 2
        assert "quantiles" in capsys.readouterr().err

    def test_mc_rejects_negative_sigma(self, capsys):
        assert main(["mc", "c17", "--sigma", "-0.1"]) == 2

    def test_mc_sigma_overrides(self):
        args = build_parser().parse_args([
            "mc", "c17", "--sigma", "0.2", "--sigma-ind", "0.01",
        ])
        assert args.sigma == 0.2
        assert args.sigma_corr is None
        assert args.sigma_ind == 0.01


class TestCornerFlags:
    def test_sta_multi_corner_table(self, capsys):
        assert main(["sta", "c17", "--corners", "typ,slow"]) == 0
        out = capsys.readouterr().out
        assert "corner" in out
        assert "slow" in out
        assert "merged" in out

    def test_sta_rejects_bad_corner_spec(self, capsys):
        assert main(["sta", "c17", "--corners", "typ:bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_sta_corner_library_subset(self, capsys, tmp_path):
        from repro.characterize import CellLibrary
        from repro.pvt import STANDARD_CORNERS, CornerLibrary

        path = tmp_path / "corners.json"
        CornerLibrary.derived(
            CellLibrary.load_default(),
            [STANDARD_CORNERS["typ"], STANDARD_CORNERS["slow"]],
        ).save(path)
        assert main([
            "sta", "c17", "--corner-library", str(path),
            "--corners", "slow",
        ]) == 0
        out = capsys.readouterr().out
        assert "slow" in out

    def test_sta_rejects_unknown_library_corner(self, capsys, tmp_path):
        from repro.characterize import CellLibrary
        from repro.pvt import STANDARD_CORNERS, CornerLibrary

        path = tmp_path / "corners.json"
        CornerLibrary.derived(
            CellLibrary.load_default(), [STANDARD_CORNERS["typ"]]
        ).save(path)
        assert main([
            "sta", "c17", "--corner-library", str(path),
            "--corners", "nope",
        ]) == 2

    def test_mc_multi_corner_summary(self, capsys, tmp_path):
        out_path = tmp_path / "mc_corners.json"
        code = main([
            "mc", "c17", "--samples", "16", "--block", "8",
            "--corners", "typ,slow", "--json", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "slow" in out
        summary = json.loads(out_path.read_text())
        assert set(summary["corners"]) == {"typ", "slow"}

    def test_characterize_corners_parser(self):
        args = build_parser().parse_args([
            "characterize", "--corners", "typ,slow", "--cells", "INV",
        ])
        assert args.corners == "typ,slow"


class TestCharacterizeCommand:
    ARGS = [
        "characterize", "--cells", "inv",
        "--t-grid", "0.15,0.4,0.9", "--pair-t-grid", "0.2,0.5,1.0",
        "--skews-per-side", "3", "--jobs", "1",
    ]

    def test_characterize_builds_and_caches(self, tmp_path, capsys):
        from repro.characterize import CellLibrary
        from repro.obs import snapshot_from_trace, read_trace

        out = tmp_path / "lib" / "tiny.json"  # parent dir created by save
        cache = tmp_path / "cache"
        trace1 = tmp_path / "cold.jsonl"
        argv = self.ARGS + [
            "--out", str(out), "--cache-dir", str(cache),
        ]
        assert main(argv + ["--trace-json", str(trace1)]) == 0
        assert "wrote" in capsys.readouterr().out
        library = CellLibrary.load(out)
        assert "INV" in library
        assert library.meta["jobs"] == 1
        assert "build_seconds" in library.meta
        cold = snapshot_from_trace(read_trace(trace1))
        assert cold["counters"]["characterize.simulations"] > 0
        assert cold["counters"]["characterize.cache.misses"] > 0

        # Warm re-run: every sweep served from cache, zero simulations.
        trace2 = tmp_path / "warm.jsonl"
        assert main(argv + ["--trace-json", str(trace2)]) == 0
        warm = snapshot_from_trace(read_trace(trace2))
        assert warm["counters"].get("characterize.simulations", 0) == 0
        assert warm["counters"]["characterize.cache.hits"] > 0

    def test_characterize_rejects_bad_cells(self, tmp_path, capsys):
        assert main([
            "characterize", "--cells", "frobnicator",
            "--out", str(tmp_path / "x.json"),
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestInstrumentationFlags:
    def test_stats_prints_metrics_summary(self, capsys):
        code = main([
            "atpg", "c17", "--faults", "2", "--stats", "--no-spice-check",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "atpg.decisions" in out
        assert "itr.refinements" in out
        # The CLI restores the disabled registry after the command.
        assert not get_registry().enabled

    def test_stats_includes_spice_counters_with_check(self, capsys):
        code = main(["atpg", "c17", "--faults", "4", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spice.newton_iterations" in out
        assert "spice check" in out

    def test_trace_json_emits_parseable_lines(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "atpg", "c17", "--faults", "2", "--no-spice-check",
            "--trace-json", str(trace),
        ])
        assert code == 0
        events = [
            json.loads(line)
            for line in trace.read_text().strip().splitlines()
        ]
        assert events[0]["type"] == "meta"
        kinds = {e["type"] for e in events}
        assert "counter" in kinds
        assert "span" in kinds
        names = {e.get("name") for e in events}
        assert "atpg.decisions" in names
        assert "cli.atpg" in names

    def test_verbose_enables_info_logging(self, capsys):
        code = main([
            "-v", "atpg", "c17", "--faults", "2", "--no-spice-check",
        ])
        assert code == 0
        # -v routes effort diagnostics through logging (stderr handler).
        captured = capsys.readouterr()
        assert "effort: decisions=" in captured.err
        logging.basicConfig(level=logging.WARNING, force=True)

    def test_quiet_by_default(self, capsys):
        code = main([
            "atpg", "c17", "--faults", "2", "--no-spice-check",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "effort:" not in captured.out
        assert "effort:" not in captured.err
        logging.basicConfig(level=logging.WARNING, force=True)


class TestObsCommand:
    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "atpg-trace.jsonl"
        assert main([
            "atpg", "c17", "--faults", "2", "--no-spice-check",
            "--trace-json", str(path),
        ]) == 0
        return path

    def test_obs_parser(self):
        args = build_parser().parse_args(["obs", "show", "t.jsonl"])
        assert args.action == "show"
        assert args.trace == "t.jsonl"
        assert args.top == 10
        args = build_parser().parse_args(
            ["obs", "diff", "a.jsonl", "b.jsonl"]
        )
        assert args.other == "b.jsonl"

    def test_show_prints_manifest_metrics_profile(self, trace, capsys):
        capsys.readouterr()
        assert main(["obs", "show", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "run manifest:" in out
        assert "repro-sta atpg" in out
        assert "== metrics ==" in out
        assert "atpg.decisions" in out
        assert "self-time profile" in out
        assert "cli.atpg" in out

    def test_prom_exposition(self, trace, capsys):
        capsys.readouterr()
        assert main(["obs", "prom", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_atpg_decisions_total counter" in out
        assert "# TYPE repro_sta_window_width_s summary" in out
        assert 'repro_sta_window_width_s{quantile="0.5"}' in out

    def test_export_chrome_default_path(self, trace, capsys):
        capsys.readouterr()
        assert main(["obs", "export-chrome", str(trace)]) == 0
        out_path = trace.with_suffix(".chrome.json")
        assert "perfetto" in capsys.readouterr().out.lower()
        chrome = json.loads(out_path.read_text())
        assert chrome["metadata"]["run_manifest"]["command"] == (
            "repro-sta atpg"
        )
        names = [e["name"] for e in chrome["traceEvents"]
                 if e["ph"] == "X"]
        assert "cli.atpg" in names

    def test_diff_of_identical_traces(self, trace, capsys):
        capsys.readouterr()
        assert main(["obs", "diff", str(trace), str(trace)]) == 0
        assert "metric-identical" in capsys.readouterr().out

    def test_diff_of_different_runs(self, trace, tmp_path, capsys):
        other = tmp_path / "bigger.jsonl"
        assert main([
            "atpg", "c17", "--faults", "4", "--no-spice-check",
            "--trace-json", str(other),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(trace), str(other)]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "atpg.faults: 2 -> 4  (+2)" in out
        assert "manifest:" in out  # --faults differs in args

    def test_diff_requires_second_trace(self, trace, capsys):
        assert main(["obs", "diff", str(trace)]) == 2
        assert "two trace files" in capsys.readouterr().err

    def test_unreadable_trace_errors(self, tmp_path, capsys):
        assert main(["obs", "show", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_unreadable_second_trace_errors(self, trace, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "diff", str(trace), str(missing)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_mc_json_embeds_run_manifest(self, tmp_path):
        out_path = tmp_path / "mc.json"
        assert main([
            "mc", "c17", "--samples", "16", "--seed", "3", "--block", "8",
            "--json", str(out_path),
        ]) == 0
        summary = json.loads(out_path.read_text())
        manifest = summary["run_manifest"]
        assert manifest["command"] == "repro-sta mc"
        assert manifest["seeds"] == [3]
        assert manifest["circuit"] == "c17"

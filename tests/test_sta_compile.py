"""Bit-parity and batching semantics of the level-compiled STA pass.

``repro.sta.compile`` promises the same contract as every other fast
path in this tree: **bit-identical** windows, on every line, in every
direction, against the gate-at-a-time walk
(``TimingAnalyzer.analyze_per_gate``, itself parity-locked to the
scalar reference by ``test_perf_parity``).  These tests hold the
compiled pass to it across circuits, delay models, boundary-scenario
batches, per-PI overrides, and the Monte Carlo sample axis.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro.circuit import load_packaged_bench, parse_bench
from repro.circuit.bench import packaged_bench_path
from repro.models import NonCtrlAwareModel, PinToPinModel, VShapeModel
from repro.sta import LevelCompiledAnalyzer
from repro.sta.analysis import PerfConfig, StaConfig, TimingAnalyzer
from repro.sta.windows import (
    DirWindow,
    LineRequired,
    LineTiming,
    RequiredWindow,
)
from repro.stat.engine import MonteCarloEngine
from tests.test_perf_parity import assert_results_equal

NS = 1e-9

MODELS = [VShapeModel, PinToPinModel, NonCtrlAwareModel]


@pytest.mark.parametrize("model_cls", MODELS)
@pytest.mark.parametrize("bench", ["c17", "c432s", "c880s"])
def test_level_pass_parity(bench, model_cls, library):
    """The compiled pass matches the per-gate walk bit for bit."""
    circuit = load_packaged_bench(bench)
    gate = TimingAnalyzer(circuit, library, model_cls()).analyze_per_gate()
    level = LevelCompiledAnalyzer(circuit, library, model_cls()).analyze()
    assert_results_equal(circuit, gate, level)


@pytest.mark.parametrize("model_cls", MODELS)
@pytest.mark.parametrize("bench", ["c5315s", "c7552s"])
def test_level_pass_parity_large(bench, model_cls, library):
    """Parity holds on the largest packaged circuits too."""
    circuit = load_packaged_bench(bench)
    gate = TimingAnalyzer(circuit, library, model_cls()).analyze_per_gate()
    level = LevelCompiledAnalyzer(circuit, library, model_cls()).analyze()
    assert_results_equal(circuit, gate, level)


def test_analyze_runs_the_compiled_pass(library, c880s):
    """analyze() is one compiled pass; the per-gate walk compiles nothing."""
    from repro.obs import MetricsRegistry, get_registry, set_registry

    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        passes = get_registry().counter("sta.compile.passes")
        analyzer = TimingAnalyzer(c880s, library)
        gate = analyzer.analyze_per_gate()
        assert passes.value == 0
        assert analyzer._level is None
        assert_results_equal(c880s, gate, analyzer.analyze())
        assert passes.value == 1
        # The compiled form is built once and reused across calls.
        compiled = analyzer._level
        assert compiled is not None
        assert_results_equal(c880s, gate, analyzer.analyze())
        assert analyzer._level is compiled
        assert passes.value == 2
    finally:
        set_registry(previous)


def test_engine_option_is_gone(library):
    """No switch back to a per-gate full pass is left to reach."""
    from repro.cli import main
    from repro.stat import run_mc

    circuit = load_packaged_bench("c17")
    with pytest.raises(TypeError):
        PerfConfig(engine="gate")
    with pytest.raises(TypeError):
        MonteCarloEngine(circuit, library, engine="gate")
    with pytest.raises(TypeError):
        run_mc(circuit, library, samples=2, engine="gate")
    for command in ("sta", "mc", "optimize"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "c17", "--engine", "gate"])
        assert exit_info.value.code == 2


def test_boundary_batch_matches_separate_analyses(library):
    """One batched pass over B scenarios == B single-scenario analyses."""
    circuit = load_packaged_bench("c432s")
    scenarios = [
        ((0.0, 0.0), (0.10 * NS, 0.10 * NS)),
        ((0.0, 0.45 * NS), (0.08 * NS, 0.30 * NS)),
        ((0.05 * NS, 0.20 * NS), (0.12 * NS, 0.18 * NS)),
        ((0.0, 1.0 * NS), (0.05 * NS, 0.50 * NS)),
    ]
    analyzer = LevelCompiledAnalyzer(circuit, library)
    batched = analyzer.analyze_boundaries(scenarios)
    assert len(batched) == len(scenarios)
    for scenario, result in zip(scenarios, batched):
        arrival, trans = scenario
        config = StaConfig(pi_arrival=arrival, pi_trans=trans)
        single = TimingAnalyzer(
            circuit, library, config=config
        ).analyze_per_gate()
        assert_results_equal(circuit, single, result)


def test_pi_override_parity(library, c880s):
    """Per-PI overrides flow through the compiled pass unchanged."""
    overrides = {
        c880s.inputs[0]: LineTiming(
            rise=DirWindow(0.0, 0.3 * NS, 0.1 * NS, 0.2 * NS),
            fall=DirWindow.impossible(),
        ),
        c880s.inputs[1]: LineTiming(
            rise=DirWindow.point(0.05 * NS, 0.12 * NS),
            fall=DirWindow.point(0.02 * NS, 0.15 * NS),
        ),
    }
    gate = TimingAnalyzer(c880s, library).analyze_per_gate(
        pi_overrides=overrides
    )
    level = LevelCompiledAnalyzer(c880s, library).analyze(
        pi_overrides=overrides
    )
    assert_results_equal(c880s, gate, level)


def test_propagate_rejects_bad_batch_inputs(library):
    circuit = load_packaged_bench("c17")
    analyzer = LevelCompiledAnalyzer(circuit, library)
    n = analyzer.compiled.n_gates
    with pytest.raises(ValueError, match="mutually exclusive"):
        analyzer.propagate(
            factors=np.ones((n, 2)),
            boundaries=[((0.0, 0.0), (0.1 * NS, 0.1 * NS))],
        )
    with pytest.raises(ValueError, match="factor rows"):
        analyzer.propagate(factors=np.ones((n + 1, 2)))
    with pytest.raises(ValueError, match="boundary"):
        analyzer.propagate(boundaries=[])


# ----------------------------------------------------------------------
# The backward pass: required times
# ----------------------------------------------------------------------
#: Every benchmark shipped in the package.
PACKAGED = sorted(
    path.stem for path in packaged_bench_path("c17").parent.glob("*.bench")
)


def _clocks(circuit, result):
    """Backward-pass boundary conditions: the default clock, a
    setup+hold clock derived from the pass, and explicit per-output
    requirements that differ by output and direction."""
    late = result.output_max_arrival()
    early = result.output_min_arrival()
    explicit = {
        po: LineRequired(
            rise=RequiredWindow(
                early * (i % 3) / 2, late * (0.7 + 0.05 * (i % 5))
            ),
            fall=RequiredWindow(-math.inf, late * (0.75 + 0.05 * (i % 4))),
        )
        for i, po in enumerate(circuit.outputs)
    }
    return {
        "default clock": {},
        "setup+hold clock": {"setup_time": 0.9 * late, "hold_time": early},
        "explicit po_required": {"po_required": explicit},
    }


def assert_required_equal(circuit, got, want, label=""):
    assert got.keys() == want.keys()
    for line in circuit.lines:
        for direction in ("rise", "fall"):
            g = getattr(got[line], direction)
            w = getattr(want[line], direction)
            where = f"{label} {line}.{direction}"
            assert g.q_s == w.q_s, where
            assert g.q_l == w.q_l, where


@pytest.mark.parametrize("model_cls", MODELS)
@pytest.mark.parametrize("bench", PACKAGED)
def test_required_parity(bench, model_cls, library):
    """The compiled backward pass matches the per-gate walk bit for bit."""
    circuit = load_packaged_bench(bench)
    analyzer = TimingAnalyzer(circuit, library, model_cls())
    result = analyzer.analyze()
    for label, clock in _clocks(circuit, result).items():
        assert_required_equal(
            circuit,
            analyzer.compute_required(result, **clock),
            analyzer.compute_required_per_gate(result, **clock),
            label,
        )


@pytest.mark.parametrize("model_cls", MODELS)
def test_required_parity_on_a_line_read_twice(model_cls, library):
    """Both pins of NAND(a, a) bound ``a``: the scatter keeps both."""
    circuit = parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(g)\nOUTPUT(h)\n"
        "g = NAND(a, a)\nh = NAND(a, b)\n",
        name="double_read",
    )
    analyzer = TimingAnalyzer(circuit, library, model_cls())
    result = analyzer.analyze()
    for label, clock in _clocks(circuit, result).items():
        assert_required_equal(
            circuit,
            analyzer.compute_required(result, **clock),
            analyzer.compute_required_per_gate(result, **clock),
            label,
        )


def test_required_reads_the_given_windows(library, c880s):
    """Windows come from the caller's result (here a per-gate walk under
    PI overrides), and the backward pass is no forward pass."""
    from repro.obs import MetricsRegistry, get_registry, set_registry

    overrides = {
        c880s.inputs[0]: LineTiming(
            rise=DirWindow(0.0, 0.3 * NS, 0.1 * NS, 0.2 * NS),
            fall=DirWindow.impossible(),
        ),
    }
    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        registry = get_registry()
        analyzer = TimingAnalyzer(c880s, library)
        result = analyzer.analyze_per_gate(pi_overrides=overrides)
        got = analyzer.compute_required(result)
        assert registry.counter("sta.compile.passes").value == 0
        assert registry.histogram("sta.backward_s").count == 1
    finally:
        set_registry(previous)
    assert_required_equal(
        c880s, got, analyzer.compute_required_per_gate(result)
    )


@pytest.mark.parametrize("model_cls", [VShapeModel, NonCtrlAwareModel])
def test_mc_level_engine_bitwise(model_cls, library):
    """MC blocks through the compiled pass equal the per-gate mirror."""
    circuit = load_packaged_bench("c432s")
    engine = MonteCarloEngine(circuit, library, model_cls())
    rng = np.random.default_rng(5)
    factors = 1.0 + 0.08 * rng.standard_normal((engine.n_gates, 7))
    wg = engine.propagate_per_gate(factors)
    wl = engine.propagate(factors)
    for line in circuit.lines:
        for direction in range(2):
            a, b = wg[line][direction], wl[line][direction]
            assert a.state == b.state, f"{line}[{direction}]"
            if not a.is_active:
                continue
            for field in ("a_s", "a_l", "t_s", "t_l"):
                assert np.array_equal(
                    getattr(a, field), getattr(b, field)
                ), f"{line}[{direction}].{field}"


def test_run_mc_engine_invariance(library):
    """run_mc equals the per-gate mirror run block by block."""
    from repro.stat import VariationModel, plan_blocks, run_mc

    circuit = load_packaged_bench("c432s")
    samples, seed, block = 24, 9, 8
    level = run_mc(circuit, library, samples=samples, seed=seed, block=block)
    engine = MonteCarloEngine(circuit, library)
    variation = VariationModel()
    pieces = [
        engine.po_extremes(engine.propagate_per_gate(
            variation.factors_for_block(
                seed, start, engine.cell_index, len(engine.cell_names), size
            )
        ))
        for start, size in plan_blocks(samples, block)
    ]
    assert np.array_equal(
        np.concatenate([p[0] for p in pieces], axis=1), level.po_max
    )
    assert np.array_equal(
        np.concatenate([p[1] for p in pieces], axis=1), level.po_min
    )


def test_level_counters_account_per_gate(library):
    """The compiled pass books one evaluation per gate per pass."""
    from repro.obs import MetricsRegistry, get_registry, set_registry

    circuit = load_packaged_bench("c432s")
    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        registry = get_registry()
        analyzer = LevelCompiledAnalyzer(circuit, library)
        n_gates = analyzer.compiled.n_gates
        analyzer.analyze()
        assert registry.counter("sta.gates_evaluated").value == n_gates
        assert registry.counter("sta.corner_calls").value == 2 * n_gates
        assert registry.counter("sta.compile.passes").value == 1
        assert registry.counter("sta.compile.columns").value == 1
        # A 5-column batch is still one pass of per-gate work.
        analyzer.analyze_boundaries(
            [((0.0, 0.0), (0.1 * NS, 0.1 * NS))] * 5
        )
        assert registry.counter("sta.gates_evaluated").value == 2 * n_gates
        assert registry.counter("sta.corner_calls").value == 4 * n_gates
        assert registry.counter("sta.compile.passes").value == 2
        assert registry.counter("sta.compile.columns").value == 6
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# Compiled coefficients, leaf by leaf
# ----------------------------------------------------------------------
def _group_leaves(obj, path=""):
    """Every (path, leaf) of one compiled group tree."""
    if isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _group_leaves(item, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            if field.name != "version":  # patch counter, not a coefficient
                yield from _group_leaves(
                    getattr(obj, field.name), f"{path}.{field.name}"
                )
    else:
        yield path, obj


def _compiled_leaves(compiled):
    """{path: leaf} over every group of every level."""
    return {
        f"L{li}G{gi}{path}": leaf
        for li, level in enumerate(compiled.levels)
        for gi, group in enumerate(level)
        for path, leaf in _group_leaves(group)
    }


def _assert_same_leaf(path, got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), path
        assert got.shape == want.shape and got.dtype == want.dtype, path
        assert np.ascontiguousarray(got).tobytes() == (
            np.ascontiguousarray(want).tobytes()
        ), path
    else:
        assert got == want, path


@pytest.mark.parametrize("model_cls", [VShapeModel, NonCtrlAwareModel])
@pytest.mark.parametrize("edit", ["resize", "swap"])
def test_patched_compile_equals_fresh_compile(edit, model_cls, library):
    """An in-place patch leaves every leaf as a recompile would, rows too."""
    from repro.sta import IncrementalAnalyzer
    from repro.sta.compile import CompiledCircuit

    circuit = load_packaged_bench("c432s")
    incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library, model_cls()))
    incr.analyze()
    compiled = incr.analyzer._level.compiled
    line = next(
        g for g in sorted(circuit.gates)
        if circuit.gates[g].cell_name() == "NAND2"
    )
    if edit == "resize":
        circuit.resize_gate(line, 2.0)
    else:
        circuit.swap_cell(line, "nor")  # same shape key, new polarity
    incr.retime()
    assert incr.analyzer._level.compiled is compiled  # patched, not rebuilt
    fresh = CompiledCircuit(circuit, library, model_cls(), StaConfig())
    got, want = _compiled_leaves(compiled), _compiled_leaves(fresh)
    assert got.keys() == want.keys()
    for path in want:
        _assert_same_leaf(path, got[path], want[path])


@pytest.mark.parametrize("model_cls", MODELS)
def test_corner_compile_repeats_single_library_columns(model_cls, library):
    """Four copies of one library compile to four equal corner columns."""
    from repro.sta.compile import CompiledCircuit

    circuit = load_packaged_bench("c880s")
    single = _compiled_leaves(
        CompiledCircuit(circuit, library, model_cls(), StaConfig())
    )
    copies = [copy.deepcopy(library) for _ in range(4)]
    multi = _compiled_leaves(
        CompiledCircuit(circuit, copies, model_cls(), StaConfig())
    )
    assert multi.keys() == single.keys()
    for path, one in single.items():
        four = multi[path]
        if isinstance(one, np.ndarray) and one.dtype.kind == "f":
            assert four.shape == one.shape[:-1] + (4,), path
            for c in range(4):
                _assert_same_leaf(f"{path}[{c}]", four[..., c], one[..., 0])
        else:
            _assert_same_leaf(path, four, one)


@pytest.mark.parametrize("model_cls", MODELS)
def test_rows_and_load_terms_match_scalar_reference(model_cls, library):
    """Vectorized rows and load adjustments equal the per-gate scalars."""
    from repro.sta.analysis import compute_loads
    from repro.sta.compile import CompiledCircuit
    from repro.sta.kernels import KernelContext

    circuit = load_packaged_bench("c880s")
    cc = CompiledCircuit(circuit, library, model_cls(), StaConfig())
    loads = compute_loads(circuit, library, StaConfig())
    ctx = KernelContext()
    for line, (group, col, key) in cc._locs.items():
        gate = circuit.gates[line]
        cell = library.cell(gate.cell_name())
        load = loads[line]
        terms = []
        if key[0] == "ctrl":
            ctrl_in = cell.controlling_value == 1
            out = cell.ctrl.out_rising
            for pin, src in enumerate(gate.inputs):
                assert group.ctrl_rows[pin, col] == cc.row(src, ctrl_in)
                assert group.nonctrl_rows[pin, col] == cc.row(src, not ctrl_in)
            assert group.out_ctrl[col] == cc.row(line, out)
            assert group.out_nonctrl[col] == cc.row(line, not out)
            terms += [
                (group.d_adj_c, cell.load_adjusted_delay(out, load)),
                (group.r_adj_c, cell.load_adjusted_trans(out, load)),
                (group.d_adj_n, cell.load_adjusted_delay(not out, load)),
                (group.r_adj_n, cell.load_adjusted_trans(not out, load)),
            ]
            if group.p_adj is not None:
                terms.append((group.p_adj, cell.load_adjusted_delay(
                    cell.nonctrl.out_rising, load
                )))
        else:
            for d, out in zip(group.dirs, (True, False)):
                index, _ = ctx.fanin_pack(cell, out)
                for (pin, rising), arc in index.items():
                    src = gate.inputs[pin]
                    assert d.in_rows[arc, col] == cc.row(src, rising)
                assert d.out_rows[col] == cc.row(line, out)
                terms += [
                    (d.d_adj, cell.load_adjusted_delay(out, load)),
                    (d.r_adj, cell.load_adjusted_trans(out, load)),
                ]
        for leaf, want in terms:
            assert leaf[col, 0] == want, line

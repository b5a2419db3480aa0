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
    IMPOSSIBLE,
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
    """Every (path, leaf) of one compiled group tree, run counts too."""
    if isinstance(obj, dict):
        for key, item in obj.items():
            yield from _group_leaves(item, f"{path}[{key}]")
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


def _runs(group, col):
    """{axis: slice} of gate ``col``'s run on every axis of ``group``."""
    runs = {}
    for axis, counts in group.counts.items():
        first = int(counts[:col].sum())
        runs[axis] = slice(first, first + int(counts[col]))
    return runs


@pytest.mark.parametrize("model_cls", MODELS)
def test_rows_and_load_terms_match_scalar_reference(model_cls, library):
    """Vectorized rows and load adjustments equal the per-gate scalars on
    every lane (gate pin or arc), combo and Λ-peak element."""
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
        runs = _runs(group, col)
        lanes = runs["lane"]
        terms = []
        if key[0] == "ctrl":
            ctrl_in = cell.controlling_value == 1
            out = cell.ctrl.out_rising
            assert lanes.stop - lanes.start == gate.n_inputs, line
            for pin, src in enumerate(gate.inputs):
                lane = lanes.start + pin
                assert group.ctrl_rows[lane] == cc.row(src, ctrl_in)
                assert group.nonctrl_rows[lane] == cc.row(src, not ctrl_in)
            assert group.out_ctrl[col] == cc.row(line, out)
            assert group.out_nonctrl[col] == cc.row(line, not out)
            d_c = cell.load_adjusted_delay(out, load)
            r_c = cell.load_adjusted_trans(out, load)
            d_n = cell.load_adjusted_delay(not out, load)
            r_n = cell.load_adjusted_trans(not out, load)
            terms += [
                (group.d_adj_c[lanes], d_c),
                (group.r_adj_c[lanes], r_c),
                (group.d_adj_n[lanes], d_n),
                (group.r_adj_n[lanes], r_n),
            ]
            if group.shape is not None:
                # Combos read their gate's surfaces and lane load terms.
                combos = runs["combo"]
                assert (group.combo_gate[combos] == col).all(), line
                for lane in (group.ca[combos], group.cb[combos]):
                    assert lanes.start <= lane.min(), line
                    assert lane.max() < lanes.stop, line
            if key[2]:
                rank = runs["pgate"].start
                assert group.pgate[rank] == col, line
                assert (group.plane_gate[runs["plane"]] == rank).all()
                assert (group.pcombo_gate[runs["pcombo"]] == rank).all()
                p_adj = cell.load_adjusted_delay(cell.nonctrl.out_rising, load)
                terms.append((group.p_adj[runs["pgate"]], p_adj))
        else:
            lane = lanes.start
            segs = list(range(runs["seg"].start, runs["seg"].stop))
            for out in (True, False):
                index, _ = ctx.fanin_pack(cell, out)
                if not index:
                    empty = group.no_arc_rows[runs["noarc"]]
                    assert cc.row(line, out) in empty
                    continue
                seg = segs.pop(0)
                assert group.out_rows[seg] == cc.row(line, out)
                assert group.seg_n[seg] == len(index)
                for (pin, rising), arc in index.items():
                    src = gate.inputs[pin]
                    assert group.in_rows[lane + arc] == cc.row(src, rising)
                arcs = slice(lane, lane + len(index))
                terms += [
                    (group.d_adj[arcs], cell.load_adjusted_delay(out, load)),
                    (group.r_adj[arcs], cell.load_adjusted_trans(out, load)),
                ]
                lane += len(index)
            assert lane == lanes.stop and not segs, line
        for leaf, want in terms:
            assert leaf.size and (leaf[:, 0] == want).all(), line


# ----------------------------------------------------------------------
# The merged layout: one ctrl and one arc-table group per level
# ----------------------------------------------------------------------
#: One level holding every cell kind of the library at every fan-in, a
#: gate reading one line twice, and an OR of one line that is
#: IMPOSSIBLE in one direction under ``ONE_LEVEL_OVERRIDES``.
ONE_LEVEL_GATES = {
    "inv": "NOT(a)",
    "buf": "BUFF(b)",
    "xor": "XOR(a, c)",
    "n2": "NAND(a, b)",
    "n3": "NAND(b, c, d)",
    "n4": "NAND(a, c, d, e)",
    "n5": "NAND(a, b, c, d, e)",
    "r2": "NOR(c, d)",
    "r3": "NOR(a, d, f)",
    "r4": "NOR(b, c, e, f)",
    "r5": "NOR(a, b, d, e, f)",
    "a2": "AND(e, f)",
    "a3": "AND(a, b, f)",
    "a4": "AND(b, c, d, f)",
    "o2": "OR(a, f)",
    "o3": "OR(c, e, f)",
    "o4": "OR(a, b, c, d)",
    "dbl": "NAND(a, a)",
    "occ": "OR(c, c)",
}

#: c never falls, d never rises, f switches at a pinned (DEFINITE) time.
ONE_LEVEL_OVERRIDES = {
    "c": LineTiming(
        rise=DirWindow(0.0, 0.3 * NS, 0.1 * NS, 0.2 * NS),
        fall=DirWindow.impossible(),
    ),
    "d": LineTiming(
        rise=DirWindow.impossible(),
        fall=DirWindow(0.05 * NS, 0.25 * NS, 0.08 * NS, 0.3 * NS),
    ),
    "f": LineTiming(
        rise=DirWindow.point(0.1 * NS, 0.15 * NS),
        fall=DirWindow.point(0.12 * NS, 0.12 * NS),
    ),
}


def one_level_circuit():
    text = "".join(f"INPUT({pi})\n" for pi in "abcdef")
    text += "".join(f"OUTPUT({g})\n" for g in ONE_LEVEL_GATES)
    text += "".join(f"{g} = {e}\n" for g, e in ONE_LEVEL_GATES.items())
    return parse_bench(text, name="one_level")


def test_one_level_fixture_compiles_to_two_groups(library):
    from repro.sta.compile import _ArcGroup, _CtrlGroup

    circuit = one_level_circuit()
    assert set(circuit.levelize()[g] for g in ONE_LEVEL_GATES) == {1}
    compiled = LevelCompiledAnalyzer(
        circuit, library, NonCtrlAwareModel()
    ).compiled
    assert compiled.n_levels == 1 and compiled.n_groups == 2
    ctrl, arc = compiled.levels[0]
    assert isinstance(ctrl, _CtrlGroup) and isinstance(arc, _ArcGroup)
    assert ctrl.n_gates == 16 and arc.n_gates == 3
    # Fan-ins 2..5 share the lanes and pairs: no padding.
    fanins = [
        circuit.gates[g].n_inputs for g in ONE_LEVEL_GATES
        if g not in ("inv", "buf", "xor")
    ]
    assert len(ctrl.ctrl_rows) == sum(fanins)
    assert len(ctrl.pa) == sum(n * (n - 1) // 2 for n in fanins)
    # Peak lanes only for the gates whose cells carry peak data.
    peak = {
        line for line, (_, _, key) in compiled._locs.items()
        if key[0] == "ctrl" and key[2]
    }
    assert peak and len(ctrl.pgate) == len(peak) < ctrl.n_gates


@pytest.mark.parametrize("model_cls", MODELS)
def test_one_level_parity(model_cls, library):
    """Every batch kind over the merged level equals the per-gate walk."""
    from repro.pvt import STANDARD_CORNERS, CornerAnalyzer, scaled_library

    circuit = one_level_circuit()
    analyzer = LevelCompiledAnalyzer(circuit, library, model_cls())
    # One column, under PI overrides.
    assert_results_equal(
        circuit,
        TimingAnalyzer(circuit, library, model_cls()).analyze_per_gate(
            pi_overrides=ONE_LEVEL_OVERRIDES
        ),
        analyzer.analyze(pi_overrides=ONE_LEVEL_OVERRIDES),
    )
    # Boundary scenarios, overrides broadcast over every column.
    scenarios = [
        ((0.0, 0.0), (0.10 * NS, 0.10 * NS)),
        ((0.0, 0.45 * NS), (0.08 * NS, 0.30 * NS)),
        ((0.05 * NS, 0.20 * NS), (0.12 * NS, 0.18 * NS)),
    ]
    windows = analyzer.propagate(
        boundaries=scenarios, pi_overrides=ONE_LEVEL_OVERRIDES
    )
    for b, (arrival, trans) in enumerate(scenarios):
        config = StaConfig(pi_arrival=arrival, pi_trans=trans)
        assert_results_equal(
            circuit,
            TimingAnalyzer(
                circuit, library, model_cls(), config=config
            ).analyze_per_gate(pi_overrides=ONE_LEVEL_OVERRIDES),
            analyzer._extract(windows, b),
        )
    # Four corners with derates.
    corners = list(STANDARD_CORNERS.values())
    corner_analyzer = CornerAnalyzer(
        circuit, corners, [scaled_library(library, c) for c in corners],
        model=model_cls(),
    )
    for want, got in zip(
        corner_analyzer.analyze_per_gate().results,
        corner_analyzer.analyze().results,
    ):
        assert_results_equal(circuit, want, got)
    # Monte Carlo factor columns.
    engine = MonteCarloEngine(circuit, library, model_cls())
    factors = 1.0 + 0.08 * np.random.default_rng(3).standard_normal(
        (engine.n_gates, 5)
    )
    want, got = engine.propagate_per_gate(factors), engine.propagate(factors)
    for line in circuit.lines:
        for a, b in zip(want[line], got[line]):
            assert a.state == b.state, line
            if a.is_active:
                for field in ("a_s", "a_l", "t_s", "t_l"):
                    assert np.array_equal(
                        getattr(a, field), getattr(b, field)
                    ), (line, field)
    # Required times, from the per-gate windows under the overrides.
    timing = TimingAnalyzer(circuit, library, model_cls())
    result = timing.analyze_per_gate(pi_overrides=ONE_LEVEL_OVERRIDES)
    for label, clock in _clocks(circuit, result).items():
        assert_required_equal(
            circuit,
            timing.compute_required(result, **clock),
            timing.compute_required_per_gate(result, **clock),
            label,
        )


@pytest.mark.parametrize("bench", PACKAGED)
def test_every_level_is_at_most_one_ctrl_and_one_arc_group(bench, library):
    from repro.sta.compile import CompiledCircuit, _ArcGroup, _CtrlGroup

    compiled = CompiledCircuit(
        load_packaged_bench(bench), library, NonCtrlAwareModel(), StaConfig()
    )
    assert compiled.n_groups <= 2 * compiled.n_levels
    for level in compiled.levels:
        kinds = [type(group) for group in level]
        assert kinds in ([_CtrlGroup], [_ArcGroup], [_CtrlGroup, _ArcGroup])


def _subset_matches_full_pass(analyzer, group, cols, circuit, reference):
    """Run ``subset_group(group, cols)`` over a full pass whose rows of
    those gates were wiped; every line must come back as the reference."""
    from repro.sta.compile import subset_group

    windows = analyzer.propagate()
    sub = subset_group(group, cols)
    rows, owner = sub.outputs()
    assert sorted(set(owner.tolist())) == list(range(len(cols)))
    arrays = (windows.a_s, windows.a_l, windows.t_s, windows.t_l)
    for array in arrays:
        array[rows] = np.nan
    windows.states[rows] = IMPOSSIBLE
    analyzer.run_group(sub, arrays, windows.states)
    assert_results_equal(circuit, reference, analyzer._extract(windows, 0))


@pytest.mark.parametrize("model_cls", MODELS)
def test_column_subsets_of_merged_groups(model_cls, library):
    """Subsets mixing fan-ins, peak and non-peak gates, and arc gates
    recompute exactly their gates."""
    circuit = one_level_circuit()
    analyzer = LevelCompiledAnalyzer(circuit, library, model_cls())
    reference = TimingAnalyzer(
        circuit, library, model_cls()
    ).analyze_per_gate()
    ctrl, arc = analyzer.compiled.levels[0]
    for cols in ([0], [1, 4, 7], [2, 3, 14, 15], list(range(ctrl.n_gates))):
        _subset_matches_full_pass(analyzer, ctrl, cols, circuit, reference)
    for cols in ([1], [0, 2], [0, 1, 2]):
        _subset_matches_full_pass(analyzer, arc, cols, circuit, reference)
    # A deeper circuit: subsets of every level's groups.
    big = load_packaged_bench("c432s")
    analyzer = LevelCompiledAnalyzer(big, library, model_cls())
    reference = TimingAnalyzer(big, library, model_cls()).analyze_per_gate()
    for level in analyzer.compiled.levels:
        for group in level:
            cols = list(range(0, group.n_gates, 2))
            _subset_matches_full_pass(analyzer, group, cols, big, reference)


@pytest.mark.parametrize(
    "model_cls, edit",
    [
        (VShapeModel, ("resize", "n3", 2.0)),
        (VShapeModel, ("swap", "n2", "nor")),
        (NonCtrlAwareModel, ("swap", "n2", "nor")),
        (NonCtrlAwareModel, ("resize", "n2", 4.0)),
        (NonCtrlAwareModel, ("resize", "n4", 0.5)),
        (PinToPinModel, ("resize", "xor", 2.0)),
    ],
)
def test_patches_of_merged_groups_equal_a_fresh_compile(
    model_cls, edit, library
):
    """Patching one gate of a merged group — a NAND2 with peak data
    beside a NAND4 without — leaves every leaf as a recompile would,
    and subsets cut after the patch equal subsets of the fresh compile."""
    from repro.sta.analysis import compute_loads
    from repro.sta.compile import CompiledCircuit, subset_group

    circuit = one_level_circuit()
    analyzer = TimingAnalyzer(circuit, library, model_cls())
    analyzer.analyze()
    compiled = analyzer.level_engine().compiled
    op, line, value = edit
    before = compiled._locs[line][2]
    if op == "resize":
        circuit.resize_gate(line, value)
    else:
        circuit.swap_cell(line, value)
    assert compiled.can_patch(line)
    fresh = CompiledCircuit(circuit, library, model_cls(), StaConfig())
    loads = compute_loads(circuit, library, StaConfig())
    patched = {line} | {
        circuit.driver(src).output for src in circuit.gates[line].inputs
        if circuit.driver(src) is not None
    }
    for out in patched:
        compiled.patch_gate(out, loads[out])
    assert compiled._locs[line][2] == before
    got, want = _compiled_leaves(compiled), _compiled_leaves(fresh)
    assert got.keys() == want.keys()
    for path in want:
        _assert_same_leaf(path, got[path], want[path])
    for mine, theirs in zip(compiled.levels[0], fresh.levels[0]):
        cols = [0, 1, mine.n_gates - 1]
        a, b = subset_group(mine, cols), subset_group(theirs, cols)
        for (path, x), (_, y) in zip(_group_leaves(a), _group_leaves(b)):
            _assert_same_leaf(path, x, y)
    engine = analyzer.level_engine()
    assert engine.compiled is compiled
    assert_results_equal(
        circuit,
        TimingAnalyzer(circuit, library, model_cls()).analyze_per_gate(),
        engine.analyze(),
    )

"""Bit-parity and batching semantics of the level-compiled STA pass.

``repro.sta.compile`` promises the same contract as every other fast
path in this tree: **bit-identical** windows, on every line, in every
direction, against the gate-at-a-time walk
(``TimingAnalyzer.analyze_per_gate``, itself parity-locked to the
scalar reference by ``test_perf_parity``).  These tests hold the
compiled pass to it across circuits, delay models, per-PI overrides,
and the Monte Carlo sample axis: every factor (and derate) column
equals the scalar walk run with that column's factors
(``analyze_per_gate(factors=, derates=)``).
"""

import copy
import dataclasses
import math
import re

import numpy as np
import pytest

from repro.circuit import load_packaged_bench, parse_bench
from repro.circuit.bench import packaged_bench_path
from repro.models import NonCtrlAwareModel, PinToPinModel, VShapeModel
from repro.sta import LevelCompiledAnalyzer
from repro.sta.analysis import StaConfig, StaResult, TimingAnalyzer
from repro.sta.windows import (
    DEFINITE,
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
    """No switch back to a per-gate full pass, and no knob of the
    per-gate walk, is left to reach."""
    from repro.cli import main
    from repro.itr import ItrEngine
    from repro.stat import run_mc

    circuit = load_packaged_bench("c17")
    with pytest.raises(TypeError):
        TimingAnalyzer(circuit, library, perf=None)
    with pytest.raises(TypeError):
        ItrEngine(circuit, library, perf=None)
    with pytest.raises(TypeError):
        MonteCarloEngine(circuit, library, engine="gate")
    with pytest.raises(TypeError):
        run_mc(circuit, library, samples=2, engine="gate")
    for command in ("sta", "mc", "optimize"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "c17", "--engine", "gate"])
        assert exit_info.value.code == 2


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
    with pytest.raises(ValueError, match="factor rows"):
        analyzer.propagate(factors=np.ones((n + 1, 2)))
    with pytest.raises(ValueError, match="factor rows"):
        analyzer.propagate(factors=np.ones(n))


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


def scalar_columns(
    circuit, library, model, factors, overrides=None, derates=None
):
    """The scalar walk once per factor column: the reference of every
    compiled Monte Carlo column."""
    analyzer = TimingAnalyzer(circuit, library, model)
    return [
        analyzer.analyze_per_gate(
            pi_overrides=overrides, factors=column, derates=derates
        )
        for column in np.asarray(factors).T
    ]


def mc_column(circuit, windows, k):
    """Column ``k`` of a Monte Carlo block as a :class:`StaResult`."""
    return StaResult(circuit, {
        line: windows.line_timing(line, k) for line in circuit.lines
    })


def assert_bitwise(circuit, want, got, label):
    """``got`` == ``want``: states, and every field as int64 bits."""
    for line in circuit.lines:
        for rising in (True, False):
            w = want.line(line).window(rising)
            g = got.line(line).window(rising)
            assert g.state == w.state, (label, line, rising)
            if w.is_active:
                assert np.array_equal(
                    np.array([g.a_s, g.a_l, g.t_s, g.t_l]).view(np.int64),
                    np.array([w.a_s, w.a_l, w.t_s, w.t_l]).view(np.int64),
                ), (label, line, rising)


@pytest.mark.parametrize("model_cls", [VShapeModel, NonCtrlAwareModel])
def test_mc_level_engine_bitwise(model_cls, library):
    """Every column of an MC block equals the factored scalar walk."""
    circuit = load_packaged_bench("c432s")
    engine = MonteCarloEngine(circuit, library, model_cls())
    rng = np.random.default_rng(5)
    factors = 1.0 + 0.08 * rng.standard_normal((engine.n_gates, 7))
    windows = engine.propagate(factors)
    for k, want in enumerate(
        scalar_columns(circuit, library, model_cls(), factors)
    ):
        assert_bitwise(
            circuit, want, mc_column(circuit, windows, k), k
        )


def test_run_mc_engine_invariance(library):
    """run_mc equals the scalar walk run sample by sample."""
    from repro.stat import VariationModel, plan_blocks, run_mc

    circuit = load_packaged_bench("c432s")
    samples, seed, block = 24, 9, 8
    level = run_mc(circuit, library, samples=samples, seed=seed, block=block)
    engine = MonteCarloEngine(circuit, library)
    variation = VariationModel()
    walks = [
        walk
        for start, size in plan_blocks(samples, block)
        for walk in scalar_columns(
            circuit, library, VShapeModel(),
            variation.factors_for_block(
                seed, start, engine.cell_index, len(engine.cell_names), size
            ),
        )
    ]
    assert len(walks) == samples
    for k, walk in enumerate(walks):
        timings = [walk.line(po) for po in circuit.outputs]
        assert level.po_max[:, k].tolist() == [
            t.latest_arrival() for t in timings
        ], k
        assert level.po_min[:, k].tolist() == [
            t.earliest_arrival() for t in timings
        ], k


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
        analyzer.propagate(factors=np.ones((n_gates, 5)))
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
    """Vectorized rows, arc coefficients (read through each lane's table
    row) and load adjustments equal the per-gate scalars on every lane
    (gate pin or arc) and combo, both responses of a ctrl lane on their
    own response axis, and a Λ-peak lane's tail, its pin's
    to-non-controlling delay plus that response's delay term, is the
    scalar Λ-shape's tail."""
    from repro.sta.analysis import compute_loads
    from repro.sta.analysis import fanin_arcs
    from repro.sta.compile import CompiledCircuit, _StackedPack, _arc_values

    circuit = load_packaged_bench("c880s")
    model = model_cls()
    cc = CompiledCircuit(circuit, library, model, StaConfig())
    loads = compute_loads(circuit, library, StaConfig())
    n_peak = 0
    for line, (group, col, key) in cc._locs.items():
        gate = circuit.gates[line]
        cell = library.cell(gate.cell_name())
        load = loads[line]
        runs = _runs(group, col)
        lanes = runs["lane"]
        terms = []
        pack = group.table.pack.rows[..., group.pack, :]
        if key[0] == "ctrl":
            ctrl_in = cell.controlling_value == 1
            out = cell.ctrl.out_rising
            assert lanes.stop - lanes.start == gate.n_inputs, line
            for pin, src in enumerate(gate.inputs):
                lane = lanes.start + pin
                assert group.in_rows[0, lane] == cc.row(src, ctrl_in)
                assert group.in_rows[1, lane] == cc.row(src, not ctrl_in)
                for response, arc in enumerate((
                    cell.ctrl_arc(pin), cell.arc(pin, not ctrl_in, not out),
                )):
                    assert pack[:, response, lane, 0].tolist() == (
                        list(_arc_values(arc))
                    ), (line, pin)
            assert group.out_rows[0, col] == cc.row(line, out)
            assert group.out_rows[1, col] == cc.row(line, not out)
            for response, rising in enumerate((out, not out)):
                terms += [
                    (group.adj[0, response, lanes],
                     cell.load_adjusted_delay(rising, load)),
                    (group.adj[1, response, lanes],
                     cell.load_adjusted_trans(rising, load)),
                ]
            if group.cell is not None:
                # Combos read their gate's surfaces and lane load terms.
                combos = runs["combo"]
                assert (group.combo_gate[combos] == col).all(), line
                for lane in (group.ca[combos], group.cb[combos]):
                    assert lanes.start <= lane.min(), line
                    assert lane.max() < lanes.stop, line
            if key[2]:
                n_peak += 1
                rank = runs["pgate"].start
                assert group.pgate[rank] == col, line
                assert (group.pcombo_gate[runs["pcombo"]] == rank).all()
                # The peak lanes are the gate's own lanes, in pin order,
                # and each tail is the pin's to-non-controlling arc.
                plane = group.plane[runs["plane"]].tolist()
                assert plane == list(range(lanes.start, lanes.stop)), line
                npack = _StackedPack(pack[:, 1])
                a2, a1, a0 = npack.quads[:3, 0]  # the delay family
                for pin, lane in enumerate(plane):
                    lo = float(npack.t_lo[lane, 0])
                    hi = float(npack.t_hi[lane, 0])
                    for t in (lo, 0.5 * (lo + hi), hi):
                        tail = (
                            (a2[lane, 0] * t + a1[lane, 0]) * t
                            + a0[lane, 0]
                            + group.adj[0, 1, lane, 0]
                        )
                        shape = model.nonctrl_shape(
                            cell, pin, 1 - min(pin, 1), t, lo, load
                        )
                        assert float(tail) == shape.tail_neg, (line, pin, t)
        else:
            lane = lanes.start
            segs = list(range(runs["seg"].start, runs["seg"].stop))
            for out in (True, False):
                arcs = fanin_arcs(cell, out)
                if not arcs:
                    empty = group.no_arc_rows[runs["noarc"]]
                    assert cc.row(line, out) in empty
                    continue
                seg = segs.pop(0)
                assert group.out_rows[seg] == cc.row(line, out)
                assert group.seg_n[seg] == len(arcs)
                # Arc lanes run in the fan-in helper's order.
                for k, (pin, rising) in enumerate(arcs):
                    src = gate.inputs[pin]
                    assert group.in_rows[lane + k] == cc.row(src, rising)
                    assert pack[:, lane + k, 0].tolist() == list(
                        _arc_values(cell.arc(pin, rising, out))
                    ), (line, pin, rising)
                run = slice(lane, lane + len(arcs))
                terms += [
                    (group.adj[0, run], cell.load_adjusted_delay(out, load)),
                    (group.adj[1, run], cell.load_adjusted_trans(out, load)),
                ]
                lane += len(arcs)
            assert lane == lanes.stop and not segs, line
        for leaf, want in terms:
            assert leaf.size and (leaf[:, 0] == want).all(), line
    assert (n_peak > 0) == (model_cls is NonCtrlAwareModel)


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


#: ``ONE_LEVEL_OVERRIDES`` with e pinned as well.
TWO_DEFINITE_OVERRIDES = {
    **ONE_LEVEL_OVERRIDES,
    "e": LineTiming(
        rise=DirWindow.point(0.2 * NS, 0.1 * NS),
        fall=DirWindow.point(0.04 * NS, 0.25 * NS),
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
    assert ctrl.in_rows.shape == (2, sum(fanins))
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
    # Monte Carlo factor columns, each against its factored walk.
    engine = MonteCarloEngine(circuit, library, model_cls())
    factors = 1.0 + 0.08 * np.random.default_rng(3).standard_normal(
        (engine.n_gates, 5)
    )
    windows = engine.propagate(factors)
    for k, want in enumerate(
        scalar_columns(circuit, library, model_cls(), factors)
    ):
        assert_bitwise(
            circuit, want, mc_column(circuit, windows, k), k
        )
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


def _subset_matches_full_pass(
    analyzer, group, cols, circuit, references, factors=None, overrides=None
):
    """Run ``group.cut(cols)`` over a full pass (under ``factors`` and PI
    ``overrides``) whose rows of those gates were wiped; every line of
    every column must come back as that column's reference."""
    windows = analyzer.propagate(factors=factors, pi_overrides=overrides)
    sub = group.cut(cols)
    rows, owner = sub.outputs()
    assert sorted(set(owner.tolist())) == list(range(len(cols)))
    arrays = (windows.a_s, windows.a_l, windows.t_s, windows.t_l)
    for array in arrays:
        array[rows] = np.nan
    windows.states[rows] = IMPOSSIBLE
    analyzer.run_group(
        sub, arrays, windows.states, None if factors is None else
        np.asarray(factors, dtype=float),
    )
    for k, reference in enumerate(references):
        assert_bitwise(
            circuit, reference, analyzer._extract(windows, k), (cols, k)
        )


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
    ctrl_cols = ([0], [1, 4, 7], [2, 3, 14, 15], list(range(ctrl.n_gates)))
    arc_cols = ([1], [0, 2], [0, 1, 2])
    for group, subsets in ((ctrl, ctrl_cols), (arc, arc_cols)):
        for cols in subsets:
            _subset_matches_full_pass(
                analyzer, group, cols, circuit, [reference]
            )
    # DEFINITE and IMPOSSIBLE lanes in both responses, across a factor
    # batch: each column against its factored per-gate walk.  With e
    # pinned too, gates reading e and f have two definite lanes.
    factors = 1.0 + 0.08 * np.random.default_rng(17).standard_normal(
        (len(circuit.gates), 3)
    )
    for overrides in (ONE_LEVEL_OVERRIDES, TWO_DEFINITE_OVERRIDES):
        references = scalar_columns(
            circuit, library, model_cls(), factors, overrides
        )
        for group, subsets in ((ctrl, ctrl_cols), (arc, arc_cols)):
            for cols in subsets:
                _subset_matches_full_pass(
                    analyzer, group, cols, circuit, references, factors,
                    overrides,
                )
    # A deeper circuit: subsets of every level's groups.
    big = load_packaged_bench("c432s")
    analyzer = LevelCompiledAnalyzer(big, library, model_cls())
    reference = TimingAnalyzer(big, library, model_cls()).analyze_per_gate()
    for level in analyzer.compiled.levels:
        for group in level:
            cols = list(range(0, group.n_gates, 2))
            _subset_matches_full_pass(
                analyzer, group, cols, big, [reference]
            )


def test_one_level_overrides_reach_both_responses(library):
    """The fixture behind the factored subsets above holds DEFINITE and
    IMPOSSIBLE input lanes in both responses of the ctrl group."""
    circuit = one_level_circuit()
    analyzer = LevelCompiledAnalyzer(circuit, library, VShapeModel())
    windows = analyzer.propagate(pi_overrides=ONE_LEVEL_OVERRIDES)
    (ctrl, _) = analyzer.compiled.levels[0]
    lanes = windows.states[ctrl.in_rows]  # (2, L)
    for response in (0, 1):
        assert (lanes[response] == DEFINITE).any(), response
        assert (lanes[response] == IMPOSSIBLE).any(), response


@pytest.mark.parametrize("model_cls", [VShapeModel, NonCtrlAwareModel])
def test_cut_equals_concatenated_one_gate_splits(model_cls, library):
    """For random ascending column sets on every c432s group, every leaf
    of ``cut(cols)`` (and its run counts and starts) equals the
    concatenation of its one-gate ``split`` pieces, index leaves
    re-based by the pieces' run starts on their target axes."""
    compiled = LevelCompiledAnalyzer(
        load_packaged_bench("c432s"), library, model_cls()
    ).compiled
    rng = np.random.default_rng(23)
    for level in compiled.levels:
        for group in level:
            pieces = group.split(list(range(group.n_gates + 1)))
            for _ in range(3):
                size = int(rng.integers(1, group.n_gates + 1))
                cols = np.sort(
                    rng.choice(group.n_gates, size, replace=False)
                ).tolist()
                sub = group.cut(cols)
                picked = [pieces[c] for c in cols]
                for axis, counts in sub.counts.items():
                    want = np.concatenate([p.counts[axis] for p in picked])
                    _assert_same_leaf(axis, counts, want)
                    starts = np.concatenate(
                        [[0], np.cumsum(want)[:-1]]
                    ).astype(np.intp)
                    _assert_same_leaf(axis, sub.starts[axis], starts)
                for name, (axis, target) in group.AXES.items():
                    got = getattr(sub, name)
                    if got is None:
                        continue
                    parts = []
                    for at, piece in enumerate(picked):
                        leaf = getattr(piece, name)
                        if target is not None:
                            leaf = leaf + sub.starts[target][at]
                        parts.append(leaf)
                    if isinstance(got, np.ndarray):
                        axis_at = -1 if got.dtype.kind == "i" else -2
                        want = np.concatenate(parts, axis=axis_at)
                        _assert_same_leaf(name, got, want)
                    else:
                        want = np.concatenate(
                            [p.rows for p in parts], axis=-2
                        )
                        _assert_same_leaf(name, got.rows, want)


@pytest.mark.parametrize("model_cls", [VShapeModel, NonCtrlAwareModel])
def test_lanes_equal_columns_of_the_wide_run(model_cls, library):
    """On every c432s group, a cut with repeated gates, each a lane in
    its own column, run on the flat ``(2n * K, 1)`` view of a K-column
    state, writes each lane's rows as column ``k`` of the whole group's
    K-wide run, bit for bit, and leaves every other gate-column alone."""
    analyzer = LevelCompiledAnalyzer(
        load_packaged_bench("c432s"), library, model_cls()
    )
    K = 5
    windows = analyzer.propagate()
    # Distinct columns: arrivals shifted, transitions scaled.
    shift = np.arange(K) * 7e-12
    scale = 1.0 + 0.05 * np.arange(K)
    base = (
        windows.a_s + shift, windows.a_l + shift,
        windows.t_s * scale, windows.t_l * scale,
    )
    rng = np.random.default_rng(29)
    for level in analyzer.compiled.levels:
        for group in level:
            wide = tuple(a.copy() for a in base)
            wide_states = windows.states.copy()
            analyzer.run_group(group, wide, wide_states)
            draws = int(rng.integers(1, 2 * group.n_gates + 1))
            lanes = sorted({
                (int(rng.integers(group.n_gates)), int(rng.integers(K)))
                for _ in range(draws)
            })
            cols, columns = zip(*lanes)
            arrays = tuple(a.copy() for a in base)
            states = np.repeat(windows.states[:, None], K, axis=1)
            analyzer.run_group(
                group.cut(cols, np.array(columns), K),
                tuple(a.reshape(-1, 1) for a in arrays), states.reshape(-1),
            )
            want = tuple(a.copy() for a in base)
            want_states = np.repeat(windows.states[:, None], K, axis=1)
            rows, owner = group.outputs()
            for g, k in lanes:
                r = rows[owner == g]
                for dst, src in zip(want, wide):
                    dst[r, k] = src[r, k]
                want_states[r, k] = wide_states[r]
            for got, expect in zip(arrays, want):
                assert got.tobytes() == expect.tobytes(), (group, lanes)
            assert np.array_equal(states, want_states), (group, lanes)


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
    from repro.sta.compile import CompiledCircuit

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
        a, b = mine.cut(cols), theirs.cut(cols)
        for (path, x), (_, y) in zip(_group_leaves(a), _group_leaves(b)):
            _assert_same_leaf(path, x, y)
    engine = analyzer.level_engine()
    assert engine.compiled is compiled
    assert_results_equal(
        circuit,
        TimingAnalyzer(circuit, library, model_cls()).analyze_per_gate(),
        engine.analyze(),
    )


# ----------------------------------------------------------------------
# The pair merges' breakpoints
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", ["one_level", "c432s", "c7552s"])
def test_combos_run_four_per_pair(bench, library):
    """The merges view combos as (pairs, 4): combo ``4q + k`` is pair
    ``q``'s ``k``-th endpoint combination, peak combos included."""
    from repro.sta.compile import CompiledCircuit, _CtrlGroup

    circuit = (
        one_level_circuit() if bench == "one_level"
        else load_packaged_bench(bench)
    )
    compiled = CompiledCircuit(
        circuit, library, NonCtrlAwareModel(), StaConfig()
    )
    n_peak = 0
    for level in compiled.levels:
        for group in level:
            if not isinstance(group, _CtrlGroup):
                continue
            assert np.array_equal(group.ca, np.repeat(group.pa, 4))
            assert np.array_equal(group.cb, np.repeat(group.pb, 4))
            assert np.array_equal(group.combo_start, 4 * group.pair_start)
            if not group.pgate.size:
                continue
            n_peak += group.pgate.size
            # A peak gate's combos are its pairs', four each.
            pairs = np.concatenate([
                np.arange(start, start + count)
                for start, count in zip(
                    group.pair_start[group.pgate],
                    group.counts["pair"][group.pgate],
                )
            ])
            assert np.array_equal(group.pca, np.repeat(group.pa[pairs], 4))
            assert np.array_equal(group.pcb, np.repeat(group.pb[pairs], 4))
            assert (group.pcombo_start % 4 == 0).all()
    assert n_peak


#: NAND2 ``y`` is the gate under test; NAND3 ``z`` shares its level so
#: the group holds several pairs with different windows.
BREAKPOINT_BENCH = (
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
    "y = NAND(a, b)\nz = NAND(a, b, c)\n"
)

#: Batch columns: a unit column (where a fixture's exact tie holds)
#: beside perturbed ones.
BREAKPOINT_FACTORS = (1.0, 0.93, 1.07, 0.98)
BREAKPOINT_DERATES = ((1.0, 1.0), (0.9, 1.1), (0.95, 1.05), (0.85, 1.2))


def _steep_library(library):
    """The library with NAND2's saturation skews cut eightfold: its V and Λ
    slopes exceed 1, so zero skew can beat the arrival offset (the
    default library's slopes stay below 0.9)."""
    def eighth(form):
        return dataclasses.replace(form, **{
            f.name: getattr(form, f.name) * 0.125
            for f in dataclasses.fields(form)
        })

    def steep(record):
        return dataclasses.replace(
            record, s_pos=eighth(record.s_pos), s_neg=eighth(record.s_neg)
        )

    cell = library.cells["NAND2"]
    cells = dict(library.cells)
    cells["NAND2"] = dataclasses.replace(
        cell, ctrl=steep(cell.ctrl), nonctrl=steep(cell.nonctrl)
    )
    return dataclasses.replace(library, cells=cells)


def _breakpoint_candidates(shape_of, wi, wj, peak):
    """{breakpoint: best candidate over the endpoint combos} of one pair:
    the scalar ``corners.fold_pair`` (its ``"a_s"``/``min`` V fold, or
    its ``"a_l"``/``max`` Λ fold with ``peak``), labelled by breakpoint."""
    lo = wj.a_s - wi.a_l
    hi = wj.a_l - wi.a_s
    offset = wj.a_l - wi.a_l if peak else wj.a_s - wi.a_s
    pick = max if peak else min
    best = {}
    for t_i in (wi.t_s, wi.t_l):
        for t_j in (wj.t_s, wj.t_l):
            shape = shape_of(t_i, t_j)
            for label, delta in (
                ("lo", lo), ("hi", hi), ("offset", offset), ("zero", 0.0),
                ("+S", shape.s_pos), ("-S", -shape.s_neg),
            ):
                if not lo <= delta <= hi:
                    continue
                if peak:
                    edge = min(wi.a_l, wj.a_l - delta) + max(0.0, delta)
                else:
                    edge = max(wi.a_s, wj.a_s - delta) + min(0.0, delta)
                value = edge + shape.delay(delta)
                best[label] = pick(best.get(label, value), value)
    return best


def _breakpoint_overrides(library, model, breakpoint, peak):
    """PI windows whose winning ``y`` candidate sits at ``breakpoint``.

    The arrival offset and zero skew win strictly (zero skew on the
    steep library); ±S fixtures pin the offset to exactly ±S with point
    transition windows, so the offset and ±S tie.  At +S (-S) the pin
    whose DR is the V's value there is the slow one, so a swap of DR_p
    and DR_q lowers the candidate.  The Λ-peak fixtures mirror this on
    the latest arrivals (``peak``), where a swap raises it.
    """
    cell = library.cell("NAND2")
    load = TimingAnalyzer(parse_bench(BREAKPOINT_BENCH), library).load("y")
    fast, slow = 0.1 * NS, 1.5 * NS
    if breakpoint in ("+S", "-S"):
        slow_first = (breakpoint == "+S") != peak
        t_a, t_b = (slow, fast) if slow_first else (fast, slow)
        t_a, t_b = (t_a, t_a), (t_b, t_b)
    else:
        t_a, t_b = (0.3 * NS, 0.6 * NS), (0.2 * NS, 0.5 * NS)
    if peak:
        shape = model.nonctrl_shape(cell, 0, 1, t_a[0], t_b[0], load)
    else:
        shape = model.vshape(cell, 0, 1, t_a[0], t_b[0], load)
    width = 0.3 * NS
    offset = {
        "+S": shape.s_pos,
        "-S": -shape.s_neg,
        "offset": 0.25 * min(shape.s_pos, shape.s_neg),
        "zero": 0.25 * min(shape.s_pos, shape.s_neg),
    }[breakpoint]
    # (a_s, a_l) of pins a and b with the offset exactly as wanted: the
    # anchored edges are 0.0 and the offset itself.
    if peak:
        arr_a = (0.0 - width, 0.0) if offset >= 0.0 else (-offset - width,
                                                          -offset)
        arr_b = (offset - width, offset) if offset >= 0.0 else (-width, 0.0)
    else:
        arr_a = (0.0, width) if offset >= 0.0 else (-offset, width - offset)
        arr_b = (offset, offset + width) if offset >= 0.0 else (0.0, width)
    arr_c = (0.1 * NS, 0.2 * NS)
    windows = {
        "a": DirWindow(*arr_a, *t_a),
        "b": DirWindow(*arr_b, *t_b),
        "c": DirWindow(*arr_c, 0.2 * NS, 0.4 * NS),
    }
    overrides = {
        pi: LineTiming(rise=w, fall=w) for pi, w in windows.items()
    }
    shape_of = (
        (lambda ti, tj: model.nonctrl_shape(cell, 0, 1, ti, tj, load))
        if peak else (lambda ti, tj: model.vshape(cell, 0, 1, ti, tj, load))
    )
    cands = _breakpoint_candidates(
        shape_of, windows["a"], windows["b"], peak
    )
    return overrides, cands


@pytest.mark.parametrize("peak", [False, True], ids=["vshape", "peak"])
@pytest.mark.parametrize("breakpoint", ["zero", "offset", "+S", "-S"])
def test_pair_merge_breakpoints(breakpoint, peak, library):
    """Fixtures whose winning candidate sits exactly at zero skew, the
    arrival offset, +S and -S, in one column, four derated corners and
    Monte Carlo factor columns, bitwise against the per-gate
    references."""
    model = NonCtrlAwareModel() if peak else VShapeModel()
    if breakpoint == "zero":
        library = _steep_library(library)
    circuit = parse_bench(BREAKPOINT_BENCH, name="breakpoints")
    overrides, cands = _breakpoint_overrides(
        library, model, breakpoint, peak
    )
    # The fixture decides the pair's bound at the breakpoint under test:
    # strictly at zero skew and the offset, tied with the offset at ±S.
    pick = max if peak else min
    winner = pick(cands.values())
    assert cands[breakpoint] == winner
    if breakpoint in ("zero", "offset"):
        assert [v for v in cands.values() if v == winner] == [winner]

    # One column, against the scalar walk; the bound is the winner's.
    want = TimingAnalyzer(circuit, library, model).analyze_per_gate(
        pi_overrides=overrides
    )
    analyzer = LevelCompiledAnalyzer(circuit, library, model)
    got = analyzer.analyze(pi_overrides=overrides)
    assert_bitwise(circuit, want, got, "one column")
    cell = library.cell("NAND2")
    out = got.line("y").window(
        cell.ctrl.out_rising if not peak else cell.nonctrl.out_rising
    )
    assert (out.a_l if peak else out.a_s) == winner

    # Monte Carlo factor columns, each against its factored walk.
    n_gates = len(circuit.gates)
    factors = np.tile(np.array(BREAKPOINT_FACTORS), (n_gates, 1))
    windows = analyzer.propagate(factors=factors, pi_overrides=overrides)
    for k, want in enumerate(
        scalar_columns(circuit, library, model, factors, overrides)
    ):
        assert_bitwise(
            circuit, want, analyzer._extract(windows, k), f"mc {k}"
        )

    # Four derated corners, each against its derated walk.
    early, late = (np.array(d) for d in zip(*BREAKPOINT_DERATES))
    corners = LevelCompiledAnalyzer(circuit, [library] * 4, model)
    windows = corners.propagate(derates=(early, late), pi_overrides=overrides)
    for c, derate in enumerate(BREAKPOINT_DERATES):
        want = TimingAnalyzer(circuit, library, model).analyze_per_gate(
            pi_overrides=overrides, derates=derate
        )
        assert_bitwise(
            circuit, want, corners._extract(windows, c), f"corner {c}"
        )


# ----------------------------------------------------------------------
# Inputs, loads and timers at the compiled engine's boundary
# ----------------------------------------------------------------------
BAD_DERATES = [
    ((math.nan, 1.0), "derate early must be finite and > 0, got nan"),
    ((1.2, 0.8), "derate early (1.2) must not exceed derate late (0.8)"),
    ((-1.0, 1.0), "derate early must be finite and > 0, got -1.0"),
    ((0.0, 1.0), "derate early must be finite and > 0, got 0.0"),
    ((1.0, math.inf), "derate late must be finite and > 0, got inf"),
]


@pytest.mark.parametrize(
    "derate, message", BAD_DERATES, ids=lambda x: str(x)
)
def test_bad_derates_are_rejected(derate, message, library):
    """Corner's rule holds wherever derates enter: finite, > 0 and
    early <= late (NaN used to reach the windows, and an inverted pair
    inverted them)."""
    from repro.stat import run_mc

    circuit = load_packaged_bench("c17")
    match = re.escape(message)
    with pytest.raises(ValueError, match=match):
        LevelCompiledAnalyzer(circuit, library).propagate(derates=derate)
    with pytest.raises(ValueError, match=match):
        MonteCarloEngine(circuit, library, derate=derate)
    with pytest.raises(ValueError, match=match):
        run_mc(circuit, library, samples=4, derate=derate)


def test_bad_derate_columns_are_named(library):
    copies = [library] * 4
    analyzer = LevelCompiledAnalyzer(load_packaged_bench("c17"), copies)
    early = np.array([0.9, 1.0, -0.5, 1.0])
    late = np.array([1.1, 1.0, 1.0, 0.95])
    with pytest.raises(ValueError, match=re.escape("derate early[2]")):
        analyzer.propagate(derates=(early, late))
    early[2] = 1.0
    with pytest.raises(
        ValueError, match=re.escape("derate early (1.0) must not exceed "
                                    "derate late (0.95)")
    ):
        analyzer.propagate(derates=(early, late))


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_bad_factors_are_rejected(bad, library):
    analyzer = LevelCompiledAnalyzer(load_packaged_bench("c17"), library)
    n = analyzer.compiled.n_gates
    factors = np.ones((n, 3))
    factors[2, 1] = bad
    with pytest.raises(ValueError, match=re.escape(
        f"variation factor[2][1] must be finite and > 0, got {bad!r}"
    )):
        analyzer.propagate(factors=factors)
    with pytest.raises(ValueError, match=re.escape(
        "variation factor[0][0] must be finite and > 0, got -1.0"
    )):
        analyzer.propagate(factors=-np.ones((n, 2)))


@pytest.mark.parametrize("edit", ["resize", "rewire"])
def test_compile_loads_are_the_analyzers(edit, library, monkeypatch):
    """The compile reuses its analyzer's loads — the analyzer's
    construction makes the one sweep, through the shared library part —
    and its load vector equals a fresh ``compute_loads`` after a
    patched resize and after a recompiling rewire."""
    from repro.sta import IncrementalAnalyzer
    from repro.sta import compile as compile_mod
    from repro.sta.analysis import compute_loads

    calls = []
    real = compile_mod.compute_loads
    monkeypatch.setattr(
        compile_mod, "compute_loads",
        lambda *args: calls.append(args) or real(*args),
    )
    circuit = load_packaged_bench("c432s")
    incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library))
    assert len(calls) == 1
    incr.analyze()
    compiled = incr.analyzer._level.compiled
    line = next(
        g for g in sorted(circuit.gates) if circuit.gates[g].n_inputs >= 2
    )
    if edit == "resize":
        circuit.resize_gate(line, 2.0)
    else:
        new = next(pi for pi in circuit.inputs
                   if pi not in circuit.gates[line].inputs)
        circuit.rewire_input(line, 0, new)
    incr.retime()
    incr.analyze()
    now = incr.analyzer._level.compiled
    assert (now is compiled) == (edit == "resize")
    assert len(calls) == 1
    fresh = compute_loads(circuit, library, StaConfig())
    want = np.array([fresh[g] for g in circuit.topological_order()])
    assert np.array_equal(now.loads[:, 0].view(np.int64), want.view(np.int64))


def test_extraction_is_timed_per_column(library):
    """``sta.compile.extract_s``: one observation per extracted column."""
    from repro.obs import MetricsRegistry, get_registry, set_registry

    circuit = load_packaged_bench("c432s")
    previous = get_registry()
    set_registry(MetricsRegistry())
    try:
        extract = get_registry().histogram("sta.compile.extract_s")
        LevelCompiledAnalyzer(circuit, library).analyze()
        assert extract.count == 1
        corners = LevelCompiledAnalyzer(circuit, [library] * 4)
        corners.analyze_corners(derates=(0.95, 1.05))
        assert extract.count == 5
        corners.propagate()  # a bare pass extracts nothing
        assert extract.count == 5
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
# Column views and the load sweep per cap table
# ----------------------------------------------------------------------
def test_column_view_is_a_memoized_mapping(library):
    """A compiled result's ``timings`` is a read-only mapping that builds
    each line once: the same object on every read, so an in-place edit
    is seen by later readers (the report tracer relies on that)."""
    from repro.sta.compile import ColumnTimings

    circuit = load_packaged_bench("c432s")
    result = TimingAnalyzer(circuit, library).analyze()
    view = result.timings
    assert isinstance(view, ColumnTimings)
    line = circuit.outputs[0]
    first = view[line]
    assert result.line(line) is first and view.get(line) is first
    first.rise.a_l += NS
    assert result.line(line).rise.a_l == first.rise.a_l
    with pytest.raises(TypeError):
        view[line] = first
    with pytest.raises(KeyError):
        view["no such line"]
    assert "no such line" not in view and line in view


@pytest.mark.parametrize("bench", ["c432s", "c7552s"])
def test_required_reads_the_column_not_line_objects(bench, library):
    """``compute_required`` on a compiled result reads the view's
    columns: a fresh view stays unbuilt, and the required times equal
    the per-gate walk's bit for bit."""
    circuit = load_packaged_bench(bench)
    analyzer = TimingAnalyzer(circuit, library)
    result = analyzer.analyze()
    clock = {"setup_time": 40 * NS, "hold_time": 0.1 * NS}
    got = analyzer.compute_required(result, **clock)
    assert not result.timings._built
    assert_required_equal(
        circuit, got, analyzer.compute_required_per_gate(result, **clock)
    )


def test_required_honours_in_place_edits_of_read_lines(library):
    """A line a caller has read, then edited in place, is required from
    the edited windows, as the per-gate walk reads them."""
    circuit = load_packaged_bench("c432s")
    analyzer = TimingAnalyzer(circuit, library)
    clock = {"setup_time": 40 * NS}
    fresh = analyzer.compute_required(analyzer.analyze(), **clock)
    result = analyzer.analyze()
    line = circuit.inputs[0]
    timing = result.timings[line]
    timing.rise = DirWindow.impossible()
    timing.fall.t_l += 0.5 * NS
    got = analyzer.compute_required(result, **clock)
    assert_required_equal(
        circuit, got, analyzer.compute_required_per_gate(result, **clock)
    )
    assert fresh[line].rise.q_l < math.inf
    assert got[line].rise.q_l == math.inf and got[line].rise.q_s == -math.inf


def test_column_view_len_iteration_and_equality(library):
    """``len``, iteration order and ``==`` agree with the per-gate dict,
    from either side of the comparison."""
    circuit = load_packaged_bench("c880s")
    analyzer = TimingAnalyzer(circuit, library)
    walked = analyzer.analyze_per_gate().timings
    view = analyzer.analyze().timings
    assert len(view) == len(walked) == len(circuit.lines)
    assert list(view) == circuit.lines == list(walked)
    assert view == walked and walked == view
    assert dict(view.items()) == walked
    other = TimingAnalyzer(
        circuit, library, config=StaConfig(po_load=21e-15)
    ).analyze().timings
    assert other != walked


def test_column_view_deepcopy_is_independent(library):
    circuit = load_packaged_bench("c432s")
    result = TimingAnalyzer(circuit, library).analyze()
    line = circuit.outputs[0]
    before = result.line(line).rise.a_l
    clone = copy.deepcopy(result)
    assert clone.timings == result.timings
    clone.timings[line].rise.a_l += NS
    assert clone.line(line).rise.a_l == before + NS
    assert result.line(line).rise.a_l == before


def test_analyze_result_survives_incremental_edits(library):
    """A result of ``TimingAnalyzer.analyze()`` is a snapshot: an
    incremental engine over the same analyzer re-times and commits
    into its own state, never into an earlier result."""
    from repro.sta import IncrementalAnalyzer, TrialEdit

    circuit = load_packaged_bench("c880s")
    want = TimingAnalyzer(
        load_packaged_bench("c880s"), library
    ).analyze_per_gate()
    analyzer = TimingAnalyzer(circuit, library)
    result = analyzer.analyze()  # no line read yet: all built below
    incr = IncrementalAnalyzer(analyzer)
    live = incr.analyze()
    gates = [g for g in circuit.topological_order()
             if circuit.gates[g].n_inputs >= 2]
    circuit.resize_gate(gates[0], 2.0)
    incr.retime()
    trial = incr.try_edits([TrialEdit("resize", gates[1], s)
                            for s in (0.5, 4.0)])
    incr.commit(trial, 1)
    assert live.timings is incr.result().timings  # the live dict
    assert not all(
        live.line(g) == want.line(g) for g in circuit.lines
    )
    assert_results_equal(circuit, want, result)


def test_window_width_observations_match_per_object_loop(library):
    """``sta.window_width_s``: the compiled pass records the per-gate
    walk's observations, in its order (per line, rise then fall)."""
    from repro.obs import MetricsRegistry, get_registry, set_registry

    circuit = load_packaged_bench("c432s")
    previous = get_registry()
    try:
        seen = []
        for run in ("analyze_per_gate", "analyze"):
            set_registry(MetricsRegistry())
            result = getattr(TimingAnalyzer(circuit, library), run)()
            seen.append(get_registry().histogram("sta.window_width_s").values)
        loop = [
            w.a_l - w.a_s
            for t in result.timings.values()
            for w in (t.rise, t.fall) if w.is_active
        ]
    finally:
        set_registry(previous)
    assert seen[0] == seen[1] == loop
    assert len(loop) > len(circuit.lines)


def test_corner_loads_one_sweep_per_cap_table(library, monkeypatch):
    """A corner compile sweeps the loads once per distinct input-cap
    table: derived corners share one sweep, and a library copy with
    other NAND2 caps gets its own column, equal to ``compute_loads``
    of that library."""
    from repro.pvt import STANDARD_CORNERS, scaled_library
    from repro.sta import compile as compile_mod
    from repro.sta.analysis import compute_loads
    from repro.sta.compile import CompiledCircuit

    calls = []
    real = compile_mod.compute_loads
    monkeypatch.setattr(
        compile_mod, "compute_loads",
        lambda *args: calls.append(args[1]) or real(*args),
    )
    circuit = load_packaged_bench("c17")  # NAND2 gates only
    order = circuit.topological_order()
    derived = [scaled_library(library, c) for c in STANDARD_CORNERS.values()]
    CompiledCircuit(circuit, derived, VShapeModel(), StaConfig())
    assert calls == derived[:1]

    heavy = copy.deepcopy(library)
    nand2 = heavy.cells["NAND2"]
    heavy.cells["NAND2"] = dataclasses.replace(
        nand2, input_caps=[1.5 * c for c in nand2.input_caps]
    )
    calls.clear()
    cc = CompiledCircuit(
        circuit, [library, heavy, library], VShapeModel(), StaConfig()
    )
    assert calls == [library, heavy]
    for c, lib in enumerate((library, heavy, library)):
        loads = compute_loads(circuit, lib, StaConfig())
        want = np.array([loads[g] for g in order])
        assert np.array_equal(
            cc.loads[:, c].view(np.int64), want.view(np.int64)
        ), c
    assert not np.array_equal(cc.loads[:, 0], cc.loads[:, 1])

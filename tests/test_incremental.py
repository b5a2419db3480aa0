"""Tests of incremental re-timing and trial batches.

The contract under test is *bit-identity*: after any edit sequence,
:meth:`repro.sta.incremental.IncrementalAnalyzer.retime` must leave
every line's windows bitwise-equal to a fresh scalar analysis of the
mutated circuit, and every :meth:`~repro.sta.incremental
.IncrementalAnalyzer.try_edits` column must equal a fresh analysis of
the circuit with only that one edit applied.
"""

import copy
import dataclasses
import functools
import random

import numpy as np
import pytest

from repro.circuit import Circuit, load_packaged_bench, parse_bench
from repro.models import NonCtrlAwareModel, VShapeModel
from repro.obs import use_registry
from repro.sta import (
    IncrementalAnalyzer,
    StaConfig,
    TimingAnalyzer,
    TrialEdit,
)
from repro.sta.windows import (
    DirWindow,
    LineTiming,
    merge_dir_windows,
    timings_equal,
    windows_equal,
)

#: How the baseline is reached: ``level`` is one full pass;
#: ``recompiled`` then rewires a gate and reverts it, two structural
#: edits that each recompile while the window state carries over.
STARTS = ("recompiled", "level")


def _incremental(circuit, library, start):
    """A baselined :class:`IncrementalAnalyzer` (see :data:`STARTS`)."""
    if start == "level":
        incr = IncrementalAnalyzer(
            TimingAnalyzer(circuit, library, VShapeModel(), StaConfig())
        )
        incr.analyze()
        return incr
    with use_registry() as registry:
        incr = _incremental(circuit, library, "level")
        compiled = incr.analyzer._level.compiled
        line = next(g for g in sorted(circuit.gates)
                    if circuit.gates[g].n_inputs >= 2)
        old = circuit.gates[line].inputs[0]
        new = next(pi for pi in circuit.inputs
                   if pi not in circuit.gates[line].inputs)
        incr.rewire_input(line, 0, new)
        incr.rewire_input(line, 0, old)
    assert registry.snapshot()["counters"]["sta.incr.full_rebuilds"] == 2
    assert incr.analyzer._level.compiled is not compiled
    return incr


def _fresh_timings(circuit, library):
    """Analyze a rebuilt copy of ``circuit`` from scratch."""
    rebuilt = Circuit.from_dict(circuit.to_dict())
    analyzer = TimingAnalyzer(rebuilt, library, VShapeModel(), StaConfig())
    return analyzer.analyze_per_gate()


def _assert_all_lines_equal(circuit, result, reference):
    for line in circuit.lines:
        assert timings_equal(result.line(line), reference.line(line)), line


def _edit_script(circuit):
    """A deterministic mixed edit sequence valid on any packaged bench."""
    gates = sorted(circuit.gates)
    two_in = next(
        g for g in gates if circuit.gates[g].n_inputs == 2
    )
    target = next(
        g for g in gates
        if g != two_in and circuit.gates[g].n_inputs >= 2
    )
    # A PI the target does not already read cannot create a cycle.
    new_src = next(
        pi for pi in circuit.inputs
        if pi not in circuit.gates[target].inputs
    )
    return [
        ("resize", gates[0], 2.0, None),
        ("swap", two_in, "nor", None),
        ("resize", gates[-1], 0.5, None),
        ("rewire", target, new_src, 0),
        ("resize", gates[0], 2.0, None),  # no-op resize must still work
    ]


def _apply(circuit, edit):
    op, line, value, pin = edit
    if op == "resize":
        circuit.resize_gate(line, value)
    elif op == "swap":
        circuit.swap_cell(line, value)
    else:
        circuit.rewire_input(line, pin, value)


class TestRetime:
    @pytest.mark.parametrize("start", STARTS)
    def test_matches_fresh_after_each_edit(self, library, start):
        circuit = load_packaged_bench("c17")
        incr = _incremental(circuit, library, start)
        for edit in _edit_script(circuit):
            _apply(circuit, edit)
            result = incr.retime()
            reference = _fresh_timings(circuit, library)
            _assert_all_lines_equal(circuit, result, reference)

    def test_matches_fresh_on_c432s_level(self, library):
        circuit = load_packaged_bench("c432s")
        incr = _incremental(circuit, library, "level")
        for edit in _edit_script(circuit):
            _apply(circuit, edit)
        result = incr.retime()
        reference = _fresh_timings(circuit, library)
        _assert_all_lines_equal(circuit, result, reference)

    def test_full_pass_after_patched_edits_matches_fresh(self, library):
        # Coefficient edits are patched into the compiled SoA arrays in
        # place; a later *full* batched pass must still be bit-identical
        # to a fresh scalar analysis (i.e. the patch really updated the
        # compiled form, not just the incremental window state).
        circuit = load_packaged_bench("c17")
        incr = _incremental(circuit, library, "level")
        incr.resize_gate(sorted(circuit.gates)[0], 3.3)
        result = incr.analyzer.analyze()
        reference = _fresh_timings(circuit, library)
        _assert_all_lines_equal(circuit, result, reference)


class TestRecompile:
    def test_retime_after_recompile_matches_fresh(self, library):
        # Regression: column subsets were memoized under (id(group),
        # cols) across recompiles.  A rewire + analyze() frees the old
        # compile's groups, CPython hands their addresses to the new
        # compile's groups, and the next retime was served subsets cut
        # from the old compile (old rows, old coefficients).  Seeded
        # c432s sequences: resizes re-timed incrementally, every 10th
        # step a rewire to a fresh PI followed by a recompiling
        # analyze(); the five retimes after the recompile are checked.
        base = load_packaged_bench("c432s")
        gates = sorted(base.gates)
        for seed in range(10):
            rng = random.Random(seed)
            circuit = Circuit.from_dict(base.to_dict())
            incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library))
            incr.analyze()
            for step in range(1, 16):
                if step % 10 == 0:
                    line = rng.choice(gates)
                    gate = circuit.gates[line]
                    pin = rng.randrange(gate.n_inputs)
                    new = rng.choice(
                        [pi for pi in circuit.inputs if pi not in gate.inputs]
                    )
                    circuit.rewire_input(line, pin, new)
                    incr.analyze()
                    continue
                circuit.resize_gate(
                    rng.choice(gates), rng.choice((0.5, 2.0, 4.0))
                )
                result = incr.retime()
                if step > 10:
                    reference = TimingAnalyzer(
                        circuit, library
                    ).analyze_per_gate()
                    for lin in circuit.lines:
                        assert timings_equal(
                            result.line(lin), reference.line(lin)
                        ), f"seed={seed} step={step} {lin}"

    @pytest.mark.parametrize("edit", ["rewire", "swap"])
    def test_no_per_gate_call(self, library, monkeypatch, edit):
        # A rewire and a NAND2 -> XOR2 swap each recompile.  The edit's
        # cone, a trial batch, the commit of a slot-changing swap (a
        # second recompile) and a later re-time all replay on the
        # compiled sweep over the window state carried through.
        circuit = load_packaged_bench("c432s")
        edits = [
            TrialEdit("resize", "G110", 2.0), TrialEdit("swap", "G107", "nand")
        ]
        steps = []  # (the circuit at that point, its windows)

        def keep(result):
            steps.append((
                Circuit.from_dict(circuit.to_dict()), dict(result.timings)
            ))

        with use_registry() as registry, monkeypatch.context() as patch:
            incr = _incremental(circuit, library, "level")
            compiled = incr.analyzer._level.compiled
            patch.setattr(TimingAnalyzer, "propagate_gate", _forbidden)
            if edit == "rewire":
                line, new, _ = TestRequiredTimes._rewire_target(circuit)
                circuit.rewire_input(line, 0, new)
            else:
                circuit.swap_cell("G110", "xor")
            keep(incr.retime())
            counters = registry.snapshot()["counters"]
            recompiled = incr.analyzer._level.compiled
            trial = incr.try_edits(edits)
            keep(incr.commit(trial, 1))
            circuit.resize_gate("G36", 4.0)
            keep(incr.retime())
        assert counters["sta.incr.full_rebuilds"] == 1
        assert recompiled is not compiled
        _assert_columns_match_fresh(steps[0][0], library, trial, edits)
        for variant, timings in steps:
            reference = _fresh_timings(variant, library)
            for lin in variant.lines:
                assert timings_equal(timings[lin], reference.line(lin)), lin


class TestDoubleRead:
    BENCH = (
        "INPUT(a)\nINPUT(b)\nOUTPUT(g)\nOUTPUT(h)\n"
        "g = NAND(a, a)\nh = NAND(a, b)\n"
    )

    def test_engines_agree_on_a_gate_reading_one_line_twice(self, library):
        from tests.test_perf_parity import assert_results_equal

        circuit = parse_bench(self.BENCH, name="double_read")
        per_gate = TimingAnalyzer(circuit, library).analyze_per_gate()
        assert_results_equal(
            circuit, per_gate, TimingAnalyzer(circuit, library).analyze()
        )
        incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library))
        incr.analyze()
        # Resizing either reader re-loads a; g's refresh visits a twice.
        for line, size in (("g", 2.0), ("h", 0.5), ("g", 4.0)):
            circuit.resize_gate(line, size)
            result = incr.retime()
            assert incr.analyzer.load("a") == TimingAnalyzer(
                circuit, library
            ).load("a")
            _assert_all_lines_equal(
                circuit, result, _fresh_timings(circuit, library)
            )
        assert_results_equal(
            circuit,
            TimingAnalyzer(circuit, library).analyze_per_gate(),
            incr.analyzer.analyze(),
        )


class TestRequiredTimes:
    """``compute_required`` runs on the compile the incremental engine
    keeps current, so it must follow every edit like a fresh analyzer."""

    @staticmethod
    def _assert_required_match_fresh(circuit, library, analyzer, result):
        reference = TimingAnalyzer(
            Circuit.from_dict(circuit.to_dict()), library
        )
        fresh = reference.analyze_per_gate()
        clocks = ({}, {
            "setup_time": 0.9 * fresh.output_max_arrival(),
            "hold_time": fresh.output_min_arrival(),
        })
        for clock in clocks:
            got = analyzer.compute_required(result, **clock)
            want = reference.compute_required_per_gate(fresh, **clock)
            for line in circuit.lines:
                assert got[line] == want[line], (clock, line)

    @staticmethod
    def _rewire_target(circuit):
        """(gate, new PI source, side driver): a gate whose pin 0 a gate
        drives (so rewiring it to a PI moves its windows), and the
        driver of another input of one of its fan-outs."""
        for line in sorted(circuit.gates):
            gate = circuit.gates[line]
            if gate.n_inputs < 2 or circuit.driver(gate.inputs[0]) is None:
                continue
            for sink in circuit.fanouts(line):
                for src in sink.inputs:
                    driver = circuit.driver(src)
                    if src != line and driver is not None:
                        new = next(
                            pi for pi in circuit.inputs
                            if pi not in gate.inputs
                        )
                        return line, new, driver.output
        raise AssertionError("no rewire target")

    def test_resize_reads_the_patched_compile(self, library):
        circuit = load_packaged_bench("c432s")
        incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library))
        incr.analyze()
        compiled = incr.analyzer._level.compiled
        line, _, _ = self._rewire_target(circuit)
        circuit.resize_gate(line, 4.0)
        result = incr.retime()
        assert incr.analyzer._level.compiled is compiled  # patched
        self._assert_required_match_fresh(
            circuit, library, incr.analyzer, result
        )

    def test_rewire_drops_the_compile(self, library):
        circuit = load_packaged_bench("c432s")
        with use_registry() as registry:
            incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library))
            incr.analyze()
            compiled = incr.analyzer._level.compiled
            line, new, side = self._rewire_target(circuit)
            circuit.rewire_input(line, 0, new)
            result = incr.retime()
        # The rewire dropped the compile and the cone replayed on a
        # recompile of the edited circuit.
        assert registry.snapshot()["counters"]["sta.incr.full_rebuilds"] == 1
        assert incr.analyzer._level.compiled is not compiled
        self._assert_required_match_fresh(
            circuit, library, incr.analyzer, result
        )
        # The window state carried through the recompile is the base
        # of later re-times and trials: re-timing the side driver's
        # cone reads the rewired gate's output.
        circuit.resize_gate(side, 4.0)
        result = incr.retime()
        _assert_all_lines_equal(
            circuit, result, _fresh_timings(circuit, library)
        )
        trial = incr.try_edits([TrialEdit("resize", line, 4.0)])
        variant = Circuit.from_dict(circuit.to_dict())
        variant.resize_gate(line, 4.0)
        reference = _fresh_timings(variant, library)
        for lin in circuit.lines:
            assert timings_equal(
                trial.line_timing(lin, 0), reference.line(lin)
            ), lin


class TestTryEdits:
    @pytest.mark.parametrize("start", STARTS)
    def test_columns_match_fresh_variants(self, library, start):
        circuit = load_packaged_bench("c17")
        incr = _incremental(circuit, library, start)
        gates = sorted(circuit.gates)
        two_in = next(g for g in gates if circuit.gates[g].n_inputs == 2)
        edits = [
            TrialEdit("resize", gates[0], 0.5),
            TrialEdit("resize", gates[0], 2.0),
            TrialEdit("resize", gates[-1], 4.0),
            TrialEdit("swap", two_in, "nor"),
        ]
        trial = incr.try_edits(edits)
        assert trial.n_trials == len(edits)
        for k, e in enumerate(edits):
            variant = Circuit.from_dict(circuit.to_dict())
            _apply(variant, (e.op, e.line, e.value, None))
            reference = TimingAnalyzer(
                variant, library, VShapeModel(), StaConfig()
            ).analyze_per_gate()
            for line in variant.lines:
                assert timings_equal(
                    trial.line_timing(line, k), reference.line(line)
                ), f"k={k} {line}"
            assert trial.max_arrivals()[k] == reference.output_max_arrival()

    @pytest.mark.parametrize("start", STARTS)
    def test_master_state_is_untouched(self, library, start):
        circuit = load_packaged_bench("c17")
        incr = _incremental(circuit, library, start)
        before = {line: incr.result().line(line) for line in circuit.lines}
        sizes_before = {g: circuit.gates[g].size for g in circuit.gates}
        incr.try_edits([
            TrialEdit("resize", g, 2.0) for g in sorted(circuit.gates)[:3]
        ])
        assert {g: circuit.gates[g].size for g in circuit.gates} == sizes_before
        after = incr.result()
        for line in circuit.lines:
            assert timings_equal(after.line(line), before[line]), line

    def test_cross_feeding_fanin_drivers(self, library):
        # Regression: resizing g10 re-loads both g2 and g9, and g2 feeds
        # g9 through g5 — so g9's seeded trial value goes stale once
        # g2's change propagates, and must be *recomputed* mid-sweep
        # with its trial load (not restored from the seed snapshot).
        circuit = parse_bench(
            """
            INPUT(a)
            INPUT(b)
            INPUT(c)
            OUTPUT(g10)
            g2 = NAND(a, b)
            g5 = NOT(g2)
            g9 = NAND(g5, c)
            g10 = NAND(g2, g9)
            """,
            name="crossfeed",
        )
        incr = _incremental(circuit, library, "level")
        edits = [TrialEdit("resize", "g10", s) for s in (0.5, 2.0)]
        trial = incr.try_edits(edits)
        for k, e in enumerate(edits):
            variant = Circuit.from_dict(circuit.to_dict())
            variant.resize_gate(e.line, e.value)
            reference = TimingAnalyzer(
                variant, library, VShapeModel(), StaConfig()
            ).analyze_per_gate()
            for line in variant.lines:
                assert timings_equal(
                    trial.line_timing(line, k), reference.line(line)
                ), f"k={k} {line}"

    def test_rejects_empty_and_structural_edits(self, library):
        circuit = load_packaged_bench("c17")
        incr = _incremental(circuit, library, "level")
        with pytest.raises(ValueError):
            incr.try_edits([])
        with pytest.raises(ValueError):
            incr.try_edits([TrialEdit("rewire", "G10", "G1")])

    @pytest.mark.parametrize(
        "line, what",
        [("G1", "a primary input"), ("nope", "not a line of the circuit")],
    )
    def test_rejects_edits_of_non_gate_lines(self, library, line, what):
        # A structured error naming the edit, raised before any netlist
        # mutation — not a bare KeyError from circuit.gates.
        circuit = load_packaged_bench("c17")
        incr = _incremental(circuit, library, "level")
        log_len = len(circuit.edit_log)
        edits = [
            TrialEdit("resize", "G10", 2.0), TrialEdit("resize", line, 2.0)
        ]
        with pytest.raises(ValueError) as info:
            incr.try_edits(edits)
        message = str(info.value)
        assert repr(line) in message and what in message
        assert "resize" in message
        assert len(circuit.edit_log) == log_len
        assert circuit.gates["G10"].size == 1.0


class TestMergedGroups:
    """Cone replays and trial sweeps through levels whose one ctrl group
    mixes fan-ins 2..5 with and without Λ-peak data, patched in place."""

    BENCH = (
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\n"
        "OUTPUT(y1)\nOUTPUT(y2)\nOUTPUT(y3)\nOUTPUT(y4)\n"
        "inv = NOT(a)\nxor = XOR(b, c)\n"
        "n2 = NAND(a, b)\nn3 = NAND(b, c, d)\nn4 = NAND(a, c, d, e)\n"
        "n5 = NAND(a, b, c, d, e)\nr2 = NOR(c, d)\nr4 = NOR(a, b, d, e)\n"
        "dbl = NAND(e, e)\n"
        "y1 = NAND(n2, n3, inv)\ny2 = NOR(n2, xor, r2)\n"
        "y3 = AND(n4, n5, r4, dbl)\ny4 = NOT(n3)\n"
    )

    @staticmethod
    def _library(library, strip_nand3_peak):
        """The shipped library, or a copy whose NAND3 has no peak data
        (so a NAND2 with peak data shares its group with one without)."""
        if not strip_nand3_peak:
            return library
        lib = copy.deepcopy(library)
        lib.cells["NAND3"] = dataclasses.replace(
            lib.cells["NAND3"], nonctrl=None
        )
        lib._sized_cache.clear()  # sized variants derive from the base
        return lib

    @staticmethod
    def _fresh(circuit, library, model_cls, edit=None):
        variant = Circuit.from_dict(circuit.to_dict())
        if edit is not None:
            _apply(variant, (edit.op, edit.line, edit.value, None))
        return TimingAnalyzer(
            variant, library, model_cls(), StaConfig()
        ).analyze_per_gate()

    @pytest.mark.parametrize(
        "model_cls, strip",
        [(VShapeModel, False), (NonCtrlAwareModel, False),
         (NonCtrlAwareModel, True)],
    )
    def test_patched_retimes_and_trials_match_fresh(
        self, library, model_cls, strip
    ):
        from repro.sta.compile import _slot_key

        lib = self._library(library, strip)
        circuit = parse_bench(self.BENCH, name="merged")
        incr = IncrementalAnalyzer(
            TimingAnalyzer(circuit, lib, model_cls(), StaConfig())
        )
        incr.analyze()
        compiled = incr.analyzer._level.compiled
        peaked = {
            line for line, (_, _, key) in compiled._locs.items()
            if key[0] == "ctrl" and key[2]
        }
        if model_cls is NonCtrlAwareModel:
            assert "n2" in peaked and ("n3" in peaked) != strip
        for edit in (
            ("resize", "n2", 2.0), ("resize", "n3", 4.0),
            ("swap", "n2", "nor"), ("resize", "n5", 0.5),
            ("resize", "xor", 2.0), ("swap", "n2", "nand"),
        ):
            _apply(circuit, (*edit, None))
            result = incr.retime()
            assert incr.analyzer._level.compiled is compiled  # patched
            reference = self._fresh(circuit, lib, model_cls)
            for line in circuit.lines:
                assert timings_equal(
                    result.line(line), reference.line(line)
                ), (edit, line)
        # NAND2 -> NOR2 keeps the slot (fan-in and peak membership).
        assert _slot_key(lib.cell("NAND2"), True) == _slot_key(
            lib.cell("NOR2"), True
        )
        edits = [
            TrialEdit("resize", "n2", 4.0),
            TrialEdit("resize", "n3", 0.5),
            TrialEdit("swap", "n2", "nor"),
            TrialEdit("resize", "r4", 2.0),
        ]
        trial = incr.try_edits(edits)
        for k, e in enumerate(edits):
            reference = self._fresh(circuit, lib, model_cls, e)
            for line in circuit.lines:
                assert timings_equal(
                    trial.line_timing(line, k), reference.line(line)
                ), (e, line)


class TestAnalyzerEpoch:
    def test_analyzer_epoch_tracks_circuit_edits(self, library):
        circuit = load_packaged_bench("c17")
        analyzer = TimingAnalyzer(
            circuit, library, VShapeModel(), StaConfig()
        )
        first = analyzer.analyze_per_gate()
        target = sorted(circuit.gates)[0]
        circuit.resize_gate(target, 4.0)
        second = analyzer.analyze_per_gate()
        reference = _fresh_timings(circuit, library)
        _assert_all_lines_equal(circuit, second, reference)
        assert not timings_equal(
            first.line(target), second.line(target)
        )


def _forbidden(*args, **kwargs):
    raise AssertionError("a re-time or trial left the compiled sweep")


#: A trial batch that cannot ride one sweep on :func:`_diverging`'s
#: circuit.
DIVERGING_EDITS = [
    TrialEdit("resize", "y", 2.0), TrialEdit("swap", "n", "buf")
]


def _diverging(library, monkeypatch):
    """``(circuit, PI overrides, baselined analyzer)`` on which
    :data:`DIVERGING_EDITS` moves window states.

    With a's rise impossible, INV -> BUF moves n's states (and y's
    after it) in the swap's column only; each column carries its own
    states, so the batch stays one sweep.
    """
    circuit = parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = NAND(n, b)\n",
        name="diverge",
    )
    overrides = {"a": LineTiming(
        rise=DirWindow.impossible(),
        fall=DirWindow(0.0, 1e-10, 1e-10, 2e-10),
    )}
    analyzer = TimingAnalyzer(circuit, library)
    monkeypatch.setattr(analyzer, "analyze", functools.partial(
        analyzer.analyze, pi_overrides=overrides
    ))
    incr = IncrementalAnalyzer(analyzer)
    incr.analyze()
    return circuit, overrides, incr


def _assert_columns_match_fresh(circuit, library, trial, edits):
    for k, e in enumerate(edits):
        variant = Circuit.from_dict(circuit.to_dict())
        _apply(variant, (e.op, e.line, e.value, None))
        reference = _fresh_timings(variant, library)
        for line in variant.lines:
            assert timings_equal(
                trial.line_timing(line, k), reference.line(line)
            ), (k, e, line)


class TestTrialSweep:
    """Trial batches run wholly inside the compiled level sweep: seed
    lanes carry their own column's coefficients and every column its
    own states, so no gate is computed by the per-gate walk."""

    @staticmethod
    def _batches(circuit, seed):
        """A size ladder on the gate with the most fan-in drivers, and a
        random resize batch (repeats and shared fan-ins included)."""
        rng = random.Random(seed)
        gates = sorted(circuit.gates)
        wide = max(gates, key=lambda g: sum(
            circuit.driver(line) is not None
            for line in circuit.gates[g].inputs
        ))
        ladder = [
            TrialEdit("resize", wide, size)
            for size in (0.5, 0.7, 1.4, 2.0, 2.8, 4.0, 5.7)
        ]
        randoms = [
            TrialEdit(
                "resize", rng.choice(gates), rng.choice((0.5, 2.0, 4.0))
            )
            for _ in range(12)
        ]
        return [ladder, randoms]

    @pytest.mark.parametrize("name", ["c432s", "c880s"])
    def test_no_per_gate_call(self, library, monkeypatch, name):
        circuit = load_packaged_bench(name)
        incr = _incremental(circuit, library, "level")
        batches = self._batches(circuit, seed=len(name))
        with monkeypatch.context() as patch:
            patch.setattr(TimingAnalyzer, "propagate_gate", _forbidden)
            trials = [incr.try_edits(edits) for edits in batches]
        for edits, trial in zip(batches, trials):
            _assert_columns_match_fresh(circuit, library, trial, edits)

    def test_layout_changing_swaps_stay_batched(self, library, monkeypatch):
        # NAND2 -> NOR2 / AND2 / OR2 flip the output polarity or the
        # controlling value, NAND2 -> XOR2 and XOR2 -> NAND2 change the
        # group kind, INV -> BUF the arcs: each such column re-runs its
        # gate alone after the shared group call.
        circuit = load_packaged_bench("c432s")
        nand, xor, inv = "G110", "G107", "G109"
        driver = circuit.gates[nand].inputs[0]
        edits = [
            TrialEdit("swap", nand, "nor"),
            TrialEdit("resize", nand, 2.0),
            TrialEdit("swap", nand, "xor"),
            TrialEdit("swap", nand, "and"),
            TrialEdit("resize", driver, 4.0),
            TrialEdit("swap", nand, "or"),
            TrialEdit("swap", xor, "nand"),
            TrialEdit("swap", inv, "buf"),
        ]
        with use_registry() as registry, monkeypatch.context() as patch:
            incr = _incremental(circuit, library, "level")
            compiled = incr.analyzer._level.compiled
            patch.setattr(TimingAnalyzer, "propagate_gate", _forbidden)
            trial = incr.try_edits(edits)
        _assert_columns_match_fresh(circuit, library, trial, edits)
        # Trials never edit the master: no recompile, not even for the
        # slot-changing swaps.
        counters = registry.snapshot()["counters"]
        assert counters.get("sta.incr.full_rebuilds", 0) == 0
        assert incr.analyzer._level.compiled is compiled

    def test_state_divergence_stays_batched(self, library, monkeypatch):
        circuit, overrides, incr = _diverging(library, monkeypatch)
        master = incr._cw.states.copy()
        with monkeypatch.context() as patch:
            patch.setattr(TimingAnalyzer, "propagate_gate", _forbidden)
            patch.setattr(IncrementalAnalyzer, "_replay", _forbidden)
            trial = incr.try_edits(DIVERGING_EDITS)
        assert trial.base is incr._cw
        assert trial.states.shape == (len(master), len(DIVERGING_EDITS))
        # The swap's column moved states; the resize's kept the master's.
        assert np.array_equal(trial.states[:, 0], master)
        assert not np.array_equal(trial.states[:, 1], master)
        assert np.array_equal(incr._cw.states, master)
        for k, e in enumerate(DIVERGING_EDITS):
            variant = Circuit.from_dict(circuit.to_dict())
            _apply(variant, (e.op, e.line, e.value, None))
            reference = TimingAnalyzer(
                variant, library
            ).analyze_per_gate(pi_overrides=overrides)
            for line in variant.lines:
                assert timings_equal(
                    trial.line_timing(line, k), reference.line(line)
                ), (k, line)


    def test_envelope_merges_per_column_states(self, library, monkeypatch):
        circuit, _, incr = _diverging(library, monkeypatch)
        edits = DIVERGING_EDITS + [TrialEdit("resize", "n", 0.5)]
        trial = incr.try_edits(edits)
        assert (trial.states != trial.states[:, :1]).any()
        merged = trial.envelope()
        for line in circuit.lines:
            for rising in (True, False):
                want = merge_dir_windows([
                    trial.window(line, rising, k) for k in range(len(edits))
                ])
                assert windows_equal(
                    merged.window(line, rising), want
                ), (line, rising)


class TestCommit:
    """``commit`` adopts a live trial column as the master state and
    re-times anything else; both equal a fresh analysis."""

    def test_live_commits_adopt_and_match_fresh(self, library):
        circuit = load_packaged_bench("c432s")
        with use_registry() as registry:
            incr = _incremental(circuit, library, "level")
            for edits, k in (
                ([TrialEdit("resize", "G110", s) for s in (0.5, 2.0)], 1),
                ([TrialEdit("resize", "G36", 4.0),
                  TrialEdit("swap", "G110", "nor")], 1),
                ([TrialEdit("resize", "G110", 4.0)], 0),
                # Last: a slot change, whose commit drops the compile.
                ([TrialEdit("swap", "G107", "nand"),
                  TrialEdit("resize", "G96", 0.5)], 0),
            ):
                trial = incr.try_edits(edits)
                result = incr.commit(trial, k)
                _assert_all_lines_equal(
                    circuit, result, _fresh_timings(circuit, library)
                )
            counters = registry.snapshot()["counters"]
            assert counters["sta.incr.commits_adopted"] == 4
            assert counters.get("sta.incr.gates_retimed", 0) == 0
        # The adopted master is a valid base for later edits and trials:
        # the slot change dropped the compile, and the next re-time
        # replays its cone on a recompile.
        assert incr.analyzer._level is None
        circuit.resize_gate("G36", 0.5)
        _assert_all_lines_equal(
            circuit, incr.retime(), _fresh_timings(circuit, library)
        )
        incr.analyze()
        edits = [TrialEdit("resize", "G107", 2.0)]
        _assert_columns_match_fresh(
            circuit, library, incr.try_edits(edits), edits
        )

    def test_stale_trial_retimes(self, library):
        circuit = load_packaged_bench("c432s")
        with use_registry() as registry:
            incr = _incremental(circuit, library, "level")
            edits = [TrialEdit("resize", "G110", s) for s in (0.5, 4.0)]
            trial = incr.try_edits(edits)
            # A real edit after the trial: its columns no longer hold
            # the circuit the commit produces.
            circuit.resize_gate("G36", 2.0)
            result = incr.commit(trial, 1)
            counters = registry.snapshot()["counters"]
            assert counters.get("sta.incr.commits_adopted", 0) == 0
            assert counters["sta.incr.gates_retimed"] > 0
        assert circuit.gates["G110"].size == 4.0
        _assert_all_lines_equal(
            circuit, result, _fresh_timings(circuit, library)
        )

    def test_state_divergence_commit_adopts(self, library, monkeypatch):
        circuit, overrides, incr = _diverging(library, monkeypatch)
        trial = incr.try_edits(DIVERGING_EDITS)
        with monkeypatch.context() as patch:
            # Adopted: no cone is re-timed.
            patch.setattr(IncrementalAnalyzer, "_replay", _forbidden)
            result = incr.commit(trial, 1)
        # The master took the column's states along with its windows.
        assert np.array_equal(incr._cw.states, trial.states[:, 1])
        reference = TimingAnalyzer(
            Circuit.from_dict(circuit.to_dict()), library
        ).analyze_per_gate(pi_overrides=overrides)
        _assert_all_lines_equal(circuit, result, reference)
        # A re-time from the adopted state still matches a fresh walk.
        circuit.resize_gate("n", 2.0)
        reference = TimingAnalyzer(
            Circuit.from_dict(circuit.to_dict()), library
        ).analyze_per_gate(pi_overrides=overrides)
        _assert_all_lines_equal(circuit, incr.retime(), reference)


class TestLoadTermSeeds:
    """A resize or a re-load moves only a gate's load-adjust terms: the
    seeds of a resize trial carry columns of load terms, and commits
    and re-times of resizes rewrite only those terms, so none of them
    builds a gate.  Every column and every committed state still equals
    a fresh analysis."""

    # NAND2/NAND3/NOR2 and INV/BUF/XOR2 gates; every resized gate below
    # except y2 also drives a resized gate, so it is resized in its own
    # column and re-loaded in its sink's.
    BENCH = (
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n"
        "OUTPUT(y1)\nOUTPUT(y2)\nOUTPUT(y3)\n"
        "inv = NOT(a)\nbuf = BUFF(inv)\nxor = XOR(b, c)\n"
        "n2 = NAND(a, b)\nn3 = NAND(b, c, d)\nr2 = NOR(c, d)\n"
        "y1 = NOR(n2, xor)\ny2 = NAND(buf, n3, r2)\ny3 = XOR(n2, buf)\n"
    )
    RESIZES = [
        TrialEdit("resize", line, size) for line, size in (
            ("n2", 2.0), ("y1", 4.0), ("inv", 0.5), ("buf", 2.8),
            ("xor", 1.4), ("y3", 2.0), ("r2", 0.7), ("y2", 5.7),
        )
    ]

    @staticmethod
    def _engine(circuit, library, model_cls):
        incr = IncrementalAnalyzer(
            TimingAnalyzer(circuit, library, model_cls(), StaConfig())
        )
        incr.analyze()
        return incr

    @staticmethod
    def _match(circuit, library, model_cls, timings, edit=None):
        reference = TestMergedGroups._fresh(
            circuit, library, model_cls, edit
        )
        for line in circuit.lines:
            assert timings_equal(timings(line), reference.line(line)), (
                edit, line,
            )

    @pytest.mark.parametrize("model_cls", [VShapeModel, NonCtrlAwareModel])
    def test_resizes_build_no_gate(self, library, monkeypatch, model_cls):
        from repro.sta.compile import CompiledCircuit

        circuit = parse_bench(self.BENCH, name="loads")
        edits = self.RESIZES
        states = []  # (the circuit, its windows) after each real edit
        with use_registry() as registry, monkeypatch.context() as patch:
            incr = self._engine(circuit, library, model_cls)
            compiled = incr.analyzer._level.compiled
            peaked = {
                line for line, (_, _, key) in compiled._locs.items()
                if key[0] == "ctrl" and key[2]
            }
            # Under the non-ctrl aware model the Λ-peak reads the load
            # terms too (adj[0, 1]), so they must reach it.
            assert ("n2" in peaked) == (model_cls is NonCtrlAwareModel)
            patch.setattr(CompiledCircuit, "build_gates", _forbidden)
            trial = incr.try_edits(edits)
            before = Circuit.from_dict(circuit.to_dict())
            # y1's column: y1 resized, n2 and xor re-loaded.
            result = incr.commit(trial, 1)
            states.append((Circuit.from_dict(circuit.to_dict()),
                           dict(result.timings)))
            circuit.resize_gate("buf", 2.0)  # re-loads inv
            result = incr.retime()
            states.append((Circuit.from_dict(circuit.to_dict()),
                           dict(result.timings)))
        counters = registry.snapshot()["counters"]
        # A column's seed lanes are its resized gate and the gates
        # driving that gate's inputs: n2 1, y1 3 (n2, xor), inv 1, buf 2
        # (inv), xor 1, y3 3 (n2, buf), r2 1, y2 4 (buf, n3, r2).
        assert counters["sta.incr.seed_load_terms"] == 16
        assert counters.get("sta.incr.seed_builds", 0) == 0
        assert counters["sta.incr.load_term_patches"] == 5
        assert counters.get("sta.incr.rebuild_patches", 0) == 0
        assert incr.analyzer._level.compiled is compiled
        for k, e in enumerate(edits):
            self._match(
                before, library, model_cls,
                functools.partial(trial.line_timing, column=k), e,
            )
        for variant, timings in states:
            self._match(variant, library, model_cls, timings.__getitem__)

    @staticmethod
    def _with_xnor(library):
        """A copy of the shipped library with an XNOR2: XOR2's layout
        with other delay coefficients, so XOR2 <-> XNOR2 is a swap that
        keeps a gate's layout but not its coefficients (the shipped
        cells have no such pair); it takes the solo path like any
        other swap."""
        lib = copy.deepcopy(library)
        xor = lib.cells["XOR2"]
        lib.cells["XNOR2"] = dataclasses.replace(
            xor, name="XNOR2", kind="xnor", arcs={
                key: dataclasses.replace(arc, delay=dataclasses.replace(
                    arc.delay, a0=arc.delay.a0 * 1.25
                ))
                for key, arc in xor.arcs.items()
            },
        )
        lib._sized_cache.clear()
        return lib

    def test_mixed_batch_matches_fresh(self, library, monkeypatch):
        lib = self._with_xnor(library)
        circuit = parse_bench(self.BENCH, name="loads")
        edits = [
            TrialEdit("resize", "xor", 2.0),   # xor: new load terms
            TrialEdit("swap", "xor", "xnor"),  # same layout: solo build
            TrialEdit("resize", "y1", 4.0),    # re-loads n2 and xor
            TrialEdit("swap", "n2", "nor"),    # another layout: solo build
            TrialEdit("swap", "inv", "buf"),   # other arcs: solo build
            TrialEdit("resize", "buf", 2.0),   # re-loads inv
        ]
        with use_registry() as registry, monkeypatch.context() as patch:
            incr = self._engine(circuit, lib, VShapeModel)
            trial = incr.try_edits(edits)
            before = Circuit.from_dict(circuit.to_dict())
            result = incr.commit(trial, 1)
        counters = registry.snapshot()["counters"]
        # Each swap is one solo build (its gates' inputs are primary
        # inputs); the resizes' lanes take load terms: xor 1, y1 3 (n2,
        # xor), buf 2 (inv).
        assert counters["sta.incr.seed_builds"] == 3
        assert counters["sta.incr.seed_load_terms"] == 6
        assert counters["sta.incr.rebuild_patches"] == 1
        assert counters.get("sta.incr.load_term_patches", 0) == 0
        _assert_columns_match_fresh(before, lib, trial, edits)
        _assert_all_lines_equal(circuit, result, _fresh_timings(circuit, lib))


class TestLiveView:
    """The engine serves its window state through one read-only live
    view, which builds a line on first read and rebuilds the lines a
    replay or an adopted commit rewrote."""

    def test_reads_follow_the_master_state(self, library):
        from repro.sta.compile import LiveTimings

        circuit = load_packaged_bench("c432s")
        incr = _incremental(circuit, library, "level")
        live = incr.result()
        assert isinstance(live.timings, LiveTimings)
        assert not live.timings._built  # analyze() builds no line
        gate = "G110"
        sink = circuit.fanouts(gate)[0].output
        read = (live.line(gate), live.line(sink))
        circuit.resize_gate(gate, 4.0)
        assert incr.retime().timings is live.timings
        assert live.line(gate) is not read[0]
        _assert_all_lines_equal(
            circuit, live, _fresh_timings(circuit, library)
        )
        trial = incr.try_edits([TrialEdit("resize", gate, 0.5)])
        assert incr.commit(trial, 0).timings is live.timings
        _assert_all_lines_equal(
            circuit, live, _fresh_timings(circuit, library)
        )
        with pytest.raises(TypeError):
            live.timings[gate] = read[0]
        # Required times read the view's columns in place.
        TestRequiredTimes._assert_required_match_fresh(
            circuit, library, incr.analyzer, live
        )

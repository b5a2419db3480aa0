"""Tests for incremental timing refinement (paper Section 5).

Key properties:

* with all lines at xx, ITR reproduces STA exactly (the paper: "STA is a
  special case of ITR where S_tr = 0 for every line");
* windows only shrink as values are specified (monotone refinement);
* refined windows stay sound: a timing simulation of any vector pair
  consistent with the assignment lands inside the refined windows;
* Table-1 behaviours: definite switchers cap/raise bounds, impossible
  transitions lose their windows.
"""

import random

import pytest

from repro.circuit import load_packaged_bench
from repro.itr import Conflict, ItrEngine, TwoFrame
from repro.models import VShapeModel
from repro.obs import use_registry
from repro.sta import PiStimulus, TimingAnalyzer, TimingSimulator
from repro.sta.windows import IMPOSSIBLE, timings_equal

V = TwoFrame.parse
NS = 1e-9


@pytest.fixture()
def engine(c17, library):
    return ItrEngine(c17, library, VShapeModel())


class TestStaEquivalence:
    def test_unspecified_itr_equals_sta(self, engine, c17, library):
        sta = TimingAnalyzer(c17, library, VShapeModel()).analyze()
        itr = engine.refine(engine.initial_values())
        for line in c17.lines:
            for rising in (True, False):
                a = sta.line(line).window(rising)
                b = itr.line(line).window(rising)
                assert a.a_s == pytest.approx(b.a_s)
                assert a.a_l == pytest.approx(b.a_l)
                assert a.t_s == pytest.approx(b.t_s)
                assert a.t_l == pytest.approx(b.t_l)


class TestRefinementRules:
    def test_impossible_transition_loses_window(self, engine):
        values = engine.assign(engine.initial_values(), "G1", V("11"))
        result = engine.refine(values)
        assert not result.line("G1").rise.is_active
        assert not result.line("G1").fall.is_active

    def test_steady_zero_input_kills_controlled_speedup(self, engine, c17,
                                                        library):
        # G10 = NAND(G1, G3).  With G1 steady 1, only G3 can fall: the
        # earliest G10 rise loses the simultaneous-switching speed-up.
        base = engine.refine(engine.initial_values())
        values = engine.assign(engine.initial_values(), "G1", V("11"))
        refined = engine.refine(values)
        assert refined.line("G10").rise.a_s > base.line("G10").rise.a_s

    def test_definite_fall_caps_latest_rise(self, engine):
        # G1 definitely falls: G10's latest rise is capped by G1's path.
        base = engine.refine(engine.initial_values())
        values = engine.assign(engine.initial_values(), "G1", V("10"))
        refined = engine.refine(values)
        assert refined.line("G10").rise.a_l <= base.line("G10").rise.a_l

    def test_windows_only_shrink(self, engine, c17):
        """Monotone refinement along a random assignment sequence."""
        rng = random.Random(7)
        values = engine.initial_values()
        previous = engine.refine(values)
        # Assign PI values one at a time.
        for pi in c17.inputs:
            v1 = rng.choice("01")
            v2 = rng.choice("01")
            try:
                values = engine.assign(values, pi, V(v1 + v2))
            except Exception:
                continue
            current = engine.refine(values)
            for line in c17.lines:
                for rising in (True, False):
                    old = previous.line(line).window(rising)
                    new = current.line(line).window(rising)
                    assert old.contains_window(new, tol=1e-13), (
                        line, rising, old, new,
                    )
            previous = current

    def test_assignment_propagates_states(self, engine):
        values = engine.assign(engine.initial_values(), "G3", V("00"))
        result = engine.refine(values)
        # G3 = 0 controls both G10 and G11 high in both frames: no output
        # transitions there.
        assert not result.line("G10").rise.is_active
        assert not result.line("G10").fall.is_active
        assert not result.line("G11").fall.is_active

    def test_refine_assign_combo(self, engine):
        result = engine.refine(engine.initial_values())
        result2 = engine.refine_assign(result, "G1", V("10"))
        assert result2.values["G1"] == V("10")
        assert result2.line("G1").rise.is_active is False


class TestIncrementalRefinement:
    def test_matches_full_refine_along_sequence(self, engine, c17):
        rng = random.Random(31)
        values = engine.initial_values()
        incremental = engine.refine(values)
        for _ in range(8):
            pi = rng.choice(c17.inputs)
            literal = V(rng.choice(["01", "10", "11", "00", "1x", "x0"]))
            try:
                values = engine.assign(values, pi, literal)
            except Exception:
                continue
            full = engine.refine(values)
            incremental = engine.refine_incremental(incremental, values)
            for line in c17.lines:
                for rising in (True, False):
                    a = full.line(line).window(rising)
                    b = incremental.line(line).window(rising)
                    assert a.state == b.state, (line, rising)
                    if a.is_active:
                        assert (a.a_s, a.a_l, a.t_s, a.t_l) == (
                            b.a_s, b.a_l, b.t_s, b.t_l
                        ), (line, rising)

    def test_no_change_returns_same_windows(self, engine):
        base = engine.refine(engine.initial_values())
        again = engine.refine_incremental(base, base.values)
        for line, timing in base.sta.timings.items():
            assert again.sta.timings[line] is timing

    def test_refine_assign_uses_incremental_path(self, engine):
        base = engine.refine(engine.initial_values())
        updated = engine.refine_assign(base, "G1", V("10"))
        # Untouched cones keep their window objects.
        assert updated.sta.timings["G19"] is base.sta.timings["G19"]
        # The changed line is refreshed.
        assert not updated.line("G1").rise.is_active


    @pytest.mark.parametrize("bench", ["c17", "c432s"])
    def test_matches_full_refine_on_internal_decisions(self, bench, library):
        """Decisions on any line, internal ones included, along random
        sequences: every window, state included, bitwise as a full
        refine of the same assignment.  A value change re-states the
        stored windows its gate does not search again, so a stale state
        shows here."""
        circuit = load_packaged_bench(bench)
        engine = ItrEngine(circuit, library, VShapeModel())
        literals = ["01", "10", "00", "11", "0x", "x1", "1x", "x0"]
        lines = list(circuit.lines)
        for seed in range(6):
            rng = random.Random(seed)
            result = engine.refine(engine.initial_values())
            for _ in range(10):
                line = rng.choice(lines)
                try:
                    result = engine.refine_assign(
                        result, line, V(rng.choice(literals))
                    )
                except Conflict:
                    continue
                full = engine.refine(result.values)
                for name in lines:
                    assert timings_equal(
                        result.line(name), full.line(name)
                    ), (seed, line, name)

    def test_searches_only_directions_a_decision_can_move(self, library):
        """G3 = 00 holds G10 and G11 at 1: neither runs a corner search,
        and no gate searches a direction its value makes impossible."""
        with use_registry() as registry:
            engine = ItrEngine(load_packaged_bench("c17"), library)
            base = engine.refine(engine.initial_values())
            calls = []
            search = engine.analyzer.propagate_gate

            def record(gate, timings, directions=(True, False)):
                calls.append((gate.output, tuple(directions)))
                return search(gate, timings, directions)

            engine.analyzer.propagate_gate = record
            before = registry.snapshot()["counters"]
            result = engine.refine_assign(base, "G3", V("00"))
            after = registry.snapshot()["counters"]
        searched = {line for line, _ in calls}
        assert searched and not searched & {"G10", "G11"}
        for line, directions in calls:
            value = result.values[line]
            assert all(value.state(r) != IMPOSSIBLE for r in directions)
        assert after["sta.corner_calls"] - before["sta.corner_calls"] == sum(
            len(directions) for _, directions in calls
        )
        assert after["itr.reused_directions"] >= 4  # G10's and G11's


class TestRefinedSoundness:
    def _stimuli_consistent(self, circuit, values, rng):
        """Random PI stimuli consistent with the (implied) assignment."""
        stimuli = {}
        for pi in circuit.inputs:
            v = values[pi]
            v1 = v.v1 if v.v1 is not None else rng.randint(0, 1)
            v2 = v.v2 if v.v2 is not None else rng.randint(0, 1)
            stimuli[pi] = PiStimulus(v1, v2)
        return stimuli

    def test_simulation_within_refined_windows(self, engine, c17, library):
        rng = random.Random(11)
        sim = TimingSimulator(c17, library, VShapeModel())
        values = engine.assign(engine.initial_values(), "G1", V("10"))
        values = engine.assign(values, "G2", V("11"))
        result = engine.refine(values)
        for _ in range(120):
            stimuli = self._stimuli_consistent(c17, values, rng)
            run = sim.run(stimuli)
            # Skip vector pairs inconsistent with implied internal values.
            consistent = all(
                values[line].intersect(
                    TwoFrame(run.values1[line], run.values2[line])
                ) is not None
                for line in c17.lines
            )
            if not consistent:
                continue
            for line in c17.lines:
                event = run.events[line]
                if event is None:
                    continue
                window = result.line(line).window(event.rising)
                assert window.is_active, (line, event)
                assert window.contains_event(event.arrival, event.trans), (
                    line, event, window,
                )

    def test_fully_specified_vector_gives_tight_windows(self, engine, c17,
                                                        library):
        """With every PI fixed, ITR windows collapse to near-points that
        still contain the simulated events."""
        values = engine.initial_values()
        spec = {"G1": "10", "G2": "11", "G3": "11", "G6": "11", "G7": "11"}
        for pi, lit in spec.items():
            values = engine.assign(values, pi, V(lit))
        result = engine.refine(values)
        sim = TimingSimulator(c17, library, VShapeModel())
        stimuli = {pi: PiStimulus(int(s[0]), int(s[1])) for pi, s in spec.items()}
        run = sim.run(stimuli)
        for line in c17.lines:
            event = run.events[line]
            if event is None:
                continue
            window = result.line(line).window(event.rising)
            assert window.contains_event(event.arrival, event.trans)
            # With one switching path, the window must be a point.
            assert window.arrival_width() <= 1e-13


class TestItrTightensVsSta:
    def test_refined_min_arrival_not_smaller(self, engine, c17, library):
        """ITR can only rule corners out, never add new earlier ones."""
        sta = TimingAnalyzer(c17, library, VShapeModel()).analyze()
        values = engine.assign(engine.initial_values(), "G3", V("11"))
        refined = engine.refine(values)
        for po in c17.outputs:
            for rising in (True, False):
                ref_w = refined.line(po).window(rising)
                sta_w = sta.line(po).window(rising)
                if ref_w.is_active:
                    assert ref_w.a_s >= sta_w.a_s - 1e-15

    def test_paper_workflow_narrowing(self, engine, c17):
        """More specified values => no wider output windows (the paper's
        motivation for using ITR inside ATPG)."""
        values = engine.initial_values()
        base = engine.refine(values)
        width0 = sum(
            base.line(po).window(r).arrival_width()
            for po in c17.outputs for r in (True, False)
            if base.line(po).window(r).is_active
        )
        values = engine.assign(values, "G1", V("10"))
        values = engine.assign(values, "G2", V("11"))
        values = engine.assign(values, "G7", V("11"))
        refined = engine.refine(values)
        width1 = sum(
            refined.line(po).window(r).arrival_width()
            for po in c17.outputs for r in (True, False)
            if refined.line(po).window(r).is_active
        )
        assert width1 <= width0 + 1e-15

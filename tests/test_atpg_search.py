"""Tests for the timing-based ATPG (paper Section 7)."""

import pytest

from repro.atpg import (
    ABORTED,
    AtpgConfig,
    CrosstalkAtpg,
    CrosstalkFault,
    DETECTED,
    UNTESTABLE,
    check_excitation,
    generate_fault_list,
    transition_literal,
)
from repro.atpg.faults import FaultySimulator
from repro.itr import Conflict, ItrEngine
from repro.models import VShapeModel

NS = 1e-9


def make_fault(aggressor, victim, a_rise, v_rise, delta=0.2 * NS,
               window=0.5 * NS):
    return CrosstalkFault(
        aggressor=aggressor, victim=victim,
        aggressor_rising=a_rise, victim_rising=v_rise,
        delta=delta, window=window,
    )


class TestExcitationCheck:
    def test_feasible_on_unconstrained_c17(self, c17, library):
        engine = ItrEngine(c17, library)
        fault = make_fault("G10", "G16", True, False)
        values = engine.assign(
            engine.initial_values(), "G10", transition_literal(True)
        )
        values = engine.assign(values, "G16", transition_literal(False))
        result = engine.refine(values)
        verdict = check_excitation(fault, result)
        assert verdict.logic_possible
        assert verdict.alignment_possible
        assert verdict.feasible

    def test_logic_infeasible_detected(self, c17, library):
        engine = ItrEngine(c17, library)
        fault = make_fault("G10", "G16", True, False)
        # Force G10 steady: its rising transition becomes impossible.
        values = engine.assign(
            engine.initial_values(), "G10",
            transition_literal(True).parse("11"),
        )
        result = engine.refine(values)
        verdict = check_excitation(fault, result)
        assert not verdict.logic_possible
        assert not verdict.feasible

    def test_alignment_infeasible_with_tiny_window(self, c17, library):
        engine = ItrEngine(c17, library)
        # G10 (level 1) and G22 (level 3): arrivals are provably separated
        # by more than a femtosecond-scale coupling window.
        fault = make_fault("G10", "G22", True, False, window=1e-15)
        result = engine.refine(engine.initial_values())
        verdict = check_excitation(fault, result)
        assert verdict.logic_possible
        assert not verdict.alignment_possible


class TestGenerate:
    def test_detects_a_plantable_fault(self, c17, library):
        """A fault with generous delta/window on the c17 critical cone
        must be detected with a valid two-pattern test."""
        fault = make_fault("G10", "G16", True, False,
                           delta=0.3 * NS, window=1.0 * NS)
        atpg = CrosstalkAtpg(
            c17, library,
            config=AtpgConfig(use_itr=True, backtrack_limit=64,
                              period=0.30 * NS),
        )
        result = atpg.generate(fault)
        assert result.status == DETECTED
        assert result.vector is not None
        # Re-simulate to confirm the vector is a real test.
        faulty = FaultySimulator(
            c17, library, VShapeModel(), atpg.sta_config, fault=fault
        ).run(result.vector)
        clean = atpg._fault_free_sim.run(result.vector)
        threshold = atpg.period + atpg.config.detect_guard
        late = [
            po for po in c17.outputs
            if faulty.events[po] and faulty.events[po].arrival > threshold
        ]
        assert late
        assert any(
            clean.events[po] is None
            or clean.events[po].arrival <= threshold
            for po in late
        )

    def test_impossible_direction_untestable(self, c17, library):
        # G16 = NAND(G2, G11): it cannot fall while G10 rises if we force
        # a conflicting logic requirement.  Use a same-line-cone conflict:
        # victim G10 rising requires G1 or G3 falling; aggressor G11
        # rising requires G3 or G6 falling; both are satisfiable, so pick
        # a fault whose excitation truly conflicts: G22 and G10 both
        # rising is impossible since G10 rising forces G22's input high.
        fault = make_fault("G10", "G22", True, True)
        atpg = CrosstalkAtpg(c17, library,
                             config=AtpgConfig(backtrack_limit=64))
        result = atpg.generate(fault)
        assert result.status == UNTESTABLE

    def test_alignment_untestable_with_itr(self, c17, library):
        fault = make_fault("G10", "G22", True, False, window=1e-15)
        atpg = CrosstalkAtpg(c17, library,
                             config=AtpgConfig(use_itr=True))
        result = atpg.generate(fault)
        assert result.status == UNTESTABLE
        assert result.reason == "timing alignment"

    def test_without_itr_no_timing_proof(self, c17, library):
        """The same alignment-infeasible fault cannot be *proved*
        untestable without ITR; the search grinds to abort/exhaustion."""
        fault = make_fault("G10", "G22", True, False, window=1e-15)
        atpg = CrosstalkAtpg(
            c17, library,
            config=AtpgConfig(use_itr=False, backtrack_limit=16),
        )
        result = atpg.generate(fault)
        assert result.status in (ABORTED, UNTESTABLE)
        assert result.reason != "timing alignment"

    def test_backtrack_limit_aborts(self, c880s, library):
        faults = generate_fault_list(c880s, 6, seed=2)
        atpg = CrosstalkAtpg(
            c880s, library,
            config=AtpgConfig(use_itr=False, backtrack_limit=1),
        )
        summary = atpg.run_all(faults)
        assert summary.count(ABORTED) >= 1


class TestEfficiencyExperiment:
    def test_itr_raises_efficiency(self, c880s, library):
        """The Section 7 claim: ITR pruning resolves more faults within
        the same backtrack budget."""
        faults = generate_fault_list(
            c880s, 12, seed=5, delta=0.4 * NS, window=0.35 * NS
        )
        period_probe = CrosstalkAtpg(c880s, library, config=AtpgConfig())
        period = period_probe._sta.output_max_arrival() * 0.85
        with_itr = CrosstalkAtpg(
            c880s, library,
            config=AtpgConfig(use_itr=True, backtrack_limit=24,
                              period=period),
        ).run_all(faults)
        without_itr = CrosstalkAtpg(
            c880s, library,
            config=AtpgConfig(use_itr=False, backtrack_limit=24,
                              period=period),
        ).run_all(faults)
        assert with_itr.efficiency > without_itr.efficiency

    def test_summary_counters(self, c17, library):
        fault = make_fault("G10", "G22", True, True)
        atpg = CrosstalkAtpg(c17, library, config=AtpgConfig())
        summary = atpg.run_all([fault])
        assert summary.count(UNTESTABLE) == 1
        assert summary.efficiency == 1.0

    def test_empty_fault_list(self, c17, library):
        atpg = CrosstalkAtpg(c17, library, config=AtpgConfig())
        assert atpg.run_all([]).efficiency == 0.0


def _window_bits(w):
    return (w.state,) + tuple(float(v).hex() for v in (w.a_s, w.a_l, w.t_s, w.t_l))


class TestCompiledBaseline:
    """A generator's STA windows, period and required times come from
    the compiled pass; the per-gate walk first runs in the base ITR
    refinement, once per generator."""

    @pytest.mark.parametrize("name", ["c432s", "c880s"])
    def test_construction_makes_no_per_gate_call(
        self, name, library, monkeypatch
    ):
        from repro.circuit import load_packaged_bench
        from repro.sta import TimingAnalyzer

        circuit = load_packaged_bench(name)

        def forbidden(*args, **kwargs):
            raise AssertionError("per-gate walk while building a generator")

        with monkeypatch.context() as patch:
            patch.setattr(TimingAnalyzer, "_propagate_windows", forbidden)
            atpg = CrosstalkAtpg(circuit, library)
        reference = TimingAnalyzer(circuit, library)
        walked = reference.analyze_per_gate()
        for line in circuit.lines:
            for rising in (True, False):
                assert _window_bits(
                    atpg._sta.line(line).window(rising)
                ) == _window_bits(walked.line(line).window(rising)), line
        assert atpg.period.hex() == walked.output_max_arrival().hex()
        want = reference.compute_required_per_gate(
            walked, setup_time=atpg.period
        )
        for line in circuit.lines:
            for direction in ("rise", "fall"):
                got_w = getattr(atpg._required[line], direction)
                want_w = getattr(want[line], direction)
                assert got_w.q_s == want_w.q_s and got_w.q_l == want_w.q_l

    def test_first_prune_runs_the_base_refinement_once_and_reruns_match(
        self, library
    ):
        from repro.circuit import load_packaged_bench
        from repro.obs import use_registry

        circuit = load_packaged_bench("c432s")
        with use_registry() as reg:
            atpg = CrosstalkAtpg(
                circuit, library, config=AtpgConfig(backtrack_limit=8)
            )
            engine = atpg.engine
            for fault in generate_fault_list(circuit, 12, seed=3):
                if atpg._po_depths().get(fault.victim, -1) < 0:
                    continue
                try:
                    values = engine.assign(
                        engine.initial_values(), fault.aggressor,
                        transition_literal(fault.aggressor_rising),
                    )
                    values = engine.assign(
                        values, fault.victim,
                        transition_literal(fault.victim_rising),
                    )
                except Conflict:
                    continue
                break
            assert atpg._base_itr is None
            atpg._prune(fault, values)
            base = atpg._base_itr
            assert base is not None
            first = atpg.generate(fault)
            second = atpg.generate(fault)
            assert atpg._base_itr is base
            assert reg.histogram("atpg.baseline_s").count == 1
        assert (
            second.status, second.backtracks, second.reason, second.vector
        ) == (first.status, first.backtracks, first.reason, first.vector)

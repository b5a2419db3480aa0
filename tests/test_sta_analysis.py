"""Integration tests: STA + timing simulation on real characterized cells.

The central properties (mirroring the paper's claims):

* soundness — every timing-simulation event lies inside its STA window;
* Table 2 shape — the proposed model never reports a *larger* min-delay
  than pin-to-pin, and the max-delays agree;
* required-time consistency — violations appear exactly when requirements
  are tightened beyond the analyzed ranges.
"""

import itertools
import math
import random
import re

import pytest

from repro.circuit import (
    GeneratorConfig,
    generate_circuit,
    load_packaged_bench,
    parse_bench,
)
from repro.models import PinToPinModel, VShapeModel
from repro.sta import (
    LineRequired,
    PiStimulus,
    RequiredWindow,
    StaConfig,
    TimingAnalyzer,
    TimingSimulator,
)
from repro.sta.analysis import compute_loads

from .test_perf_parity import assert_results_equal

NS = 1e-9


@pytest.fixture(scope="module")
def analyzers(c17, library):
    return {
        "vshape": TimingAnalyzer(c17, library, VShapeModel()),
        "pin2pin": TimingAnalyzer(c17, library, PinToPinModel()),
    }


class TestForwardAnalysis:
    def test_all_lines_have_windows(self, analyzers, c17):
        result = analyzers["vshape"].analyze()
        for line in c17.lines:
            timing = result.line(line)
            assert timing.rise.is_active and timing.fall.is_active

    def test_windows_are_ordered(self, analyzers, c17):
        result = analyzers["vshape"].analyze()
        for line in c17.lines:
            for rising in (True, False):
                w = result.line(line).window(rising)
                assert w.a_s <= w.a_l
                assert 0 < w.t_s <= w.t_l

    def test_levels_increase_arrival(self, analyzers, c17):
        result = analyzers["vshape"].analyze()
        levels = c17.levelize()
        for line in c17.lines:
            if levels[line] > 0:
                assert result.line(line).earliest_arrival() > 0

    def test_vshape_min_not_larger_than_pin2pin(self, analyzers):
        res_v = analyzers["vshape"].analyze()
        res_p = analyzers["pin2pin"].analyze()
        assert (
            res_v.output_min_arrival() <= res_p.output_min_arrival() + 1e-15
        )

    def test_same_max_delay_as_pin2pin(self, analyzers):
        """Paper Section 6.2: max-delays agree between the two models."""
        res_v = analyzers["vshape"].analyze()
        res_p = analyzers["pin2pin"].analyze()
        assert res_v.output_max_arrival() == pytest.approx(
            res_p.output_max_arrival(), rel=1e-9
        )

    def test_c17_min_delay_improvement(self, analyzers):
        """c17 is all-NAND with reconvergence: speedup must appear."""
        res_v = analyzers["vshape"].analyze()
        res_p = analyzers["pin2pin"].analyze()
        ratio = res_p.output_min_arrival() / res_v.output_min_arrival()
        assert ratio > 1.03

    def test_pi_override(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        from repro.sta import DirWindow, LineTiming

        override = LineTiming(
            rise=DirWindow(1 * NS, 1 * NS, 0.2 * NS, 0.2 * NS),
            fall=DirWindow(1 * NS, 1 * NS, 0.2 * NS, 0.2 * NS),
        )
        shifted = analyzer.analyze(pi_overrides={"G1": override})
        base = analyzer.analyze()
        assert (
            shifted.line("G10").rise.a_l > base.line("G10").rise.a_l
        )

    def test_wider_pi_window_widens_outputs(self, c17, library):
        narrow = TimingAnalyzer(
            c17, library, VShapeModel(),
            StaConfig(pi_arrival=(0.0, 0.0)),
        ).analyze()
        wide = TimingAnalyzer(
            c17, library, VShapeModel(),
            StaConfig(pi_arrival=(0.0, 1 * NS)),
        ).analyze()
        for po in c17.outputs:
            assert wide.line(po).window(True).contains_window(
                narrow.line(po).window(True)
            )

    def test_loads_sum_fanout_caps(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        # G11 feeds G16 and G19 (two NAND2 pins) -> twice one input cap.
        cell = library.cell("NAND2")
        assert analyzer.load("G11") == pytest.approx(
            cell.input_caps[0] + cell.input_caps[1]
        )
        # Primary outputs carry the configured PO load.
        assert analyzer.load("G22") == pytest.approx(
            analyzer.config.po_load
        )

    def test_pin_read_twice_loads_each_pin_once(self, library):
        # g reads a on both pins and h on one: three NAND2 pins, each
        # counted once (fanouts lists g twice; it used to count 4 + 1).
        circuit = parse_bench(
            "INPUT(a)\nINPUT(b)\nOUTPUT(g)\nOUTPUT(h)\n"
            "g = NAND(a, a)\nh = NAND(a, b)\n",
            name="double_read",
        )
        cap = library.cell("NAND2").input_caps
        loads = compute_loads(circuit, library, StaConfig())
        assert loads["a"] == cap[0] + cap[1] + cap[0]
        assert loads["a"] == pytest.approx(21e-15)
        assert loads["b"] == cap[1]

    def test_bulk_loads_equal_the_per_line_sum(self, library):
        """compute_loads' one gate sweep adds the same caps in the same
        order as line_load (the incremental engine's per-line refresh),
        also after rewires reorder fan-out lists and resizes."""
        from repro.circuit import load_packaged_bench
        from repro.sta.analysis import line_load

        circuit = load_packaged_bench("c880s")
        gates = sorted(circuit.gates)
        circuit.resize_gate(gates[3], 2.0)
        circuit.swap_cell(next(
            g for g in gates if circuit.gates[g].kind == "nand"
            and circuit.gates[g].n_inputs == 2
        ), "nor")
        for line in gates[10:40:5]:
            gate = circuit.gates[line]
            new = next(
                pi for pi in circuit.inputs if pi not in gate.inputs
            )
            circuit.rewire_input(line, 0, new)
        config = StaConfig(po_load=3e-15, dangling_load=1e-15)
        loads = compute_loads(circuit, library, config)
        outputs = set(circuit.outputs)
        for line in circuit.lines:
            want = line_load(
                circuit, line,
                lambda gate: library.cell(gate.cell_name()),
                config, outputs,
            )
            assert loads[line].hex() == want.hex(), line


def random_stimuli(circuit, rng):
    stimuli = {}
    for pi in circuit.inputs:
        v1, v2 = rng.randint(0, 1), rng.randint(0, 1)
        stimuli[pi] = PiStimulus(v1, v2, arrival=0.0, trans=0.2 * NS)
    return stimuli


class TestSoundnessAgainstSimulation:
    def test_c17_exhaustive(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        sta = analyzer.analyze()
        sim = TimingSimulator(c17, library, VShapeModel())
        checked = 0
        for v1 in itertools.product((0, 1), repeat=5):
            for v2 in itertools.product((0, 1), repeat=5):
                stimuli = {
                    pi: PiStimulus(a, b)
                    for pi, a, b in zip(c17.inputs, v1, v2)
                }
                result = sim.run(stimuli)
                for line in c17.lines:
                    event = result.events[line]
                    if event is None:
                        continue
                    window = sta.line(line).window(event.rising)
                    assert window.contains_event(event.arrival, event.trans), (
                        line, event, window,
                    )
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("seed", [11, 23, 57])
    def test_random_circuits_sampled(self, library, seed):
        rng = random.Random(seed)
        circuit = generate_circuit(
            "rand",
            GeneratorConfig(
                n_inputs=6, n_outputs=3, n_gates=25, seed=seed
            ),
        )
        analyzer = TimingAnalyzer(circuit, library, VShapeModel())
        sta = analyzer.analyze()
        sim = TimingSimulator(circuit, library, VShapeModel())
        for _ in range(60):
            result = sim.run(random_stimuli(circuit, rng))
            for line in circuit.lines:
                event = result.events[line]
                if event is None:
                    continue
                window = sta.line(line).window(event.rising)
                assert window.contains_event(
                    event.arrival, event.trans, tol=1e-12
                ), (line, event, window)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: when three or more inputs switch to "
        "controlling within 0.5*S+ of each other, the timing simulator "
        "applies the k-input ratio and the STA, which applies it only "
        "to overlapping arrival windows, does not (vector 44: G59 "
        "NOR3 falls at 0.1220 ns, window from 0.2042 ns; vector 51: "
        "G82 OR3 rises at 0.3325 ns, window from 0.3466 ns)",
    )
    def test_c432s_multi_input_switching_sampled(self, library):
        circuit = load_packaged_bench("c432s")
        sta = TimingAnalyzer(circuit, library, VShapeModel()).analyze()
        sim = TimingSimulator(circuit, library, VShapeModel())
        rng = random.Random(7)
        missed = []
        for vector in range(60):
            result = sim.run(random_stimuli(circuit, rng))
            for line in circuit.lines:
                event = result.events[line]
                if event is None:
                    continue
                window = sta.line(line).window(event.rising)
                if not window.contains_event(
                    event.arrival, event.trans, tol=1e-12
                ):
                    missed.append((vector, line, event, window))
        assert not missed, missed

    def test_pin2pin_sta_contains_pin2pin_simulation(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, PinToPinModel())
        sta = analyzer.analyze()
        sim = TimingSimulator(c17, library, PinToPinModel())
        rng = random.Random(3)
        for _ in range(80):
            result = sim.run(random_stimuli(c17, rng))
            for line in c17.lines:
                event = result.events[line]
                if event is None:
                    continue
                window = sta.line(line).window(event.rising)
                assert window.contains_event(event.arrival, event.trans)


class TestRequiredTimes:
    def test_zero_slack_at_critical_output(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        result = analyzer.analyze()
        required = analyzer.compute_required(result)
        violations = analyzer.check(result, required)
        assert violations == []

    def test_tight_setup_creates_violation(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        result = analyzer.analyze()
        tight = result.output_max_arrival() * 0.5
        required = analyzer.compute_required(result, setup_time=tight)
        violations = analyzer.check(result, required)
        assert any(v.kind == "setup" for v in violations)

    def test_hold_requirement_creates_violation(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        result = analyzer.analyze()
        hold = result.output_min_arrival() * 2.0
        required = analyzer.compute_required(result, hold_time=hold)
        violations = analyzer.check(result, required)
        assert any(v.kind == "hold" for v in violations)

    def test_required_monotone_backward(self, c17, library):
        """Upstream Q_L must not exceed downstream Q_L minus min gate delay."""
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        result = analyzer.analyze()
        required = analyzer.compute_required(result)
        for line in c17.lines:
            req = required[line]
            for rising in (True, False):
                rw = req.window(rising)
                if math.isfinite(rw.q_l):
                    assert rw.q_l <= result.output_max_arrival() + 1e-15

    def test_explicit_po_requirements(self, c17, library):
        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        result = analyzer.analyze()
        po_required = {
            "G22": LineRequired(
                rise=RequiredWindow(-math.inf, 0.1 * NS),
                fall=RequiredWindow(-math.inf, 0.1 * NS),
            )
        }
        required = analyzer.compute_required(result, po_required=po_required)
        violations = analyzer.check(result, required)
        assert any(v.line == "G22" and v.kind == "setup" for v in violations)


class TestTimingSimulator:
    def test_missing_stimulus_rejected(self, c17, library):
        sim = TimingSimulator(c17, library)
        with pytest.raises(ValueError):
            sim.run({"G1": PiStimulus.steady(0)})

    def test_steady_vectors_produce_no_events(self, c17, library):
        sim = TimingSimulator(c17, library)
        result = sim.run({pi: PiStimulus.steady(1) for pi in c17.inputs})
        assert all(e is None for e in result.events.values())

    def test_single_transition_propagates(self, c17, library):
        sim = TimingSimulator(c17, library)
        stimuli = {pi: PiStimulus.steady(1) for pi in c17.inputs}
        stimuli["G1"] = PiStimulus.transition(False, arrival=0.0)
        result = sim.run(stimuli)
        # G1 falls -> G10 rises -> G22 falls.
        assert result.events["G10"].rising is True
        assert result.events["G22"].rising is False
        assert result.arrival("G22") > result.arrival("G10") > 0

    def test_arrival_raises_for_static_line(self, c17, library):
        sim = TimingSimulator(c17, library)
        result = sim.run({pi: PiStimulus.steady(0) for pi in c17.inputs})
        with pytest.raises(ValueError):
            result.arrival("G22")

    def test_values_match_functional_evaluation(self, c17, library):
        sim = TimingSimulator(c17, library)
        rng = random.Random(5)
        for _ in range(20):
            stimuli = random_stimuli(c17, rng)
            result = sim.run(stimuli)
            ref1 = c17.evaluate({pi: stimuli[pi].v1 for pi in c17.inputs})
            ref2 = c17.evaluate({pi: stimuli[pi].v2 for pi in c17.inputs})
            assert result.values1 == ref1
            assert result.values2 == ref2

    def test_simultaneous_arrival_speedup_visible(self, c17, library):
        """The Figure 1 effect at circuit level: aligned falling inputs at
        a NAND make its output rise earlier than a lone falling input."""
        sim = TimingSimulator(c17, library, VShapeModel())
        base = {pi: PiStimulus.steady(1) for pi in c17.inputs}
        lone = dict(base)
        lone["G1"] = PiStimulus.transition(False)
        both = dict(base)
        both["G1"] = PiStimulus.transition(False)
        both["G3"] = PiStimulus.transition(False)
        t_lone = sim.run(lone).arrival("G10")
        t_both = sim.run(both).arrival("G10")
        assert t_both < t_lone


class TestScaledWalk:
    """The per-gate factor/derate inputs of ``analyze_per_gate``."""

    @pytest.mark.parametrize(
        "scaling", ["factors", "derates", "both"]
    )
    def test_scaled_walk_leaves_the_plain_walk_alone(
        self, library, scaling
    ):
        circuit = load_packaged_bench("c432s")
        n = len(circuit.gates)
        kwargs = {}
        if scaling in ("factors", "both"):
            kwargs["factors"] = [1.0 + 0.05 * math.sin(i) for i in range(n)]
        if scaling in ("derates", "both"):
            kwargs["derates"] = (0.93, 1.07)
        analyzer = TimingAnalyzer(circuit, library)
        first = analyzer.analyze_per_gate()
        scaled = analyzer.analyze_per_gate(**kwargs)
        second = analyzer.analyze_per_gate()
        fresh = TimingAnalyzer(circuit, library).analyze_per_gate(**kwargs)
        assert_results_equal(circuit, fresh, scaled)
        assert_results_equal(circuit, first, second)
        # The scaling is real: the scaled walk moved the outputs.
        assert scaled.output_max_arrival() != first.output_max_arrival()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"factors": [1.0] * 5}, "factors shape (5,) != gates (6,)"),
            (
                {"factors": [1.0] * 5 + [math.nan]},
                "variation factor[5] must be finite and > 0, got nan",
            ),
            (
                {"factors": [0.0] + [1.0] * 5},
                "variation factor[0] must be finite and > 0, got 0.0",
            ),
            (
                {"derates": (1.1, 0.9)},
                "derate early (1.1) must not exceed derate late (0.9)",
            ),
        ],
        ids=["count", "nan", "zero", "early>late"],
    )
    def test_bad_inputs_name_the_value(self, c17, library, kwargs, message):
        analyzer = TimingAnalyzer(c17, library)
        with pytest.raises(ValueError, match=re.escape(message)):
            analyzer.analyze_per_gate(**kwargs)

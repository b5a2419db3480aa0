"""Integration tests: delay-model predictions vs transistor simulation.

These reproduce the paper's Section 6.1 comparisons in miniature, using
the packaged characterized library against fresh transistor-level
simulations: the proposed model must track the simulator over skews and
transition times, and must beat the Jun/Nabavi baselines where the paper
says they fail.
"""

import pytest

from repro.models import InputEvent, JunModel, NabaviModel, VShapeModel
from repro.spice import GateCell, RampStimulus, simulate_gate
from repro.tech import GENERIC_05UM as TECH

NS = 1e-9
ARRIVAL = 2 * NS


def simulate_pair(cell, t_p, t_q, skew):
    in_rising = cell.controlling_value == 1
    stimuli = [
        RampStimulus.transition(in_rising, ARRIVAL, t_p, TECH.vdd),
        RampStimulus.transition(in_rising, ARRIVAL + skew, t_q, TECH.vdd),
    ]
    stimuli += [
        RampStimulus.steady(1 - cell.controlling_value, TECH.vdd)
        for _ in range(cell.n_inputs - 2)
    ]
    return simulate_gate(cell, stimuli)


def model_pair_delay(model, timing, t_p, t_q, skew, in_rising):
    events = [
        InputEvent(0, ARRIVAL, t_p, in_rising),
        InputEvent(1, ARRIVAL + skew, t_q, in_rising),
    ]
    delay, trans = model.controlling_response(
        timing, events, timing.ref_load
    )
    return delay, trans


@pytest.fixture(scope="module")
def nand2(library):
    return library.cell("NAND2")


class TestProposedTracksSimulator:
    @pytest.mark.parametrize(
        "skew", [-0.3 * NS, -0.1 * NS, 0.0, 0.1 * NS, 0.3 * NS, 0.6 * NS]
    )
    def test_skew_sweep_delay(self, nand2, skew):
        cell = GateCell("nand", 2, TECH)
        sim = simulate_pair(cell, 0.5 * NS, 0.5 * NS, skew)
        predicted, _ = model_pair_delay(
            VShapeModel(), nand2, 0.5 * NS, 0.5 * NS, skew, False
        )
        measured = sim.delay_from_earliest()
        assert predicted == pytest.approx(measured, abs=0.035 * NS)

    @pytest.mark.parametrize("t_q", [0.2 * NS, 0.5 * NS, 1.0 * NS])
    def test_transition_time_sweep_at_zero_skew(self, nand2, t_q):
        cell = GateCell("nand", 2, TECH)
        sim = simulate_pair(cell, 0.5 * NS, t_q, 0.0)
        predicted, _ = model_pair_delay(
            VShapeModel(), nand2, 0.5 * NS, t_q, 0.0, False
        )
        assert predicted == pytest.approx(
            sim.delay_from_earliest(), abs=0.03 * NS
        )

    def test_output_transition_time_tracked(self, nand2):
        cell = GateCell("nand", 2, TECH)
        sim = simulate_pair(cell, 0.5 * NS, 0.5 * NS, 0.0)
        _, predicted = model_pair_delay(
            VShapeModel(), nand2, 0.5 * NS, 0.5 * NS, 0.0, False
        )
        assert predicted == pytest.approx(sim.trans_time, rel=0.2)

    def test_single_input_pin_to_pin(self, nand2):
        cell = GateCell("nand", 2, TECH)
        sim = simulate_gate(cell, [
            RampStimulus.transition(False, ARRIVAL, 0.5 * NS, TECH.vdd),
            RampStimulus.steady(1, TECH.vdd),
        ])
        arc = nand2.ctrl_arc(0)
        assert arc.delay(0.5 * NS) == pytest.approx(
            sim.delay_from_pin(ARRIVAL), rel=0.08
        )


class TestBaselineFailureModes:
    def test_jun_fails_at_large_skew(self, nand2):
        """Figure 12: Jun's error grows with skew; ours stays bounded."""
        cell = GateCell("nand", 2, TECH)
        skew = 0.6 * NS
        sim = simulate_pair(cell, 0.5 * NS, 0.5 * NS, skew)
        measured = sim.delay_from_earliest()
        ours, _ = model_pair_delay(
            VShapeModel(), nand2, 0.5 * NS, 0.5 * NS, skew, False
        )
        jun, _ = model_pair_delay(
            JunModel(), nand2, 0.5 * NS, 0.5 * NS, skew, False
        )
        assert abs(ours - measured) < abs(jun - measured)
        assert abs(jun - measured) > 0.15 * measured

    def test_nabavi_fails_with_unequal_transition_times(self, nand2):
        """Figure 11: Nabavi degrades when Tx != Ty at zero skew."""
        cell = GateCell("nand", 2, TECH)
        sim = simulate_pair(cell, 0.5 * NS, 1.4 * NS, 0.0)
        measured = sim.delay_from_earliest()
        ours, _ = model_pair_delay(
            VShapeModel(), nand2, 0.5 * NS, 1.4 * NS, 0.0, False
        )
        nabavi, _ = model_pair_delay(
            NabaviModel(), nand2, 0.5 * NS, 1.4 * NS, 0.0, False
        )
        assert abs(ours - measured) < abs(nabavi - measured)

    def test_nabavi_position_blind_on_nand5(self, library):
        """Figure 10: position-4 pin-to-pin delay, proposed vs Nabavi."""
        nand5 = library.cell("NAND5")
        cell = GateCell("nand", 5, TECH)
        stimuli = [RampStimulus.steady(1, TECH.vdd)] * 5
        stimuli[4] = RampStimulus.transition(False, ARRIVAL, 0.5 * NS,
                                             TECH.vdd)
        sim = simulate_gate(cell, stimuli)
        measured = sim.delay_from_pin(ARRIVAL)
        ours, _ = VShapeModel().pin_to_pin(
            nand5, 4, False, True, 0.5 * NS, nand5.ref_load
        )
        nabavi, _ = NabaviModel().pin_to_pin(
            nand5, 4, False, True, 0.5 * NS, nand5.ref_load
        )
        assert abs(ours - measured) < abs(nabavi - measured)
        # The position effect itself is substantial.
        pos0, _ = VShapeModel().pin_to_pin(
            nand5, 0, False, True, 0.5 * NS, nand5.ref_load
        )
        assert measured > 1.1 * pos0


class TestLibraryWideSanity:
    @pytest.mark.parametrize(
        "name", ["NAND2", "NAND3", "NOR2", "AND2", "OR2"]
    )
    def test_d0_below_both_tails_across_grid(self, library, name):
        timing = library.cell(name)
        model = VShapeModel()
        for t_p in (0.2 * NS, 0.6 * NS, 1.2 * NS):
            for t_q in (0.2 * NS, 0.6 * NS, 1.2 * NS):
                shape = model.vshape(timing, 0, 1, t_p, t_q, timing.ref_load)
                assert shape.vertex <= shape.tail_pos + 1e-15
                assert shape.vertex <= shape.tail_neg + 1e-15
                assert shape.s_pos > 0 and shape.s_neg > 0

    @pytest.mark.parametrize("name", ["NAND4", "NAND5", "NOR4"])
    def test_multi_scale_speeds_up(self, library, name):
        timing = library.cell(name)
        scales = timing.ctrl.multi_scale
        assert all(float(v) < 1.05 for k, v in scales.items() if k != "2")

    def test_every_cell_has_complete_arcs(self, library):
        for name, timing in library.cells.items():
            if timing.kind == "xor":
                expected = 4 * timing.n_inputs
            else:
                expected = 2 * timing.n_inputs
            assert len(timing.arcs) == expected, name

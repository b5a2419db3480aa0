"""Tests for the simultaneous to-non-controlling extension (Λ-shape)."""

import pytest

from repro.models import (
    InputEvent,
    NonCtrlAwareModel,
    VShape,
    VShapeModel,
)
from repro.spice import GateCell, RampStimulus, simulate_gate
from repro.tech import GENERIC_05UM as TECH
from tests.synthetic import REF_LOAD, make_nand

NS = 1e-9
ARRIVAL = 2 * NS


def rise(pin, arrival, trans=0.5 * NS):
    return InputEvent(pin, arrival, trans, rising=True)


class TestPeakShapeGeometry:
    """The Λ is a :class:`VShape` whose vertex tops its tails; its +S
    tail is the lagging pin q's."""

    def make(self):
        return VShape(
            vertex=0.15 * NS, s_pos=0.3 * NS, s_neg=0.2 * NS,
            tail_pos=0.09 * NS, tail_neg=0.10 * NS,
        )

    def test_peak_at_zero(self):
        shape = self.make()
        assert shape.delay(0.0) == 0.15 * NS
        assert shape.delay(0.0) >= shape.delay(0.1 * NS)
        assert shape.delay(0.0) >= shape.delay(-0.1 * NS)

    def test_tails(self):
        shape = self.make()
        assert shape.delay(1.0 * NS) == shape.tail_pos
        assert shape.delay(-1.0 * NS) == shape.tail_neg

    def test_linear_interpolation(self):
        shape = self.make()
        mid = shape.delay(0.15 * NS)  # halfway to s_pos
        assert mid == pytest.approx(0.5 * (0.15 + 0.09) * NS)

    def test_max_delay_is_peak(self):
        assert self.make().max_delay() == 0.15 * NS


class TestFallbackBehaviour:
    def test_without_data_matches_vshape_model(self):
        """Cells without nonctrl data: extension == base model exactly."""
        nand2 = make_nand(2)  # synthetic cell, nonctrl is None
        events = [rise(0, 1 * NS), rise(1, 1.1 * NS)]
        ext = NonCtrlAwareModel().noncontrolling_response(
            nand2, events, REF_LOAD
        )
        base = VShapeModel().noncontrolling_response(nand2, events, REF_LOAD)
        assert ext == base

    def test_nonctrl_shape_requires_data(self):
        nand2 = make_nand(2)
        with pytest.raises(ValueError):
            NonCtrlAwareModel().nonctrl_shape(
                nand2, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD
            )

    def test_ctrl_behaviour_unchanged(self, library):
        nand2 = library.cell("NAND2")
        events = [
            InputEvent(0, 1 * NS, 0.5 * NS, False),
            InputEvent(1, 1 * NS, 0.5 * NS, False),
        ]
        ext = NonCtrlAwareModel().controlling_response(
            nand2, events, nand2.ref_load
        )
        base = VShapeModel().controlling_response(
            nand2, events, nand2.ref_load
        )
        assert ext == base


@pytest.fixture(scope="module")
def nand2_ext(library):
    cell = library.cell("NAND2")
    if cell.nonctrl is None:
        pytest.skip("library lacks nonctrl extension data")
    return cell


class TestCharacterizedExtension:
    def test_peak_exceeds_tails(self, nand2_ext):
        model = NonCtrlAwareModel()
        shape = model.nonctrl_shape(
            nand2_ext, 0, 1, 0.5 * NS, 0.5 * NS, nand2_ext.ref_load
        )
        assert shape.vertex > shape.tail_neg
        assert shape.vertex > shape.tail_pos
        assert shape.s_pos > 0 and shape.s_neg > 0

    def test_sdf_underestimates_peak(self, nand2_ext):
        """The effect the extension exists to capture."""
        cell = GateCell("nand", 2, TECH)
        sim = simulate_gate(cell, [
            RampStimulus.transition(True, ARRIVAL, 0.5 * NS, TECH.vdd),
            RampStimulus.transition(True, ARRIVAL, 0.5 * NS, TECH.vdd),
        ])
        measured = sim.delay_from_latest()
        events = [rise(0, ARRIVAL), rise(1, ARRIVAL)]
        ext, _ = NonCtrlAwareModel().noncontrolling_response(
            nand2_ext, events, nand2_ext.ref_load
        )
        sdf, _ = VShapeModel().noncontrolling_response(
            nand2_ext, events, nand2_ext.ref_load
        )
        assert sdf < measured * 0.9  # SDF misses the slow-down
        assert abs(ext - measured) < abs(sdf - measured)

    @pytest.mark.parametrize("skew_ns", [-0.3, -0.1, 0.0, 0.1, 0.3])
    def test_tracks_simulator_over_skew(self, nand2_ext, skew_ns):
        skew = skew_ns * NS
        cell = GateCell("nand", 2, TECH)
        sim = simulate_gate(cell, [
            RampStimulus.transition(True, ARRIVAL, 0.5 * NS, TECH.vdd),
            RampStimulus.transition(True, ARRIVAL + skew, 0.5 * NS, TECH.vdd),
        ])
        measured = sim.delay_from_latest()
        events = [rise(0, ARRIVAL), rise(1, ARRIVAL + skew)]
        ext, _ = NonCtrlAwareModel().noncontrolling_response(
            nand2_ext, events, nand2_ext.ref_load
        )
        # Conservative (never below measured by more than the fit noise)
        # and tight (within ~35 ps).
        assert ext > measured - 0.012 * NS
        assert abs(ext - measured) < 0.035 * NS

    def test_large_skew_recovers_pin_to_pin(self, nand2_ext):
        events = [rise(0, ARRIVAL), rise(1, ARRIVAL + 2 * NS)]
        ext, _ = NonCtrlAwareModel().noncontrolling_response(
            nand2_ext, events, nand2_ext.ref_load
        )
        sdf, _ = VShapeModel().noncontrolling_response(
            nand2_ext, events, nand2_ext.ref_load
        )
        assert ext == pytest.approx(sdf, rel=0.02)


class TestStaIntegration:
    def test_extended_model_never_reduces_max_delay(self, library, c17):
        from repro.sta import TimingAnalyzer

        ext = TimingAnalyzer(c17, library, NonCtrlAwareModel()).analyze()
        base = TimingAnalyzer(c17, library, VShapeModel()).analyze()
        assert (
            ext.output_max_arrival() >= base.output_max_arrival() - 1e-15
        )
        for line in c17.lines:
            for rising in (True, False):
                w_ext = ext.line(line).window(rising)
                w_base = base.line(line).window(rising)
                if w_ext.is_active and w_base.is_active:
                    assert w_ext.a_l >= w_base.a_l - 1e-15

    def test_extended_sta_contains_extended_simulation(self, library, c17):
        import random

        from repro.sta import PiStimulus, TimingAnalyzer, TimingSimulator

        if library.cell("NAND2").nonctrl is None:
            pytest.skip("library lacks nonctrl extension data")
        model = NonCtrlAwareModel()
        sta = TimingAnalyzer(c17, library, model).analyze()
        sim = TimingSimulator(c17, library, model)
        rng = random.Random(17)
        for _ in range(100):
            stimuli = {
                pi: PiStimulus(rng.randint(0, 1), rng.randint(0, 1))
                for pi in c17.inputs
            }
            result = sim.run(stimuli)
            for line in c17.lines:
                event = result.events[line]
                if event is None:
                    continue
                window = sta.line(line).window(event.rising)
                assert window.contains_event(
                    event.arrival, event.trans, tol=1e-12
                ), (line, event, window)

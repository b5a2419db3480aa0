"""Tests for worst-case corner identification (synthetic cells => exact)."""

import pytest

from repro.models import VShapeModel, PinToPinModel
from repro.sta.corners import (
    CtrlInput,
    Winner,
    arc_fanin_window,
    ctrl_response_search,
    ctrl_response_window,
    nonctrl_response_search,
    nonctrl_response_window,
    pin_delay_bounds,
    pin_trans_bounds,
)
from repro.sta.windows import DEFINITE, DirWindow, POTENTIAL
from repro.characterize.formulas import QuadPoly1
from tests.synthetic import REF_LOAD, make_inv, make_nand

NS = 1e-9


def win(a_s, a_l, t_s=0.5 * NS, t_l=0.5 * NS, state=POTENTIAL):
    return DirWindow(a_s, a_l, t_s, t_l, state)


class TestPinBounds:
    def test_linear_arc_bounds_at_endpoints(self):
        cell = make_nand(2)
        d_min, d_max = pin_delay_bounds(
            cell, 0, False, True, 0.2 * NS, 0.8 * NS, REF_LOAD
        )
        assert d_min == pytest.approx(0.10 * NS + 0.1 * 0.2 * NS)
        assert d_max == pytest.approx(0.10 * NS + 0.1 * 0.8 * NS)

    def test_bitonic_arc_peak_inside_window(self):
        cell = make_nand(2)
        # Replace pin 0's ctrl delay with a bi-tonic quadratic peaking at
        # T = 1 ns: d(T) = -(a)(T - 1ns)^2 + 0.3ns.
        a = 0.1 / NS
        arc = cell.arc(0, False, True)
        arc.delay = QuadPoly1(-a, 2 * a * NS, 0.3 * NS - a * NS * NS)
        d_min, d_max = pin_delay_bounds(
            cell, 0, False, True, 0.5 * NS, 1.5 * NS, REF_LOAD
        )
        assert d_max == pytest.approx(0.3 * NS)  # the interior peak
        assert d_min == pytest.approx(arc.delay(0.5 * NS))

    def test_clamping_to_characterized_range(self):
        cell = make_nand(2)
        tiny = pin_delay_bounds(cell, 0, False, True, 1e-12, 1e-12, REF_LOAD)
        at_lo = pin_delay_bounds(
            cell, 0, False, True, 0.05 * NS, 0.05 * NS, REF_LOAD
        )
        assert tiny == at_lo

    def test_trans_bounds(self):
        cell = make_nand(2)
        t_min, t_max = pin_trans_bounds(
            cell, 0, False, True, 0.2 * NS, 0.8 * NS, REF_LOAD
        )
        assert t_min == pytest.approx(0.15 * NS + 0.5 * 0.2 * NS)
        assert t_max == pytest.approx(0.15 * NS + 0.5 * 0.8 * NS)


class TestCtrlResponseWindow:
    def test_no_active_inputs_is_impossible(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, DirWindow.impossible()),
                  CtrlInput(1, DirWindow.impossible())]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        assert not out.is_active

    def test_single_active_input_matches_pin_bounds(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, win(1 * NS, 2 * NS)),
                  CtrlInput(1, DirWindow.impossible())]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        assert out.a_s == pytest.approx(1 * NS + 0.15 * NS)
        assert out.a_l == pytest.approx(2 * NS + 0.15 * NS)

    def test_overlapping_windows_reach_d0(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, win(1 * NS, 2 * NS)),
                  CtrlInput(1, win(1 * NS, 2 * NS))]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        # Perfect alignment at 1 ns gives d0 = 0.06 ns.
        assert out.a_s == pytest.approx(1 * NS + 0.06 * NS)

    def test_pin2pin_model_sees_no_speedup(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, win(1 * NS, 2 * NS)),
                  CtrlInput(1, win(1 * NS, 2 * NS))]
        out = ctrl_response_window(cell, PinToPinModel(), inputs, REF_LOAD)
        assert out.a_s == pytest.approx(1 * NS + 0.15 * NS)

    def test_disjoint_windows_cannot_align(self):
        cell = make_nand(2)
        # Pin 1 arrives far after pin 0's window: beyond the saturation
        # skew (0.3 ns) the lagging transition is irrelevant.
        inputs = [CtrlInput(0, win(1 * NS, 1 * NS)),
                  CtrlInput(1, win(3 * NS, 3 * NS))]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        assert out.a_s == pytest.approx(1 * NS + 0.15 * NS)

    def test_partial_overlap_interpolates(self):
        cell = make_nand(2)
        # Best feasible skew is 0.15 ns (half of s_pos = 0.3 ns).
        inputs = [CtrlInput(0, win(1 * NS, 1 * NS)),
                  CtrlInput(1, win(1.15 * NS, 1.15 * NS))]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        expected = 1 * NS + 0.5 * (0.06 + 0.15) * NS
        assert out.a_s == pytest.approx(expected)

    def test_latest_is_max_of_potential_singles(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, win(1 * NS, 2 * NS)),
                  CtrlInput(1, win(1 * NS, 3 * NS))]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        assert out.a_l == pytest.approx(3 * NS + 0.17 * NS)

    def test_definite_input_caps_latest(self):
        cell = make_nand(2)
        inputs = [
            CtrlInput(0, win(1 * NS, 2 * NS, state=DEFINITE)),
            CtrlInput(1, win(1 * NS, 3 * NS)),
        ]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        # Pin 0 definitely switches by 2 ns, guaranteeing the output by
        # 2 ns + its pin delay; pin 1 can only speed things up.
        assert out.a_l == pytest.approx(2 * NS + 0.15 * NS)
        assert out.is_definite

    def test_multi_input_scale_tightens_min(self):
        cell = make_nand(3)
        inputs = [CtrlInput(p, win(1 * NS, 1 * NS)) for p in range(3)]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        # multi_scale["3"] = 0.8 applies on top of the best pair's d0.
        assert out.a_s <= 1 * NS + 0.06 * NS * 0.8 + 1e-15

    def test_output_state_potential_without_definite(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, win(1 * NS, 2 * NS)),
                  CtrlInput(1, win(1 * NS, 2 * NS))]
        out = ctrl_response_window(cell, VShapeModel(), inputs, REF_LOAD)
        assert out.state == POTENTIAL


class TestNonCtrlResponseWindow:
    def test_bounds_over_pin_paths(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, win(1 * NS, 2 * NS)),
                  CtrlInput(1, win(1.5 * NS, 2.5 * NS))]
        out = nonctrl_response_window(cell, inputs, REF_LOAD)
        # Non-ctrl arc delays: pin0 0.08ns + 0.1*T, pin1 0.096ns + 0.1*T.
        assert out.a_s == pytest.approx(1 * NS + 0.08 * NS + 0.05 * NS)
        assert out.a_l == pytest.approx(2.5 * NS + 0.096 * NS + 0.05 * NS)

    def test_definite_raises_earliest(self):
        cell = make_nand(2)
        inputs = [
            CtrlInput(0, win(1 * NS, 2 * NS)),
            CtrlInput(1, win(1.5 * NS, 2.5 * NS, state=DEFINITE)),
        ]
        out = nonctrl_response_window(cell, inputs, REF_LOAD)
        # The output cannot settle before the definite switcher's effect.
        assert out.a_s == pytest.approx(1.5 * NS + 0.096 * NS + 0.05 * NS)

    def test_empty_is_impossible(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, DirWindow.impossible()),
                  CtrlInput(1, DirWindow.impossible())]
        assert not nonctrl_response_window(cell, inputs, REF_LOAD).is_active


class TestArcFaninWindow:
    def test_inverter(self):
        cell = make_inv()
        arcs = [(0, True, win(1 * NS, 2 * NS))]
        out = arc_fanin_window(cell, arcs, False, REF_LOAD)
        assert out.a_s == pytest.approx(1 * NS + 0.05 * NS + 0.05 * NS)
        assert out.a_l == pytest.approx(2 * NS + 0.05 * NS + 0.05 * NS)

    def test_inactive_input_gives_impossible(self):
        cell = make_inv()
        arcs = [(0, True, DirWindow.impossible())]
        assert not arc_fanin_window(cell, arcs, False, REF_LOAD).is_active

    def test_definite_single_arc_propagates_state(self):
        cell = make_inv()
        arcs = [(0, True, win(1 * NS, 2 * NS, state=DEFINITE))]
        out = arc_fanin_window(cell, arcs, False, REF_LOAD)
        assert out.is_definite


class TestWinners:
    """The input each search names behind its bounds: the first
    candidate to reach the extreme, in the search's own order."""

    def test_tied_singles_name_the_first_pin(self):
        cell = make_nand(2, pin_delay_step=0.0)
        inputs = [CtrlInput(p, win(1 * NS, 2 * NS)) for p in range(2)]
        _, winners = ctrl_response_search(
            cell, PinToPinModel(), inputs, REF_LOAD
        )
        assert winners == (Winner(0, False, False), Winner(0, False, False))

    def test_definite_switcher_named_ahead_of_a_tied_potential_one(self):
        cell = make_nand(2, pin_delay_step=0.0)
        inputs = [
            CtrlInput(0, win(1 * NS, 2 * NS)),
            CtrlInput(1, win(1 * NS, 2 * NS, state=DEFINITE)),
        ]
        _, (_, late) = ctrl_response_search(
            cell, PinToPinModel(), inputs, REF_LOAD
        )
        assert late == Winner(1, False, False)
        # The to-non-controlling earliest bound waits for definite ones.
        _, (early, late) = nonctrl_response_search(
            cell, [CtrlInput(p, w.window) for p, w in enumerate(inputs)],
            REF_LOAD,
        )
        assert early == Winner(1, True, False)
        assert late == Winner(0, True, False)

    def test_fold_names_the_member_with_the_earlier_edge(self):
        cell = make_nand(2)
        inputs = [CtrlInput(0, win(1.1 * NS, 1.1 * NS)),
                  CtrlInput(1, win(1 * NS, 1 * NS))]
        window, (early, _) = ctrl_response_search(
            cell, VShapeModel(), inputs, REF_LOAD
        )
        assert window.a_s < 1 * NS + 0.15 * NS  # below every single arc
        assert early == Winner(1, False, True)

    def test_k_input_candidate_names_the_member_with_the_later_edge(self):
        cell = make_nand(3)
        inputs = [CtrlInput(0, win(1 * NS, 1.2 * NS))] + [
            CtrlInput(p, win(1.01 * NS, 1.2 * NS)) for p in (1, 2)
        ]
        window, (early, _) = ctrl_response_search(
            cell, VShapeModel(), inputs, REF_LOAD
        )
        # multi_scale["3"] = 0.8 scales d0 from the later edge of (0, 1).
        assert window.a_s == pytest.approx(1.01 * NS + 0.06 * NS * 0.8)
        assert early == Winner(1, False, True)

    def test_clamped_earliest_names_the_latest_bound_input(self):
        # An early derate above the late one can put a_l below a_s.
        cell = make_nand(2)
        inputs = [
            CtrlInput(0, win(1 * NS, 1 * NS)),
            CtrlInput(1, win(1 * NS, 1 * NS, state=DEFINITE)),
        ]
        window, winners = ctrl_response_search(
            cell, PinToPinModel(), inputs, REF_LOAD, early=1.2, late=0.8
        )
        assert window.a_s == window.a_l
        assert winners == (Winner(1, False, False), Winner(1, False, False))

"""Unit tests for the delay models over synthetic cell data.

The synthetic NAND2 has exactly known arcs (delay = 0.10ns + 0.1*T on pin
0, 0.12ns + 0.1*T on pin 1), a constant zero-skew delay D0 = 0.06 ns and
constant saturation skews, so every model prediction can be checked by
hand.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    InputEvent,
    JunModel,
    NabaviModel,
    PinToPinModel,
    VShapeModel,
)
from tests.synthetic import REF_LOAD, make_inv, make_nand, make_nor, make_xor

NS = 1e-9


def fall(pin, arrival, trans=0.5 * NS):
    return InputEvent(pin, arrival, trans, rising=False)


def rise(pin, arrival, trans=0.5 * NS):
    return InputEvent(pin, arrival, trans, rising=True)


@pytest.fixture
def nand2():
    return make_nand(2)


@pytest.fixture
def vmodel():
    return VShapeModel()


class TestVShapeGeometry:
    def test_vertex_and_tails(self, nand2, vmodel):
        shape = vmodel.vshape(nand2, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD)
        # Pin tails: 0.10 + 0.1*0.5 = 0.15ns (pin0), 0.12 + 0.05 = 0.17ns.
        assert shape.tail_pos == pytest.approx(0.15 * NS)
        assert shape.tail_neg == pytest.approx(0.17 * NS)
        assert shape.vertex == pytest.approx(0.06 * NS)
        assert shape.delay(0.0) == pytest.approx(0.06 * NS)
        assert shape.delay(10 * NS) == pytest.approx(0.15 * NS)
        assert shape.delay(-10 * NS) == pytest.approx(0.17 * NS)

    def test_linear_interpolation_between_anchors(self, nand2, vmodel):
        shape = vmodel.vshape(nand2, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD)
        mid = shape.delay(0.15 * NS)  # halfway to s_pos = 0.3 ns
        assert mid == pytest.approx(0.5 * (0.06 + 0.15) * NS)

    def test_min_delay_at_zero_skew_claim1(self, nand2, vmodel):
        shape = vmodel.vshape(nand2, 0, 1, 0.4 * NS, 0.9 * NS, REF_LOAD)
        assert shape.min_delay() == shape.delay(0.0)
        for skew in (-0.5 * NS, -0.1 * NS, 0.05 * NS, 0.2 * NS, 1.0 * NS):
            assert shape.delay(skew) >= shape.min_delay()

    def test_mirrored_pair_swaps_sides(self, nand2, vmodel):
        fwd = vmodel.vshape(nand2, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD)
        rev = vmodel.vshape(nand2, 1, 0, 0.5 * NS, 0.5 * NS, REF_LOAD)
        assert rev.tail_pos == pytest.approx(fwd.tail_neg)
        assert rev.tail_neg == pytest.approx(fwd.tail_pos)
        assert rev.s_pos == pytest.approx(fwd.s_neg)
        assert rev.s_neg == pytest.approx(fwd.s_pos)
        assert rev.delay(0.1 * NS) == pytest.approx(fwd.delay(-0.1 * NS))

    def test_d0_clamped_below_tails(self, vmodel):
        # A cell whose fitted d0 would exceed the pin delay must clamp.
        cell = make_nand(2, d0=0.5 * NS)
        shape = vmodel.vshape(cell, 0, 1, 0.1 * NS, 0.1 * NS, REF_LOAD)
        assert shape.vertex <= min(shape.tail_pos, shape.tail_neg)

    def test_load_shifts_all_levels(self, nand2, vmodel):
        light = vmodel.vshape(nand2, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD)
        heavy = vmodel.vshape(
            nand2, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD + 10e-15
        )
        extra = 4e3 * 10e-15
        assert heavy.vertex - light.vertex == pytest.approx(extra)
        assert heavy.tail_pos - light.tail_pos == pytest.approx(extra)

    @given(
        skew=st.floats(min_value=-2e-9, max_value=2e-9),
        t_p=st.floats(min_value=0.1e-9, max_value=1.8e-9),
        t_q=st.floats(min_value=0.1e-9, max_value=1.8e-9),
    )
    @settings(max_examples=80, deadline=None)
    def test_delay_bounded_by_anchors(self, skew, t_p, t_q):
        shape = VShapeModel().vshape(
            make_nand(2), 0, 1, t_p, t_q, REF_LOAD
        )
        d = shape.delay(skew)
        assert shape.vertex - 1e-15 <= d <= shape.max_delay() + 1e-15


class TestTransVShape:
    def test_tails_and_vertex(self, nand2, vmodel):
        shape = vmodel.trans_vshape(nand2, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD)
        # Synthetic arc trans: 0.15 + 0.5*0.5 = 0.4 ns for both tails.
        assert shape.t_p == pytest.approx(0.4 * NS)
        assert shape.t_q == pytest.approx(0.4 * NS)
        assert shape.min_trans() == pytest.approx(0.10 * NS)
        assert shape.trans(5 * NS) == pytest.approx(0.4 * NS)
        assert shape.trans(shape.minimizing_skew()) == shape.min_trans()

    def test_vertex_clamped_into_saturation_range(self, vmodel):
        cell = make_nand(2)
        shape = vmodel.trans_vshape(cell, 0, 1, 0.5 * NS, 0.5 * NS, REF_LOAD)
        assert -shape.s_neg <= shape.vertex_skew <= shape.s_pos


class TestControllingResponse:
    def test_single_event_is_pin_to_pin(self, nand2, vmodel):
        delay, trans = vmodel.controlling_response(
            nand2, [fall(0, 1 * NS, 0.5 * NS)], REF_LOAD
        )
        assert delay == pytest.approx(0.15 * NS)
        assert trans == pytest.approx(0.4 * NS)

    def test_zero_skew_pair_hits_d0(self, nand2, vmodel):
        delay, _ = vmodel.controlling_response(
            nand2, [fall(0, 1 * NS), fall(1, 1 * NS)], REF_LOAD
        )
        assert delay == pytest.approx(0.06 * NS)

    def test_large_skew_matches_leading_pin(self, nand2, vmodel):
        delay, _ = vmodel.controlling_response(
            nand2, [fall(0, 1 * NS), fall(1, 3 * NS)], REF_LOAD
        )
        assert delay == pytest.approx(0.15 * NS)

    def test_lagging_fast_pin_can_win(self, nand2, vmodel):
        # Pin 1 leads but pin 0 arrives soon after; output arrival is the
        # V-shape value, earlier than pin 1's own pin-to-pin path.
        delay, _ = vmodel.controlling_response(
            nand2, [fall(1, 1 * NS), fall(0, 1.05 * NS)], REF_LOAD
        )
        single, _ = vmodel.controlling_response(
            nand2, [fall(1, 1 * NS)], REF_LOAD
        )
        assert delay < single

    def test_three_inputs_faster_than_two(self, vmodel):
        nand3 = make_nand(3)
        two, _ = vmodel.controlling_response(
            nand3, [fall(0, 1 * NS), fall(1, 1 * NS)], REF_LOAD
        )
        three, _ = vmodel.controlling_response(
            nand3, [fall(0, 1 * NS), fall(1, 1 * NS), fall(2, 1 * NS)],
            REF_LOAD,
        )
        assert three == pytest.approx(two * 0.8)  # multi_scale["3"]

    def test_distant_third_input_does_not_speed_up(self, vmodel):
        nand3 = make_nand(3)
        two, _ = vmodel.controlling_response(
            nand3, [fall(0, 1 * NS), fall(1, 1 * NS)], REF_LOAD
        )
        with_late, _ = vmodel.controlling_response(
            nand3,
            [fall(0, 1 * NS), fall(1, 1 * NS), fall(2, 9 * NS)],
            REF_LOAD,
        )
        assert with_late == pytest.approx(two)

    def test_pair_scale_applied(self, vmodel):
        nand3 = make_nand(3)
        base, _ = vmodel.controlling_response(
            nand3, [fall(0, 1 * NS), fall(1, 1 * NS)], REF_LOAD
        )
        scaled, _ = vmodel.controlling_response(
            nand3, [fall(1, 1 * NS), fall(2, 1 * NS)], REF_LOAD
        )
        # pair_scale["1-2"] = 1.1 in the synthetic cell.
        assert scaled == pytest.approx(base * 1.1, rel=1e-6)


class TestPinToPinModel:
    def test_ignores_simultaneous_speedup(self, nand2):
        model = PinToPinModel()
        single, _ = model.controlling_response(
            nand2, [fall(0, 1 * NS)], REF_LOAD
        )
        both, _ = model.controlling_response(
            nand2, [fall(0, 1 * NS), fall(1, 1 * NS)], REF_LOAD
        )
        assert both == pytest.approx(single)

    def test_fastest_path_wins(self, nand2):
        model = PinToPinModel()
        # Pin 1 leads by far; its path sets the output.
        delay, _ = model.controlling_response(
            nand2, [fall(1, 1 * NS), fall(0, 5 * NS)], REF_LOAD
        )
        assert delay == pytest.approx(0.17 * NS)


class TestJunModel:
    def test_matches_d0_at_zero_skew(self, nand2):
        delay, _ = JunModel().controlling_response(
            nand2, [fall(0, 1 * NS), fall(1, 1 * NS)], REF_LOAD
        )
        assert delay == pytest.approx(0.06 * NS)

    def test_fails_at_large_skew(self, nand2):
        """Jun's collapse does not saturate to the pin-to-pin tail."""
        vshape = VShapeModel()
        skewed = [fall(0, 1 * NS), fall(1, 2.5 * NS)]
        jun_d, _ = JunModel().controlling_response(nand2, skewed, REF_LOAD)
        v_d, _ = vshape.controlling_response(nand2, skewed, REF_LOAD)
        assert abs(jun_d - v_d) > 0.2 * v_d

    def test_single_event_falls_back_to_pin(self, nand2):
        delay, _ = JunModel().controlling_response(
            nand2, [fall(0, 1 * NS)], REF_LOAD
        )
        assert delay == pytest.approx(0.15 * NS)


class TestNabaviModel:
    def test_position_blind_pin_delay(self):
        nand2 = make_nand(2)
        model = NabaviModel()
        d0, _ = model.pin_to_pin(nand2, 0, False, True, 0.5 * NS, REF_LOAD)
        d1, _ = model.pin_to_pin(nand2, 1, False, True, 0.5 * NS, REF_LOAD)
        assert d0 == pytest.approx(d1)  # ignores the position difference
        true1 = nand2.arc(1, False, True).delay(0.5 * NS)
        assert d1 != pytest.approx(true1)

    def test_good_when_equal_transition_times(self, nand2):
        delay, _ = NabaviModel().controlling_response(
            nand2, [fall(0, 1 * NS), fall(1, 1 * NS)], REF_LOAD
        )
        assert delay == pytest.approx(0.06 * NS, rel=1e-6)

    def test_degrades_with_unequal_transition_times(self, nand2):
        """Start-time alignment shifts the equivalent arrival."""
        events = [fall(0, 1 * NS, 0.2 * NS), fall(1, 1 * NS, 1.6 * NS)]
        nab_d, _ = NabaviModel().controlling_response(nand2, events, REF_LOAD)
        v_d, _ = VShapeModel().controlling_response(nand2, events, REF_LOAD)
        assert nab_d != pytest.approx(v_d, rel=0.05)


class TestOutputEventSemantics:
    def test_nand_controlled_rise(self, nand2, vmodel):
        out = vmodel.output_event(
            nand2, [fall(0, 1 * NS), fall(1, 1 * NS)], {}, REF_LOAD
        )
        assert out.rising is True
        assert out.arrival == pytest.approx(1 * NS + 0.06 * NS)

    def test_nand_noncontrolled_fall_uses_latest(self, nand2, vmodel):
        out = vmodel.output_event(
            nand2, [rise(0, 1 * NS), rise(1, 2 * NS)], {}, REF_LOAD
        )
        assert out.rising is False
        # max over pin-to-pin: pin0: 1ns + (0.8*0.10 + 0.05)ns,
        # pin1: 2ns + (0.8*0.12 + 0.05)ns -> pin1 wins.
        assert out.arrival == pytest.approx(2 * NS + 0.096 * NS + 0.05 * NS)

    def test_no_output_change_returns_none(self, nand2, vmodel):
        # One input falls while the other is steady 0: output stays 1.
        out = vmodel.output_event(nand2, [fall(0, 1 * NS)], {1: 0}, REF_LOAD)
        assert out is None

    def test_single_controlling_event_with_steady_noncontrolling(
        self, nand2, vmodel
    ):
        out = vmodel.output_event(nand2, [fall(0, 1 * NS)], {1: 1}, REF_LOAD)
        assert out.rising is True
        assert out.arrival == pytest.approx(1 * NS + 0.15 * NS)

    def test_unspecified_pin_rejected(self, nand2, vmodel):
        with pytest.raises(ValueError):
            vmodel.output_event(nand2, [fall(0, 1 * NS)], {}, REF_LOAD)

    def test_conflicting_pin_rejected(self, nand2, vmodel):
        with pytest.raises(ValueError):
            vmodel.output_event(nand2, [fall(0, 1 * NS)], {0: 1, 1: 1},
                                REF_LOAD)

    def test_inverter_event(self, vmodel):
        inv = make_inv()
        out = vmodel.output_event(inv, [rise(0, 1 * NS, 0.5 * NS)], {}, REF_LOAD)
        assert out.rising is False
        assert out.arrival == pytest.approx(1 * NS + 0.05 * NS + 0.05 * NS)

    def test_xor_uses_context_dependent_arc(self, vmodel):
        xor = make_xor()
        out0 = vmodel.output_event(xor, [rise(0, 1 * NS)], {1: 0}, REF_LOAD)
        out1 = vmodel.output_event(xor, [rise(0, 1 * NS)], {1: 1}, REF_LOAD)
        assert out0.rising is True
        assert out1.rising is False

    def test_nor_controlled_fall(self, vmodel):
        nor = make_nor(2)
        out = vmodel.output_event(
            nor, [rise(0, 1 * NS), rise(1, 1 * NS)], {}, REF_LOAD
        )
        assert out.rising is False
        assert out.arrival == pytest.approx(1 * NS + 0.05 * NS)

    def test_default_load_is_reference(self, nand2, vmodel):
        out_default = vmodel.output_event(nand2, [fall(0, 1 * NS)], {1: 1})
        out_ref = vmodel.output_event(
            nand2, [fall(0, 1 * NS)], {1: 1}, REF_LOAD
        )
        assert out_default.arrival == out_ref.arrival


# ----------------------------------------------------------------------
# The shared per-endpoint / per-combo anchors (packaged library)
# ----------------------------------------------------------------------
def _reference_vshapes(cell, p, q, t_p, t_q, load, f, g):
    """The anchors of one combo written out from the model's formulas:
    ``(vertex, s_pos, s_neg, tail_pos, tail_neg)`` and ``(vertex_skew,
    vertex_value, s_pos, s_neg, tail_p, tail_q)``."""
    from repro.characterize.library import pair_key

    ctrl = cell.ctrl
    arc_p, arc_q = cell.ctrl_arc(p), cell.ctrl_arc(q)
    t_p, t_q = arc_p.clamp(t_p), arc_q.clamp(t_q)
    d_adj = cell.load_adjusted_delay(ctrl.out_rising, load)
    r_adj = cell.load_adjusted_trans(ctrl.out_rising, load)
    dr_p = (arc_p.delay(t_p) + d_adj) * f * g
    dr_q = (arc_q.delay(t_q) + d_adj) * f * g
    tail_p = (arc_p.trans(t_p) + r_adj) * f * g
    tail_q = (arc_q.trans(t_q) + r_adj) * f * g
    t_lo, t_hi = (t_p, t_q) if p < q else (t_q, t_p)
    s_a = max(ctrl.s_pos(t_lo, t_hi), 1e-12) * f * g
    s_b = max(ctrl.s_neg(t_lo, t_hi), 1e-12) * f * g
    s_pos, s_neg = (s_a, s_b) if p < q else (s_b, s_a)
    scale = ctrl.pair_scale.get(pair_key(p, q), 1.0)
    d0 = min((ctrl.d0(t_lo, t_hi) * scale + d_adj) * f * g, dr_p, dr_q)
    skew = ctrl.t_vertex_skew(t_lo, t_hi) * f * g
    if p > q:
        skew = -skew
    value = (ctrl.t_vertex(t_lo, t_hi) + r_adj) * f * g
    return (
        (d0, s_pos, s_neg, dr_p, dr_q),
        (
            min(max(skew, -s_neg), s_pos), min(value, tail_p, tail_q),
            s_pos, s_neg, tail_p, tail_q,
        ),
    )


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _times(arc):
    """Below, inside and above the arc's characterized range."""
    return (0.5 * arc.t_lo, 0.5 * (arc.t_lo + arc.t_hi), 1.5 * arc.t_hi)


class TestSharedAnchors:
    """``vshape`` / ``trans_vshape`` are one combo of
    :class:`PairAnchors`, the evaluation the STA corner search reads."""

    @pytest.mark.parametrize("f, g", [(1.0, 1.0), (1.13, 0.91)])
    def test_wrappers_equal_the_shared_evaluation(self, library, f, g):
        from itertools import product

        from repro.models.vshape import PairAnchors

        model = VShapeModel()
        checked = 0
        for name, cell in sorted(library.cells.items()):
            if cell.ctrl is None or cell.n_inputs < 2:
                continue
            load = 1.7 * cell.ref_load
            anchors = PairAnchors(cell, cell.ctrl, load, f, g)
            for p, q in product(range(cell.n_inputs), repeat=2):
                if p == q:
                    continue
                arc_p, arc_q = cell.ctrl_arc(p), cell.ctrl_arc(q)
                shapes, tshapes = anchors.pair(
                    p, q,
                    [anchors.end(arc_p, t) for t in _times(arc_p)],
                    [anchors.end(arc_q, t) for t in _times(arc_q)],
                )
                combos = product(_times(arc_p), _times(arc_q))
                for k, (t_p, t_q) in enumerate(combos):
                    want_v, want_t = _reference_vshapes(
                        cell, p, q, t_p, t_q, load, f, g
                    )
                    where = f"{name} ({p}, {q}) combo {k}"
                    got_v = model.vshape(cell, p, q, t_p, t_q, load, f, g)
                    got_t = model.trans_vshape(
                        cell, p, q, t_p, t_q, load, f, g
                    )
                    assert _bits(got_v) == _bits(shapes[k]), where
                    assert _bits(got_v) == _bits(want_v), where
                    assert _bits(got_t) == _bits(tshapes[k]), where
                    assert _bits(got_t) == _bits(want_t), where
                    checked += 1
        assert checked == 2 * 9 * sum(
            n * (n - 1) // 2
            for n in (c.n_inputs for c in library.cells.values()
                      if c.ctrl is not None and c.n_inputs >= 2)
        )

    def test_one_shape_costs_no_work_of_the_other(self, library):
        from repro.models.vshape import PairAnchors

        cell = library.cells["NAND3"]
        arc = cell.ctrl_arc(0)
        delay_only = PairAnchors(
            cell, cell.ctrl, cell.ref_load, trans=False
        )
        end = delay_only.end(arc, 0.3 * NS)
        assert end.tail is None and end.dr is not None
        shapes, tshapes = delay_only.pair(0, 1, [end], [end])
        assert tshapes is None and len(shapes) == 1
        trans_only = PairAnchors(
            cell, cell.ctrl, cell.ref_load, delay=False
        )
        end = trans_only.end(arc, 0.3 * NS)
        assert end.dr is None and end.tail is not None
        shapes, tshapes = trans_only.pair(0, 1, [end], [end])
        assert shapes is None and len(tshapes) == 1

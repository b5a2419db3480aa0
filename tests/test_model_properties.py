"""Property-based invariants of the simultaneous-switching delay model.

Exercises every cell in the packaged library with hypothesis-generated
transition times, loads, and skews, and checks the structural guarantees
the STA engine (and the paper's Section 3) relies on:

* the delay V equals the pin-to-pin tail ``DR(Tx)`` at and beyond the
  saturation skews ``SR``;
* the V is continuous at its anchor points;
* the V is minimized at zero skew and never dips below ``D0``;
* the pin ordering is a pure relabeling — ``vshape(q, p)`` mirrors
  ``vshape(p, q)`` bit-for-bit;
* the transition V is globally bounded below by its vertex value and
  attains it at ``SK_t,min`` whenever the vertex is interior;
* the Λ-shaped to-non-controlling extension peaks at zero skew and
  saturates to the lagging pin's tail.

Everything is evaluated against characterized data, so the properties
hold exactly (same float expressions), not just approximately; the few
continuity checks that straddle a branch boundary use a relative
tolerance instead.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.characterize import CellLibrary
from repro.models import NonCtrlAwareModel, VShapeModel

LIBRARY = CellLibrary.load_default()
ALL_CELLS = sorted(LIBRARY.cells)
CTRL_CELLS = sorted(
    name for name, cell in LIBRARY.cells.items() if cell.ctrl is not None
)
NONCTRL_CELLS = sorted(
    name
    for name, cell in LIBRARY.cells.items()
    if getattr(cell, "nonctrl", None) is not None
)

MODEL = VShapeModel()
NONCTRL_MODEL = NonCtrlAwareModel()

# Unit-interval draws are mapped onto each arc's characterized range, so
# one strategy serves every cell; derandomize keeps CI runs stable.
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
prop_settings = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _pair(cell, pair_index):
    """Pick an ordered input pair (p, q), p != q, from an index draw."""
    pairs = [
        (p, q)
        for p in range(cell.n_inputs)
        for q in range(cell.n_inputs)
        if p != q
    ]
    return pairs[pair_index % len(pairs)]


def _trans_in(arc, u):
    """Map a unit draw onto the arc's characterized transition range."""
    return arc.t_lo + u * (arc.t_hi - arc.t_lo)


def _load(cell, u):
    """Map a unit draw onto 0.5x..2x the characterization load."""
    return cell.ref_load * (0.5 + 1.5 * u)


def _vshape(name, pair_index, up, uq, uload):
    cell = LIBRARY.cells[name]
    pin_p, pin_q = _pair(cell, pair_index)
    t_p = _trans_in(cell.ctrl_arc(pin_p), up)
    t_q = _trans_in(cell.ctrl_arc(pin_q), uq)
    load = _load(cell, uload)
    return MODEL.vshape(cell, pin_p, pin_q, t_p, t_q, load)


# ----------------------------------------------------------------------
# Delay V-shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CTRL_CELLS)
@prop_settings
@given(pair_index=st.integers(0, 63), up=unit, uq=unit, uload=unit)
def test_vshape_saturates_to_pin_tails(name, pair_index, up, uq, uload):
    """Beyond SR the V equals the lagging pin's DR(Tx), exactly."""
    shape = _vshape(name, pair_index, up, uq, uload)
    assert shape.delay(shape.s_pos) == shape.tail_pos
    assert shape.delay(shape.s_pos * 2.0 + 1e-12) == shape.tail_pos
    assert shape.delay(-shape.s_neg) == shape.tail_neg
    assert shape.delay(-shape.s_neg * 2.0 - 1e-12) == shape.tail_neg


@pytest.mark.parametrize("name", CTRL_CELLS)
@prop_settings
@given(
    pair_index=st.integers(0, 63),
    up=unit,
    uq=unit,
    uload=unit,
    uskew=unit,
)
def test_vshape_minimized_at_zero_skew(name, pair_index, up, uq, uload, uskew):
    """D0 is the global minimum: delay(0) == d0 <= delay(any skew)."""
    shape = _vshape(name, pair_index, up, uq, uload)
    assert shape.delay(0.0) == shape.vertex
    assert shape.min_delay() == shape.vertex
    assert shape.vertex <= shape.tail_pos
    assert shape.vertex <= shape.tail_neg
    skew = (uskew * 4.0 - 2.0) * max(shape.s_pos, shape.s_neg)
    assert shape.delay(skew) >= shape.vertex


@pytest.mark.parametrize("name", CTRL_CELLS)
@prop_settings
@given(pair_index=st.integers(0, 63), up=unit, uq=unit, uload=unit)
def test_vshape_continuous_at_anchors(name, pair_index, up, uq, uload):
    """No jumps where the linear flanks meet the vertex and the tails."""
    shape = _vshape(name, pair_index, up, uq, uload)
    for anchor, value in (
        (shape.s_pos, shape.tail_pos),
        (-shape.s_neg, shape.tail_neg),
        (0.0, shape.vertex),
    ):
        for side in (1.0, -1.0):
            probe = anchor + side * 1e-9 * max(shape.s_pos, shape.s_neg)
            assert math.isclose(
                shape.delay(probe), value, rel_tol=1e-6, abs_tol=1e-18
            )


@pytest.mark.parametrize("name", CTRL_CELLS)
@prop_settings
@given(
    pair_index=st.integers(0, 63),
    up=unit,
    uq=unit,
    uload=unit,
    uskew=unit,
)
def test_vshape_pin_order_is_a_relabeling(
    name, pair_index, up, uq, uload, uskew
):
    """vshape(q, p) is the mirror image of vshape(p, q), bit-for-bit."""
    cell = LIBRARY.cells[name]
    pin_p, pin_q = _pair(cell, pair_index)
    t_p = _trans_in(cell.ctrl_arc(pin_p), up)
    t_q = _trans_in(cell.ctrl_arc(pin_q), uq)
    load = _load(cell, uload)
    fwd = MODEL.vshape(cell, pin_p, pin_q, t_p, t_q, load)
    rev = MODEL.vshape(cell, pin_q, pin_p, t_q, t_p, load)
    assert rev.vertex == fwd.vertex
    assert rev.s_pos == fwd.s_neg and rev.s_neg == fwd.s_pos
    assert rev.tail_pos == fwd.tail_neg and rev.tail_neg == fwd.tail_pos
    skew = (uskew * 4.0 - 2.0) * max(fwd.s_pos, fwd.s_neg)
    assert rev.delay(-skew) == fwd.delay(skew)


# ----------------------------------------------------------------------
# Transition-time V-shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CTRL_CELLS)
@prop_settings
@given(
    pair_index=st.integers(0, 63),
    up=unit,
    uq=unit,
    uload=unit,
    uskew=unit,
)
def test_trans_vshape_vertex_is_global_minimum(
    name, pair_index, up, uq, uload, uskew
):
    """trans(skew) >= min_trans() everywhere; attained when interior."""
    cell = LIBRARY.cells[name]
    pin_p, pin_q = _pair(cell, pair_index)
    t_p = _trans_in(cell.ctrl_arc(pin_p), up)
    t_q = _trans_in(cell.ctrl_arc(pin_q), uq)
    shape = MODEL.trans_vshape(cell, pin_p, pin_q, t_p, t_q, _load(cell, uload))
    assert -shape.s_neg <= shape.vertex_skew <= shape.s_pos
    assert shape.min_trans() == shape.vertex_value
    assert shape.vertex_value <= shape.t_p
    assert shape.vertex_value <= shape.t_q
    skew = (uskew * 4.0 - 2.0) * max(shape.s_pos, shape.s_neg)
    assert shape.trans(skew) >= shape.vertex_value
    if -shape.s_neg < shape.vertex_skew < shape.s_pos:
        assert shape.trans(shape.minimizing_skew()) == shape.vertex_value


@pytest.mark.parametrize("name", CTRL_CELLS)
@prop_settings
@given(
    pair_index=st.integers(0, 63),
    up=unit,
    uq=unit,
    uload=unit,
    u1=unit,
    u2=unit,
)
def test_trans_vshape_monotone_away_from_vertex(
    name, pair_index, up, uq, uload, u1, u2
):
    """Each flank of the transition V is monotone away from the vertex."""
    cell = LIBRARY.cells[name]
    pin_p, pin_q = _pair(cell, pair_index)
    t_p = _trans_in(cell.ctrl_arc(pin_p), up)
    t_q = _trans_in(cell.ctrl_arc(pin_q), uq)
    shape = MODEL.trans_vshape(cell, pin_p, pin_q, t_p, t_q, _load(cell, uload))
    # Keep probes strictly inside the flank: when the vertex is clamped
    # onto a saturation skew, the vertex point itself belongs to the
    # *opposite* plateau branch and is exempt from flank monotonicity.
    lo, hi = sorted(0.01 + 0.99 * u for u in (u1, u2))
    # Right flank: vertex -> s_pos.
    near = shape.vertex_skew + lo * (shape.s_pos - shape.vertex_skew)
    far = shape.vertex_skew + hi * (shape.s_pos - shape.vertex_skew)
    assert shape.trans(near) <= shape.trans(far) + 1e-18
    # Left flank: vertex -> -s_neg.
    near = shape.vertex_skew - lo * (shape.vertex_skew + shape.s_neg)
    far = shape.vertex_skew - hi * (shape.vertex_skew + shape.s_neg)
    assert shape.trans(near) <= shape.trans(far) + 1e-18


# ----------------------------------------------------------------------
# Λ-shaped to-non-controlling extension
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NONCTRL_CELLS)
@prop_settings
@given(
    pair_index=st.integers(0, 63),
    up=unit,
    uq=unit,
    uload=unit,
    uskew=unit,
)
def test_peak_shape_is_a_conservative_slowdown(
    name, pair_index, up, uq, uload, uskew
):
    """The Λ peaks at zero skew and saturates to the pin-to-pin tails."""
    cell = LIBRARY.cells[name]
    pin_p, pin_q = _pair(cell, pair_index)
    data = cell.nonctrl
    in_rising = cell.controlling_value == 0
    arc_p = cell.arc(pin_p, in_rising, data.out_rising)
    arc_q = cell.arc(pin_q, in_rising, data.out_rising)
    shape = NONCTRL_MODEL.nonctrl_shape(
        cell,
        pin_p,
        pin_q,
        _trans_in(arc_p, up),
        _trans_in(arc_q, uq),
        _load(cell, uload),
    )
    assert shape.vertex >= shape.tail_neg
    assert shape.vertex >= shape.tail_pos
    assert shape.delay(0.0) == shape.vertex
    assert shape.max_delay() == shape.vertex
    assert shape.delay(shape.s_pos) == shape.tail_pos
    assert shape.delay(-shape.s_neg) == shape.tail_neg
    skew = (uskew * 4.0 - 2.0) * max(shape.s_pos, shape.s_neg)
    assert shape.delay(skew) <= shape.vertex


# ----------------------------------------------------------------------
# Pin-to-pin corner bounds (every packaged cell, ctrl-capable or not)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_CELLS)
@prop_settings
@given(u1=unit, u2=unit, ut=unit, uload=unit, pin=st.integers(0, 63))
def test_pin_delay_bounds_contain_sampled_delays(
    name, u1, u2, ut, uload, pin
):
    """Figure 9's window extremes bound every delay inside the window."""
    from repro.sta.corners import pin_delay_bounds

    cell = LIBRARY.cells[name]
    pin = pin % cell.n_inputs
    for in_rising in (False, True):
        for out_rising in (False, True):
            if not cell.has_arc(pin, in_rising, out_rising):
                continue
            arc = cell.arc(pin, in_rising, out_rising)
            lo, hi = sorted((_trans_in(arc, u1), _trans_in(arc, u2)))
            load = _load(cell, uload)
            d_min, d_max = pin_delay_bounds(
                cell, pin, in_rising, out_rising, lo, hi, load
            )
            t = lo + ut * (hi - lo)
            d = arc.delay(arc.clamp(t)) + cell.load_adjusted_delay(
                out_rising, load
            )
            assert d_min <= d + 1e-18
            assert d <= d_max + 1e-18

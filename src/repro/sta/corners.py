"""Worst-case corner identification (paper Sections 4.2 and 3.3).

STA must find the extreme values of arrival and transition times over
rectangular input windows.  The paper's sufficient condition — every
timing function monotonic or bi-tonic in each variable — makes the
extremes attainable on a finite candidate set:

* transition-time corners: the window endpoints T_S / T_L plus the
  interior peak T* of the bi-tonic pin-to-pin quadratic (Figure 9);
* skew corners: the feasible-skew interval endpoints, zero skew, the
  saturation skews +-S, and the kink of the earliest-pair-arrival
  function (all functions involved are piecewise linear in skew).

This module enumerates exactly those candidates, which makes the window
propagation *exact* for the model (a property the test suite checks
against exhaustive timing simulation).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from ..characterize.library import CellTiming, TimingArc, multi_input_ratio
from ..models.vshape import PairAnchors, TransVShape, VShape
from .windows import DEFINITE, DirWindow, POTENTIAL


@dataclasses.dataclass(frozen=True)
class CtrlInput:
    """One gate input participating in a (possible) to-controlling switch."""

    pin: int
    window: DirWindow


class Winner(NamedTuple):
    """The input behind one bound of a corner search.

    It is the first candidate to reach the extreme, in the search's own
    order: single arcs in :func:`~repro.sta.analysis.fanin_arcs` order
    (pins ascending, rising input first), then the pairs in that order,
    each pair's fold before its k>2 candidate.  A bound over definite
    switchers only (the to-controlling ``a_l``, the to-non-controlling
    ``a_s``) names the first definite one, and a clamped ``a_s``
    (``min(a_s, a_l)``) ``a_l``'s input.  A pair candidate names the
    member whose own bound keeps traced arrivals monotone: for a fold
    the one with the earlier edge (``a_s`` for the V, ``a_l`` for the
    Λ), for the k>2 candidate the one with the later ``a_s``.
    """

    pin: int
    in_rising: bool
    pair: bool  #: whether a pair candidate set the bound


#: A corner search's window and the :class:`Winner`\ s behind its
#: ``a_s`` and ``a_l`` (None when no input is active).
Searched = Tuple[DirWindow, Optional[Tuple[Winner, Winner]]]


def _clamped_interval(arc, t_s: float, t_l: float) -> Tuple[float, float]:
    lo = min(max(t_s, arc.t_lo), arc.t_hi)
    hi = min(max(t_l, arc.t_lo), arc.t_hi)
    if hi < lo:
        hi = lo
    return lo, hi


def pin_delay_bounds(
    cell: CellTiming,
    pin: int,
    in_rising: bool,
    out_rising: bool,
    t_s: float,
    t_l: float,
    load: float,
) -> Tuple[float, float]:
    """(min, max) pin-to-pin delay over a transition-time window.

    Implements the T* selection of the paper's Figure 9: the maximum of
    the bi-tonic quadratic lies at an endpoint or at its interior peak.
    """
    arc = cell.arc(pin, in_rising, out_rising)
    lo, hi = _clamped_interval(arc, t_s, t_l)
    _, d_min = arc.delay.min_over(lo, hi)
    _, d_max = arc.delay.max_over(lo, hi)
    adjust = cell.load_adjusted_delay(out_rising, load)
    return d_min + adjust, d_max + adjust


def pin_trans_bounds(
    cell: CellTiming,
    pin: int,
    in_rising: bool,
    out_rising: bool,
    t_s: float,
    t_l: float,
    load: float,
) -> Tuple[float, float]:
    """(min, max) output transition time over a transition-time window."""
    arc = cell.arc(pin, in_rising, out_rising)
    lo, hi = _clamped_interval(arc, t_s, t_l)
    _, t_min = arc.trans.min_over(lo, hi)
    _, t_max = arc.trans.max_over(lo, hi)
    adjust = cell.load_adjusted_trans(out_rising, load)
    return t_min + adjust, t_max + adjust


def _pin_bounds(
    arc: TimingArc,
    w: DirWindow,
    d_adj: float,
    r_adj: float,
    f: float,
    early: float,
    late: float,
) -> Tuple[float, float, float, float]:
    """The output (a_s, a_l, t_s, t_l) one pin's ``arc`` gives from its
    input window ``w``: the single-arc candidates of a corner search.

    One clamp serves all four bounds; the delays and transition times
    are exactly those of :func:`pin_delay_bounds` +
    :func:`pin_trans_bounds` (``d_adj`` and ``r_adj`` are the cell's
    load adjustments of the arc's output direction), times the
    variation factor ``f`` and then the ``early`` derate (min bounds) or
    the ``late`` one (max bounds).
    """
    lo, hi = _clamped_interval(arc, w.t_s, w.t_l)
    _, d_min = arc.delay.min_over(lo, hi)
    _, d_max = arc.delay.max_over(lo, hi)
    _, t_min = arc.trans.min_over(lo, hi)
    _, t_max = arc.trans.max_over(lo, hi)
    return (
        w.a_s + (d_min + d_adj) * f * early,
        w.a_l + (d_max + d_adj) * f * late,
        (t_min + r_adj) * f * early,
        (t_max + r_adj) * f * late,
    )


def fold_pair(
    wi: DirWindow,
    wj: DirWindow,
    shapes: Sequence[VShape],
    edge: str,
    reduce: Callable[..., float],
) -> float:
    """The extreme output arrival a switching input pair can produce.

    The paper's worst-case-corner rule for a pair (Section 4.2), for
    both pair shapes.  The V (``edge`` ``"a_s"``, ``reduce`` ``min``)
    minimizes ``floor(δ) + V(δ)``, the floor being the earliest possible
    ``min(A_i, A_j)`` at skew ``δ = A_j - A_i``: ``max(a_s_i, a_s_j -
    δ) + min(0, δ)``.  The Λ (``"a_l"``, ``max``) is its mirror: it
    maximizes the ceiling, the latest possible ``max(A_i, A_j)``, plus
    Λ(δ), with min and max swapped.  Each of the pair's endpoint combos
    (``shapes``, from :meth:`PairAnchors.pair`) is folded over the
    breakpoints inside the feasible skew interval: its edges, the
    arrival offset, zero skew and the combo's ±S.  Both terms are
    piecewise linear in the skew, so the extreme is attained at one of
    them.  As in the compiled fold, the floor of a breakpoint the
    combos share is computed once per pair.
    """
    lo = wj.a_s - wi.a_l
    hi = wj.a_l - wi.a_s
    e_i = getattr(wi, edge)
    e_j = getattr(wj, edge)
    bound = max if reduce is min else min
    floors = [
        (delta, bound(e_i, e_j - delta) + reduce(0.0, delta))
        for delta in {lo, hi, e_j - e_i, 0.0}
        if lo <= delta <= hi
    ]
    candidates = []
    for shape in shapes:
        for delta, floor in floors:
            candidates.append(floor + shape.delay(delta))
        for delta in (shape.s_pos, -shape.s_neg):
            if lo <= delta <= hi:
                candidates.append(
                    bound(e_i, e_j - delta) + reduce(0.0, delta)
                    + shape.delay(delta)
                )
    return reduce(candidates)


def _pair_min_trans(
    wi: DirWindow,
    wj: DirWindow,
    tshapes: Sequence[TransVShape],
    t_ratio: float,
    t_s: float,
) -> float:
    """``t_s`` lowered by a switching input pair's fastest transition.

    Each endpoint combo's transition V (``tshapes``) takes SK_t,min if
    achievable, else the closest feasible skew (paper Section 4.2,
    T_Z_R,S rule); the V is unimodal so this is its interval minimum.
    A k-input ratio ``t_ratio < 1`` scales the vertex of a pair whose
    arrival windows overlap.
    """
    lo = wj.a_s - wi.a_l
    hi = wj.a_l - wi.a_s
    for shape in tshapes:
        delta = min(max(shape.vertex_skew, lo), hi)
        value = shape.trans(delta)
        if t_ratio < 1.0 and wi.overlaps_arrivals(wj):
            value = min(value, shape.min_trans() * t_ratio)
        t_s = min(t_s, value)
    return t_s


def _overlap_count(inputs: Sequence[CtrlInput]) -> int:
    """Maximum number of arrival windows sharing a common instant."""
    events = []
    for item in inputs:
        events.append((item.window.a_s, 1))
        events.append((item.window.a_l, -1))
    events.sort(key=lambda e: (e[0], -e[1]))
    depth = best = 0
    for _, delta in events:
        depth += delta
        best = max(best, depth)
    return best


def ctrl_response_window(
    cell: CellTiming, model, inputs: Sequence[CtrlInput], load: float,
    f: float = 1.0, early: float = 1.0, late: float = 1.0,
) -> DirWindow:
    """The window of :func:`ctrl_response_search`."""
    return ctrl_response_search(cell, model, inputs, load, f, early, late)[0]


def ctrl_response_search(
    cell: CellTiming, model, inputs: Sequence[CtrlInput], load: float,
    f: float = 1.0, early: float = 1.0, late: float = 1.0,
) -> Searched:
    """Output window of the to-controlling response (paper Section 4.2),
    and the inputs behind its bounds (:class:`Winner`).

    Each active pin's to-controlling arc is resolved once per call.
    Under a pair-merging model each pin's two window endpoints are
    evaluated once, and each (pin pair, endpoint combo) once: the
    arrival breakpoints, the k>2 ratio candidate and the SK_t,min
    transition merge all read that one evaluation (the layout of the
    compiled engine's pair merge).

    Args:
        cell: Characterized cell with a controlling value.
        model: The delay model; pair merging is used when the model
            exposes V-shapes (the proposed model), otherwise the
            pin-to-pin rules apply (the baseline STA).
        inputs: Active to-controlling input windows (state != -1).
        load: Output load, farads.
        f: The gate's variation factor.
        early: Early derate: multiplies min-side quantities (and the
            pair merge, which can only lower them) after ``f``.
        late: Late derate: multiplies max-side quantities after ``f``.
    """
    ctrl = cell.ctrl
    if ctrl is None:
        raise ValueError(f"cell {cell.name} has no controlling value")
    active = [i for i in inputs if i.window.is_active]
    if not active:
        return DirWindow.impossible(), None
    out_rising = ctrl.out_rising
    in_rising = cell.controlling_value == 1
    d_adj = cell.load_adjusted_delay(out_rising, load)
    r_adj = cell.load_adjusted_trans(out_rising, load)
    arcs = [cell.arc(item.pin, in_rising, out_rising) for item in active]

    # One fused bounds call per input serves the latest-arrival rule
    # (the paper's A_Z_R,L with the T* peak rule), the earliest-arrival
    # candidates and the transition-time window.
    lows, highs, t_lows, t_highs = zip(*[
        _pin_bounds(arc, item.window, d_adj, r_adj, f, early, late)
        for item, arc in zip(active, arcs)
    ])
    definite = [k for k, i in enumerate(active) if i.window.is_definite]
    if definite:
        # A definite switcher alone guarantees the output by its own path;
        # extra simultaneous transitions can only speed the output up.
        late_k = min(definite, key=highs.__getitem__)
    else:
        late_k = highs.index(max(highs))
    a_l = highs[late_k]
    # Even with a definite switcher bounding the arrival, a slower
    # potential switcher may arrive first and set the output slope, so the
    # transition-time upper bound ranges over every active input.
    t_l = max(t_highs)
    t_s = min(t_lows)

    # ---- pair merge: earliest arrival and fastest transition ----
    candidates = list(lows)
    leads = []  # the pin each pair candidate names, in candidate order
    if getattr(model, "supports_pair_merge", False) and len(active) >= 2:
        overlap = _overlap_count(active)
        ratio = t_ratio = 1.0
        if overlap > 2:
            ratio = multi_input_ratio(ctrl.multi_scale, overlap)
            t_ratio = multi_input_ratio(ctrl.trans_multi_scale, overlap)
        anchors = PairAnchors(cell, ctrl, load, f, early)
        ends = [
            (anchors.end(arc, item.window.t_s),
             anchors.end(arc, item.window.t_l))
            for item, arc in zip(active, arcs)
        ]
        for idx, first in enumerate(active):
            wi = first.window
            for jdx in range(idx + 1, len(active)):
                second = active[jdx]
                wj = second.window
                shapes, tshapes = anchors.pair(
                    first.pin, second.pin, ends[idx], ends[jdx]
                )
                candidates.append(fold_pair(wi, wj, shapes, "a_s", min))
                leads.append(first.pin if wi.a_s <= wj.a_s else second.pin)
                if ratio < 1.0 and wi.overlaps_arrivals(wj):
                    # k>2 inputs can align: scale the zero-skew delay of
                    # the (t_s, t_s) combo.
                    floor = max(wi.a_s, wj.a_s)
                    candidates.append(floor + shapes[0].vertex * ratio)
                    leads.append(
                        first.pin if wi.a_s >= wj.a_s else second.pin
                    )
                t_s = _pair_min_trans(wi, wj, tshapes, t_ratio, t_s)
    a_s = min(candidates)
    k = candidates.index(a_s)
    behind_l = Winner(active[late_k].pin, in_rising, False)
    if k < len(active):
        behind_s = Winner(active[k].pin, in_rising, False)
    else:
        behind_s = Winner(leads[k - len(active)], in_rising, True)
    if a_l < a_s:
        a_s, behind_s = a_l, behind_l
    t_s = min(t_s, t_l)

    state = DEFINITE if definite else POTENTIAL
    return (
        DirWindow(a_s=a_s, a_l=a_l, t_s=t_s, t_l=t_l, state=state),
        (behind_s, behind_l),
    )


def nonctrl_response_window(
    cell: CellTiming, inputs: Sequence[CtrlInput], load: float, model=None,
    f: float = 1.0, early: float = 1.0, late: float = 1.0,
) -> DirWindow:
    """The window of :func:`nonctrl_response_search`."""
    return nonctrl_response_search(
        cell, inputs, load, model, f, early, late
    )[0]


def nonctrl_response_search(
    cell: CellTiming, inputs: Sequence[CtrlInput], load: float, model=None,
    f: float = 1.0, early: float = 1.0, late: float = 1.0,
) -> Searched:
    """Output window of the to-non-controlling response, and the inputs
    behind its bounds (:class:`Winner`).

    The output settles only after *every* input has left the controlling
    value, so definite switchers raise the earliest bound (max of their
    fastest paths) while the latest bound is the max over all possible
    switchers.  The base rule is pin-to-pin (SDF), exactly as the paper
    uses; when the model carries the Λ-shape extension data
    (:class:`repro.models.NonCtrlAwareModel` with characterized cells),
    the latest bound additionally covers the simultaneous slow-down peak:
    the V's pair merge mirrored, through the same anchors and fold
    (:func:`fold_pair`).  ``f``, ``early`` and ``late`` scale as in
    :func:`ctrl_response_search`, except that the Λ peak can only raise
    the latest bound, so it takes the late derate.  Each active pin's
    arc is resolved once, and under the Λ-shape each pin's two window
    endpoints are evaluated once, each (pin pair, endpoint combo) once
    (:class:`PairAnchors`).
    """
    active = [i for i in inputs if i.window.is_active]
    if not active:
        return DirWindow.impossible(), None
    ctrl = cell.ctrl
    if ctrl is None:
        raise ValueError(f"cell {cell.name} has no controlling value")
    out_rising = not ctrl.out_rising
    in_rising = cell.controlling_value == 0

    d_adj = cell.load_adjusted_delay(out_rising, load)
    r_adj = cell.load_adjusted_trans(out_rising, load)
    arcs = [cell.arc(item.pin, in_rising, out_rising) for item in active]
    lows, highs, t_lows, t_highs = zip(*[
        _pin_bounds(arc, item.window, d_adj, r_adj, f, early, late)
        for item, arc in zip(active, arcs)
    ])
    definite = [k for k, i in enumerate(active) if i.window.is_definite]
    if definite:
        early_k = max(definite, key=lows.__getitem__)
    else:
        early_k = lows.index(min(lows))
    late_k = highs.index(max(highs))
    a_s, a_l = lows[early_k], highs[late_k]
    behind_l = Winner(active[late_k].pin, in_rising, False)
    uses_peak = (
        model is not None
        and hasattr(model, "nonctrl_shape")
        and getattr(cell, "nonctrl", None) is not None
    )
    if uses_peak and len(active) >= 2:
        anchors = PairAnchors(
            cell, cell.nonctrl, load, f, late,
            clamp=max, lagging=True, trans=False,
        )
        ends = [
            (anchors.end(arc, item.window.t_s),
             anchors.end(arc, item.window.t_l))
            for item, arc in zip(active, arcs)
        ]
        for idx, first in enumerate(active):
            wi = first.window
            for jdx in range(idx + 1, len(active)):
                second = active[jdx]
                wj = second.window
                shapes, _ = anchors.pair(
                    first.pin, second.pin, ends[idx], ends[jdx]
                )
                bound = fold_pair(wi, wj, shapes, "a_l", max)
                if bound > a_l:
                    a_l = bound
                    behind_l = Winner(
                        first.pin if wi.a_l <= wj.a_l else second.pin,
                        in_rising, True,
                    )
    behind_s = Winner(active[early_k].pin, in_rising, False)
    if a_l < a_s:
        a_s, behind_s = a_l, behind_l
    state = DEFINITE if definite else POTENTIAL
    return (
        DirWindow(
            a_s=a_s, a_l=a_l, t_s=min(t_lows), t_l=max(t_highs), state=state
        ),
        (behind_s, behind_l),
    )


def arc_fanin_window(
    cell: CellTiming, arcs: Sequence[Tuple[int, bool, DirWindow]],
    out_rising: bool, load: float,
    f: float = 1.0, early: float = 1.0, late: float = 1.0,
) -> DirWindow:
    """The window of :func:`arc_fanin_search`."""
    return arc_fanin_search(cell, arcs, out_rising, load, f, early, late)[0]


def arc_fanin_search(
    cell: CellTiming, arcs: Sequence[Tuple[int, bool, DirWindow]],
    out_rising: bool, load: float,
    f: float = 1.0, early: float = 1.0, late: float = 1.0,
) -> Searched:
    """Output window for cells without a controlling value (inv/buf/xor),
    and the inputs behind its bounds (:class:`Winner`).

    Args:
        arcs: (pin, input direction, input window) triples whose arc can
            produce the requested output direction.
        f, early, late: Variation factor and derates, as in
            :func:`ctrl_response_search`.
    """
    active = [(p, d, w) for (p, d, w) in arcs if w.is_active]
    if not active:
        return DirWindow.impossible(), None
    d_adj = cell.load_adjusted_delay(out_rising, load)
    r_adj = cell.load_adjusted_trans(out_rising, load)
    lows, highs, t_lows, t_highs = zip(*[
        _pin_bounds(
            cell.arc(pin, in_rising, out_rising), w,
            d_adj, r_adj, f, early, late,
        )
        for pin, in_rising, w in active
    ])
    early_k = lows.index(min(lows))
    late_k = highs.index(max(highs))
    definite = len(active) == 1 and active[0][2].is_definite
    return (
        DirWindow(
            a_s=lows[early_k], a_l=highs[late_k], t_s=min(t_lows),
            t_l=max(t_highs), state=DEFINITE if definite else POTENTIAL,
        ),
        (
            Winner(*active[early_k][:2], False),
            Winner(*active[late_k][:2], False),
        ),
    )

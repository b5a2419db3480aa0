"""The proposed simultaneous-switching delay model (paper Section 3).

The to-controlling gate delay of a pair of switching inputs (p, q) is the
piecewise-linear V of the paper's Figure 2, as a function of the skew
``delta = A_q - A_p``:

* vertex at ``(0, D0)`` — the characterized zero-skew delay;
* right tail reaching the pin-to-pin delay ``DR_p(T_p)`` at skew
  ``+S_pos(T_p, T_q)`` and staying flat beyond;
* left tail reaching ``DR_q(T_q)`` at ``-S_neg(T_p, T_q)``.

The output transition time uses an analogous V whose vertex may sit at a
non-zero skew ``SK_t,min`` (paper Section 3.4).

The extended model (Section 3.6) handles input positions (each pin has its
own characterized DR arc and each pair a characterized D0 scale factor),
more than two simultaneous transitions (characterized k-input scale
factors applied when k inputs switch inside the saturation window), and
load via linear slopes.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..characterize.formulas import ONE_THIRD
from ..characterize.library import (
    CellTiming,
    SimultaneousTiming,
    TimingArc,
    multi_input_ratio,
    pair_key,
)
from .base import DelayModel, InputEvent, ctrl_arc_delay, ctrl_arc_trans

#: Numerical floor for saturation skews (avoids division by zero when the
#: fitted quadratic dips near zero at extreme transition times).
_S_FLOOR = 1e-12


class VShape(NamedTuple):
    """The piecewise-linear delay of one input pair at fixed transition
    times, as a function of the skew ``delta = A_q - A_p``.

    One type serves both pair shapes of the model.  The paper's
    to-controlling V (Figure 2) has its delay measured from the earliest
    arrival and its vertex D0 at or below the tails.  The Λ of the
    to-non-controlling extension (:mod:`repro.models.nonctrl`) has its
    delay measured from the latest arrival and its vertex P0 at or
    above the tails.  The Λ is the V mirrored: the same interpolation
    from the vertex to the tail each side saturates to.

    Attributes:
        vertex: Zero-skew delay (the V's D0, the Λ's P0).
        s_pos: Positive saturation skew (pin q lagging).
        s_neg: Negative saturation skew magnitude (pin p lagging).
        tail_pos: Delay at skews ``>= s_pos``: the pin-to-pin delay of
            the reference pin, p for the V, q for the Λ.
        tail_neg: Delay at skews ``<= -s_neg``: the other pin's.
    """

    vertex: float
    s_pos: float
    s_neg: float
    tail_pos: float
    tail_neg: float

    def delay(self, skew: float) -> float:
        """Gate delay (from the reference arrival) at the given skew."""
        if skew >= self.s_pos:
            return self.tail_pos
        if skew <= -self.s_neg:
            return self.tail_neg
        if skew >= 0.0:
            return self.vertex + (self.tail_pos - self.vertex) * (
                skew / self.s_pos
            )
        return self.vertex + (self.tail_neg - self.vertex) * (
            -skew / self.s_neg
        )

    def min_delay(self) -> float:
        """The minimum over all skews: the V's vertex (Claim 1)."""
        return min(self.vertex, self.tail_pos, self.tail_neg)

    def max_delay(self) -> float:
        """The maximum over all skews: the Λ's vertex."""
        return max(self.vertex, self.tail_pos, self.tail_neg)


class TransVShape(NamedTuple):
    """The output transition-time V of one input pair.

    Unlike the delay V, the vertex may sit at non-zero skew
    (``SK_t,min``; paper Figure 5(f)).
    """

    vertex_skew: float
    vertex_value: float
    s_pos: float
    s_neg: float
    t_p: float
    t_q: float

    def trans(self, skew: float) -> float:
        """Output transition time at the given skew."""
        if skew >= self.s_pos:
            return self.t_p
        if skew <= -self.s_neg:
            return self.t_q
        if skew >= self.vertex_skew:
            span = self.s_pos - self.vertex_skew
            if span <= 0.0:
                return self.t_p
            frac = (skew - self.vertex_skew) / span
            return self.vertex_value + (self.t_p - self.vertex_value) * frac
        span = self.vertex_skew + self.s_neg
        if span <= 0.0:
            return self.t_q
        frac = (self.vertex_skew - skew) / span
        return self.vertex_value + (self.t_q - self.vertex_value) * frac

    def min_trans(self) -> float:
        return self.vertex_value

    def minimizing_skew(self) -> float:
        """The paper's SK_t,min."""
        return self.vertex_skew


class PinEnd(NamedTuple):
    """One transition time on a pin's to-controlling arc, evaluated once.

    Attributes:
        t: The time clamped into the arc's characterized range.
        root: ``t ** (1/3)``, the D0 and vertex surfaces' argument.
        dr: The arc's delay there (a delay V's tail), or None.
        tail: The arc's output transition time there (a transition
            V's tail), or None.
    """

    t: float
    root: float
    dr: Optional[float]
    tail: Optional[float]


class PairAnchors:
    """Pair-shape anchors of one cell's simultaneous-switching record
    (``ctrl`` for the V, ``nonctrl`` for the Λ, whose ``d0`` surface is
    the peak P0) at one load, variation factor ``f`` and derate ``g``.

    The Λ is the V mirrored by two choices: ``clamp`` bounds the vertex
    by the tails (``min`` for D0: simultaneous to-controlling switching
    can only speed a gate up; ``max`` for P0: the peak is a slow-down),
    and ``lagging`` puts the lagging pin's (q's) tail on the +S side, as
    a delay measured from the latest arrival needs (the V's is the
    leading pin's, p's).

    The work is split the way the compiled merges split it: each pin
    endpoint is clamped, rooted and sent through its arc once
    (:meth:`end`), and each (pin pair, endpoint combo) evaluates the
    surfaces once (:meth:`pair`), the delay shape and the transition V
    sharing the combo's clamps and S±.  ``delay=False`` skips the delay
    shape's work and ``trans=False`` the transition V's, so no caller
    pays for a shape it does not read.  ``f`` and then ``g`` multiply
    the tails, the vertices and S± before the clamps; at their 1.0
    defaults the multiplies are exact.

    Raises:
        ValueError: If ``record`` is None (the cell has no such data).
    """

    __slots__ = ("record", "f", "g", "d_adj", "r_adj", "clamp", "lagging")

    def __init__(
        self,
        cell: CellTiming,
        record: Optional[SimultaneousTiming],
        load: float,
        f: float = 1.0,
        g: float = 1.0,
        clamp: Callable[..., float] = min,
        lagging: bool = False,
        delay: bool = True,
        trans: bool = True,
    ) -> None:
        if record is None:
            raise ValueError(
                f"cell {cell.name} has no simultaneous-switching data "
                "for this response"
            )
        self.record = record
        self.f = f
        self.g = g
        self.clamp = clamp
        self.lagging = lagging
        out_rising = record.out_rising
        self.d_adj = (
            cell.load_adjusted_delay(out_rising, load) if delay else None
        )
        self.r_adj = (
            cell.load_adjusted_trans(out_rising, load) if trans else None
        )

    def end(self, arc: TimingArc, t: float) -> PinEnd:
        """Transition time ``t`` on ``arc``, the pin's arc of the
        record's response."""
        t = arc.clamp(t)
        dr = tail = None
        if self.d_adj is not None:
            dr = (arc.delay(t) + self.d_adj) * self.f * self.g
        if self.r_adj is not None:
            tail = (arc.trans(t) + self.r_adj) * self.f * self.g
        return PinEnd(t, t ** ONE_THIRD, dr, tail)

    def pair(
        self,
        pin_p: int,
        pin_q: int,
        ends_p: Sequence[PinEnd],
        ends_q: Sequence[PinEnd],
    ) -> Tuple[Optional[List[VShape]], Optional[List[TransVShape]]]:
        """The delay shape and transition V of every (p end, q end) combo.

        Pins are ordered: each shape's skew argument is ``A_q - A_p``.
        Combos run p-major, so with ``(t_s, t_l)`` ends combo 0 is
        ``(t_s, t_s)``.  The vertex is clamped by the tails (see the
        class), the transition vertex to the tails and to ``[-s_neg,
        s_pos]``.  A list the anchors skip (see the class) is None.
        """
        rec = self.record
        f, g = self.f, self.g
        d_adj, r_adj = self.d_adj, self.r_adj
        clamp, lagging = self.clamp, self.lagging
        # The surfaces are characterized on the (0, 1) pair with the
        # first argument belonging to the lower position; a mirrored
        # pair swaps the arguments and the sides of S and SK_t,min.
        mirrored = pin_p > pin_q
        shapes = [] if d_adj is not None else None
        tshapes = [] if r_adj is not None else None
        if shapes is not None:
            scale = rec.pair_scale.get(pair_key(pin_p, pin_q), 1.0)
        for e_p in ends_p:
            for e_q in ends_q:
                lo, hi = (e_q, e_p) if mirrored else (e_p, e_q)
                s_lo = max(rec.s_pos(lo.t, hi.t), _S_FLOOR) * f * g
                s_hi = max(rec.s_neg(lo.t, hi.t), _S_FLOOR) * f * g
                s_pos, s_neg = (s_hi, s_lo) if mirrored else (s_lo, s_hi)
                if shapes is not None:
                    vertex = (
                        rec.d0.eval_roots(lo.root, hi.root) * scale + d_adj
                    ) * f * g
                    pos, neg = (e_q, e_p) if lagging else (e_p, e_q)
                    shapes.append(VShape(
                        clamp(vertex, e_p.dr, e_q.dr), s_pos, s_neg,
                        pos.dr, neg.dr,
                    ))
                if tshapes is not None:
                    skew = rec.t_vertex_skew(lo.t, hi.t) * f * g
                    if mirrored:
                        skew = -skew
                    value = (
                        rec.t_vertex.eval_roots(lo.root, hi.root) + r_adj
                    ) * f * g
                    tshapes.append(TransVShape(
                        min(max(skew, -s_neg), s_pos),
                        min(value, e_p.tail, e_q.tail),
                        s_pos, s_neg, e_p.tail, e_q.tail,
                    ))
        return shapes, tshapes


class VShapeModel(DelayModel):
    """The paper's proposed delay model."""

    name = "proposed"
    supports_pair_merge = True

    # ------------------------------------------------------------------
    # V-shape construction (one combo of :class:`PairAnchors`)
    # ------------------------------------------------------------------
    def vshape(
        self,
        cell: CellTiming,
        pin_p: int,
        pin_q: int,
        t_p: float,
        t_q: float,
        load: float,
        f: float = 1.0,
        g: float = 1.0,
    ) -> VShape:
        """Evaluate the delay V-shape anchors for the pair (p, q).

        Pins are ordered: the skew argument of the resulting V is
        ``A_q - A_p``.  Transition times are clamped to the characterized
        range, and D0 is clamped to never exceed the pin-to-pin tails
        (simultaneous to-controlling switching can only speed a gate up).

        ``f`` (a per-gate variation factor) and then ``g`` (the early
        timing derate: this V lowers earliest arrivals) multiply the
        tails, D0 and S±, before the clamp.  At their 1.0 defaults the
        multiplies are exact.
        """
        anchors = PairAnchors(cell, cell.ctrl, load, f, g, trans=False)
        shapes, _ = anchors.pair(
            pin_p, pin_q,
            [anchors.end(cell.ctrl_arc(pin_p), t_p)],
            [anchors.end(cell.ctrl_arc(pin_q), t_q)],
        )
        return shapes[0]

    def trans_vshape(
        self,
        cell: CellTiming,
        pin_p: int,
        pin_q: int,
        t_p: float,
        t_q: float,
        load: float,
        f: float = 1.0,
        g: float = 1.0,
    ) -> TransVShape:
        """Evaluate the transition-time V for the pair (p, q).

        ``f`` and ``g`` scale the tails, the vertex and S± as in
        :meth:`vshape`.
        """
        anchors = PairAnchors(cell, cell.ctrl, load, f, g, delay=False)
        _, tshapes = anchors.pair(
            pin_p, pin_q,
            [anchors.end(cell.ctrl_arc(pin_p), t_p)],
            [anchors.end(cell.ctrl_arc(pin_q), t_q)],
        )
        return tshapes[0]

    # ------------------------------------------------------------------
    # Multi-input merge (extended model, Section 3.6)
    # ------------------------------------------------------------------
    def controlling_response(
        self,
        cell: CellTiming,
        events: Sequence[InputEvent],
        load: float,
    ) -> Tuple[float, float]:
        events = sorted(events, key=lambda e: e.arrival)
        earliest = events[0]
        if len(events) == 1:
            return (
                ctrl_arc_delay(cell, earliest.pin, earliest.trans, load),
                ctrl_arc_trans(cell, earliest.pin, earliest.trans, load),
            )
        # Pairwise V-shapes: the output switches on the fastest pair.
        best_arrival = None
        best_trans = None
        best_pair = None
        for i, ev_p in enumerate(events):
            for ev_q in events[i + 1:]:
                shape = self.vshape(
                    cell, ev_p.pin, ev_q.pin, ev_p.trans, ev_q.trans, load
                )
                skew = ev_q.arrival - ev_p.arrival
                arrival = min(ev_p.arrival, ev_q.arrival) + shape.delay(skew)
                if best_arrival is None or arrival < best_arrival:
                    best_arrival = arrival
                    best_pair = (ev_p, ev_q)
                    tshape = self.trans_vshape(
                        cell, ev_p.pin, ev_q.pin, ev_p.trans, ev_q.trans, load
                    )
                    best_trans = tshape.trans(skew)
        # k > 2 near-simultaneous correction: if more events fall inside
        # the winning pair's interaction window, apply the characterized
        # k-input speed-up ratio.
        k_near = self._near_simultaneous_count(cell, events, load)
        delay = best_arrival - earliest.arrival
        trans = best_trans
        if k_near > 2 and cell.ctrl is not None:
            ratio = multi_input_ratio(cell.ctrl.multi_scale, k_near)
            t_ratio = multi_input_ratio(cell.ctrl.trans_multi_scale, k_near)
            floor = min(ev.arrival for ev in events)
            pair_floor = min(best_pair[0].arrival, best_pair[1].arrival)
            delay = (best_arrival - pair_floor) * ratio + (pair_floor - floor)
            trans = best_trans * t_ratio
        return delay, trans

    def _near_simultaneous_count(
        self, cell: CellTiming, events: Sequence[InputEvent], load: float
    ) -> int:
        """How many events interact with the earliest one."""
        earliest = events[0]
        count = 1
        for ev in events[1:]:
            shape = self.vshape(
                cell, earliest.pin, ev.pin, earliest.trans, ev.trans, load
            )
            if ev.arrival - earliest.arrival < 0.5 * shape.s_pos:
                count += 1
        return count

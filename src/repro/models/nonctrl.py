"""Extension: simultaneous to-non-controlling delay model (Λ-shape).

The paper keeps the pin-to-pin model for to-non-controlling responses and
lists a model "considering the effect of pre-initialization [7] ... based
on the simplified model of [19]" as work in progress (Section 3.6).  This
module implements that extension against the in-tree simulator's measured
behaviour:

* near zero skew, both series transistors ramp on together and the
  internal stack node must discharge along with the output, so the gate
  is *slower* than the SDF max-rule predicts (a Miller-flavoured,
  first-order-visible slow-down — ~30-40% on our technology);
* when the outer input switches sufficiently *earlier*, the internal
  stack node pre-discharges ("pre-initialization"), and the response to
  the later input is slightly *faster* than its pin-to-pin delay;
* beyond a saturation skew the leading transition is history and the
  pin-to-pin delay of the lagging input is exact.

The delay (measured from the *latest* participating arrival, per the
paper's to-non-controlling definition) is approximated by a
piecewise-linear peak (Λ): vertex ``(0, P0)`` with tails reaching the
lagging pin's pin-to-pin delay at ``±S``.  The small pre-initialization
undershoot below the tail is deliberately *not* modeled: rounding it up
to the tail keeps the model conservative for setup (max-delay) checks,
which is the direction this effect endangers.

This is strictly additive: cells characterized without the extension
data fall back to the SDF rule, bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from ..characterize.formulas import ONE_THIRD
from ..characterize.library import CellTiming, TimingArc
from .base import InputEvent
from .vshape import PinEnd, VShapeModel

_S_FLOOR = 1e-12


@dataclasses.dataclass(frozen=True)
class PeakShape:
    """The Λ-shaped to-non-controlling delay of one input pair.

    Delay is referenced to the *latest* arrival; the skew argument is
    ``A_q - A_p`` as usual.

    Attributes:
        p0: Zero-skew (peak) delay.
        s_pos: Saturation skew on the positive side (q lags).
        s_neg: Saturation skew magnitude on the negative side (p lags).
        tail_p: Pin-to-pin delay of p (reached when p lags by >= s_neg).
        tail_q: Pin-to-pin delay of q.
    """

    p0: float
    s_pos: float
    s_neg: float
    tail_p: float
    tail_q: float

    def delay(self, skew: float) -> float:
        """Delay from the latest arrival at the given skew."""
        if skew >= self.s_pos:
            return self.tail_q
        if skew <= -self.s_neg:
            return self.tail_p
        if skew >= 0.0:
            frac = skew / self.s_pos
            return self.p0 + (self.tail_q - self.p0) * frac
        frac = -skew / self.s_neg
        return self.p0 + (self.tail_p - self.p0) * frac

    def max_delay(self) -> float:
        """The worst-case (peak) value — what setup checks must assume."""
        return max(self.p0, self.tail_p, self.tail_q)


class PeakAnchors:
    """Λ-shape anchors of one cell's to-non-controlling pairs at one
    load, variation factor ``f`` and derate ``g``.

    The split of :class:`~repro.models.vshape.CtrlAnchors`: each pin
    endpoint is clamped, rooted and sent through the pin's
    to-non-controlling arc once (:meth:`end`; the tail is its ``dr``),
    and each (pin pair, endpoint combo) evaluates P0 and S± once
    (:meth:`pair`).  ``f`` and then ``g`` multiply the tails, P0 and
    S± before the clamp; at their 1.0 defaults the multiplies are exact.

    Raises:
        ValueError: If the cell has no nonctrl data.
    """

    __slots__ = ("data", "f", "g", "d_adj")

    def __init__(
        self, cell: CellTiming, load: float, f: float = 1.0, g: float = 1.0
    ) -> None:
        data = getattr(cell, "nonctrl", None)
        if data is None:
            raise ValueError(f"cell {cell.name} has no nonctrl data")
        self.data = data
        self.f = f
        self.g = g
        self.d_adj = cell.load_adjusted_delay(data.out_rising, load)

    def end(self, arc: TimingArc, t: float) -> PinEnd:
        """``t`` on ``arc``, the pin's to-non-controlling arc."""
        t = arc.clamp(t)
        tail = (arc.delay(t) + self.d_adj) * self.f * self.g
        return PinEnd(t, t ** ONE_THIRD, tail, None)

    def pair(
        self,
        pin_p: int,
        pin_q: int,
        ends_p: Sequence[PinEnd],
        ends_q: Sequence[PinEnd],
    ) -> List[PeakShape]:
        """The Λ-shape of every (p end, q end) combo, p-major.  A
        mirrored pair swaps the sides of S; P0 never undercuts the tails
        (the peak is a slow-down)."""
        data = self.data
        f, g = self.f, self.g
        lower = min(pin_p, pin_q)
        scale = data.pair_scale.get(f"{lower}-{max(pin_p, pin_q)}", 1.0)
        shapes = []
        for e_p in ends_p:
            for e_q in ends_q:
                lo, hi = (e_p, e_q) if pin_p == lower else (e_q, e_p)
                p0 = (
                    data.d0.eval_roots(lo.root, hi.root) * scale + self.d_adj
                ) * f * g
                p0 = max(p0, e_p.dr, e_q.dr)
                s_lo = max(data.s_pos(lo.t, hi.t), _S_FLOOR) * f * g
                s_hi = max(data.s_neg(lo.t, hi.t), _S_FLOOR) * f * g
                s_pos, s_neg = (
                    (s_lo, s_hi) if pin_p == lower else (s_hi, s_lo)
                )
                shapes.append(PeakShape(
                    p0=p0, s_pos=s_pos, s_neg=s_neg,
                    tail_p=e_p.dr, tail_q=e_q.dr,
                ))
        return shapes


class NonCtrlAwareModel(VShapeModel):
    """The proposed model plus the to-non-controlling extension.

    Identical to :class:`VShapeModel` except that, for cells carrying
    the extension's characterization data (``CellTiming.nonctrl``), the
    to-non-controlling response of a switching input pair follows the
    measured Λ-shape instead of the SDF max rule.
    """

    name = "proposed+nonctrl"

    def nonctrl_shape(
        self,
        cell: CellTiming,
        pin_p: int,
        pin_q: int,
        t_p: float,
        t_q: float,
        load: float,
        f: float = 1.0,
        g: float = 1.0,
    ) -> PeakShape:
        """Evaluate the Λ-shape anchors for the pair (p, q).

        ``f`` (a per-gate variation factor) and then ``g`` (the late
        timing derate: the peak raises latest arrivals) multiply the
        tails, P0 and S±, before the clamp.  At their 1.0 defaults the
        multiplies are exact.  One combo of :class:`PeakAnchors`.
        """
        anchors = PeakAnchors(cell, load, f, g)
        in_rising = cell.controlling_value == 0
        out_rising = anchors.data.out_rising
        (shape,) = anchors.pair(
            pin_p, pin_q,
            [anchors.end(cell.arc(pin_p, in_rising, out_rising), t_p)],
            [anchors.end(cell.arc(pin_q, in_rising, out_rising), t_q)],
        )
        return shape

    def noncontrolling_response(
        self,
        cell: CellTiming,
        events: Sequence[InputEvent],
        load: float,
    ) -> Tuple[float, float]:
        data = getattr(cell, "nonctrl", None)
        if data is None or len(events) < 2:
            return super().noncontrolling_response(cell, events, load)
        events = sorted(events, key=lambda e: e.arrival)
        latest = events[-1].arrival
        # SDF baseline (covers k > 2 and sets the transition time).
        base_delay, trans = super().noncontrolling_response(
            cell, events, load
        )
        # The interacting pair is the two latest arrivals: the stack
        # completes its turn-on with them.
        ev_p, ev_q = events[-2], events[-1]
        shape = self.nonctrl_shape(
            cell, ev_p.pin, ev_q.pin, ev_p.trans, ev_q.trans, load
        )
        skew = ev_q.arrival - ev_p.arrival
        pair_delay = shape.delay(skew)
        # The response cannot be faster than physics allows relative to
        # the SDF arrival of the *other* events, so take the later of the
        # two predictions (both are referenced to the latest arrival).
        delay = max(pair_delay, base_delay) if len(events) > 2 else pair_delay
        return delay, trans

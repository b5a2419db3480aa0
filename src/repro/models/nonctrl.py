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
from typing import Sequence, Tuple

from ..characterize.library import CellTiming
from .base import InputEvent
from .vshape import VShapeModel

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
        multiplies are exact.
        """
        data = getattr(cell, "nonctrl", None)
        if data is None:
            raise ValueError(f"cell {cell.name} has no nonctrl data")
        out_rising = data.out_rising
        in_rising = cell.controlling_value == 0
        arc_p = cell.arc(pin_p, in_rising, out_rising)
        arc_q = cell.arc(pin_q, in_rising, out_rising)
        t_p = arc_p.clamp(t_p)
        t_q = arc_q.clamp(t_q)
        load_adj = cell.load_adjusted_delay(out_rising, load)
        tail_p = (arc_p.delay(t_p) + load_adj) * f * g
        tail_q = (arc_q.delay(t_q) + load_adj) * f * g
        lo = min(pin_p, pin_q)
        t_lo, t_hi = (t_p, t_q) if pin_p == lo else (t_q, t_p)
        scale = data.pair_scale.get(f"{min(pin_p, pin_q)}-{max(pin_p, pin_q)}", 1.0)
        p0 = (data.d0(t_lo, t_hi) * scale + load_adj) * f * g
        p0 = max(p0, tail_p, tail_q)  # the peak is a slow-down
        if pin_p == lo:
            s_pos = max(data.s_pos(t_lo, t_hi), _S_FLOOR) * f * g
            s_neg = max(data.s_neg(t_lo, t_hi), _S_FLOOR) * f * g
        else:
            s_pos = max(data.s_neg(t_lo, t_hi), _S_FLOOR) * f * g
            s_neg = max(data.s_pos(t_lo, t_hi), _S_FLOOR) * f * g
        return PeakShape(
            p0=p0, s_pos=s_pos, s_neg=s_neg, tail_p=tail_p, tail_q=tail_q
        )

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

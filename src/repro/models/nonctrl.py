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

The Λ is the paper's V mirrored, and it runs through the V's code: a
:class:`~repro.models.vshape.VShape` whose vertex
:class:`~repro.models.vshape.PairAnchors` clamps from below (``max``)
and whose +S tail is the lagging pin's, and, in the STA, the same
breakpoint fold (:func:`repro.sta.corners.fold_pair`) maximizing the
latest arrival where the V's minimizes the earliest.

This is strictly additive: cells characterized without the extension
data fall back to the SDF rule, bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..characterize.library import CellTiming
from .base import InputEvent
from .vshape import PairAnchors, VShape, VShapeModel


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
    ) -> VShape:
        """Evaluate the Λ-shape anchors for the pair (p, q).

        One combo of :class:`PairAnchors` over the cell's ``nonctrl``
        record: P0 never undercuts the tails, and the +S tail is q's
        (see the module docstring).  ``f`` (a per-gate variation factor)
        and then ``g`` (the late timing derate: the peak raises latest
        arrivals) multiply the tails, P0 and S±, before the clamp.  At
        their 1.0 defaults the multiplies are exact.
        """
        anchors = PairAnchors(
            cell, cell.nonctrl, load, f, g,
            clamp=max, lagging=True, trans=False,
        )
        in_rising = cell.controlling_value == 0
        out_rising = anchors.record.out_rising
        (shape,), _ = anchors.pair(
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

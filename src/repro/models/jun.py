"""Behavioural reimplementation of Jun's inverter-collapsing model [6].

Jun, Jun and Park (IEEE TCAD 1989) collapse the parallel transistors that
switch together into a single equivalent inverter and map the multiple
input transitions onto one equivalent transition.  The collapse is blind
to the *skew* between the transitions beyond folding it into the
equivalent ramp, which is why the paper's Figure 12 shows the approach
failing at large skews while matching HSPICE near zero skew (Figure 11).

This implementation reproduces exactly that behaviour using the same
characterized data as the proposed model (so the comparison isolates the
model *form*):

* equivalent arrival = mean of the switching arrivals;
* equivalent transition time = mean transition time widened by the
  arrival spread;
* delay = the characterized zero-skew surface evaluated on the diagonal,
  scaled by the k-input factor.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..characterize.library import CellTiming, multi_input_ratio
from .base import DelayModel, InputEvent, ctrl_arc_delay, ctrl_arc_trans


class JunModel(DelayModel):
    """Inverter-collapsing baseline (skew-blind equivalent transition)."""

    name = "jun"

    def controlling_response(
        self,
        cell: CellTiming,
        events: Sequence[InputEvent],
        load: float,
    ) -> Tuple[float, float]:
        if len(events) == 1:
            event = events[0]
            return (
                ctrl_arc_delay(cell, event.pin, event.trans, load),
                ctrl_arc_trans(cell, event.pin, event.trans, load),
            )
        ctrl = cell.ctrl
        if ctrl is None:
            raise ValueError(f"cell {cell.name} has no simultaneous data")
        arrivals = [e.arrival for e in events]
        spread = max(arrivals) - min(arrivals)
        t_eq = float(np.mean([e.trans for e in events])) + spread
        arc = cell.ctrl_arc(events[0].pin)
        t_eq = arc.clamp(t_eq)
        scale = multi_input_ratio(ctrl.multi_scale, len(events))
        t_scale = multi_input_ratio(ctrl.trans_multi_scale, len(events))
        load_adj = cell.load_adjusted_delay(ctrl.out_rising, load)
        delay_from_mean = ctrl.d0(t_eq, t_eq) * scale + load_adj
        trans = (
            ctrl.t_vertex(t_eq, t_eq) * t_scale
            + cell.load_adjusted_trans(ctrl.out_rising, load)
        )
        mean_arrival = float(np.mean(arrivals))
        earliest = min(arrivals)
        return (mean_arrival - earliest) + delay_from_mean, trans

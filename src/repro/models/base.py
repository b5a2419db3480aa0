"""Delay-model interface shared by the proposed model and the baselines.

A delay model answers one question: given the timed transitions arriving
at a gate's inputs (a fully specified two-frame situation), when and how
does the output switch?  :meth:`DelayModel.output_event` implements the
common logic-classification (which inputs cause the output response, and
whether the response is to-controlling or to-non-controlling); concrete
models supply the to-controlling arithmetic through
:meth:`DelayModel.controlling_response`.

All models measure the to-controlling gate delay from the *earliest*
participating input arrival and the to-non-controlling delay from the
latest, matching the paper's Section 3 definitions.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..characterize.library import CellTiming
from ..circuit.logic import controlled_output, evaluate_gate, noncontrolled_output


@dataclasses.dataclass(frozen=True)
class InputEvent:
    """A timed transition on one gate input.

    Args:
        pin: Input position.
        arrival: 50%-crossing time, seconds.
        trans: 10-90 transition time, seconds.
        rising: Direction.
    """

    pin: int
    arrival: float
    trans: float
    rising: bool

    @property
    def initial_value(self) -> int:
        return 0 if self.rising else 1

    @property
    def final_value(self) -> int:
        return 1 if self.rising else 0


@dataclasses.dataclass(frozen=True)
class OutputEvent:
    """The resulting timed transition on the gate output."""

    arrival: float
    trans: float
    rising: bool


class DelayModel(abc.ABC):
    """Base class for gate delay models."""

    #: Short identifier used in benchmark tables.
    name = "base"

    #: Whether the model exposes pair V-shapes (``vshape`` /
    #: ``trans_vshape``) that STA's corner search can merge over
    #: simultaneous to-controlling switching.  The pin-to-pin baseline
    #: does not; the proposed model does.
    supports_pair_merge = False

    # ------------------------------------------------------------------
    # Pieces concrete models implement / may override
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def controlling_response(
        self,
        cell: CellTiming,
        events: Sequence[InputEvent],
        load: float,
    ) -> Tuple[float, float]:
        """Delay and transition time of a to-controlling response.

        Args:
            cell: Characterized cell (must have a controlling value).
            events: The to-controlling input transitions (non-empty; all in
                the to-controlling direction).
            load: Output load, farads.

        Returns:
            (delay measured from the earliest event arrival,
            output transition time), both seconds.
        """

    def noncontrolling_response(
        self,
        cell: CellTiming,
        events: Sequence[InputEvent],
        load: float,
    ) -> Tuple[float, float]:
        """Delay/transition of a to-non-controlling response.

        The paper keeps the pin-to-pin model for this case (Miller-effect
        modeling is listed as future work), so the shared implementation is
        the SDF rule: the output arrival is the max over pin-to-pin paths,
        measured here from the *latest* input arrival.
        """
        out_value = noncontrolled_output(cell.kind)
        if out_value is None:
            raise ValueError(f"cell {cell.name} has no controlling value")
        out_rising = out_value == 1
        best_arrival = None
        best_trans = 0.0
        for event in events:
            arc = cell.arc(event.pin, event.rising, out_rising)
            t_in = arc.clamp(event.trans)
            arrival = (
                event.arrival
                + arc.delay(t_in)
                + cell.load_adjusted_delay(out_rising, load)
            )
            trans = arc.trans(t_in) + cell.load_adjusted_trans(out_rising, load)
            if best_arrival is None or arrival > best_arrival:
                best_arrival = arrival
                best_trans = trans
        latest_input = max(e.arrival for e in events)
        return best_arrival - latest_input, best_trans

    def pin_to_pin(
        self,
        cell: CellTiming,
        pin: int,
        in_rising: bool,
        out_rising: bool,
        t_in: float,
        load: float,
    ) -> Tuple[float, float]:
        """(delay, output transition time) of one pin-to-pin arc."""
        arc = cell.arc(pin, in_rising, out_rising)
        t_in = arc.clamp(t_in)
        delay = arc.delay(t_in) + cell.load_adjusted_delay(out_rising, load)
        trans = arc.trans(t_in) + cell.load_adjusted_trans(out_rising, load)
        return delay, trans

    # ------------------------------------------------------------------
    # Two-frame (timing simulation) semantics
    # ------------------------------------------------------------------
    def output_event(
        self,
        cell: CellTiming,
        events: Sequence[InputEvent],
        steady: Optional[Dict[int, int]] = None,
        load: Optional[float] = None,
    ) -> Optional[OutputEvent]:
        """The output transition for a fully specified input situation.

        Args:
            cell: Characterized cell.
            events: Transitioning inputs.
            steady: Logic value per non-transitioning pin.
            load: Output load, farads (defaults to the characterization
                reference load).

        Returns:
            The settled output transition, or ``None`` when the output does
            not change value.

        Raises:
            ValueError: If the pins do not exactly cover the cell's inputs.
        """
        steady = dict(steady or {})
        load = cell.ref_load if load is None else load
        values_before: List[Optional[int]] = [None] * cell.n_inputs
        values_after: List[Optional[int]] = [None] * cell.n_inputs
        for event in events:
            values_before[event.pin] = event.initial_value
            values_after[event.pin] = event.final_value
        for pin, value in steady.items():
            if values_before[pin] is not None:
                raise ValueError(f"pin {pin} is both steady and transitioning")
            values_before[pin] = value
            values_after[pin] = value
        if any(v is None for v in values_before):
            missing = [i for i, v in enumerate(values_before) if v is None]
            raise ValueError(f"unspecified input pins: {missing}")

        out_before = evaluate_gate(cell.kind, values_before)
        out_after = evaluate_gate(cell.kind, values_after)
        if out_before == out_after:
            return None
        out_rising = out_after == 1

        if cell.controlling_value is None:
            # inv / buf / xor: a single input transition is responsible.
            changed = [e for e in events]
            if len(changed) != 1:
                # Two XOR inputs switching in the same step cancel; with
                # different timing the settled value is unchanged, so this
                # only happens when the logic says the output flips, which
                # requires exactly one changed input.
                raise ValueError(
                    f"{cell.name}: output flip requires exactly one cause"
                )
            event = changed[0]
            delay, trans = self.pin_to_pin(
                cell, event.pin, event.rising, out_rising, event.trans, load
            )
            return OutputEvent(event.arrival + delay, trans, out_rising)

        to_ctrl = cell.controlling_value == 1
        cause = [e for e in events if e.rising == to_ctrl]
        if out_rising == (controlled_output(cell.kind) == 1):
            # To-controlling response.
            if not cause:
                raise ValueError(
                    f"{cell.name}: controlled output without a cause event"
                )
            delay, trans = self.controlling_response(cell, cause, load)
            earliest = min(e.arrival for e in cause)
            return OutputEvent(earliest + delay, trans, out_rising)
        # To-non-controlling response: all inputs leave the controlling
        # value; the transitions away from it are the cause.
        away = [e for e in events if e.rising != to_ctrl]
        if not away:
            raise ValueError(
                f"{cell.name}: non-controlled output without a cause event"
            )
        delay, trans = self.noncontrolling_response(cell, away, load)
        latest = max(e.arrival for e in away)
        return OutputEvent(latest + delay, trans, out_rising)


def ctrl_arc_delay(
    cell: CellTiming, pin: int, t_in: float, load: float
) -> float:
    """Pin-to-pin delay of the to-controlling arc (convenience helper)."""
    arc = cell.ctrl_arc(pin)
    t_in = arc.clamp(t_in)
    return arc.delay(t_in) + cell.load_adjusted_delay(arc.out_rising, load)


def ctrl_arc_trans(
    cell: CellTiming, pin: int, t_in: float, load: float
) -> float:
    """Output transition time of the to-controlling arc."""
    arc = cell.ctrl_arc(pin)
    t_in = arc.clamp(t_in)
    return arc.trans(t_in) + cell.load_adjusted_trans(arc.out_rising, load)

"""Two-pattern timing simulation (the paper's TS).

Given a fully specified vector pair at the primary inputs — each PI either
holds a value or makes one timed transition — the simulator propagates
settled two-frame values and timed events through the circuit using any
delay model.  It is the oracle the STA/ITR soundness tests compare
against: every simulated event must fall inside the corresponding STA/ITR
window.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..characterize.library import CellLibrary
from ..circuit.netlist import Circuit
from ..models.base import DelayModel, InputEvent, OutputEvent
from ..models.vshape import VShapeModel
from .analysis import StaConfig, TimingAnalyzer


@dataclasses.dataclass(frozen=True)
class PiStimulus:
    """Two-frame stimulus of one primary input.

    Args:
        v1: First-frame logic value.
        v2: Second-frame logic value.
        arrival: Transition arrival time (ignored when v1 == v2).
        trans: Transition time (ignored when v1 == v2).

    Raises:
        ValueError: If ``v1`` or ``v2`` is not a logic value (0 or 1).
    """

    v1: int
    v2: int
    arrival: float = 0.0
    trans: float = 0.2e-9

    def __post_init__(self) -> None:
        if self.v1 not in (0, 1) or self.v2 not in (0, 1):
            raise ValueError(
                f"logic values must be 0 or 1, got v1={self.v1!r}, "
                f"v2={self.v2!r}"
            )

    @property
    def has_transition(self) -> bool:
        return self.v1 != self.v2

    @staticmethod
    def steady(value: int) -> "PiStimulus":
        return PiStimulus(value, value)

    @staticmethod
    def transition(
        rising: bool, arrival: float = 0.0, trans: float = 0.2e-9
    ) -> "PiStimulus":
        return PiStimulus(
            0 if rising else 1, 1 if rising else 0, arrival, trans
        )


@dataclasses.dataclass
class SimulationResult:
    """Settled two-frame values and timed events per line."""

    values1: Dict[str, int]
    values2: Dict[str, int]
    events: Dict[str, Optional[OutputEvent]]

    def event(self, line: str) -> Optional[OutputEvent]:
        return self.events[line]

    def arrival(self, line: str) -> float:
        event = self.events[line]
        if event is None:
            raise ValueError(f"line {line} does not transition")
        return event.arrival


class TimingSimulator:
    """Event-at-settled-value timing simulator.

    Args:
        circuit: The circuit to simulate.
        library: Characterized cell library.
        model: Delay model (defaults to the proposed model).
        config: Load boundary conditions (shared with the analyzer so TS
            and STA see identical loads).
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.model = model if model is not None else VShapeModel()
        # Reuse the analyzer's load computation for consistency.
        self._analyzer = TimingAnalyzer(circuit, library, self.model, config)

    def run(self, stimuli: Dict[str, PiStimulus]) -> SimulationResult:
        """Simulate one vector pair.

        Args:
            stimuli: One :class:`PiStimulus` per primary input.

        Raises:
            ValueError: If any primary input lacks a stimulus.
        """
        missing = [pi for pi in self.circuit.inputs if pi not in stimuli]
        if missing:
            raise ValueError(f"missing stimuli for inputs: {missing}")
        values1: Dict[str, int] = {}
        values2: Dict[str, int] = {}
        events: Dict[str, Optional[OutputEvent]] = {}
        for pi in self.circuit.inputs:
            stim = stimuli[pi]
            values1[pi] = stim.v1
            values2[pi] = stim.v2
            if stim.has_transition:
                events[pi] = OutputEvent(
                    arrival=stim.arrival,
                    trans=stim.trans,
                    rising=stim.v2 == 1,
                )
            else:
                events[pi] = None

        for out in self.circuit.topological_order():
            gate = self.circuit.gates[out]
            cell = self._analyzer.cell_of(gate)
            load = self._analyzer.load(out)
            input_events = []
            steady: Dict[int, int] = {}
            for pin, line in enumerate(gate.inputs):
                event = events[line]
                if event is not None:
                    input_events.append(
                        InputEvent(pin, event.arrival, event.trans, event.rising)
                    )
                else:
                    steady[pin] = values2[line]
            from ..circuit.logic import evaluate_gate

            values1[out] = evaluate_gate(
                gate.kind, [values1[name] for name in gate.inputs]
            )
            values2[out] = evaluate_gate(
                gate.kind, [values2[name] for name in gate.inputs]
            )
            if values1[out] == values2[out] or not input_events:
                events[out] = None
                continue
            event = self.model.output_event(cell, input_events, steady, load)
            events[out] = self._post_event(out, event, events)
        return SimulationResult(values1, values2, events)

    def _post_event(
        self,
        line: str,
        event: Optional[OutputEvent],
        events: Dict[str, Optional[OutputEvent]],
    ) -> Optional[OutputEvent]:
        """Hook applied to every computed event (e.g. fault injection).

        The base simulator is fault-free and returns the event unchanged;
        :class:`repro.atpg.FaultySimulator` overrides this to inject
        crosstalk-induced extra delay.
        """
        return event

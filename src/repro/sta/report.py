"""Timing reports: critical/shortest path extraction and slack tables.

After a forward STA pass, designers ask *which path* produced the
extreme arrival.  This module re-traces the propagation backwards: at
each gate it re-runs the scalar corner search on the result's own input
windows (:meth:`TimingAnalyzer.search`), checks that it reproduces the
stored bound bit for bit, and follows the input the search names behind
that bound (:class:`~repro.sta.corners.Winner`) to a primary input.
The result is the familiar STA path report — per-stage arrival, the
cell and pin traversed, and the transition direction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import Circuit
from .analysis import StaResult, TimingAnalyzer
from .windows import LineRequired

NS = 1e-9


@dataclasses.dataclass(frozen=True)
class PathStage:
    """One line along a traced timing path."""

    line: str
    rising: bool
    arrival: float
    cell: Optional[str] = None  # None at primary inputs
    pin: Optional[int] = None


@dataclasses.dataclass
class TimingPath:
    """A traced input-to-output timing path."""

    kind: str  # "max" or "min"
    stages: List[PathStage]

    @property
    def startpoint(self) -> str:
        return self.stages[0].line

    @property
    def endpoint(self) -> str:
        return self.stages[-1].line

    @property
    def arrival(self) -> float:
        return self.stages[-1].arrival

    def format(self) -> str:
        label = "latest" if self.kind == "max" else "earliest"
        lines = [
            f"{label} path to {self.endpoint} "
            f"(arrival {self.arrival / NS:.4f} ns):"
        ]
        for stage in self.stages:
            direction = "R" if stage.rising else "F"
            via = (
                f"via {stage.cell} pin {stage.pin}"
                if stage.cell is not None
                else "primary input"
            )
            lines.append(
                f"  {stage.line:>12} {direction}  "
                f"{stage.arrival / NS:9.4f} ns  ({via})"
            )
        return "\n".join(lines)


class TimingReporter:
    """Path tracing and slack reporting over a forward STA result."""

    def __init__(self, analyzer: TimingAnalyzer, result: StaResult) -> None:
        self.analyzer = analyzer
        self.result = result
        self.circuit: Circuit = analyzer.circuit

    # ------------------------------------------------------------------
    # Path tracing
    # ------------------------------------------------------------------
    def _bound(self, line: str, rising: bool, kind: str) -> Optional[float]:
        window = self.result.line(line).window(rising)
        if not window.is_active:
            return None
        return window.a_l if kind == "max" else window.a_s

    def _trace_step(
        self, line: str, rising: bool, kind: str
    ) -> Optional[Tuple[str, int, str, bool]]:
        """The driver's cell, and the pin, line and direction of the
        input its corner search names behind ``line``'s ``kind`` bound;
        None at a primary input.

        Raises:
            ValueError: If the search, re-run on the result's input
                windows, does not reproduce the stored bound bit for bit
                — e.g. a stale or foreign :class:`StaResult` was paired
                with the wrong analyzer.  Following its winner would
                silently fabricate a path.
        """
        gate = self.circuit.driver(line)
        if gate is None:
            return None
        cell = self.analyzer.cell_of(gate)
        window, winners = self.analyzer.search(
            gate, cell, self.analyzer.load(line), self.result.timings, rising
        )
        bound = window.a_l if kind == "max" else window.a_s
        target = self._bound(line, rising, kind)
        if bound != target:
            direction = "R" if rising else "F"
            raise ValueError(
                f"the corner search of {line}.{direction} gives its {kind} "
                f"bound as {bound!r}, not {target!r}; the result does not "
                "belong to this analyzer or is stale"
            )
        pin, in_rising, _ = winners[kind == "max"]
        return cell.name, pin, gate.inputs[pin], in_rising

    def trace(self, line: str, rising: bool, kind: str = "max") -> TimingPath:
        """Trace the path producing the extreme arrival of ``line``.

        Each step moves to an input of the line's driver, so on an
        acyclic circuit the trace ends at a primary input.

        Args:
            line: Endpoint line.
            rising: Endpoint transition direction.
            kind: "max" for the latest arrival, "min" for the earliest.

        Returns:
            The traced path, primary input first.

        Raises:
            ValueError: If the endpoint transition is impossible, or a
                step's bound is stale (:meth:`_trace_step`).
        """
        arrival = self._bound(line, rising, kind)
        if arrival is None:
            raise ValueError(f"{line} has no active {rising} window")
        stages = []
        while True:
            step = self._trace_step(line, rising, kind)
            if step is None:
                stages.append(PathStage(line, rising, arrival))
                break
            cell, pin, in_line, in_rising = step
            stages.append(PathStage(line, rising, arrival, cell, pin))
            line, rising = in_line, in_rising
            arrival = self._bound(line, rising, kind)
        stages.reverse()
        return TimingPath(kind=kind, stages=stages)

    def critical_path(self) -> TimingPath:
        """The latest-arrival path over all primary outputs."""
        return self._extreme_path("max")

    def shortest_path(self) -> TimingPath:
        """The earliest-arrival path over all primary outputs."""
        return self._extreme_path("min")

    def _extreme_path(self, kind: str) -> TimingPath:
        """The ``kind`` path of the first output direction whose bound is
        the extreme over all active ones (outputs in order, rising
        first)."""
        ends = [
            (bound, po, rising)
            for po in self.circuit.outputs
            for rising in (True, False)
            if (bound := self._bound(po, rising, kind)) is not None
        ]
        if not ends:
            raise ValueError("no active output transitions")
        _, po, rising = (max if kind == "max" else min)(
            ends, key=lambda end: end[0]
        )
        return self.trace(po, rising, kind)

    # ------------------------------------------------------------------
    # Slack table
    # ------------------------------------------------------------------
    def slack_table(
        self, required: Dict[str, LineRequired], worst: int = 10
    ) -> List[tuple]:
        """The ``worst`` endpoints by setup slack.

        Returns:
            (line, direction, arrival_late, required_late, slack) tuples,
            most critical first.
        """
        entries = []
        for po in self.circuit.outputs:
            timing = self.result.line(po)
            for rising in (True, False):
                window = timing.window(rising)
                if not window.is_active:
                    continue
                req = required[po].window(rising)
                entries.append(
                    (po, "R" if rising else "F", window.a_l, req.q_l,
                     req.setup_slack(window))
                )
        entries.sort(key=lambda e: e[-1])
        return entries[:worst]

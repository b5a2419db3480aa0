"""Timing reports: critical/shortest path extraction and slack tables.

After a forward STA pass, designers ask *which path* produced the
extreme arrival.  This module re-traces the propagation backwards: at
each gate it finds the input whose window reproduces the output bound
(within numerical tolerance) and follows it to a primary input.  The
result is the familiar STA path report — per-stage arrival, the cell
and pin traversed, and the transition direction.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..characterize.library import multi_input_ratio
from ..circuit.netlist import Circuit
from ..models.vshape import PairAnchors
from .analysis import StaResult, TimingAnalyzer
from .corners import CtrlInput, _overlap_count, fold_pair, pin_delay_bounds
from .windows import LineRequired

NS = 1e-9
_TOL = 1e-13


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

    def _merge_candidates(
        self, gate, cell, load: float, rising: bool, kind: str
    ) -> List[tuple]:
        """Pair-merged arrival bounds no single arc reproduces.

        The V-shape model's simultaneous-switching merge can set the
        earliest ctrl-response bound (and its mirror, the Λ-peak
        extension, the latest non-ctrl bound) from an input *pair*; the
        tracer must know those candidates or it would reject a perfectly
        valid result.  Both run through the forward search's anchors and
        fold (:func:`~repro.sta.corners.fold_pair`).  Each candidate is
        attributed to the pair member whose own bound keeps the traced
        arrivals monotone.

        Returns:
            (bound, pin, in_line, in_rising) tuples.
        """
        model = self.analyzer.model
        ctrl = cell.ctrl
        if ctrl is None or cell.controlling_value is None or cell.n_inputs < 2:
            return []
        if kind == "min":
            # The V lowers the to-controlling earliest bound.
            if rising != ctrl.out_rising or not getattr(
                model, "supports_pair_merge", False
            ):
                return []
            record, edge, reduce = ctrl, "a_s", min
            in_rising = cell.controlling_value == 1
        else:
            # The Λ raises the to-non-controlling latest bound.
            if (
                rising == ctrl.out_rising
                or not hasattr(model, "nonctrl_shape")
                or cell.nonctrl is None
            ):
                return []
            record, edge, reduce = cell.nonctrl, "a_l", max
            in_rising = cell.controlling_value == 0
        active = [
            CtrlInput(pin, self.result.line(l).window(in_rising))
            for pin, l in enumerate(gate.inputs)
            if self.result.line(l).window(in_rising).is_active
        ]
        if len(active) < 2:
            return []
        ratio = 1.0
        if kind == "min":
            overlap = _overlap_count(active)
            if overlap > 2:
                ratio = multi_input_ratio(ctrl.multi_scale, overlap)
        # The forward search's per-endpoint and per-combo evaluation,
        # delay shape only (the Λ's vertex clamped from below, the
        # lagging pin's tail at +S).
        anchors = PairAnchors(
            cell, record, load, clamp=reduce, lagging=reduce is max,
            trans=False,
        )
        ends = {}
        for item in active:
            arc = cell.arc(item.pin, in_rising, rising)
            ends[item.pin] = (
                anchors.end(arc, item.window.t_s),
                anchors.end(arc, item.window.t_l),
            )
        out: List[tuple] = []
        for idx, first in enumerate(active):
            for second in active[idx + 1:]:
                wi, wj = first.window, second.window
                shapes, _ = anchors.pair(
                    first.pin, second.pin, ends[first.pin], ends[second.pin]
                )
                # The member with the earlier edge can have switched by
                # the pair's floor (ceiling), keeping arrivals monotone.
                lead = (
                    first if getattr(wi, edge) <= getattr(wj, edge)
                    else second
                )
                out.append((
                    fold_pair(wi, wj, shapes, edge, reduce),
                    lead.pin, gate.inputs[lead.pin], in_rising,
                ))
                if ratio < 1.0 and wi.overlaps_arrivals(wj):
                    late = first if wi.a_s >= wj.a_s else second
                    out.append((
                        max(wi.a_s, wj.a_s) + shapes[0].vertex * ratio,
                        late.pin, gate.inputs[late.pin], in_rising,
                    ))
        return out

    def _trace_step(
        self, line: str, rising: bool, kind: str
    ) -> Optional[PathStage]:
        """Find the (input line, direction, pin) reproducing the bound.

        Raises:
            ValueError: If no arc reproduces the bound within ``_TOL`` —
                e.g. a stale or foreign :class:`StaResult` was paired
                with the wrong analyzer.  Returning the closest-but-wrong
                arc would silently fabricate a path.
        """
        gate = self.circuit.driver(line)
        if gate is None:
            return None
        cell = self.analyzer.cell_of(gate)
        load = self.analyzer.load(line)
        target = self._bound(line, rising, kind)
        best = None
        for pin, in_line in enumerate(gate.inputs):
            for in_rising in (True, False):
                if not cell.has_arc(pin, in_rising, rising):
                    continue
                in_window = self.result.line(in_line).window(in_rising)
                if not in_window.is_active:
                    continue
                d_min, d_max = pin_delay_bounds(
                    cell, pin, in_rising, rising,
                    in_window.t_s, in_window.t_l, load,
                )
                if kind == "max":
                    bound = in_window.a_l + d_max
                else:
                    bound = in_window.a_s + d_min
                gap = abs(bound - target)
                candidate = (gap, pin, in_line, in_rising)
                if best is None or candidate[0] < best[0]:
                    best = candidate
        for bound, pin, in_line, in_rising in self._merge_candidates(
            gate, cell, load, rising, kind
        ):
            gap = abs(bound - target)
            candidate = (gap, pin, in_line, in_rising)
            if best is None or candidate[0] < best[0]:
                best = candidate
        if best is None or best[0] > _TOL:
            direction = "R" if rising else "F"
            detail = (
                f"closest arc misses by {best[0]:.3e} s"
                if best is not None
                else "no active input arc"
            )
            raise ValueError(
                f"no input arc of {line}.{direction} reproduces its "
                f"{kind} bound {target!r} within {_TOL:g} s ({detail}); "
                "the result does not belong to this analyzer or is stale"
            )
        _, pin, in_line, in_rising = best
        arrival = self._bound(in_line, in_rising, kind)
        if arrival is None:
            # The chosen arc's window was active above; an inactive one
            # here means the result mutated mid-trace.
            raise ValueError(
                f"input {in_line} lost its active window during the trace"
            )
        return PathStage(
            line=in_line,
            rising=in_rising,
            arrival=arrival,
            cell=cell.name,
            pin=pin,
        )

    def trace(self, line: str, rising: bool, kind: str = "max") -> TimingPath:
        """Trace the path producing the extreme arrival of ``line``.

        Args:
            line: Endpoint line.
            rising: Endpoint transition direction.
            kind: "max" for the latest arrival, "min" for the earliest.

        Returns:
            The traced path, primary input first.

        Raises:
            ValueError: If the endpoint transition is impossible.
        """
        arrival = self._bound(line, rising, kind)
        if arrival is None:
            raise ValueError(f"{line} has no active {rising} window")
        stages = [PathStage(line=line, rising=rising, arrival=arrival)]
        current, direction = line, rising
        guard = 0
        while True:
            guard += 1
            if guard > len(self.circuit.lines) + 2:
                raise RuntimeError("path trace did not terminate")
            step = self._trace_step(current, direction, kind)
            if step is None:
                break
            # The 'via' annotation belongs on the downstream stage.
            stages[-1] = dataclasses.replace(
                stages[-1], cell=step.cell, pin=step.pin
            )
            stages.append(
                PathStage(
                    line=step.line, rising=step.rising, arrival=step.arrival
                )
            )
            current, direction = step.line, step.rising
        stages.reverse()
        return TimingPath(kind=kind, stages=stages)

    def critical_path(self) -> TimingPath:
        """The latest-arrival path over all primary outputs."""
        best = None
        for po in self.circuit.outputs:
            timing = self.result.line(po)
            for rising in (True, False):
                window = timing.window(rising)
                if not window.is_active:
                    continue
                if best is None or window.a_l > best[0]:
                    best = (window.a_l, po, rising)
        if best is None:
            raise ValueError("no active output transitions")
        _, po, rising = best
        return self.trace(po, rising, kind="max")

    def shortest_path(self) -> TimingPath:
        """The earliest-arrival path over all primary outputs."""
        best = None
        for po in self.circuit.outputs:
            timing = self.result.line(po)
            for rising in (True, False):
                window = timing.window(rising)
                if not window.is_active:
                    continue
                if best is None or window.a_s < best[0]:
                    best = (window.a_s, po, rising)
        if best is None:
            raise ValueError("no active output transitions")
        _, po, rising = best
        return self.trace(po, rising, kind="min")

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

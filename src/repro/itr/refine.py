"""Incremental timing refinement (paper Section 5).

ITR recomputes the min-max timing windows of every line under a partial
two-frame value assignment.  STA is the special case where every line is
``xx`` (state 0 everywhere); as values are specified during test
generation, transition states become definite (1) or impossible (-1) and
the windows shrink:

* an impossible transition loses its window entirely;
* a definite to-controlling switcher caps the latest output arrival (the
  lagging-input rule of Table 1);
* a definite to-non-controlling switcher raises the earliest output
  arrival (the output waits for it).

Those per-state rules live in :mod:`repro.sta.corners`; this module wires
them to the logic values and keeps everything incremental.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..characterize.library import CellLibrary
from ..circuit.netlist import Circuit
from ..models.base import DelayModel
from ..obs import get_registry
from ..sta.analysis import StaConfig, StaResult, TimingAnalyzer
from ..sta.windows import (
    DirWindow,
    IMPOSSIBLE,
    LineTiming,
    windows_equal,
)
from .implication import (
    Assignment,
    Conflict,
    ImpliedAssignment,
    TwoFrameImplicator,
    initial_assignment,
)
from .values import TwoFrame


@dataclasses.dataclass
class ItrResult:
    """Refined windows plus the (implied) assignment they correspond to."""

    sta: StaResult
    values: Assignment

    def line(self, name: str) -> LineTiming:
        return self.sta.line(name)


class ItrEngine:
    """Incremental timing refinement over a circuit.

    Args:
        circuit: Circuit under analysis.
        library: Characterized cell library.
        model: Delay model (defaults to the proposed V-shape model).
        config: STA boundary conditions, shared with plain STA so that
            ``refine(initial_assignment)`` reproduces the STA result
            exactly (the paper: "STA is a special case of ITR").
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
    ) -> None:
        self.circuit = circuit
        self.analyzer = TimingAnalyzer(circuit, library, model, config)
        self.implicator = TwoFrameImplicator(circuit)
        # The PI boundary windows depend only on the (immutable) config,
        # so compute them once instead of on every refine call.
        self._pi_default = self.analyzer.pi_timing()
        obs = get_registry()
        self._m_refinements = obs.counter("itr.refinements")
        self._m_changed_lines = obs.counter("itr.changed_lines")
        self._m_conflicts = obs.counter("itr.conflicts")
        self._m_recomputed = obs.counter("itr.recomputed_gates")
        self._m_reused = obs.counter("itr.reused_directions")

    # ------------------------------------------------------------------
    # Value manipulation
    # ------------------------------------------------------------------
    def initial_values(self) -> Assignment:
        return initial_assignment(self.circuit)

    def assign(
        self, values: Assignment, line: str, value: TwoFrame
    ) -> Assignment:
        """Refine one line and run implications (raises Conflict)."""
        try:
            return self.implicator.assign(values, line, value)
        except Conflict:
            self._m_conflicts.inc()
            raise

    # ------------------------------------------------------------------
    # Window refinement
    # ------------------------------------------------------------------
    def _apply_logic_state(
        self, window: DirWindow, value: TwoFrame, rising: bool
    ) -> DirWindow:
        state = value.state(rising)
        if state == IMPOSSIBLE:
            return DirWindow.impossible()
        if not window.is_active:
            return window
        return DirWindow(window.a_s, window.a_l, window.t_s, window.t_l, state)

    def refine(self, values: Assignment) -> ItrResult:
        """Compute refined windows for a (partial) assignment.

        The assignment is implied first; the refined windows then use the
        per-line transition states everywhere the corner identification
        distinguishes definite / potential / impossible transitions.
        """
        self._m_refinements.inc()
        if not isinstance(values, ImpliedAssignment):
            values = self.implicator.imply(values)
        timings: Dict[str, LineTiming] = {}
        default = self._pi_default
        for pi in self.circuit.inputs:
            timing = LineTiming(
                rise=self._apply_logic_state(default.rise, values[pi], True),
                fall=self._apply_logic_state(default.fall, values[pi], False),
            )
            timings[pi] = timing
        for out in self.circuit.topological_order():
            gate = self.circuit.gates[out]
            computed = self.analyzer.propagate_gate(gate, timings)
            value = values[out]
            timings[out] = LineTiming(
                rise=self._apply_logic_state(computed.rise, value, True),
                fall=self._apply_logic_state(computed.fall, value, False),
            )
        self._m_recomputed.inc(len(self.circuit.gates))
        return ItrResult(StaResult(self.circuit, timings), values)

    def refine_assign(
        self, result: ItrResult, line: str, value: TwoFrame
    ) -> ItrResult:
        """Assign-and-refine in one step (the per-decision ITR update)."""
        return self.refine_incremental(result, self.assign(result.values, line, value))

    # ------------------------------------------------------------------
    # Incremental refinement
    # ------------------------------------------------------------------
    def refine_incremental(
        self, previous: ItrResult, values: Assignment
    ) -> ItrResult:
        """Refine windows, recomputing only what a decision can move.

        Dirtiness is per line and direction: a gate is visited when its
        implied value changed or an input window moved, and an output
        direction runs its corner search only if the gate's value leaves
        it possible and an input window that response reads
        (:meth:`TimingAnalyzer.fanin`) moved.  Any other direction
        re-applies the value's state to the stored window, which is what
        the search would return, unless that window is impossible and
        the value changed: then it searches.  Recomputation stops as
        soon as windows settle.  ``sta.corner_calls`` counts the
        searches run, ``itr.reused_directions`` the visited directions
        that ran none.  The result is bit-identical to :meth:`refine`
        (the tests and the ``itr`` fuzz oracle check this on random
        decision sequences).

        Args:
            previous: The result of a previous refine over a less-specific
                assignment of the same circuit.
            values: The new (more specific) assignment; implied first.
        """
        self._m_refinements.inc()
        # Implication is idempotent: assignments produced by assign() /
        # imply() are already at the fixpoint, so skip the (full-circuit)
        # re-implication for those — bit-identical, much cheaper.
        if not isinstance(values, ImpliedAssignment):
            values = self.implicator.imply(values)
        changed = {
            line
            for line in self.circuit.lines
            if values[line] != previous.values[line]
        }
        self._m_changed_lines.inc(len(changed))
        timings: Dict[str, LineTiming] = dict(previous.sta.timings)
        #: line -> the directions whose windows moved.
        dirty: Dict[str, List[bool]] = {}

        def settle(line: str, stored: LineTiming, fresh: LineTiming) -> None:
            moved = [
                rising for rising in (True, False)
                if not windows_equal(fresh.window(rising),
                                     stored.window(rising))
            ]
            if moved:
                timings[line] = fresh
                dirty[line] = moved

        default = self._pi_default
        for pi in self.circuit.inputs:
            if pi in changed:
                settle(pi, timings[pi], LineTiming(*(
                    self._apply_logic_state(
                        default.window(rising), values[pi], rising
                    )
                    for rising in (True, False)
                )))
        recomputed = reused = 0
        analyzer = self.analyzer
        for out in self.circuit.topological_order():
            gate = self.circuit.gates[out]
            moved = out in changed
            if not moved and not any(inp in dirty for inp in gate.inputs):
                continue
            cell = analyzer.cell_of(gate)
            value = values[out]
            stored = timings[out]
            search = [
                rising for rising in (True, False)
                if value.state(rising) != IMPOSSIBLE and (
                    (moved and not stored.window(rising).is_active) or any(
                        in_rising in dirty.get(gate.inputs[pin], ())
                        for pin, in_rising in analyzer.fanin(cell, rising)
                    )
                )
            ]
            if search:
                searched = analyzer.propagate_gate(gate, timings, search)
                recomputed += 1
            reused += 2 - len(search)
            settle(out, stored, LineTiming(*(
                self._apply_logic_state(
                    (searched if rising in search else stored).window(rising),
                    value, rising,
                )
                for rising in (True, False)
            )))
        self._m_recomputed.inc(recomputed)
        self._m_reused.inc(reused)
        return ItrResult(StaResult(self.circuit, timings), values)


__all__ = ["Conflict", "ItrEngine", "ItrResult"]

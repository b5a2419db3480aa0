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
from typing import Dict, Optional

from ..characterize.library import CellLibrary
from ..circuit.netlist import Circuit
from ..models.base import DelayModel
from ..obs import get_registry
from ..sta.analysis import StaConfig, StaResult, TimingAnalyzer
from ..sta.windows import (
    DirWindow,
    IMPOSSIBLE,
    LineTiming,
    timings_equal,
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
        """Refine windows, recomputing only the cone affected by changes.

        This is the "incremental" in ITR made literal: per test-generation
        decision, only lines whose implied value changed — and the gates
        downstream of lines whose *windows* actually changed — are
        recomputed.  The recomputation stops as soon as windows settle, so
        a decision touching a small cone costs a small update.

        The result is bit-identical to :meth:`refine` (the test suite
        checks this on random decision sequences).

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
        dirty = set()
        recomputed = 0
        default = self._pi_default
        for pi in self.circuit.inputs:
            if pi not in changed:
                continue
            fresh = LineTiming(
                rise=self._apply_logic_state(default.rise, values[pi], True),
                fall=self._apply_logic_state(default.fall, values[pi], False),
            )
            if not timings_equal(fresh, timings[pi]):
                timings[pi] = fresh
                dirty.add(pi)
        for out in self.circuit.topological_order():
            gate = self.circuit.gates[out]
            if out not in changed and not any(
                inp in dirty for inp in gate.inputs
            ):
                continue
            computed = self.analyzer.propagate_gate(gate, timings)
            recomputed += 1
            value = values[out]
            fresh = LineTiming(
                rise=self._apply_logic_state(computed.rise, value, True),
                fall=self._apply_logic_state(computed.fall, value, False),
            )
            if not timings_equal(fresh, timings[out]):
                timings[out] = fresh
                dirty.add(out)
        self._m_recomputed.inc(recomputed)
        return ItrResult(StaResult(self.circuit, timings), values)


__all__ = ["Conflict", "ItrEngine", "ItrResult"]

"""Static timing analysis (paper Section 4).

Forward traversal computes per-line arrival/transition windows using the
corner identification of :mod:`repro.sta.corners`; backward traversal
computes required-time windows; the two together flag potential delay
errors (arrival range outside the required range).

Full forward passes and the backward pass run on the level-compiled
engine of :mod:`repro.sta.compile`.  The gate-at-a-time walk
(:meth:`TimingAnalyzer.propagate_gate`) runs the scalar corner searches
of :mod:`repro.sta.corners` and serves the per-gate work of ITR and
ATPG.  As a whole pass
(:meth:`TimingAnalyzer.analyze_per_gate`) it is the one scalar
reference the compiled pass is diffed against: plain, with per-gate
variation factors (a Monte Carlo column) or with timing derates (a PVT
corner column).  :meth:`TimingAnalyzer.compute_required_per_gate` is
the same for the backward pass.

The analyzer is model-parametric: with :class:`~repro.models.VShapeModel`
it exploits simultaneous to-controlling switching (smaller, more accurate
min-delays); with :class:`~repro.models.PinToPinModel` it reproduces the
conventional SDF-based STA the paper's Table 2 compares against.
"""

from __future__ import annotations

import dataclasses
import math
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..characterize.library import CellLibrary, CellTiming
from ..circuit.netlist import Circuit, Gate
from ..models.base import DelayModel
from ..models.vshape import PairAnchors, VShapeModel
from ..obs import get_registry
from .corners import (
    CtrlInput,
    Searched,
    arc_fanin_search,
    ctrl_response_search,
    nonctrl_response_search,
    pin_delay_bounds,
)
from .windows import (
    DirWindow,
    LineRequired,
    LineTiming,
    RequiredWindow,
)


@dataclasses.dataclass(frozen=True)
class StaConfig:
    """Boundary conditions of an STA run.

    Args:
        pi_arrival: (earliest, latest) arrival window applied to every
            primary input, both directions, seconds.
        pi_trans: (shortest, longest) transition-time window at the
            primary inputs, seconds.
        po_load: Capacitive load on each primary output, farads.
        dangling_load: Load assumed on gate outputs that drive nothing.
    """

    pi_arrival: Tuple[float, float] = (0.0, 0.0)
    pi_trans: Tuple[float, float] = (0.2e-9, 0.2e-9)
    po_load: float = 7e-15
    dangling_load: float = 7e-15


def line_load(
    circuit: Circuit,
    line: str,
    cell_of: Callable[[Gate], CellTiming],
    config: StaConfig,
    outputs: Set[str],
) -> float:
    """Capacitive load of one line: fan-in caps plus the PO/dangling load.

    Every input pin reading ``line`` counts once.  ``circuit.fanouts``
    lists a gate once per pin that reads the line, so sinks are visited
    once each, in first-listed order, and each visit sums that sink's
    matching pins in pin order.  This is the one summation order: the
    incremental engine's per-line refresh calls it, and
    :func:`compute_loads` repeats it for every line in one sweep, so
    their loads are bitwise equal.
    """
    fanouts = circuit.fanouts(line)
    total = 0.0
    seen = set()
    for sink in fanouts:
        if sink.output in seen:
            continue
        seen.add(sink.output)
        caps = cell_of(sink).input_caps
        for pin, inp in enumerate(sink.inputs):
            if inp == line:
                total += caps[pin]
    if line in outputs:
        total += config.po_load
    elif not fanouts:
        total += config.dangling_load
    return total


def fanin_arcs(cell: CellTiming, out_rising: bool) -> List[Tuple[int, bool]]:
    """``(pin, input rising)`` of every arc producing ``out_rising``, pin
    by pin, rising input first: the input windows that output
    direction's corner search reads (a ctrl cell's pins all switch one
    way), and the lanes of an arc-table segment."""
    return [
        (pin, in_rising)
        for pin in range(cell.n_inputs)
        for in_rising in (True, False)
        if cell.has_arc(pin, in_rising, out_rising)
    ]


def compute_loads(
    circuit: Circuit, library: CellLibrary, config: StaConfig
) -> Dict[str, float]:
    """Capacitive load per line, bit-identical to :func:`line_load`.

    Shared by :class:`TimingAnalyzer` and the level-compiled engine so
    both see bit-identical load values.  One sweep over the gates in
    ``circuit.gates`` order — the order :meth:`Circuit.fanouts` lists
    each line's readers in, once per reading pin — adds every pin's cap
    to the line it reads, so each line sums the same caps in the same
    order as :func:`line_load`, which the incremental engine's per-line
    refresh calls.
    """
    totals = dict.fromkeys(circuit.lines, 0.0)
    read = set()
    for gate in circuit.gates.values():
        caps = library.cell(gate.cell_name()).input_caps
        for pin, line in enumerate(gate.inputs):
            totals[line] += caps[pin]
            read.add(line)
    outputs = set(circuit.outputs)
    for line in totals:
        if line in outputs:
            totals[line] += config.po_load
        elif line not in read:
            totals[line] += config.dangling_load
    return totals


@dataclasses.dataclass
class StaResult:
    """Per-line timing windows produced by :meth:`TimingAnalyzer.analyze`.

    ``timings`` maps every line to its :class:`LineTiming`.  From a
    compiled pass (:meth:`TimingAnalyzer.analyze`, corner and boundary
    passes) it is a read-only :class:`~repro.sta.compile.ColumnTimings`
    view of the pass's column: each line's windows are built on first
    access and kept, so repeated reads return the same object and an
    in-place edit of it is seen by later readers.  The per-gate walks
    and ITR return a plain dict, and
    :class:`~repro.sta.incremental.IncrementalAnalyzer` a live
    :class:`~repro.sta.compile.LiveTimings` view of the state it
    re-times in place.  Code that assigns lines copies first
    (``dict(result.timings)``).
    """

    circuit: Circuit
    timings: Mapping[str, LineTiming]

    def line(self, name: str) -> LineTiming:
        return self.timings[name]

    def output_min_arrival(self) -> float:
        """Min over primary outputs of the earliest arrival time.

        This is the paper's Table 2 quantity: the min-delay of the union
        of the primary outputs' timing ranges (the hold-check bound).
        """
        earliest = [
            self.timings[po].earliest_arrival() for po in self.circuit.outputs
        ]
        earliest = [e for e in earliest if e is not None]
        if not earliest:
            raise ValueError("no active output transitions")
        return min(earliest)

    def output_max_arrival(self) -> float:
        """Max over primary outputs of the latest arrival time."""
        latest = [
            self.timings[po].latest_arrival() for po in self.circuit.outputs
        ]
        latest = [v for v in latest if v is not None]
        if not latest:
            raise ValueError("no active output transitions")
        return max(latest)


@dataclasses.dataclass
class Violation:
    """A potential timing violation found by comparing A and Q windows."""

    line: str
    rising: bool
    kind: str  # "setup" or "hold"
    slack: float


class TimingAnalyzer:
    """Model-parametric static timing analyzer.

    Args:
        circuit: Gate-level circuit under analysis.
        library: Characterized cell library.
        model: Delay model (defaults to the proposed V-shape model).
        config: Boundary conditions.

    Raises:
        UnknownCellError: If the library lacks a gate's cell.
        CircuitError: If the circuit has a combinational cycle.
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
        self.config = config or StaConfig()
        obs = get_registry()
        self._obs = obs
        self._m_gates = obs.counter("sta.gates_evaluated")
        self._m_corners = obs.counter("sta.corner_calls")
        #: (cell name, output rising) -> :func:`fanin_arcs`.
        self._fanin: Dict[Tuple[str, bool], List[Tuple[int, bool]]] = {}
        self._level = None  # lazily-built LevelCompiledAnalyzer
        #: Whether compiles are this analyzer's own (see own_compile).
        self._owns_compile = False
        self._take_part()

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def _take_part(self) -> None:
        """Take the cell map and the loads from the shared library part
        of this circuit's compile (:data:`repro.sta.compile.COMPILES`),
        which resolves every gate's cell once.  Both are private copies:
        sized variants join the cell map as gates are resized, and the
        incremental engine edits the loads in place.

        Raises:
            UnknownCellError: If the library lacks a gate's cell.
            CircuitError: If the circuit has a combinational cycle.
        """
        # Imported lazily: compile.py depends on this module.
        from .compile import COMPILES

        #: Keeps the shared part (and its layout) alive for the
        #: analyzer's compile, which the registry holds only weakly.
        self._part = COMPILES.compiled(
            self.circuit, [self.library], self.config
        )
        self._loads: Dict[str, float] = dict(self._part.line_loads[0])
        self._cells: Dict[str, CellTiming] = dict(self._part.cells)
        self._epoch = self.circuit.edit_epoch

    def _sync_epoch(self) -> None:
        """Refresh per-circuit caches after out-of-band circuit edits.

        Any mutation (:meth:`repro.circuit.Circuit.resize_gate` and
        friends) bumps ``edit_epoch``; on the next analyzer entry point
        the derived loads and any compiled form are rebuilt from the
        current structure.  :class:`repro.sta.incremental
        .IncrementalAnalyzer` instead patches these caches in place and
        advances ``_epoch`` itself, which is what makes per-edit re-timing
        cheap — this full refresh is the safe default for direct use.
        """
        if self.circuit.edit_epoch != self._epoch:
            self._take_part()
            self._level = None

    def own_compile(self) -> None:
        """Compile privately from now on, over this analyzer's loads.

        The incremental engine patches its analyzer's compile in place,
        so that compile must be no other analyzer's: a shared one, if
        built already, is dropped, and :meth:`level_engine` builds the
        next one from :attr:`_loads`.
        """
        if not self._owns_compile:
            self._owns_compile = True
            self._level = None

    def load(self, line: str) -> float:
        """Capacitive load on ``line``, farads."""
        return self._loads[line]

    def cell_of(self, gate: Gate) -> CellTiming:
        name = gate.cell_name()
        cell = self._cells.get(name)
        if cell is None:
            # Sized variants appear as gates are resized; materialize on
            # first sight (immutable and keyed by name, so entries from
            # earlier epochs stay valid).
            cell = self._cells[name] = self.library.cell(name)
        return cell

    # ------------------------------------------------------------------
    # Forward propagation
    # ------------------------------------------------------------------
    def pi_timing(self) -> LineTiming:
        """The timing window applied to every primary input."""
        a_s, a_l = self.config.pi_arrival
        t_s, t_l = self.config.pi_trans
        return LineTiming(
            rise=DirWindow(a_s, a_l, t_s, t_l),
            fall=DirWindow(a_s, a_l, t_s, t_l),
        )

    def propagate_gate(
        self,
        gate: Gate,
        timings: Dict[str, LineTiming],
        directions: Sequence[bool] = (True, False),
    ) -> LineTiming:
        """Compute the output windows of one gate from its input windows.

        Only the output ``directions`` given (``True`` rising) are
        searched; any other keeps :class:`LineTiming`'s default window.
        """
        self._sync_epoch()
        return self._propagate_windows(
            gate, self.cell_of(gate), self.load(gate.output), timings,
            directions=directions,
        )

    def fanin(self, cell: CellTiming, out_rising: bool):
        """The cell's :func:`fanin_arcs`, kept per cell name."""
        key = (cell.name, out_rising)
        arcs = self._fanin.get(key)
        if arcs is None:
            arcs = self._fanin[key] = fanin_arcs(cell, out_rising)
        return arcs

    def _propagate_windows(
        self,
        gate: Gate,
        cell: CellTiming,
        load: float,
        timings: Dict[str, LineTiming],
        f: float = 1.0,
        early: float = 1.0,
        late: float = 1.0,
        directions: Sequence[bool] = (True, False),
    ) -> LineTiming:
        """The corner searches of one gate, one per output direction
        (:meth:`search`), under variation factor ``f`` and the
        ``(early, late)`` derates (1.0 multiplies exactly)."""
        self._m_gates.inc()
        self._m_corners.inc(len(directions))
        result = LineTiming()
        for out_rising in directions:
            result.set_window(out_rising, self.search(
                gate, cell, load, timings, out_rising, f, early, late
            )[0])
        return result

    def search(
        self, gate: Gate, cell: CellTiming, load: float,
        timings: Mapping[str, LineTiming], out_rising: bool,
        f: float = 1.0, early: float = 1.0, late: float = 1.0,
    ) -> Searched:
        """The corner search of one output direction over the input
        windows of :meth:`fanin` (a ctrl cell's to-controlling or
        to-non-controlling response, or the arcs of an inv / buf / xor):
        the window and the inputs behind its bounds
        (:class:`~repro.sta.corners.Winner`).  Not counted in
        ``sta.gates_evaluated`` or ``sta.corner_calls``: the walk counts
        its own searches, and the path tracer re-runs one to follow a
        bound to its input.
        """
        arcs = [
            (pin, in_rising, timings[gate.inputs[pin]].window(in_rising))
            for pin, in_rising in self.fanin(cell, out_rising)
        ]
        if cell.controlling_value is None or cell.n_inputs < 2:
            return arc_fanin_search(
                cell, arcs, out_rising, load, f, early, late
            )
        inputs = [CtrlInput(p, w) for p, _, w in arcs]
        if out_rising == cell.ctrl.out_rising:
            return ctrl_response_search(
                cell, self.model, inputs, load, f, early, late
            )
        return nonctrl_response_search(
            cell, inputs, load, self.model, f, early, late
        )

    def level_engine(self) -> "LevelCompiledAnalyzer":
        """The lazily-built level-compiled engine (compiling on first use).

        Its compile is the shared one of this circuit, epoch and library
        (see :class:`~repro.sta.compile.CompileRegistry`), unless
        :meth:`own_compile` made it private.  Callers that need the
        compiled form directly — the incremental engine patches its SoA
        arrays and runs column-subset kernels — go through this instead
        of ``analyze`` so they can hold on to the raw window state.
        """
        if self._level is None:
            # Imported lazily: compile.py depends on this module.
            from .compile import LevelCompiledAnalyzer

            self._level = LevelCompiledAnalyzer(
                self.circuit, self.library, self.model, self.config,
                loads=self._loads if self._owns_compile else None,
            )
        return self._level

    def analyze(
        self, pi_overrides: Optional[Dict[str, LineTiming]] = None
    ) -> StaResult:
        """Run the forward traversal on the level-compiled engine.

        The circuit is compiled once per analyzer and edit epoch (see
        :meth:`level_engine`); every later call is one batched pass.
        Bit-identical to :meth:`analyze_per_gate`.

        Args:
            pi_overrides: Optional per-PI timing windows replacing the
                default boundary condition.

        Returns:
            Windows for every line in the circuit, as a column view of
            the compiled pass (see :class:`StaResult`).
        """
        self._sync_epoch()
        return self.level_engine().analyze(pi_overrides=pi_overrides)

    def analyze_per_gate(
        self,
        pi_overrides: Optional[Dict[str, LineTiming]] = None,
        factors: Optional[Sequence[float]] = None,
        derates: Optional[Tuple[float, float]] = None,
    ) -> StaResult:
        """The scalar reference walk: one gate at a time, in topo order.

        Every gate runs the corner searches of :meth:`propagate_gate`,
        the ones ITR and ATPG walk, under its variation factor and the
        derates.  A factored or derated walk is one column of a compiled
        Monte Carlo block or corner pass, bit for bit: the factor and
        then the derate multiply at the sites
        :meth:`LevelCompiledAnalyzer.propagate` scales.  A plain walk's
        factor and derates are 1.0, which multiplies exactly.  The
        parity tests and fuzz oracles diff the compiled passes against
        this walk.

        Args:
            pi_overrides: Optional per-PI timing windows replacing the
                default boundary condition.
            factors: Optional per-gate variation factors, one per gate
                in ``circuit.topological_order()`` (the compiled pass's
                factor-row order).
            derates: Optional ``(early, late)`` timing-derate pair: the
                early derate multiplies min-side responses, the late
                one max-side responses, after the factor.

        Returns:
            Windows for every line in the circuit.

        Raises:
            ValueError: On a factor count that does not match the gate
                count, a factor or derate that is not finite and > 0,
                or early > late.
        """
        self._sync_epoch()
        order = self.circuit.topological_order()
        scale, early, late = [1.0] * len(order), 1.0, 1.0
        if factors is not None:
            # Imported lazily: compile.py depends on this module.
            from .compile import _check_positive

            values = np.asarray(factors, dtype=float)
            if values.shape != (len(order),):
                raise ValueError(
                    f"factors shape {values.shape} != gates ({len(order)},)"
                )
            _check_positive("variation factor", values)
            scale = values.tolist()
        if derates is not None:
            from .compile import check_derates

            early, late = (float(d) for d in check_derates(derates))
        timings: Dict[str, LineTiming] = {}
        with self._obs.timer("sta.forward_s"):
            default = self.pi_timing()
            for pi in self.circuit.inputs:
                if pi_overrides and pi in pi_overrides:
                    timings[pi] = pi_overrides[pi]
                else:
                    timings[pi] = LineTiming(
                        rise=dataclasses.replace(default.rise),
                        fall=dataclasses.replace(default.fall),
                    )
            for out, f in zip(order, scale):
                gate = self.circuit.gates[out]
                timings[out] = self._propagate_windows(
                    gate, self.cell_of(gate), self.load(out), timings,
                    f, early, late,
                )
        if self._obs.enabled:
            widths = self._obs.histogram("sta.window_width_s")
            for timing in timings.values():
                for window in (timing.rise, timing.fall):
                    if window.is_active:
                        widths.observe(window.a_l - window.a_s)
        return StaResult(self.circuit, timings)

    def analyze_corners(self, corners, libraries=None):
        """Multi-corner analysis sharing this analyzer's model/config.

        Args:
            corners: Sequence of :class:`repro.pvt.Corner`, or a
                :class:`repro.pvt.CornerLibrary` (then ``libraries``
                must be None).
            libraries: Per-corner cell libraries aligned with
                ``corners``; defaults to the analytic time-rescale of
                this analyzer's library at each corner.

        Returns:
            A :class:`repro.pvt.CornerSetResult` (per-corner results
            plus the merged setup/hold envelope) from one corner-batched
            level-compiled pass.
        """
        from .. import pvt

        if isinstance(corners, pvt.CornerLibrary):
            if libraries is not None:
                raise ValueError(
                    "pass either a CornerLibrary or explicit libraries"
                )
            corners, libraries = corners.ordered()
        elif libraries is None:
            libraries = [
                pvt.scaled_library(self.library, corner)
                for corner in corners
            ]
        return pvt.analyze_corners(
            self.circuit,
            list(corners),
            list(libraries),
            self.model,
            self.config,
        )

    # ------------------------------------------------------------------
    # Backward propagation (required times)
    # ------------------------------------------------------------------
    def _arc_pairs(self, cell: CellTiming) -> List[Tuple[int, bool, bool]]:
        """(pin, in_rising, out_rising) for every arc of the cell."""
        return [
            (arc.pin, arc.in_rising, arc.out_rising)
            for arc in cell.arcs.values()
        ]

    def _ctrl_min_delay(
        self, cell: CellTiming, pin: int, t_s: float, t_l: float, load: float
    ) -> float:
        """Smallest possible delay through ``pin`` for the ctrl response.

        With the V-shape model a perfectly aligned partner reduces the
        delay to the (scaled) zero-skew value; the backward traversal must
        use this to keep hold-check required times safe.
        """
        in_rising = cell.controlling_value == 1
        out_rising = cell.ctrl.out_rising
        d_min, _ = pin_delay_bounds(
            cell, pin, in_rising, out_rising, t_s, t_l, load
        )
        if not getattr(self.model, "supports_pair_merge", False) or cell.ctrl is None:
            return d_min
        best = d_min
        anchors = PairAnchors(cell, cell.ctrl, load, trans=False)
        own = cell.ctrl_arc(pin)
        ends = [anchors.end(own, t_s), anchors.end(own, t_l)]
        for partner in range(cell.n_inputs):
            if partner == pin:
                continue
            arc = cell.ctrl_arc(partner)
            shapes, _ = anchors.pair(
                pin, partner, ends,
                [anchors.end(arc, arc.t_lo), anchors.end(arc, arc.t_hi)],
            )
            for shape in shapes:
                best = min(best, shape.vertex)
        ratios = [float(v) for v in cell.ctrl.multi_scale.values()]
        return best * min(ratios) if ratios else best

    def _po_required(
        self,
        result: StaResult,
        po_required: Optional[Dict[str, LineRequired]],
        setup_time: Optional[float],
        hold_time: Optional[float],
    ) -> Dict[str, LineRequired]:
        """The backward traversal's starting requirements."""
        if po_required is not None:
            return po_required
        q_l = (
            setup_time
            if setup_time is not None
            else result.output_max_arrival()
        )
        q_s = hold_time if hold_time is not None else -math.inf
        return {
            po: LineRequired(
                rise=RequiredWindow(q_s, q_l),
                fall=RequiredWindow(q_s, q_l),
            )
            for po in self.circuit.outputs
        }

    def compute_required(
        self,
        result: StaResult,
        po_required: Optional[Dict[str, LineRequired]] = None,
        setup_time: Optional[float] = None,
        hold_time: Optional[float] = None,
    ) -> Mapping[str, LineRequired]:
        """Backward traversal of required-time windows.

        Runs on the level-compiled engine (see :meth:`level_engine`) in
        reverse level order; bit-identical to
        :meth:`compute_required_per_gate`.

        Args:
            result: Forward STA result (supplies transition-time windows).
            po_required: Explicit requirement per primary output; if
                omitted, every output gets [hold_time, setup_time].
            setup_time: Default Q_L at the outputs (defaults to the
                circuit's max arrival — zero setup slack).
            hold_time: Default Q_S at the outputs (defaults to -inf).

        Returns:
            Required windows for every line, as a read-only view
            (:class:`~repro.sta.compile.ColumnRequired`) that builds
            the lines a caller reads; copy with ``dict(...)`` to write.
        """
        self._sync_epoch()
        engine = self.level_engine()
        with self._obs.timer("sta.backward_s"):
            return engine.required(
                result,
                self._po_required(result, po_required, setup_time, hold_time),
            )

    def compute_required_per_gate(
        self,
        result: StaResult,
        po_required: Optional[Dict[str, LineRequired]] = None,
        setup_time: Optional[float] = None,
        hold_time: Optional[float] = None,
    ) -> Dict[str, LineRequired]:
        """The scalar reference backward walk: one gate at a time.

        Same arguments and answers as :meth:`compute_required`; the
        parity tests and fuzz oracles diff the compiled pass against it.
        """
        self._sync_epoch()
        with self._obs.timer("sta.backward_s"):
            po_required = self._po_required(
                result, po_required, setup_time, hold_time
            )
            required: Dict[str, LineRequired] = {
                line: LineRequired() for line in self.circuit.lines
            }
            for po, req in po_required.items():
                required[po] = LineRequired(
                    rise=required[po].rise.tighten(req.rise),
                    fall=required[po].fall.tighten(req.fall),
                )
            for out in reversed(self.circuit.topological_order()):
                gate = self.circuit.gates[out]
                cell = self.cell_of(gate)
                load = self.load(out)
                out_req = required[out]
                for pin, in_rising, out_rising in self._arc_pairs(cell):
                    line = gate.inputs[pin]
                    in_window = result.line(line).window(in_rising)
                    if not in_window.is_active:
                        continue
                    d_min, d_max = pin_delay_bounds(
                        cell, pin, in_rising, out_rising,
                        in_window.t_s, in_window.t_l, load,
                    )
                    is_ctrl_arc = (
                        cell.controlling_value is not None
                        and cell.ctrl is not None
                        and in_rising == (cell.controlling_value == 1)
                        and out_rising == cell.ctrl.out_rising
                    )
                    if is_ctrl_arc:
                        d_min = self._ctrl_min_delay(
                            cell, pin, in_window.t_s, in_window.t_l, load
                        )
                    target = out_req.window(out_rising)
                    current = required[line].window(in_rising)
                    tightened = current.tighten(
                        RequiredWindow(target.q_s - d_min, target.q_l - d_max)
                    )
                    required[line].set_window(in_rising, tightened)
        return required

    # ------------------------------------------------------------------
    # Violation checks
    # ------------------------------------------------------------------
    def check(
        self,
        result: StaResult,
        required: Mapping[str, LineRequired],
    ) -> List[Violation]:
        """Flag every line whose arrival window escapes its required window."""
        violations: List[Violation] = []
        for line in self.circuit.lines:
            timing = result.line(line)
            req = required[line]
            for rising in (True, False):
                window = timing.window(rising)
                if not window.is_active:
                    continue
                rw = req.window(rising)
                setup = rw.setup_slack(window)
                hold = rw.hold_slack(window)
                if setup < 0:
                    violations.append(Violation(line, rising, "setup", setup))
                if hold < 0:
                    violations.append(Violation(line, rising, "hold", hold))
        return violations

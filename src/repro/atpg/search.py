"""Timing-based ATPG for crosstalk delay faults (paper Section 7).

The paper's framework has four components: (1) a delay model able to
handle min-max ranges, (2) fault excitation conditions, (3) a search
engine that implicitly enumerates the logic space, and (4) ITR, which
recomputes timing ranges as values are specified and prunes branches
whose refined ranges can no longer excite the fault or cause a
violation.  This module is that framework: a PODEM-style two-frame
branch-and-bound with pluggable ITR pruning, so the experiment of
Section 7 (ATPG efficiency with and without ITR) is a one-flag ablation.
"""

from __future__ import annotations

import dataclasses
import math
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, List, Optional, Tuple

from ..characterize.library import CellLibrary
from ..circuit.logic import CONTROLLING_VALUE, controlled_output
from ..circuit.netlist import Circuit
from ..itr.implication import Conflict
from ..itr.refine import ItrEngine
from ..itr.values import TwoFrame
from ..models.base import DelayModel
from ..obs import get_registry
from ..obs.merge import capture_and_reset, init_worker_obs, merge_payloads
from ..sta.analysis import StaConfig
from ..sta.simulate import PiStimulus, TimingSimulator
from .excite import check_excitation, transition_literal
from .faults import CrosstalkFault, FaultySimulator

DETECTED = "detected"
UNTESTABLE = "untestable"
ABORTED = "aborted"


class _Abort(Exception):
    """Internal: backtrack limit exceeded."""


@dataclasses.dataclass(frozen=True)
class AtpgConfig:
    """Search-engine parameters.

    Args:
        backtrack_limit: Abort a fault after this many backtracks.
        use_itr: Enable ITR window refinement and timing-based pruning
            (the paper's Section 7 comparison switch).
        period: Clock period for the setup check; defaults to the
            fault-free STA max arrival (zero-slack critical path).
        detect_guard: Margin a faulty arrival must exceed the period by.

    Raises:
        ValueError: If ``backtrack_limit`` is negative, or ``period`` is
            given and not finite and > 0.
    """

    backtrack_limit: int = 128
    use_itr: bool = True
    period: Optional[float] = None
    detect_guard: float = 1e-12

    def __post_init__(self) -> None:
        if self.backtrack_limit < 0:
            raise ValueError(
                f"backtrack_limit must be >= 0, got {self.backtrack_limit!r}"
            )
        if self.period is not None and not (
            math.isfinite(self.period) and self.period > 0.0
        ):
            raise ValueError(
                f"period must be finite and > 0, got {self.period!r}"
            )


@dataclasses.dataclass
class FaultResult:
    """Outcome of test generation for one fault."""

    fault: CrosstalkFault
    status: str
    vector: Optional[Dict[str, PiStimulus]] = None
    backtracks: int = 0
    reason: str = ""


@dataclasses.dataclass
class AtpgStats:
    """Search-effort counters accumulated across ``generate`` calls.

    The same quantities are recorded in the active metrics registry
    under ``atpg.*`` counter names; this dataclass keeps them available
    as a plain public value even when instrumentation is disabled.
    """

    faults: int = 0
    decisions: int = 0
    backtracks: int = 0
    itr_prunes: int = 0
    detected: int = 0
    untestable: int = 0
    aborted: int = 0

    def __sub__(self, other: "AtpgStats") -> "AtpgStats":
        """Field-wise difference (for before/after snapshots)."""
        return AtpgStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in dataclasses.fields(self)
            }
        )

    def __add__(self, other: "AtpgStats") -> "AtpgStats":
        """Field-wise sum (for merging per-worker deltas)."""
        return AtpgStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in dataclasses.fields(self)
            }
        )

    def accumulate(self, other: "AtpgStats") -> None:
        """Field-wise in-place addition."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclasses.dataclass
class AtpgSummary:
    """Aggregate ATPG statistics (the paper's efficiency metric)."""

    results: List[FaultResult]
    stats: Optional[AtpgStats] = None

    def count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def efficiency(self) -> float:
        """(detected + proved untestable) / total, as a fraction."""
        if not self.results:
            return 0.0
        resolved = self.count(DETECTED) + self.count(UNTESTABLE)
        return resolved / len(self.results)


# ----------------------------------------------------------------------
# Fault-parallel worker plumbing
# ----------------------------------------------------------------------
# One test generator per worker process, built by the pool initializer.
_WORKER_ATPG: Optional["CrosstalkAtpg"] = None


def _atpg_worker_init(
    circuit, library, model, sta_config, config, obs_enabled=False
):
    """Build the per-process test generator for the fault pool.

    When the parent run is instrumented the worker gets a real registry
    and each fault's metrics ride back with its result; otherwise the
    null registry keeps the worker zero-overhead.  Construction-time
    metrics (the generator's own STA pass, the shared base-ITR
    refinement) are captured and discarded so per-fault payloads carry
    only search effort — the parent performs that one-time work itself,
    exactly as a serial run would, keeping ``--jobs N`` counter totals
    identical to ``--jobs 1``.
    """
    global _WORKER_ATPG
    registry = init_worker_obs(obs_enabled)
    _WORKER_ATPG = CrosstalkAtpg(
        circuit, library, model, sta_config, config
    )
    if config is not None and config.use_itr:
        _WORKER_ATPG._baseline()
    capture_and_reset(registry)


def _atpg_worker_run(index, fault):
    """One fault's test generation; (index, result, delta, s, payload)."""
    registry = get_registry()
    before = dataclasses.replace(_WORKER_ATPG.stats)
    start = time.perf_counter()
    with registry.span("atpg.fault"):
        result = _WORKER_ATPG.generate(fault)
    elapsed = time.perf_counter() - start
    delta = _WORKER_ATPG.stats - before
    return index, result, delta, elapsed, capture_and_reset(registry)


class CrosstalkAtpg:
    """Two-pattern crosstalk-delay-fault test generator.

    Construction runs one compiled STA pass and the compiled required
    times (the period and the excitation checks read them); no per-gate
    walk runs until a search needs one.  The refined windows of the
    all-unspecified assignment, every search's starting point, are
    computed once per generator by the first ITR check (or up front by
    a ``jobs > 1`` run); that refinement walks the circuit gate by gate,
    and each search re-walks only the cones its decisions touch.

    Args:
        circuit: Circuit under test.
        library: Characterized cell library.
        model: Delay model for ITR and simulation (defaults to the
            proposed V-shape model).
        sta_config: Boundary conditions shared with STA/ITR.
        config: Search parameters.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        model: Optional[DelayModel] = None,
        sta_config: Optional[StaConfig] = None,
        config: Optional[AtpgConfig] = None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.config = config or AtpgConfig()
        self.engine = ItrEngine(circuit, library, model, sta_config)
        self.model = self.engine.analyzer.model
        self.sta_config = self.engine.analyzer.config
        # Bit-identical to the per-gate walk, which first runs in the
        # base refinement (see _baseline).
        self._sta = self.engine.analyzer.analyze()
        self.period = (
            self.config.period
            if self.config.period is not None
            else self._sta.output_max_arrival()
        )
        self._required = self.engine.analyzer.compute_required(
            self._sta, setup_time=self.period
        )
        self._fault_free_sim = TimingSimulator(
            circuit, library, self.model, self.sta_config
        )
        # Refined windows for the all-unspecified assignment, shared as
        # the incremental-refinement baseline across faults (lazy).
        self._base_itr = None
        self.stats = AtpgStats()
        obs = get_registry()
        self._m_faults = obs.counter("atpg.faults")
        self._m_decisions = obs.counter("atpg.decisions")
        self._m_backtracks = obs.counter("atpg.backtracks")
        self._m_prunes = obs.counter("atpg.itr_prunes")
        self._obs = obs
        self._m_status = {
            DETECTED: obs.counter("atpg.detected"),
            UNTESTABLE: obs.counter("atpg.untestable"),
            ABORTED: obs.counter("atpg.aborted"),
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def generate(self, fault: CrosstalkFault) -> FaultResult:
        """Attempt to generate a two-pattern test for one fault."""
        result = self._generate(fault)
        self.stats.faults += 1
        self._m_faults.inc()
        if result.backtracks:
            self.stats.backtracks += result.backtracks
            self._m_backtracks.inc(result.backtracks)
        if result.status == DETECTED:
            self.stats.detected += 1
        elif result.status == UNTESTABLE:
            self.stats.untestable += 1
        else:
            self.stats.aborted += 1
        self._m_status[result.status].inc()
        return result

    def _generate(self, fault: CrosstalkFault) -> FaultResult:
        """Search for a two-pattern test (undecorated by bookkeeping)."""
        if self._po_depths().get(fault.victim, -1) < 0:
            return FaultResult(
                fault, UNTESTABLE, reason="victim unobservable"
            )
        try:
            values = self.engine.initial_values()
            values = self.engine.assign(
                values, fault.aggressor,
                transition_literal(fault.aggressor_rising),
            )
            values = self.engine.assign(
                values, fault.victim,
                transition_literal(fault.victim_rising),
            )
        except Conflict:
            return FaultResult(fault, UNTESTABLE, reason="excitation logic")

        refined = None
        if self.config.use_itr:
            # Sound untestability proofs: the checks below depend only on
            # the excitation requirement, so an infeasible verdict holds
            # for every completion.
            verdict, refined = self._prune(fault, values)
            if verdict is not None:
                return FaultResult(fault, UNTESTABLE, reason=verdict)

        # Propagation conditions (paper component (2)): sensitize a deep
        # path from the victim to a primary output by holding every side
        # input at its non-controlling value.  Several candidate paths are
        # tried; the first consistent one constrains the search.  The path
        # choice restricts the search space, so exhaustion below it is
        # reported as ABORTED rather than proved untestable.
        path_constrained = False
        for path in self._candidate_paths(fault):
            for strict in (True, False):
                try:
                    constrained = values
                    for line, literal in self._path_constraints(path, strict):
                        constrained = self.engine.assign(
                            constrained, line, literal
                        )
                except Conflict:
                    continue
                if self.config.use_itr:
                    verdict, path_refined = self._prune(
                        fault, constrained, refined
                    )
                    if verdict is not None:
                        continue
                    refined = path_refined
                values = constrained
                path_constrained = True
                break
            if path_constrained:
                break

        backtracks = 0
        # Search state: (values, refined ITR result or None); the stack
        # holds pre-decision states so backtracking restores both.
        state = (values, refined)
        stack: List[Tuple[str, int, int, bool, tuple]] = []

        def attempt(base: tuple, pi: str, frame: int, bit: int):
            self.stats.decisions += 1
            self._m_decisions.inc()
            base_values, base_refined = base
            try:
                new_values = self.engine.assign(
                    base_values, pi, self._frame_literal(frame, bit)
                )
            except Conflict:
                return None
            if not self.config.use_itr:
                return new_values, None
            verdict, new_refined = self._prune(
                fault, new_values, base_refined
            )
            if verdict is not None:
                return None
            return new_values, new_refined

        def backtrack() -> Optional[tuple]:
            nonlocal backtracks
            while stack:
                pi, frame, bit, tried_alt, before = stack.pop()
                if tried_alt:
                    continue
                backtracks += 1
                if backtracks > self.config.backtrack_limit:
                    raise _Abort()
                alt = attempt(before, pi, frame, 1 - bit)
                if alt is not None:
                    stack.append((pi, frame, 1 - bit, True, before))
                    return alt
            return None

        try:
            while True:
                objective = self._next_objective(state[0], fault)
                if objective is None:
                    vector = self._vector_from(state[0])
                    if self._detects(fault, vector):
                        return FaultResult(
                            fault, DETECTED, vector=vector,
                            backtracks=backtracks,
                        )
                    state = backtrack()
                    if state is None:
                        return self._exhausted(
                            fault, backtracks, path_constrained
                        )
                    continue
                decision = self._backtrace(state[0], *objective)
                if decision is None:
                    state = backtrack()
                    if state is None:
                        return self._exhausted(
                            fault, backtracks, path_constrained
                        )
                    continue
                pi, frame, bit = decision
                new_state = attempt(state, pi, frame, bit)
                if new_state is None:
                    backtracks += 1
                    if backtracks > self.config.backtrack_limit:
                        raise _Abort()
                    new_state = attempt(state, pi, frame, 1 - bit)
                    if new_state is None:
                        state = backtrack()
                        if state is None:
                            return self._exhausted(
                                fault, backtracks, path_constrained
                            )
                        continue
                    stack.append((pi, frame, 1 - bit, True, state))
                else:
                    stack.append((pi, frame, bit, False, state))
                state = new_state
        except _Abort:
            return FaultResult(fault, ABORTED, backtracks=backtracks)

    def run_all(self, faults, jobs: int = 1) -> AtpgSummary:
        """Generate tests for a whole fault list.

        Args:
            faults: Faults to target, in order.
            jobs: Worker processes.  ``jobs=1`` runs the historical
                serial path in this process; ``jobs>1`` fans the faults
                out over a process pool (one search engine per worker)
                and reassembles results in the input order, so the
                summary is identical to a serial run.
        """
        faults = list(faults)
        if jobs <= 1 or len(faults) <= 1:
            before = dataclasses.replace(self.stats)
            results = [self.generate(fault) for fault in faults]
            return AtpgSummary(results, stats=self.stats - before)
        return self._run_all_parallel(faults, jobs)

    def _run_all_parallel(self, faults, jobs: int) -> AtpgSummary:
        obs = get_registry()
        obs.counter("atpg.pool.faults_dispatched").inc(len(faults))
        job_hist = obs.histogram("atpg.pool.job_s")
        # The serial path computes the shared base-ITR result lazily on
        # the first fault that reaches _prune (the victim must be
        # observable); do the same one-time work here (workers precompute
        # and discard their own) so instrumented counter totals match a
        # --jobs 1 run.
        if self.config.use_itr and any(
            self._po_depths().get(f.victim, -1) >= 0 for f in faults
        ):
            self._baseline()
        # Share the parent-resolved period so every worker checks the
        # same setup threshold without re-deriving it from its own STA.
        cfg = dataclasses.replace(self.config, period=self.period)
        results: List[Optional[FaultResult]] = [None] * len(faults)
        payloads: List[Optional[dict]] = [None] * len(faults)
        merged = AtpgStats()
        with obs.timer("atpg.pool.wall_s"):
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(faults)),
                initializer=_atpg_worker_init,
                initargs=(
                    self.circuit, self.library, self.model,
                    self.sta_config, cfg, obs.enabled,
                ),
            ) as pool:
                futures = {
                    pool.submit(_atpg_worker_run, i, fault): i
                    for i, fault in enumerate(faults)
                }
                for future in as_completed(futures):
                    index, result, delta, elapsed, payload = future.result()
                    results[index] = result
                    payloads[index] = payload
                    merged.accumulate(delta)
                    job_hist.observe(elapsed)
        self.stats.accumulate(merged)
        # Fold the per-fault worker registries back in (fault order, so
        # the merge is deterministic): counters sum, histograms keep
        # exact percentiles, spans land on worker/<lane> timelines.
        merge_payloads(obs, payloads)
        return AtpgSummary(list(results), stats=merged)

    # ------------------------------------------------------------------
    # Search internals
    # ------------------------------------------------------------------
    def _exhausted(
        self, fault: CrosstalkFault, backtracks: int, path_constrained: bool
    ) -> FaultResult:
        """Classify a fully exhausted search.

        Exhaustion is an untestability proof only when the search space
        was complete; under path-sensitization constraints it merely means
        the chosen path yields no test.
        """
        if path_constrained:
            return FaultResult(
                fault, ABORTED, backtracks=backtracks,
                reason="sensitized path exhausted",
            )
        return FaultResult(
            fault, UNTESTABLE, backtracks=backtracks,
            reason="search exhausted",
        )

    def _po_depths(self) -> Dict[str, int]:
        """Longest line-path distance to any primary output (memoized)."""
        cached = getattr(self, "_po_depth_cache", None)
        if cached is not None:
            return cached
        outputs = set(self.circuit.outputs)
        depths: Dict[str, int] = {}
        unobservable = -(10 ** 9)
        for line in reversed(
            self.circuit.inputs + self.circuit.topological_order()
        ):
            best = 0 if line in outputs else unobservable
            for gate in self.circuit.fanouts(line):
                downstream = depths.get(gate.output, unobservable)
                if downstream + 1 > best:
                    best = downstream + 1
            depths[line] = best
        self._po_depth_cache = depths
        return depths

    def _candidate_paths(
        self, fault: CrosstalkFault, limit: int = 8
    ) -> List[List[str]]:
        """Victim-to-PO paths, deepest first (static selection).

        Deep paths maximize the downstream delay, which is what lets the
        crosstalk-induced extra delay push a primary output past the
        clock period; alternatives are offered because side-input
        constraints of the deepest path may conflict with excitation.
        """
        depths = self._po_depths()
        outputs = set(self.circuit.outputs)
        paths: List[List[str]] = []
        stack: List[List[str]] = [[fault.victim]]
        while stack and len(paths) < limit:
            path = stack.pop()
            line = path[-1]
            if line in outputs:
                paths.append(path)
                continue
            successors = sorted(
                (g.output for g in self.circuit.fanouts(line)),
                key=lambda out: depths.get(out, -(10 ** 9)),
            )
            for nxt in successors:  # deepest lands on top of the stack
                if depths.get(nxt, -1) >= 0 and nxt not in path:
                    stack.append(path + [nxt])
        return paths

    def _path_constraints(
        self, path: List[str], strict: bool = True
    ) -> List[Tuple[str, TwoFrame]]:
        """Side-input literals sensitizing one victim-to-PO path.

        Args:
            path: Line path from the victim to a primary output.
            strict: Hold side inputs at the non-controlling value in both
                frames (the transition's arrival is then set by the
                on-path input).  When False, only the second frame is
                constrained — weaker, but it conflicts less often with
                the excitation requirements.
        """
        constraints: List[Tuple[str, TwoFrame]] = []
        for on_path, out in zip(path, path[1:]):
            gate = self.circuit.gates[out]
            cv = CONTROLLING_VALUE[gate.kind]
            if cv is not None:
                noncontrolling = 1 - cv
                literal = (
                    TwoFrame(noncontrolling, noncontrolling)
                    if strict
                    else TwoFrame(None, noncontrolling)
                )
            elif gate.kind in ("xor", "xnor"):
                literal = TwoFrame.parse("00")
            else:
                continue  # inv / buf have no side inputs
            for pin_line in gate.inputs:
                if pin_line != on_path:
                    constraints.append((pin_line, literal))
        return constraints

    @staticmethod
    def _frame_literal(frame: int, bit: int) -> TwoFrame:
        return TwoFrame(bit, None) if frame == 1 else TwoFrame(None, bit)

    def _baseline(self):
        """The refined windows of the all-unspecified assignment.

        Computed once per generator; the refinement is one
        ``atpg.baseline_s`` observation.
        """
        if self._base_itr is None:
            with self._obs.timer("atpg.baseline_s"):
                self._base_itr = self.engine.refine(
                    self.engine.initial_values()
                )
        return self._base_itr

    def _prune(
        self, fault: CrosstalkFault, values, previous=None
    ) -> Tuple[Optional[str], object]:
        """ITR feasibility check; (infeasibility reason or None, result).

        When a previous refined result is supplied the windows are
        updated incrementally (only the cone affected by the new
        assignments is recomputed).  With no previous result, the
        refinement starts from the engine's all-unspecified baseline —
        refine_incremental is bit-identical to a full refine, and the
        baseline never changes, so it is computed once per generator.
        """
        if previous is None:
            previous = self._baseline()
        result = self.engine.refine_incremental(previous, values)
        verdict = check_excitation(fault, result, self._required)
        reason = None
        if not verdict.logic_possible:
            reason = "excitation logic"
        elif not verdict.alignment_possible:
            reason = "timing alignment"
        elif not verdict.violation_possible:
            reason = "no violation possible"
        if reason is not None:
            self.stats.itr_prunes += 1
            self._m_prunes.inc()
        return reason, result

    def _next_objective(
        self, values, fault: CrosstalkFault
    ) -> Optional[Tuple[str, int, int]]:
        """(line, frame, desired) to justify next, or None when done."""
        for line, rising in (
            (fault.aggressor, fault.aggressor_rising),
            (fault.victim, fault.victim_rising),
        ):
            literal = transition_literal(rising)
            value = values[line]
            if value.v1 is None:
                return line, 1, literal.v1
            if value.v2 is None:
                return line, 2, literal.v2
        for pi in self.circuit.inputs:
            value = values[pi]
            if value.v1 is None:
                return pi, 1, self._preferred_bit(fault, pi, 1)
            if value.v2 is None:
                return pi, 2, self._preferred_bit(fault, pi, 2)
        return None

    @staticmethod
    def _preferred_bit(fault: CrosstalkFault, pi: str, frame: int) -> int:
        """Deterministic but diverse fill preference per (fault, pi, frame).

        A fixed preference makes sibling leaves differ only in the last
        decision; hashing spreads the first-tried vectors over the space.
        (``zlib.crc32`` rather than ``hash`` so runs are reproducible
        regardless of PYTHONHASHSEED.)
        """
        key = f"{fault.aggressor}|{fault.victim}|{pi}|{frame}"
        return zlib.crc32(key.encode()) & 1

    def _backtrace(
        self, values, line: str, frame: int, desired: int
    ) -> Optional[Tuple[str, int, int]]:
        """PODEM backtrace: map an objective to a PI assignment."""
        steps = 0
        while steps < 10_000:
            steps += 1
            if self.circuit.is_primary_input(line):
                return line, frame, desired
            gate = self.circuit.driver(line)
            if gate is None:
                return None
            kind = gate.kind

            def frame_value(name: str) -> Optional[int]:
                v = values[name]
                return v.v1 if frame == 1 else v.v2

            unknown = [
                name for name in gate.inputs if frame_value(name) is None
            ]
            if not unknown:
                return None  # fully implied; objective can't be driven
            if kind == "inv":
                line, desired = unknown[0], 1 - desired
            elif kind == "buf":
                line = unknown[0]
            elif kind in ("xor", "xnor"):
                known = sum(
                    frame_value(name) or 0
                    for name in gate.inputs
                    if frame_value(name) is not None
                )
                target = desired if kind == "xor" else 1 - desired
                line, desired = unknown[0], (target - known) % 2
            else:
                cv = CONTROLLING_VALUE[kind]
                if desired == controlled_output(kind):
                    line, desired = unknown[0], cv
                else:
                    line, desired = unknown[0], 1 - cv
        return None

    def _vector_from(self, values) -> Dict[str, PiStimulus]:
        trans = self.sta_config.pi_trans[0]
        vector = {}
        for pi in self.circuit.inputs:
            value = values[pi]
            v1 = value.v1 if value.v1 is not None else 0
            v2 = value.v2 if value.v2 is not None else 0
            vector[pi] = PiStimulus(v1, v2, arrival=0.0, trans=trans)
        return vector

    def _detects(
        self, fault: CrosstalkFault, vector: Dict[str, PiStimulus]
    ) -> bool:
        """Simulate the vector against the faulty circuit and check setup."""
        # The simulator is stateless across run() calls, so reuse one per
        # fault instead of recomputing loads on every candidate vector.
        if getattr(self, "_faulty_for", None) is not fault:
            self._faulty_for = fault
            self._faulty_sim = FaultySimulator(
                self.circuit, self.library, self.model, self.sta_config,
                fault=fault,
            )
        faulty = self._faulty_sim.run(vector)
        threshold = self.period + self.config.detect_guard
        late = [
            po
            for po in self.circuit.outputs
            if faulty.events[po] is not None
            and faulty.events[po].arrival > threshold
        ]
        if not late:
            return False
        # A valid two-pattern test must be clean without the fault: the
        # violation has to be *caused* by the injected crosstalk delay.
        clean = self._fault_free_sim.run(vector)
        for po in late:
            event = clean.events[po]
            if event is None or event.arrival <= threshold:
                return True
        return False

"""Incremental STA: cone-limited re-timing of edited circuits.

Every engine in the repo so far answers a timing question with a full
forward pass.  The optimization workloads of the paper's Section 7 —
and the gate-sizing optimizer of :mod:`repro.sta.optimize` — instead ask
thousands of *nearly identical* questions: resize one gate, re-read the
WNS, revert.  :class:`IncrementalAnalyzer` makes each of those questions
cost only the part of the circuit that can actually see the edit.

How it works:

* the wrapped :class:`~repro.sta.analysis.TimingAnalyzer` runs one full
  level-compiled pass and its raw SoA window state is kept as the
  *current state*;
* each mutation recorded in :attr:`repro.circuit.Circuit.edit_log`
  seeds the re-timing with the edited gate plus the drivers of every
  line whose capacitive load changed (resizing a gate re-loads its
  fan-in);
* loads are re-derived per affected line through the same summation
  (:func:`~repro.sta.analysis.line_load`) as
  :func:`~repro.sta.analysis.compute_loads`, keeping them — and
  everything downstream — bit-identical to a fresh analyzer;
* coefficient-only edits (resize/cell swap) are patched into the
  :class:`~repro.sta.compile.CompiledCircuit` SoA arrays in place
  (:meth:`~repro.sta.compile.CompiledCircuit.patch_gate`): a resize
  and a re-load move only the gate's load-adjust terms, a swap also
  its rows and its rows of the coefficient tables; only structural
  edits (rewires) and swaps that change a gate's compiled slot
  recompile.  The window state survives a recompile: its rows follow
  ``circuit.lines``, which no edit reorders;
* results read that state through one live, read-only view
  (:class:`~repro.sta.compile.LiveTimings`), which builds a line's
  windows on first read and drops those a replay or commit rewrites.

The cone then replays on the compiled level sweep: per level, the
dirty gates of each compiled group (at most one ctrl and one arc-table
group per level) are cut into a column subset of their own
(``group.cut(cols)``) and run through the same
level kernels against the persistent state, then the output rows are
diffed bitwise and only the fan-outs of gates that changed join the
frontier.  A re-time thus pays full-pass kernel rates per gate, and it
stops at any gate whose windows kept their bits (min/max corner
reductions absorb most small perturbations, so cones collapse
quickly).

What-if trials (:meth:`IncrementalAnalyzer.try_edits`) ride the same
level sweep with one column per hypothetical edit, the way a corner
compile carries one column per corner library, but each column
computes only the gates its own edit reaches.  The sweep's unit is a
*lane*, one gate in one column: a level's pending lanes of one group
are cut as one subset whose rows point into the flat ``(2n * K, 1)``
view of the trial state (:meth:`~repro.sta.compile._Ragged.cut`), so
the kernels run unchanged, and a column no lane touches keeps the
master's bits.  The *seed* lanes of a column (its edited gate and the
drivers of the gate's re-loaded fan-in lines) run in their group's
call with the column's own cell leaves: load terms, and for a swap
inside the gate's slot its rows and table rows too; only a swap that
changes the slot runs its lane on the gate's one-gate build, made by
the compile's own code.  Each column carries its own window states, so
a swap may move them.  Every gate is thus computed inside the kernels,
from inputs that are already final.
:meth:`IncrementalAnalyzer.commit` applies the chosen edit for real and
adopts its column, states included, as the master state instead of
re-timing its cone.

Early termination is *bitwise*, not tolerance-based: a timestamp/dirty-
bit scheme would either re-run the whole cone every time or risk serving
windows that differ from a fresh pass in the last ulp.  The differential
fuzz oracle ``incremental`` and the property tests enforce the contract
"after any edit sequence, stored windows == fresh full analysis",
across patches and recompiles.

Metrics are published under ``sta.incr.*``.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..circuit.netlist import Circuit, CircuitEdit
from ..obs import get_registry
from .analysis import StaResult, TimingAnalyzer, line_load
from .compile import CompiledWindows, LiveTimings
from .windows import IMPOSSIBLE


def _rows_equal(
    old: Tuple[np.ndarray, ...],
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    states: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Bitwise equality versus a pre-kernel snapshot, ``(rows, B)``.

    ``old`` holds the rows' states and their four ``(rows, B)`` window
    arrays.  IMPOSSIBLE rows carry NaN fields, so state equality alone
    decides them; an active row's column must match on all four window
    floats exactly.
    """
    st = states[rows]
    value_eq = old[1] == arrays[0][rows]
    for before, array in zip(old[2:], arrays[1:]):
        value_eq &= before == array[rows]
    return (old[0] == st)[:, None] & ((st == IMPOSSIBLE)[:, None] | value_eq)


@dataclasses.dataclass(frozen=True)
class TrialEdit:
    """One hypothetical coefficient-only edit for :meth:`try_edits`.

    ``op`` is ``"resize"`` or ``"swap"`` (structural rewires cannot be
    batched as columns; apply them for real and :meth:`retime`).
    ``value`` is the candidate size (resize) or gate kind (swap).
    """

    op: str
    line: str
    value: object


@dataclasses.dataclass
class TrialResult(CompiledWindows):
    """Windows of K hypothetical single-edit circuit variants.

    Column ``k`` holds windows bitwise-identical to a fresh full
    analysis of the circuit with only ``edits[k]`` applied, and its own
    states (``states`` is ``(2n, K)``); the analyzer's own (master)
    state is untouched until :meth:`IncrementalAnalyzer.commit` adopts a
    column.
    """

    circuit: Circuit
    edits: List[TrialEdit]
    #: Gates the sweep evaluated, seed gates included, each once however
    #: many of its columns ran.
    cone_gates: int
    #: The master window state the columns were swept over and the
    #: edit-log length right after the sweep: a column is adopted by
    #: :meth:`IncrementalAnalyzer.commit` only while both are current.
    base: Optional[CompiledWindows] = None
    log_len: int = -1

    @property
    def n_trials(self) -> int:
        return self.n_columns

    def output_arrivals(self) -> np.ndarray:
        """Latest arrival per primary output, shape ``(n_outputs, K)``.

        Inactive directions contribute ``-inf``; an output whose rise
        and fall are both impossible reports ``-inf`` overall.
        """
        rows = np.array(
            [self.line_index[o] for o in self.circuit.outputs],
            dtype=np.intp,
        )
        rows = np.concatenate([rows, rows + self.n_lines])
        active = self.states[rows] != IMPOSSIBLE
        vals = np.where(
            active.reshape(len(rows), -1), self.a_l[rows], -np.inf
        )
        half = len(self.circuit.outputs)
        return np.maximum(vals[:half], vals[half:])

    def max_arrivals(self) -> np.ndarray:
        """Worst (latest) primary-output arrival per variant, shape (K,)."""
        per_output = self.output_arrivals()
        if per_output.shape[0] == 0:
            return np.full(self.n_trials, -np.inf)
        return per_output.max(axis=0)


class IncrementalAnalyzer:
    """Cone-limited re-timing on top of a :class:`TimingAnalyzer`.

    Args:
        analyzer: The wrapped analyzer.  Full passes and cone replays
            both run on its level-compiled engine, whose windows the
            parity contract guarantees are bitwise those of its
            per-gate walk.

    Usage::

        incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library))
        incr.analyze()                  # one full pass
        circuit.resize_gate("G10", 2.0)
        result = incr.retime()          # re-times only the G10 cone

    ``retime`` returns a **live view**: the :class:`StaResult` shares the
    analyzer's window state and later retimes mutate it in place.
    """

    def __init__(self, analyzer: TimingAnalyzer) -> None:
        self.analyzer = analyzer
        self.circuit: Circuit = analyzer.circuit
        self.library = analyzer.library
        # Wrapping an analyzer that is already stale: refresh it first so
        # the incremental load bookkeeping starts from a consistent base.
        analyzer._sync_epoch()
        # Patches write into the compile, so it must be this engine's.
        analyzer.own_compile()
        self._log_pos = len(self.circuit.edit_log)
        self._outputs = set(self.circuit.outputs)
        self._lvl: Optional[Dict[str, int]] = None
        #: Compiled-form bookkeeping.
        self._patch_pending: Set[str] = set()
        self._compiled_stale = False
        #: Persistent SoA window state of the last full level pass; cone
        #: replays and adopted commits update it in place.  Its rows
        #: follow ``circuit.lines``, so it outlives recompiles.
        self._cw = None
        #: The read-only view every result serves ``_cw`` through.
        self._view: Optional[LiveTimings] = None
        #: (id(group), lanes, K) -> (group.version, (subset, output
        #: rows, owning lane per row)) — cones revisit the same group
        #: lanes across edits (optimizer trial loops), so subsets are
        #: memoized until a patch bumps the version.  The keys are ids
        #: of one compile's groups, which a recompile frees for reuse,
        #: so the memo resets whenever the compile it was filled from
        #: (``_subsets_of``) is replaced.
        self._subsets: Dict[tuple, Tuple[int, object]] = {}
        self._subsets_of = None
        obs = get_registry()
        self._obs = obs
        self._m_edits = obs.counter("sta.incr.edits")
        self._m_retimes = obs.counter("sta.incr.retimes")
        self._m_gates = obs.counter("sta.incr.gates_retimed")
        self._m_early = obs.counter("sta.incr.early_terminations")
        self._m_load_patches = obs.counter("sta.incr.load_term_patches")
        self._m_rebuilds = obs.counter("sta.incr.full_rebuilds")
        self._m_full = obs.counter("sta.incr.full_passes")
        self._m_trials = obs.counter("sta.incr.trials")
        self._m_trial_batches = obs.counter("sta.incr.trial_batches")
        self._m_adopted = obs.counter("sta.incr.commits_adopted")
        self._m_seed_terms = obs.counter("sta.incr.seed_load_terms")
        self._m_seed_builds = obs.counter("sta.incr.seed_builds")
        self._m_cuts = obs.counter("sta.incr.subset_cuts")
        self._m_trial_columns = obs.counter("sta.incr.trial_gate_columns")
        self._m_trial_moved = obs.counter("sta.incr.trial_moved_columns")
        self._h_cone = obs.histogram("sta.incr.cone_gates")
        self._h_trial_cone = obs.histogram("sta.incr.trial_cone_gates")

    # ------------------------------------------------------------------
    # Full pass
    # ------------------------------------------------------------------
    def analyze(self) -> StaResult:
        """Run a full pass and (re)baseline the incremental state.

        The returned result reads the pass's window state through a
        :class:`~repro.sta.compile.LiveTimings` view, which builds a
        line's windows on first read; re-timing updates that state in
        place, so the result is live, like :meth:`retime`'s.
        """
        self._ingest_edits()
        self._sync_compiled()
        self.analyzer.analyze()
        self._cw = self.analyzer._level.last_windows
        self._view = LiveTimings(self._cw)
        self._m_full.inc()
        return StaResult(self.circuit, self._view)

    # ------------------------------------------------------------------
    # Incremental pass
    # ------------------------------------------------------------------
    def retime(self) -> StaResult:
        """Consume pending circuit edits and re-time their fanout cones.

        Bitwise-identical to a fresh full analysis of the edited
        circuit; falls back to :meth:`analyze` when no baseline exists
        yet.
        """
        seeds = self._ingest_edits()
        if self._view is None:
            return self.analyze()
        self._m_retimes.inc()
        if seeds:
            self._replay(seeds)
        return StaResult(self.circuit, self._view)

    def _replay(self, seeds: Set[str]) -> int:
        """Cone replay over the persistent SoA state, after bringing the
        compile up to date with the ingested edits (patching it, or
        recompiling after a structural edit); returns the number of
        gates swept (:meth:`_sweep`, in the master's one column)."""
        self._sync_compiled()
        cw = self._cw
        with self._obs.timer("sta.incr.retime_s"):
            cone, _, changed = self._sweep(
                [(line, 0) for line in seeds],
                (cw.a_s, cw.a_l, cw.t_s, cw.t_l), cw.states,
            )
            self._view.forget(changed)
        self._m_early.inc(cone - len(changed))
        self._m_gates.inc(cone)
        self._h_cone.observe(cone)
        return cone

    def _sweep(
        self,
        lanes: Iterable[Tuple[str, int]],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        seeds: Mapping[Tuple[str, int], Dict[str, np.ndarray]] = {},
        swaps: Mapping[Tuple[str, int], object] = {},
    ) -> Tuple[int, int, Dict[str, List[int]]]:
        """Level-ordered sweep of ``(line, column)`` lanes over
        ``(2 * n_lines, K)`` SoA state, ``K`` = 1 for the master.

        Per level, the pending lanes of each compiled group form one
        subset (:meth:`_subset`): a gate once per column it is pending
        in, its rows rebased into the flat ``(2n * K, 1)`` view of the
        state, so the level kernels run unchanged and compute only those
        gate-columns; a column no lane touches keeps its bits, which is
        what recomputing it would give.  ``seeds`` maps a lane to the
        cell leaves it runs with (its load terms, and a same-slot swap's
        rows and table rows), written over a copy of the subset's;
        ``swaps`` maps a lane to the one-gate build it runs on instead.
        A swap inside the slot keeps the gate's set of output rows, so
        the subset's rows still name them.  Each lane whose output rows
        changed bits sends its gate's fan-outs, in its own column, to
        the frontier.

        Returns:
            ``(gates swept, lanes swept, {line: the columns its
            windows changed in}``.
        """
        circuit = self.circuit
        level = self.analyzer.level_engine()
        locs = level.compiled._locs
        level_of = self._levels()
        K = arrays[0].shape[1]
        flat = tuple(a.reshape(-1, 1) for a in arrays)
        flat_states = states.reshape(-1)
        #: level -> line -> the columns the line is pending in.
        pending: Dict[int, Dict[str, Set[int]]] = {}

        def add(line: str, ks: Iterable[int]) -> None:
            pending.setdefault(level_of[line], {}).setdefault(
                line, set()
            ).update(ks)

        for line, k in lanes:
            add(line, (k,))
        cone = swept = 0
        #: line -> the columns its windows changed in.
        moved: Dict[str, List[int]] = {}
        while pending:
            batch = pending.pop(min(pending))
            cone += len(batch)
            # Group the level's lanes by compiled group; a swapped lane
            # runs alone on its one-gate build.
            by_group: Dict[int, Tuple[object, list]] = {}
            calls = []
            for line, ks in batch.items():
                swept += len(ks)
                group, col, _ = locs[line]
                picked = by_group.setdefault(id(group), (group, []))[1]
                for k in ks:
                    fresh = swaps.get((line, k))
                    if fresh is None:
                        picked.append((col, k, line))
                    else:
                        sub = fresh.cut([0], np.array([k]), K)
                        calls.append(((sub, *sub.outputs()), [(0, k, line)]))
            for gid in sorted(by_group):
                group, picked = by_group[gid]
                if picked:
                    picked.sort()
                    calls.append((self._subset(group, picked, K), picked))
            for (sub, rows, row_lane), picked in calls:
                put = [
                    (i, k, seeds[line, k])
                    for i, (_, k, line) in enumerate(picked)
                    if (line, k) in seeds
                ]
                if put:
                    # Never write into the memoized subset's leaves.
                    sub = copy.copy(sub)
                    for name in {n for *_, leaves in put for n in leaves}:
                        setattr(sub, name, getattr(sub, name).copy())
                    for i, k, leaves in put:
                        sub.put(i, leaves, k, K)
                old = (flat_states[rows], *(a[rows] for a in flat))
                level.run_group(sub, flat, flat_states)
                # A lane is clean iff every one of its output rows (one
                # per direction, ``row_lane`` names the owner) kept its
                # bits.
                same = _rows_equal(old, flat, flat_states, rows)[:, 0]
                dirty = np.zeros(len(picked), dtype=bool)
                dirty[row_lane[~same]] = True
                hit: Dict[str, List[int]] = {}
                for i in np.flatnonzero(dirty).tolist():
                    _, k, line = picked[i]
                    hit.setdefault(line, []).append(k)
                for line, ks in hit.items():
                    moved.setdefault(line, []).extend(ks)
                    for sink in circuit.fanouts(line):
                        add(sink.output, ks)
        return cone, swept, moved

    def _subset(self, group, picked: List[Tuple[int, int, str]], K: int):
        """Lane subset of one group of the current compile (gate ``col``
        in column ``k`` of a ``K``-column state for each ``(col, k,
        line)`` of ``picked``), with its output rows and the lane owning
        each row.  A re-time's subsets, and trial subsets of up to 32
        lanes, are memoized.  Lanes hold only rows and load terms, but
        the larger trial subsets are few re-reads for much memory:
        memoized too, they saved 44 of 261 cuts in a greedy c7552s job
        and 24 of 585 in an anneal c5315s job, and raised the search
        benchmark's peak RSS from 73 to 85 MiB."""
        compiled = self.analyzer._level.compiled
        if compiled is not self._subsets_of:
            self._subsets.clear()
            self._subsets_of = compiled
        key = (id(group), tuple(picked), K)
        hit = self._subsets.get(key)
        if hit is not None and hit[0] == group.version:
            return hit[1]
        if len(self._subsets) >= 4096:
            self._subsets.clear()
        self._m_cuts.inc()
        cols, columns = np.array([lane[:2] for lane in picked]).T
        sub = group.cut(cols, columns if K > 1 else None, K)
        entry = (sub, *sub.outputs())
        if K == 1 or len(picked) <= 32:
            self._subsets[key] = (group.version, entry)
        return entry

    # ------------------------------------------------------------------
    # Trial batches (what-if evaluation)
    # ------------------------------------------------------------------
    def try_edits(
        self, edits: Iterable[TrialEdit]
    ) -> TrialResult:
        """Evaluate K hypothetical single edits without touching the master.

        Args:
            edits: :class:`TrialEdit`\\ s (or ``(op, line, value)``
                tuples), each describing a *coefficient-only* edit
                (``resize``/``swap``) of one gate, applied **alone** to
                the current circuit.

        Returns:
            A :class:`TrialResult` whose column ``k`` is
            bitwise-identical to a fresh full analysis of the circuit
            with only ``edits[k]`` applied.  The circuit and the master
            window state are left exactly as they were (the internal
            apply/revert pairs appear in the edit log but are consumed
            here).

        Raises:
            ValueError: For an empty batch, a structural edit, or an
                edit whose line is not a gate output (a primary input or
                an unknown line), before anything is mutated.

        The K variants run as ONE level sweep with K columns, each
        column computing only the gates its own edit reaches: its *seed*
        gates — the edited gate and the drivers of its re-loaded fan-in
        lines — then the fan-outs of every gate that changed in that
        column (see :meth:`_sweep`).  A seed runs in its column with
        that column's cell leaves (:meth:`_trial_builds`), so a level's
        lanes cost one kernel call per group for all K variants, and no
        gate is computed outside the kernels.  A swap inside the gate's
        slot (say NAND2 -> NOR2) is such a seed; one that changes the
        slot (say NAND2 -> XOR2) runs its column on the gate's one-gate
        build for the swapped cell.  Every column carries its own window
        states, so a swap that moves a state stays batched.
        """
        edits = [
            e if isinstance(e, TrialEdit) else TrialEdit(*e) for e in edits
        ]
        if not edits:
            raise ValueError("try_edits needs at least one edit")
        circuit = self.circuit
        for e in edits:
            if e.op not in ("resize", "swap"):
                raise ValueError(
                    "trial edits must be coefficient-only (resize/swap), "
                    f"got {e.op!r}"
                )
            if e.line not in circuit.gates:
                what = (
                    "a primary input" if circuit.is_primary_input(e.line)
                    else "not a line of the circuit"
                )
                raise ValueError(
                    f"trial edit {e}: {e.line!r} is {what}; only gate "
                    "outputs can be resized or swapped"
                )
        # Settle any pending real edits so the master baseline is current.
        self.retime()
        self._m_trials.inc(len(edits))
        self._m_trial_batches.inc()
        with self._obs.timer("sta.incr.trial_s"):
            master = self._cw
            K = len(edits)
            seeds, swaps = self._trial_builds(edits)
            arrays = tuple(
                np.repeat(a, K, axis=1)
                for a in (master.a_s, master.a_l, master.t_s, master.t_l)
            )
            states = np.repeat(master.states[:, None], K, axis=1)
            cone, swept, moved = self._sweep(
                [*seeds, *swaps], arrays, states, seeds, swaps
            )
            self._h_trial_cone.observe(cone)
            self._m_trial_columns.inc(swept)
            self._m_trial_moved.inc(sum(map(len, moved.values())))
            return TrialResult(
                *arrays, states, master.line_index, master.n_lines,
                circuit=circuit, edits=edits, cone_gates=cone,
                base=master, log_len=len(circuit.edit_log),
            )

    def _trial_builds(self, edits: List[TrialEdit]):
        """The seed lanes of a trial batch and the leaves they run with.

        Each edit is resolved on the netlist — applied, read, reverted,
        so the netlist's own validation and :func:`line_load` apply —
        into its gate's variant cell and the re-derived loads of the
        gate's fan-in lines.  Column ``k``'s seeds are its edited gate
        and the drivers of those lines, each taking one of three paths:

        * load terms, for a resized gate (a sized variant reads its
          base cell's table rows) or the driver of a re-loaded line;
        * load terms, rows and table rows, for a swap that keeps the
          gate's slot (:meth:`~repro.sta.compile.CompiledCircuit.fits`,
          say NAND2 -> NOR2);
        * the one-gate build of any other swap
          (:meth:`~repro.sta.compile.CompiledCircuit.build_gates`), on
          which the lane runs instead of its group.

        Each is one call per group kind for the batch
        (:meth:`~repro.sta.compile.CompiledCircuit.gate_leaves` for the
        first two).

        Returns:
            ``(seeds, swaps)``: ``(line, k)`` -> its cell leaves by name,
            and ``(line, k)`` -> its one-gate build.
        """
        circuit = self.circuit
        analyzer = self.analyzer
        compiled = analyzer.level_engine().compiled
        #: (seed line, column) -> [cell, load, whether it writes rows].
        lanes: Dict[Tuple[str, int], list] = {}
        swaps: List[Tuple[str, int, object]] = []
        try:
            for k, e in enumerate(edits):
                gate = circuit.gates[e.line]
                saved = gate.size if e.op == "resize" else gate.kind
                self._apply(e.op, e.line, e.value)
                try:
                    variant = compiled._cell_for(gate)
                    for line in dict.fromkeys(gate.inputs):
                        if line in circuit.gates:
                            lanes[line, k] = [
                                compiled._cell_for(circuit.gates[line]),
                                line_load(
                                    circuit, line, analyzer.cell_of,
                                    analyzer.config, self._outputs,
                                ),
                                False,
                            ]
                finally:
                    self._apply(e.op, e.line, saved)
                swap = e.op == "swap"
                if swap and not compiled.fits(e.line, variant):
                    swaps.append((e.line, k, variant))
                else:
                    lanes[e.line, k] = [variant, analyzer._loads[e.line], swap]
        finally:
            # The apply/revert pairs are netlist no-ops: consume them so
            # the next retime doesn't replay them.
            self._log_pos = len(circuit.edit_log)
            analyzer._epoch = circuit.edit_epoch
        seeds = {}
        for rows in (False, True):
            pick = [lane for lane, (*_, r) in lanes.items() if r == rows]
            if pick:
                seeds.update(zip(pick, compiled.gate_leaves(
                    [circuit.gates[line] for line, _ in pick],
                    [lanes[lane][0] for lane in pick],
                    [lanes[lane][1] for lane in pick],
                    rows=rows,
                )))
        solo = dict(zip(
            [(line, k) for line, k, _ in swaps],
            compiled.build_gates(
                [circuit.gates[line] for line, _, _ in swaps],
                [cell for _, _, cell in swaps],
                [analyzer._loads[line] for line, _, _ in swaps],
            ) if swaps else (),
        ))
        self._m_seed_terms.inc(len(seeds))
        self._m_seed_builds.inc(len(swaps))
        return seeds, solo

    def _apply(self, op: str, line: str, value) -> None:
        """Apply one coefficient-only edit to the netlist."""
        if op == "resize":
            self.circuit.resize_gate(line, value)
        else:
            self.circuit.swap_cell(line, value)

    # ------------------------------------------------------------------
    # Commits
    # ------------------------------------------------------------------
    def commit(self, trial: TrialResult, k: int) -> StaResult:
        """Apply ``trial.edits[k]`` for real and make it the master state.

        Loads and the compiled form follow the edit as in
        :meth:`retime`.  If the trial was swept over the live master —
        the same window state, and no circuit edit since — column ``k``
        already holds the edited circuit's windows and states bit for
        bit, so the rows where it differs from the master are copied in
        and no cone is re-timed.  ``sta.incr.commits_adopted`` counts
        those commits; they add nothing to ``sta.incr.retime_s`` or
        ``sta.incr.gates_retimed``.  Any other commit re-times the edit
        like :meth:`retime`.  Each call is one ``sta.incr.commit_s``
        observation.

        Returns:
            The live master result, as :meth:`retime` returns it.
        """
        edit = trial.edits[k]
        log_len = len(self.circuit.edit_log)
        with self._obs.timer("sta.incr.commit_s"):
            adopt = (
                trial.base is not None
                and trial.base is self._cw
                and trial.log_len == log_len == self._log_pos
            )
            self._apply(edit.op, edit.line, edit.value)
            if not adopt:
                return self.retime()
            self._ingest_edits()
            self._sync_compiled()
            cw = self._cw
            arrays = (cw.a_s, cw.a_l, cw.t_s, cw.t_l)
            columns = (
                trial.a_s[:, k], trial.a_l[:, k],
                trial.t_s[:, k], trial.t_l[:, k],
            )
            state = trial.states[:, k]
            active = state != IMPOSSIBLE
            moved = cw.states != state
            for array, column in zip(arrays, columns):
                moved |= active & (array[:, 0] != column)
            rows = np.flatnonzero(moved)
            for array, column in zip(arrays, columns):
                array[rows, 0] = column[rows]
            cw.states[rows] = state[rows]
            lines = list(cw.line_index)
            self._view.forget(
                lines[i] for i in np.unique(rows % cw.n_lines).tolist()
            )
            self._m_adopted.inc()
        return StaResult(self.circuit, self._view)

    # ------------------------------------------------------------------
    # Edit ingestion
    # ------------------------------------------------------------------
    def _ingest_edits(self) -> Set[str]:
        """Fold pending circuit edits into loads / compiled state.

        Returns the seed set of the cone replay: every gate
        whose own windows may have changed *directly* — the edited gate
        (new cell or new fan-in) and the drivers of every line whose
        capacitive load moved.
        """
        log = self.circuit.edit_log
        if self._log_pos >= len(log):
            return set()
        edits = log[self._log_pos :]
        self._log_pos = len(log)
        self._m_edits.inc(len(edits))
        seeds: Set[str] = set()
        reload_lines: Set[str] = set()
        for edit in edits:
            gate = self.circuit.gates[edit.line]
            seeds.add(edit.line)
            if edit.op == "rewire":
                if edit.old == edit.new:
                    continue  # recorded no-op; nothing moved
                reload_lines.add(edit.old)
                reload_lines.add(edit.new)
                self._lvl = None
                self._compiled_stale = True
            else:
                # resize / swap: the gate's input caps changed, so every
                # fan-in line carries a different load.
                reload_lines.update(gate.inputs)
                self._queue_patch(edit.line)
        for line in reload_lines:
            self._recompute_load(line)
            driver = self.circuit.driver(line)
            if driver is not None:
                # The driver's own delay depends on its output load.
                seeds.add(driver.output)
                self._queue_patch(driver.output)
        # The analyzer's caches are now current; stop it from doing its
        # own (full, O(circuit)) refresh.
        self.analyzer._epoch = self.circuit.edit_epoch
        return seeds

    def _recompute_load(self, line: str) -> None:
        """Re-derive one line's load, bit-identical to ``compute_loads``
        (both sum through :func:`~repro.sta.analysis.line_load`)."""
        analyzer = self.analyzer
        analyzer._loads[line] = line_load(
            self.circuit, line, analyzer.cell_of, analyzer.config,
            self._outputs,
        )

    def _levels(self) -> Dict[str, int]:
        if self._lvl is None:
            self._lvl = self.circuit.levelize()
        return self._lvl

    # ------------------------------------------------------------------
    # Compiled-form maintenance
    # ------------------------------------------------------------------
    def _compiled(self):
        level = self.analyzer._level
        return None if level is None else level.compiled

    def _queue_patch(self, line: str) -> None:
        if self._compiled_stale:
            return
        if self._compiled() is None:
            # Nothing compiled yet; a future compile sees the current
            # circuit anyway.
            return
        self._patch_pending.add(line)

    def _sync_compiled(self) -> None:
        """Bring the compiled SoA form up to date with ingested edits.

        Coefficient-only edits are patched column-wise in place.  A
        structural edit, or a swap whose cell no longer fits its slot,
        drops the compile instead, and the next sweep or full pass
        recompiles the edited circuit (:meth:`TimingAnalyzer
        .level_engine`).  The window state survives the recompile: its
        rows follow ``circuit.lines``, which no edit reorders, and the
        replay that follows re-times every gate the edits can reach.
        """
        compiled = self._compiled()
        if compiled is None:
            self._patch_pending.clear()
            self._compiled_stale = False
            return
        if not self._compiled_stale:
            for line in self._patch_pending:
                if not compiled.can_patch(line):
                    self._compiled_stale = True
                    break
        if self._compiled_stale:
            self.analyzer._level = None  # rebuilt on next use
            self._compiled_stale = False
            self._m_rebuilds.inc()
        else:
            for line in sorted(self._patch_pending):
                compiled.patch_gate(line, self.analyzer._loads[line])
                self._m_load_patches.inc()
        self._patch_pending.clear()

    # ------------------------------------------------------------------
    # Convenience mutators
    # ------------------------------------------------------------------
    def resize_gate(self, line: str, size: float) -> StaResult:
        """Apply a resize and re-time its cone in one call."""
        self.circuit.resize_gate(line, size)
        return self.retime()

    def swap_cell(self, line: str, kind: str) -> StaResult:
        """Apply a cell swap and re-time its cone in one call."""
        self.circuit.swap_cell(line, kind)
        return self.retime()

    def rewire_input(self, line: str, pin: int, new_source: str) -> StaResult:
        """Apply a rewire and re-time its cone in one call."""
        self.circuit.rewire_input(line, pin, new_source)
        return self.retime()

    # ------------------------------------------------------------------
    def result(self) -> StaResult:
        """The current window state as a (live) :class:`StaResult`."""
        if self._view is None:
            return self.analyze()
        return StaResult(self.circuit, self._view)


def edits_since(circuit: Circuit, epoch: int) -> List[CircuitEdit]:
    """The circuit's edit-log suffix applied after ``epoch``."""
    return [e for e in circuit.edit_log if e.epoch > epoch]

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
  and a re-load rewrite only the gate's load-adjust terms, a swap
  rebuilds the gate; only structural edits (rewires) and swaps that
  change a gate's compiled slot recompile.  The window state survives
  a recompile: its rows follow ``circuit.lines``, which no edit
  reorders;
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
compile carries one column per corner library.  The *seed* gates of a
batch (each edited gate and the drivers of its re-loaded fan-in lines)
join the sweep at their own level with K columns of load terms: the
variant size or load in the columns whose edit touches them, the
master's elsewhere.  A column whose edit swaps the gate to a cell
that differs in more than its load terms keeps the master's
coefficients there and re-runs alone on the gate's one-gate build,
made by the compile's own code.  Every gate is thus computed inside
the kernels, from inputs that are already final.
:meth:`IncrementalAnalyzer.commit` applies the chosen edit for real and
adopts its column as the master state instead of re-timing its cone.

Early termination is *bitwise*, not tolerance-based: a timestamp/dirty-
bit scheme would either re-run the whole cone every time or risk serving
windows that differ from a fresh pass in the last ulp.  The differential
fuzz oracle ``incremental`` and the property tests enforce the contract
"after any edit sequence, stored windows == fresh full analysis",
across patches and recompiles.

Metrics are published under ``sta.incr.*``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..circuit.netlist import Circuit, CircuitEdit
from ..obs import get_registry
from .analysis import StaResult, TimingAnalyzer, line_load
from .compile import CompiledWindows, LiveTimings, load_variant
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
    analysis of the circuit with only ``edits[k]`` applied; the
    analyzer's own (master) state is untouched until
    :meth:`IncrementalAnalyzer.commit` adopts a column.  A batched sweep
    shares one state per row across its columns; the fallback, which
    runs each edit for real, keeps one per row and column.
    """

    circuit: Circuit
    edits: List[TrialEdit]
    #: Gates the sweep evaluated, seed gates included, each once for
    #: all K columns (the fallback counts the gates of every variant's
    #: own cone replay).
    cone_gates: int
    #: The master window state the columns were swept over and the
    #: edit-log length right after the sweep: a column is adopted by
    #: :meth:`IncrementalAnalyzer.commit` only while both are current.
    #: ``None`` for a trial that ran without it.
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
        #: (id(group), cols) -> (group.version, (subset, output rows,
        #: owning column per row)) — cones revisit
        #: the same group columns across edits (optimizer trial loops),
        #: so slices are memoized until a patch bumps the version.  The
        #: keys are ids of one compile's groups, which a recompile frees
        #: for reuse, so the memo resets whenever the compile it was
        #: filled from (``_subsets_of``) is replaced.
        self._subsets: Dict[Tuple[int, tuple], Tuple[int, object]] = {}
        self._subsets_of = None
        obs = get_registry()
        self._obs = obs
        self._m_edits = obs.counter("sta.incr.edits")
        self._m_retimes = obs.counter("sta.incr.retimes")
        self._m_gates = obs.counter("sta.incr.gates_retimed")
        self._m_early = obs.counter("sta.incr.early_terminations")
        self._m_load_patches = obs.counter("sta.incr.load_term_patches")
        self._m_rebuild_patches = obs.counter("sta.incr.rebuild_patches")
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
        """Level-batched cone replay over the persistent SoA state.

        Brings the compile up to date with the ingested edits first
        (patching it, or recompiling after a structural edit).  Per
        level, the dirty gates of each compiled group run as one
        column-subset kernel call; output rows are diffed bitwise to
        decide which fan-outs join the frontier.

        Returns:
            The number of gates swept.
        """
        self._sync_compiled()
        level = self.analyzer.level_engine()
        cw = self._cw
        arrays = (cw.a_s, cw.a_l, cw.t_s, cw.t_l)

        def run(sub, lines: List[str]) -> bool:
            level.run_group(sub, arrays, cw.states)
            return True

        with self._obs.timer("sta.incr.retime_s"):
            cone, changed, _ = self._sweep(seeds, arrays, cw.states, run)
            self._view.forget(changed)
        self._m_early.inc(cone - len(changed))
        self._m_gates.inc(cone)
        self._h_cone.observe(cone)
        return cone

    def _sweep(
        self,
        seeds: Iterable[str],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        run: Callable[[object, List[str]], bool],
    ) -> Optional[Tuple[int, List[str], int]]:
        """Level-ordered cone sweep over ``(2 * n_lines, B)`` SoA state.

        Per level, the pending gates of each compiled group form one
        column subset, which ``run(subset, lines)`` evaluates against
        ``arrays``/``states``.  Their output rows are then diffed
        bitwise against a snapshot taken before the call, and the
        fan-outs of every gate that changed in any column join the
        frontier.  ``run`` returns False to abandon the sweep.

        Returns:
            ``(gates swept, lines whose windows changed, gate-columns
            whose windows changed)``, or None when ``run`` abandoned the
            sweep.  The gate-columns are counted only while the registry
            is enabled (0 otherwise).
        """
        circuit = self.circuit
        locs = self.analyzer._level.compiled._locs
        level_of = self._levels()
        pending: Dict[int, Set[str]] = {}
        for line in seeds:
            pending.setdefault(level_of[line], set()).add(line)
        cone = moved_columns = 0
        changed: List[str] = []
        while pending:
            # Group the level's pending gates by compiled group.
            by_group: Dict[int, Tuple[object, List[Tuple[int, str]]]] = {}
            for line in pending.pop(min(pending)):
                group, col, _ = locs[line]
                by_group.setdefault(id(group), (group, []))[1].append(
                    (col, line)
                )
            for gid in sorted(by_group):
                group, cols_lines = by_group[gid]
                cols_lines.sort()
                cols = tuple(c for c, _ in cols_lines)
                sub, rows, row_gate = self._subset(group, cols)
                old = (states[rows], *(a[rows] for a in arrays))
                if not run(sub, [line for _, line in cols_lines]):
                    return None
                # A gate is clean iff every one of its output rows (one
                # per direction, ``row_gate`` names the owner) kept its
                # bits in every column.
                same = _rows_equal(old, arrays, states, rows)
                dirty = np.zeros(len(cols), dtype=bool)
                dirty[row_gate[~same.all(axis=1)]] = True
                if self._obs.enabled:
                    per_column = np.zeros((len(cols), same.shape[1]), bool)
                    r, k = np.nonzero(~same)
                    per_column[row_gate[r], k] = True
                    moved_columns += int(per_column.sum())
                cone += len(cols)
                for (_, line), moved in zip(cols_lines, dirty):
                    if not moved:
                        continue
                    changed.append(line)
                    for sink in circuit.fanouts(line):
                        out = sink.output
                        pending.setdefault(level_of[out], set()).add(out)
        return cone, changed, moved_columns

    def _subset(self, group, cols: Tuple[int, ...]):
        """Memoized column subset of one group of the current compile,
        with its output rows and the subset column owning each row."""
        compiled = self.analyzer._level.compiled
        if compiled is not self._subsets_of:
            self._subsets.clear()
            self._subsets_of = compiled
        key = (id(group), cols)
        hit = self._subsets.get(key)
        if hit is not None and hit[0] == group.version:
            return hit[1]
        if len(self._subsets) >= 4096:
            self._subsets.clear()
        self._m_cuts.inc()
        sub = group.cut(cols)
        entry = (sub, *sub.outputs())
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

        The K variants run as ONE level sweep with K columns.  Its
        seed gates — every edited gate and the drivers of its re-loaded
        fan-in lines — are swept at their own level like any other gate,
        with one column of load-adjust terms per edit: the variant size
        or load where that edit touches the gate, the master's elsewhere
        (see :meth:`_trial_builds`).  So the union cone costs one kernel
        call per group and level for all K variants, and no gate is
        computed outside the kernels.  A swap (say NAND2 -> NOR2, or
        NAND2 -> XOR2) keeps the master's coefficients in the shared
        group; the gate's one-gate build for the swapped cell then
        re-runs that column alone.  Only if that moves a window state,
        which the columns share, does the batch fall back to applying
        each edit for real (:meth:`_try_fallback`).
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
            result = self._try_batched(edits)
            if result is None:
                result = self._try_fallback(edits)
            return result

    def _try_batched(
        self, edits: List[TrialEdit]
    ) -> Optional[TrialResult]:
        """One K-column level sweep over the compiled level kernels.

        Returns None when a swap's solo column moves a window state:
        ``states`` is shared across columns, so the batch would be
        invalid.  Under the default (symmetric) boundary activation that
        does not happen; :meth:`_try_fallback` covers the rest.
        """
        level = self.analyzer.level_engine()
        master = self._cw
        K = len(edits)
        seeds, swaps = self._trial_builds(edits)
        arrays = tuple(
            np.repeat(a, K, axis=1)
            for a in (master.a_s, master.a_l, master.t_s, master.t_l)
        )
        states = master.states.copy()

        def run(sub, lines: List[str]) -> bool:
            seeded = [
                (col, seeds[line])
                for col, line in enumerate(lines) if line in seeds
            ]
            if seeded:
                # Widen only the leaves the seeds override, and never
                # write into the memoized subset.
                names = set().union(*(leaves for _, leaves in seeded))
                sub = sub.widen(K, names)
                for col, leaves in seeded:
                    sub.put(col, leaves)
            level.run_group(sub, arrays, states)
            for line in lines:
                for k, fresh in swaps.get(line, ()):
                    scratch = states.copy()
                    level.run_group(
                        fresh, tuple(a[:, k:k + 1] for a in arrays), scratch
                    )
                    if not np.array_equal(scratch, states):
                        return False
            return True

        swept = self._sweep(set(seeds) | set(swaps), arrays, states, run)
        if swept is None:
            return None
        cone, _, moved = swept
        self._h_trial_cone.observe(cone)
        self._m_trial_columns.inc(cone * K)
        self._m_trial_moved.inc(moved)
        return TrialResult(
            *arrays, states, master.line_index, master.n_lines,
            circuit=self.circuit, edits=edits, cone_gates=cone,
            base=master, log_len=len(self.circuit.edit_log),
        )

    def _trial_builds(self, edits: List[TrialEdit]):
        """The per-column leaves of a trial batch's seed gates.

        Each edit is resolved on the netlist — applied, read, reverted,
        so the netlist's own validation and :func:`line_load` apply —
        into its gate's variant cell and the re-derived loads of the
        gate's fan-in lines.  A seed column takes one of two paths:

        * load terms, when the column's cell is a load variant of the
          master's (:func:`~repro.sta.compile.load_variant`: a resized
          gate, the driver of a resized gate's input, or a column that
          leaves the gate alone): every seed gets its K columns of
          load-adjust terms
          (:meth:`~repro.sta.compile.CompiledCircuit.gate_load_terms`);
        * the solo one-gate build, for any other swap
          (:meth:`~repro.sta.compile.CompiledCircuit.build_gates`): the
          column keeps the master's coefficients in the shared group and
          re-runs alone on that build.

        Each is one call per group kind for the batch.

        Returns:
            ``(seeds, swaps)``: seed line -> its K columns of load terms
            by name, and swapped line -> ``[(k, one-gate build)]``.
        """
        circuit = self.circuit
        analyzer = self.analyzer
        compiled = analyzer._level.compiled
        #: seed line -> {column: cell} / {column: load} where they
        #: differ from the master's.
        cells: Dict[str, Dict[int, object]] = {}
        loads: Dict[str, Dict[int, float]] = {}
        swaps: List[Tuple[str, int, object]] = []
        try:
            for k, e in enumerate(edits):
                gate = circuit.gates[e.line]
                master = compiled._cell_for(gate)
                saved = gate.size if e.op == "resize" else gate.kind
                self._apply(e.op, e.line, e.value)
                try:
                    variant = compiled._cell_for(gate)
                    for line in dict.fromkeys(gate.inputs):
                        if line in circuit.gates:
                            loads.setdefault(line, {})[k] = line_load(
                                circuit, line, analyzer.cell_of,
                                analyzer.config, self._outputs,
                            )
                finally:
                    self._apply(e.op, e.line, saved)
                if load_variant(master, variant):
                    cells.setdefault(e.line, {})[k] = variant
                else:
                    swaps.append((e.line, k, variant))
        finally:
            # The apply/revert pairs are netlist no-ops: consume them so
            # the next retime doesn't replay them.
            self._log_pos = len(circuit.edit_log)
            analyzer._epoch = circuit.edit_epoch
        K = len(edits)
        lines = list(dict.fromkeys([*cells, *loads]))
        column_cells, column_loads = [], []
        for line in lines:
            own = compiled._cell_for(circuit.gates[line])
            cell_k = cells.get(line, {})
            load_k = loads.get(line, {})
            column_cells.append([cell_k.get(k, own) for k in range(K)])
            column_loads.append(
                [load_k.get(k, analyzer._loads[line]) for k in range(K)]
            )
        seeds = dict(zip(lines, compiled.gate_load_terms(
            column_cells, np.array(column_loads, dtype=float),
        )))
        solo: Dict[str, List[Tuple[int, object]]] = {}
        if swaps:
            for (line, k, _), fresh in zip(swaps, compiled.build_gates(
                [circuit.gates[line] for line, _, _ in swaps],
                [cell for _, _, cell in swaps],
                [analyzer._loads[line] for line, _, _ in swaps],
            )):
                solo.setdefault(line, []).append((k, fresh))
        self._m_seed_terms.inc(K * len(lines))
        self._m_seed_builds.inc(len(swaps))
        return seeds, solo

    def _try_fallback(self, edits: List[TrialEdit]) -> TrialResult:
        """Trial evaluation by real edits, for a batch whose columns'
        window states diverge.

        Each variant is applied for real, its cone replayed, the master
        state copied into its column, then the edit is reverted and
        replayed back: two solo cone replays per trial instead of one
        shared sweep, with identical results.
        """
        cw = self._cw
        master = (cw.a_s, cw.a_l, cw.t_s, cw.t_l)
        K = len(edits)
        arrays = tuple(np.empty((len(cw.states), K)) for _ in master)
        states = np.empty((len(cw.states), K), dtype=np.int8)
        cone = 0
        for k, e in enumerate(edits):
            gate = self.circuit.gates[e.line]
            saved = gate.size if e.op == "resize" else gate.kind
            self._apply(e.op, e.line, e.value)
            try:
                cone += self._replay(self._ingest_edits())
                for column, array in zip(arrays, master):
                    column[:, k] = array[:, 0]
                states[:, k] = cw.states
            finally:
                # Revert; the reverse replay restores the master bitwise.
                self._apply(e.op, e.line, saved)
                self.retime()
        self._h_trial_cone.observe(cone)
        return TrialResult(
            *arrays, states, cw.line_index, cw.n_lines,
            circuit=self.circuit, edits=edits, cone_gates=cone,
        )

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
        already holds the edited circuit's windows bit for bit, so the
        rows where it differs from the master are copied in and no cone
        is re-timed.  ``sta.incr.commits_adopted`` counts those commits;
        they add nothing to ``sta.incr.retime_s`` or
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
            active = cw.states != IMPOSSIBLE
            same = np.ones_like(active)
            for array, column in zip(arrays, columns):
                same &= array[:, 0] == column
            rows = np.flatnonzero(active & ~same)
            for array, column in zip(arrays, columns):
                array[rows, 0] = column[rows]
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
                if compiled.patch_gate(line, self.analyzer._loads[line]):
                    self._m_rebuild_patches.inc()
                else:
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

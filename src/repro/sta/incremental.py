"""Incremental STA: cone-limited re-timing of edited circuits.

Every engine in the repo so far answers a timing question with a full
forward pass.  The optimization workloads of the paper's Section 7 —
and the gate-sizing optimizer of :mod:`repro.sta.optimize` — instead ask
thousands of *nearly identical* questions: resize one gate, re-read the
WNS, revert.  :class:`IncrementalAnalyzer` makes each of those questions
cost only the part of the circuit that can actually see the edit.

How it works:

* the wrapped :class:`~repro.sta.analysis.TimingAnalyzer` runs one full
  pass and the per-line windows are kept as the *current state*;
* each mutation recorded in :attr:`repro.circuit.Circuit.edit_log`
  seeds a worklist with the edited gate plus the drivers of every line
  whose capacitive load changed (resizing a gate re-loads its fan-in);
* the worklist pops gates in level order and recomputes them, stopping
  at any gate whose recomputed windows are **bitwise-unchanged**
  (min/max corner reductions absorb most small perturbations, so cones
  collapse quickly);
* loads are re-derived per affected line through the same summation
  (:func:`~repro.sta.analysis.line_load`) as
  :func:`~repro.sta.analysis.compute_loads`, keeping them — and
  everything downstream — bit-identical to a fresh analyzer;
* coefficient-only edits (resize/cell swap) are patched into the
  :class:`~repro.sta.compile.CompiledCircuit` SoA arrays in place
  (:meth:`~repro.sta.compile.CompiledCircuit.patch_gate`), so neither
  re-timing nor a later full pass ever pays a recompile; only
  structural edits (rewires) or shape-changing swaps trigger one.

Re-timing itself comes in two gears.  Normally the analyzer keeps the
raw SoA window state of the last full (level-compiled) pass and
replays the cone *batched*: per level, the dirty
gates of each compiled group (at most one ctrl and one arc-table group
per level) are sliced into a column subset
(:func:`~repro.sta.compile.subset_group`) and run through the same
level kernels against the persistent state, then the output rows are
diffed bitwise to decide which fan-outs join the frontier.  That keeps
the per-gate cost of a re-time at full-pass kernel rates instead of
scalar rates — the difference between ~4x and ~20x+ on c7552s cones.
Right after a structural edit staled the compiled form, until the next
full pass recompiles it, the cone is recomputed gate-at-a-time through
``propagate_gate`` instead.

Early termination is *bitwise*, not tolerance-based: a timestamp/dirty-
bit scheme would either re-run the whole cone every time or risk serving
windows that differ from a fresh pass in the last ulp.  The differential
fuzz oracle ``incremental`` and the property tests enforce the contract
"after any edit sequence, stored windows == fresh full analysis" in
both gears.

Metrics are published under ``sta.incr.*``.
"""

from __future__ import annotations

import dataclasses
import heapq
from collections import ChainMap
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuit.netlist import Circuit, CircuitEdit
from ..obs import get_registry
from .analysis import StaResult, TimingAnalyzer, line_load
from .windows import IMPOSSIBLE, DirWindow, LineTiming


def _windows_equal(a: DirWindow, b: DirWindow) -> bool:
    """Bitwise window equality (IMPOSSIBLE windows carry NaN fields)."""
    if a.state != b.state:
        return False
    if a.state == IMPOSSIBLE:
        return True
    return (
        a.a_s == b.a_s
        and a.a_l == b.a_l
        and a.t_s == b.t_s
        and a.t_l == b.t_l
    )


def _timings_equal(a: LineTiming, b: LineTiming) -> bool:
    return _windows_equal(a.rise, b.rise) and _windows_equal(a.fall, b.fall)


def _dirty_gates(row_gate: np.ndarray, same: np.ndarray, n: int) -> np.ndarray:
    """Per subset column: did any of its output rows change?

    ``row_gate[r]`` is the column owning output row ``r`` (a gate owns
    one row per output direction) and ``same[r]`` says whether that row
    kept its bits, so a gate is clean iff every one of its rows is.
    """
    dirty = np.zeros(n, dtype=bool)
    dirty[row_gate[~same]] = True
    return dirty


def _rows_equal(
    old: Tuple[np.ndarray, ...],
    arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    states: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Bitwise row equality versus a pre-kernel snapshot.

    IMPOSSIBLE rows carry NaN fields, so state equality alone decides
    them; active rows must match on all four window floats exactly.
    """
    old_st, old_as, old_al, old_ts, old_tl = old
    st = states[rows]
    value_eq = (
        (old_as == arrays[0][rows, 0])
        & (old_al == arrays[1][rows, 0])
        & (old_ts == arrays[2][rows, 0])
        & (old_tl == arrays[3][rows, 0])
    )
    return (old_st == st) & ((st == IMPOSSIBLE) | value_eq)


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


class TrialResult:
    """Windows of K hypothetical single-edit circuit variants.

    Column ``k`` holds windows bitwise-identical to a fresh full
    analysis of the circuit with only ``edits[k]`` applied; the
    analyzer's own (master) state is untouched.
    """

    def __init__(
        self,
        circuit: Circuit,
        edits: List[TrialEdit],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        line_index: Dict[str, int],
        n_lines: int,
        cone_gates: int,
    ) -> None:
        self.circuit = circuit
        self.edits = edits
        self.a_s, self.a_l, self.t_s, self.t_l = arrays
        self.states = states  # (2n, K) int8 — per-column, unlike master
        self.line_index = line_index
        self.n_lines = n_lines
        #: Gate evaluations the sweep spent across all K columns.
        self.cone_gates = cone_gates

    @property
    def n_trials(self) -> int:
        return self.a_s.shape[1]

    def row(self, line: str, rising: bool) -> int:
        idx = self.line_index[line]
        return idx if rising else idx + self.n_lines

    def window(self, line: str, rising: bool, k: int) -> DirWindow:
        r = self.row(line, rising)
        state = int(self.states[r, k])
        if state == IMPOSSIBLE:
            return DirWindow.impossible()
        return DirWindow(
            a_s=float(self.a_s[r, k]),
            a_l=float(self.a_l[r, k]),
            t_s=float(self.t_s[r, k]),
            t_l=float(self.t_l[r, k]),
            state=state,
        )

    def line_timing(self, line: str, k: int) -> LineTiming:
        return LineTiming(
            rise=self.window(line, True, k),
            fall=self.window(line, False, k),
        )

    def timings(self, k: int) -> Dict[str, LineTiming]:
        """Variant ``k``'s full per-line timing dict (test/debug aid)."""
        return {line: self.line_timing(line, k) for line in self.line_index}

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
        vals = np.where(active, self.a_l[rows], -np.inf)
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
        analyzer: The wrapped analyzer.  Full passes run on its
            level-compiled engine; per-gate recomputation goes through
            its gate-level corner searches, which the parity contract
            guarantees are bitwise-identical to the compiled pass.

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
        self._log_pos = len(self.circuit.edit_log)
        self._timings: Optional[Dict[str, LineTiming]] = None
        self._outputs = set(self.circuit.outputs)
        self._pos: Optional[Dict[str, int]] = None
        self._lvl: Optional[Dict[str, int]] = None
        #: Compiled-form bookkeeping.
        self._patch_pending: Set[str] = set()
        self._compiled_stale = False
        #: Persistent SoA window state of the last full level pass; the
        #: batched cone re-timer mutates it in place.
        self._cw = None
        #: The compile ``_cw`` came from (see :meth:`_batched_ready`).
        self._cw_of = None
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
        self._m_patches = obs.counter("sta.incr.patches")
        self._m_rebuilds = obs.counter("sta.incr.full_rebuilds")
        self._m_full = obs.counter("sta.incr.full_passes")
        self._m_trials = obs.counter("sta.incr.trials")
        self._m_trial_batches = obs.counter("sta.incr.trial_batches")
        self._h_cone = obs.histogram("sta.incr.cone_gates")
        self._h_trial_cone = obs.histogram("sta.incr.trial_cone_gates")

    # ------------------------------------------------------------------
    # Full pass
    # ------------------------------------------------------------------
    def analyze(self) -> StaResult:
        """Run a full pass and (re)baseline the incremental state."""
        self._ingest_edits()
        self._sync_compiled()
        result = self.analyzer.analyze()
        self._timings = result.timings
        self._cw = self.analyzer._level.last_windows
        self._cw_of = self.analyzer._level.compiled
        self._m_full.inc()
        return result

    def _batched_ready(self) -> bool:
        """Whether the batched gear may replay cones over ``_cw``.

        ``_cw`` is only current alongside the compile it came from
        (patched in place or not).  A compile built since — say by
        ``compute_required`` after a rewire dropped the old one — has
        not seen the per-gate gear's updates, so until the next full
        pass the per-gate gear stays in charge.
        """
        level = self.analyzer._level
        return level is not None and level.compiled is self._cw_of

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
        if self._timings is None:
            return self.analyze()
        self._m_retimes.inc()
        if not seeds:
            return StaResult(self.circuit, self._timings)
        self._sync_compiled()
        if self._batched_ready():
            return self._retime_batched(seeds)
        return self._retime_scalar(seeds)

    def _retime_scalar(self, seeds: Set[str]) -> StaResult:
        """Gate-at-a-time cone replay through ``propagate_gate``.

        The gear for a staled compiled form (after a structural edit,
        until the next full pass recompiles).
        """
        analyzer = self.analyzer
        circuit = self.circuit
        timings = self._timings
        pos = self._positions()
        cone = 0
        with self._obs.timer("sta.incr.retime_s"):
            heap = [(pos[line], line) for line in seeds]
            heapq.heapify(heap)
            done: Set[str] = set()
            while heap:
                _, line = heapq.heappop(heap)
                if line in done:
                    continue
                done.add(line)
                gate = circuit.gates[line]
                new = analyzer.propagate_gate(gate, timings)
                cone += 1
                if _timings_equal(new, timings[line]):
                    # Unchanged output: nothing downstream can differ.
                    self._m_early.inc()
                    continue
                timings[line] = new
                for sink in circuit.fanouts(line):
                    out = sink.output
                    if out not in done:
                        heapq.heappush(heap, (pos[out], out))
        self._m_gates.inc(cone)
        self._h_cone.observe(cone)
        return StaResult(circuit, timings)

    def _retime_batched(self, seeds: Set[str]) -> StaResult:
        """Level-batched cone replay over the persistent SoA state.

        Per level, the dirty gates of each compiled group run as one
        column-subset kernel call; output rows are diffed bitwise to
        decide which fan-outs join the frontier.  Requires a current
        (patched) compiled circuit — :meth:`retime` falls back to the
        scalar path otherwise.
        """
        circuit = self.circuit
        level = self.analyzer._level
        locs = level.compiled._locs
        cw = self._cw
        arrays = (cw.a_s, cw.a_l, cw.t_s, cw.t_l)
        states = cw.states
        timings = self._timings
        level_of = self._levels()
        pending: Dict[int, Set[str]] = {}
        for line in seeds:
            pending.setdefault(level_of[line], set()).add(line)
        cone = 0
        with self._obs.timer("sta.incr.retime_s"):
            while pending:
                depth = min(pending)
                # Group the level's dirty gates by compiled group.
                by_group: Dict[int, List[Tuple[int, str]]] = {}
                groups: Dict[int, object] = {}
                for line in pending.pop(depth):
                    group, col, _ = locs[line]
                    by_group.setdefault(id(group), []).append((col, line))
                    groups[id(group)] = group
                for gid, cols_lines in sorted(by_group.items()):
                    cols_lines.sort()
                    group = groups[gid]
                    cols = tuple(c for c, _ in cols_lines)
                    sub, rows, row_gate = self._subset(group, cols)
                    old = (
                        states[rows].copy(),
                        arrays[0][rows, 0].copy(),
                        arrays[1][rows, 0].copy(),
                        arrays[2][rows, 0].copy(),
                        arrays[3][rows, 0].copy(),
                    )
                    level.run_group(sub, arrays, states)
                    dirty = _dirty_gates(
                        row_gate, _rows_equal(old, arrays, states, rows),
                        len(cols),
                    )
                    cone += len(cols)
                    self._m_early.inc(len(cols) - int(dirty.sum()))
                    for (col, line), changed in zip(cols_lines, dirty):
                        if not changed:
                            continue
                        timings[line] = cw.line_timing(line)
                        for sink in circuit.fanouts(line):
                            out = sink.output
                            pending.setdefault(level_of[out], set()).add(out)
        self._m_gates.inc(cone)
        self._h_cone.observe(cone)
        return StaResult(circuit, timings)

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
        from .compile import subset_group

        if len(self._subsets) >= 4096:
            self._subsets.clear()
        sub = subset_group(group, cols)
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
                (``resize``/``swap``) applied **alone** to the current
                circuit.

        Returns:
            A :class:`TrialResult` whose column ``k`` is
            bitwise-identical to a fresh full analysis of the circuit
            with only ``edits[k]`` applied.  The circuit and the master
            window state are left exactly as they were (the internal
            apply/revert pairs appear in the edit log but are consumed
            here).

        With a current compiled form the K variants run as ONE batched
        cone sweep with K columns: each variant's edited gate and
        re-loaded fan-in drivers are seeded scalarly into its own column
        (their coefficients differ per variant), then the union cone
        replays through the subset kernels with the seeded rows
        re-pinned after every call.  That amortizes the kernels' fixed
        cost K ways — the optimizer's per-candidate cost drops an order
        of magnitude below a solo re-time.
        """
        edits = [
            e if isinstance(e, TrialEdit) else TrialEdit(*e) for e in edits
        ]
        if not edits:
            raise ValueError("try_edits needs at least one edit")
        for e in edits:
            if e.op not in ("resize", "swap"):
                raise ValueError(
                    "trial edits must be coefficient-only (resize/swap), "
                    f"got {e.op!r}"
                )
        # Settle any pending real edits so the master baseline is current.
        if self._timings is None:
            self.analyze()
        else:
            self.retime()
        self._m_trials.inc(len(edits))
        self._m_trial_batches.inc()
        with self._obs.timer("sta.incr.trial_s"):
            if self._batched_ready():
                result = self._try_batched(edits)
                if result is not None:
                    return result
            return self._try_fallback(edits)

    def _try_batched(
        self, edits: List[TrialEdit]
    ) -> Optional[TrialResult]:
        """One K-column cone sweep over the compiled level kernels.

        Returns None when a seeded window's state diverges from the
        master's — ``states`` is shared across columns, so the batch
        would be invalid.  Under the default (symmetric) boundary
        activation that cannot happen; the fallback covers the rest.
        """
        analyzer = self.analyzer
        circuit = self.circuit
        level = analyzer._level
        locs = level.compiled._locs
        master = self._cw
        K = len(edits)
        m_arrays = (master.a_s, master.a_l, master.t_s, master.t_l)
        arrays = tuple(np.repeat(a, K, axis=1) for a in m_arrays)
        states = master.states.copy()
        pos = self._positions()
        level_of = self._levels()
        #: line -> [[column, gate snapshot, trial load, timing, input
        #: signature]] for every seeded row.  The kernels re-run these
        #: gates with master coefficients, so after every kernel call
        #: their columns are re-pinned — and a pin whose column inputs
        #: moved since it was computed is *recomputed* scalarly with the
        #: snapshot's coefficients (a re-loaded fan-in driver can be
        #: reachable from another one through non-seed gates, so the
        #: seed-phase value can go stale mid-sweep).
        pins: Dict[str, List[list]] = {}
        pending: Dict[int, Set[str]] = {}
        diverged = False
        try:
            for k, e in enumerate(edits):
                if e.op == "resize":
                    saved = circuit.gates[e.line].size
                    circuit.resize_gate(e.line, e.value)
                else:
                    saved = circuit.gates[e.line].kind
                    circuit.swap_cell(e.line, e.value)
                analyzer._epoch = circuit.edit_epoch
                fanin = list(circuit.gates[e.line].inputs)
                saved_loads = {l: analyzer._loads[l] for l in fanin}
                try:
                    for l in fanin:
                        self._recompute_load(l)
                    # The gates whose outputs can differ *directly* in
                    # this variant: the edited gate plus the drivers of
                    # its (re-loaded) fan-in.  Seed in topo order — a
                    # driver may feed another seed.
                    seeds = {e.line}
                    for l in fanin:
                        drv = circuit.driver(l)
                        if drv is not None:
                            seeds.add(drv.output)
                    overlay: Dict[str, LineTiming] = {}
                    view = ChainMap(overlay, self._timings)
                    for s in sorted(seeds, key=pos.__getitem__):
                        gate = circuit.gates[s]
                        t = analyzer.propagate_gate(gate, view)
                        overlay[s] = t
                        if not self._seed_trial(arrays, states, s, t, k):
                            diverged = True
                        snap = dataclasses.replace(
                            gate, inputs=list(gate.inputs)
                        )
                        pins.setdefault(s, []).append([
                            k, snap, analyzer._loads[s], t,
                            self._view_sig(snap, view),
                        ])
                        if not _timings_equal(t, self._timings[s]):
                            for sink in circuit.fanouts(s):
                                pending.setdefault(
                                    level_of[sink.output], set()
                                ).add(sink.output)
                finally:
                    # Revert the hypothetical edit; loads restore
                    # bitwise from the saved originals.
                    if e.op == "resize":
                        circuit.resize_gate(e.line, saved)
                    else:
                        circuit.swap_cell(e.line, saved)
                    for l, v in saved_loads.items():
                        analyzer._loads[l] = v
                    analyzer._epoch = circuit.edit_epoch
                if diverged:
                    break
        finally:
            # The apply/revert pairs are netlist no-ops: consume them so
            # the next retime doesn't replay them.
            self._log_pos = len(circuit.edit_log)
        if diverged:
            return None
        cone = 0
        while pending:
            depth = min(pending)
            by_group: Dict[int, List[Tuple[int, str]]] = {}
            groups: Dict[int, object] = {}
            for line in pending.pop(depth):
                group, col, _ = locs[line]
                by_group.setdefault(id(group), []).append((col, line))
                groups[id(group)] = group
            for gid, cols_lines in sorted(by_group.items()):
                cols_lines.sort()
                group = groups[gid]
                cols = tuple(c for c, _ in cols_lines)
                sub, rows, row_gate = self._subset(group, cols)
                level.run_group(sub, arrays, states)
                for _, line in cols_lines:
                    entries = pins.get(line)
                    if entries and not self._repin_trial(
                        arrays, states, line, entries
                    ):
                        return None  # state diverged mid-sweep
                st_imp = (states[rows] == IMPOSSIBLE)[:, None]
                eq = (
                    (arrays[0][rows] == m_arrays[0][rows])
                    & (arrays[1][rows] == m_arrays[1][rows])
                    & (arrays[2][rows] == m_arrays[2][rows])
                    & (arrays[3][rows] == m_arrays[3][rows])
                ) | st_imp
                dirty = _dirty_gates(row_gate, eq.all(axis=1), len(cols))
                cone += len(cols)
                for (_, line), changed in zip(cols_lines, dirty):
                    if not changed:
                        continue
                    for sink in circuit.fanouts(line):
                        out = sink.output
                        pending.setdefault(level_of[out], set()).add(out)
        self._h_trial_cone.observe(cone)
        trial_states = np.repeat(states[:, None], K, axis=1)
        return TrialResult(
            circuit,
            edits,
            arrays,
            trial_states,
            master.line_index,
            master.n_lines,
            cone,
        )

    def _seed_trial(
        self,
        arrays: Tuple[np.ndarray, ...],
        states: np.ndarray,
        line: str,
        timing: LineTiming,
        k: int,
    ) -> bool:
        """Write one seeded timing into trial column ``k``.

        Returns False when the window's state differs from the master's
        (the 1-D ``states`` is shared across columns; coefficient-only
        edits never move states under symmetric boundary activation, but
        the contract is enforced, not assumed).
        """
        cw = self._cw
        for rising, w in ((True, timing.rise), (False, timing.fall)):
            r = cw.row(line, rising)
            if w.state != int(states[r]):
                return False
            if w.state != IMPOSSIBLE:
                arrays[0][r, k] = w.a_s
                arrays[1][r, k] = w.a_l
                arrays[2][r, k] = w.t_s
                arrays[3][r, k] = w.t_l
        return True

    def _repin_trial(
        self,
        arrays: Tuple[np.ndarray, ...],
        states: np.ndarray,
        line: str,
        entries: List[list],
    ) -> bool:
        """Restore seeded rows after a kernel rewrote them.

        A pin whose column inputs are bitwise-unchanged since its timing
        was computed just writes that timing back.  If the inputs moved
        (another seed's change propagated here through non-seed gates),
        the gate is recomputed scalarly with the snapshot's coefficients
        against the column's *current* windows, and the entry updated.
        Returns False when a recomputed state diverges from the shared
        master states — the batch is then invalid (caller falls back).
        """
        analyzer = self.analyzer
        cw = self._cw
        for entry in entries:
            k, gate, load, timing, sig = entry
            cur = self._array_sig(gate, arrays, states, k)
            if cur != sig:
                view = {
                    lin: self._trial_timing(arrays, states, lin, k)
                    for lin in gate.inputs
                }
                saved = analyzer._loads[line]
                analyzer._loads[line] = load
                try:
                    timing = analyzer.propagate_gate(gate, view)
                finally:
                    analyzer._loads[line] = saved
                entry[3] = timing
                entry[4] = cur
            for rising, w in ((True, timing.rise), (False, timing.fall)):
                r = cw.row(line, rising)
                if w.state != int(states[r]):
                    return False
                if w.state != IMPOSSIBLE:
                    arrays[0][r, k] = w.a_s
                    arrays[1][r, k] = w.a_l
                    arrays[2][r, k] = w.t_s
                    arrays[3][r, k] = w.t_l
        return True

    def _trial_timing(
        self,
        arrays: Tuple[np.ndarray, ...],
        states: np.ndarray,
        line: str,
        k: int,
    ) -> LineTiming:
        """Materialize one line's column-``k`` windows from the arrays."""
        cw = self._cw
        ws = []
        for rising in (True, False):
            r = cw.row(line, rising)
            st = int(states[r])
            if st == IMPOSSIBLE:
                ws.append(DirWindow.impossible())
            else:
                ws.append(DirWindow(
                    a_s=float(arrays[0][r, k]),
                    a_l=float(arrays[1][r, k]),
                    t_s=float(arrays[2][r, k]),
                    t_l=float(arrays[3][r, k]),
                    state=st,
                ))
        return LineTiming(rise=ws[0], fall=ws[1])

    @staticmethod
    def _view_sig(gate, view) -> tuple:
        """Input-window signature of ``gate`` under a timing mapping."""
        sig = []
        for lin in gate.inputs:
            t = view[lin]
            for w in (t.rise, t.fall):
                sig.append(
                    None if w.state == IMPOSSIBLE
                    else (w.a_s, w.a_l, w.t_s, w.t_l)
                )
        return tuple(sig)

    def _array_sig(
        self,
        gate,
        arrays: Tuple[np.ndarray, ...],
        states: np.ndarray,
        k: int,
    ) -> tuple:
        """Input-window signature of ``gate`` from trial column ``k``."""
        cw = self._cw
        sig = []
        for lin in gate.inputs:
            for rising in (True, False):
                r = cw.row(lin, rising)
                if int(states[r]) == IMPOSSIBLE:
                    sig.append(None)
                else:
                    sig.append((
                        float(arrays[0][r, k]),
                        float(arrays[1][r, k]),
                        float(arrays[2][r, k]),
                        float(arrays[3][r, k]),
                    ))
        return tuple(sig)

    def _try_fallback(self, edits: List[TrialEdit]) -> TrialResult:
        """Trial evaluation without the compiled SoA state.

        Each variant is applied for real, re-timed, snapshotted into its
        column, then reverted (and re-timed back) — two solo re-times
        per trial instead of one shared batched sweep, but identical
        results.
        """
        circuit = self.circuit
        lines = circuit.lines
        n = len(lines)
        index = {line: i for i, line in enumerate(lines)}
        K = len(edits)
        arrays = tuple(np.full((2 * n, K), np.nan) for _ in range(4))
        states = np.full((2 * n, K), IMPOSSIBLE, dtype=np.int8)
        base = self._timings
        # Pre-fill every column with the master state; the per-variant
        # loop then overwrites only what its retime actually changed.
        for line, i in index.items():
            t = base[line]
            for r, w in ((i, t.rise), (i + n, t.fall)):
                states[r, :] = w.state
                if w.state != IMPOSSIBLE:
                    arrays[0][r, :] = w.a_s
                    arrays[1][r, :] = w.a_l
                    arrays[2][r, :] = w.t_s
                    arrays[3][r, :] = w.t_l
        cone = 0
        for k, e in enumerate(edits):
            prev = dict(base)
            if e.op == "resize":
                saved = circuit.gates[e.line].size
                circuit.resize_gate(e.line, e.value)
            else:
                saved = circuit.gates[e.line].kind
                circuit.swap_cell(e.line, e.value)
            try:
                res = self.retime()
                for line, t in res.timings.items():
                    if t is prev.get(line):
                        continue  # retime replaces changed entries only
                    cone += 1
                    i = index[line]
                    for r, w in ((i, t.rise), (i + n, t.fall)):
                        states[r, k] = w.state
                        if w.state != IMPOSSIBLE:
                            arrays[0][r, k] = w.a_s
                            arrays[1][r, k] = w.a_l
                            arrays[2][r, k] = w.t_s
                            arrays[3][r, k] = w.t_l
                        else:
                            arrays[0][r, k] = np.nan
                            arrays[1][r, k] = np.nan
                            arrays[2][r, k] = np.nan
                            arrays[3][r, k] = np.nan
            finally:
                # Revert; the reverse retime restores the master bitwise.
                if e.op == "resize":
                    circuit.resize_gate(e.line, saved)
                else:
                    circuit.swap_cell(e.line, saved)
                self.retime()
        self._h_trial_cone.observe(cone)
        return TrialResult(circuit, edits, arrays, states, index, n, cone)

    # ------------------------------------------------------------------
    # Edit ingestion
    # ------------------------------------------------------------------
    def _ingest_edits(self) -> Set[str]:
        """Fold pending circuit edits into loads / compiled state.

        Returns the seed set for the re-timing worklist: every gate
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
                self._pos = None
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

    def _positions(self) -> Dict[str, int]:
        if self._pos is None:
            self._pos = {
                line: i
                for i, line in enumerate(self.circuit.topological_order())
            }
        return self._pos

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
        """Bring the compiled SoA form up to date before a full pass.

        Coefficient-only edits are patched column-wise in place; only
        structural edits (or shape-changing swaps) pay a recompile.
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
            self.analyzer._level = None  # rebuilt lazily by analyze()
            self._compiled_stale = False
            self._m_rebuilds.inc()
        else:
            for line in sorted(self._patch_pending):
                compiled.patch_gate(line, self.analyzer._loads[line])
                self._m_patches.inc()
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
        if self._timings is None:
            return self.analyze()
        return StaResult(self.circuit, self._timings)


def edits_since(circuit: Circuit, epoch: int) -> List[CircuitEdit]:
    """The circuit's edit-log suffix applied after ``epoch``."""
    return [e for e in circuit.edit_log if e.epoch > epoch]

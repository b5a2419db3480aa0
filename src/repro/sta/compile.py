"""Level-compiled structure-of-arrays STA: the whole-circuit fast pass.

:class:`repro.sta.analysis.TimingAnalyzer` walks the circuit one gate at
a time, so its full pass pays Python dispatch and window (un)boxing
per gate and per corner candidate.  This module
compiles circuit + library **once** into a level-ordered
structure-of-arrays form and then evaluates each *level* in a handful of
NumPy ops:

* every line direction becomes one row of four big ``(2 * n_lines, B)``
  arrays (``A_S`` / ``A_L`` / ``T_S`` / ``T_L``) plus a structural
  ``(2 * n_lines,)`` state vector — rise rows first, fall rows offset by
  ``n_lines``;
* every level compiles to at most two kernel groups: one for its
  controlling-value gates (AND / OR / NAND / NOR of any fan-in) and one
  for its arc-table gates (INV / BUF / XOR), so a pass makes at most two
  kernel calls per level;
* a forward pass gathers each group's input windows, evaluates the DR /
  D0R / SR corner-candidate surfaces for all its gates at once — the
  same candidate sets as :mod:`repro.sta.corners`, with inactive inputs
  carried as NaN and masked out of every reduction — and scatters the
  output windows;
* a backward pass (:meth:`LevelCompiledAnalyzer.required`) walks the
  same levels in reverse over the same groups, turning each output's
  required-time window into per-arc bounds on its inputs and folding
  them in with ``np.maximum.at`` / ``np.minimum.at``.

The ragged layout.  Gates of different fan-in share one group without
padding; each group is a set of flat *axes*, every one gate-major, so a
gate owns one contiguous run of elements on each:

* **lanes** — one per (gate, pin) of a ctrl gate, or one per arc of an
  arc-table gate's output direction.  A lane carries its input row(s),
  the table row of its arcs (``pack``) and its gate's load terms
  (``adj``); a ctrl lane holds both responses' on a response axis
  before the lanes (0 to-controlling, 1 to-non-controlling: ``in_rows``,
  ``adj``, the table's arcs, and per gate ``out_rows``), so the kernel
  runs both at once;
* **pairs** — a ctrl gate's real pin pairs ``a < b < fan-in``;
* **combos** — the four endpoint combinations of each pair, carrying
  the table row of their pair scale, their gate and their pins' lanes,
  and the rows of both endpoints in the level's clamped-endpoint grid
  (``ends``, into ``(lanes, 2)`` flattened, so every real endpoint is
  cube-rooted once);
* smaller axes for the overlap-depth pin pairs and the Λ-peak gates,
  lanes and combos, which exist only for gates with peak data.  A
  Λ-peak lane is an index into the lanes: the peak's tails are the
  pin's to-non-controlling arcs, so the merge reads their rows
  (``pack[1]``), their delay terms (``adj[0, 1]``) and the endpoints
  the pin-to-pin bounds clamped against them.  The backward pass's
  (pin, partner) candidates are derived from per-fan-in templates when
  it runs.

Per-gate results are ``np.minimum`` / ``np.maximum`` /
``np.logical_or`` / ``np.add`` ``.reduceat`` over each gate's run.
``reduceat`` returns the run's first element for an *empty* run, so no
run may be empty: every ctrl gate has at least one pair, and an arc
direction without arcs stays outside the lanes (``no_arc_rows``).

Compile.  The paper characterizes its K-coefficient formulas once per
cell, and so does the compile: one table per group kind
(:class:`_CtrlTable`, :class:`_ArcTable`) holds the coefficient rows of
every cell of the library set, with the corner axis, packed straight
from the cell's records (arcs by :func:`_arc_rows`, each with its
quadratics' interior T* point and value, so no call divides for them).
Group leaves are integer rows into a table, the global state or another
axis ``(..., N)``, and the load terms ``(..., N, C)`` (``C`` corner
libraries on the trailing axis), so every coefficient is held once and
each kernel call gathers its own.  All gates of one kind are built in
one go in (level, topological) order, each level's group a contiguous
cut of them.  Each group's ``AXES`` table names the axis of every leaf
and, for an index leaf, the axis it points into; column subsets
(:meth:`_Ragged.cut`) and in-place patches
(:meth:`CompiledCircuit.patch_gate`) walk it.

Cell leaves.  A gate's cell decides its load terms, ``slope * (load -
ref_load)`` per lane, its table rows and its rows of the global state
(its polarities), computed in one place, :func:`cell_leaves`, for the
builds, the patches and the what-if trials alike; its slot
(:func:`_slot_key`) decides every other leaf.  A sized variant
(:func:`~repro.characterize.library.sized_cell`) reads its base cell's
rows, so a resize or a re-load moves only the load terms, a swap inside
the slot only the cell leaves, and only a swap that changes the slot
builds its gate again.

Sharing.  A compile splits into the parts that depend on less: the
circuit's :class:`CircuitLayout` (one per edit epoch), the library part
(:class:`CompiledCircuit`: resolved cells, loads, the coefficient
tables and the groups' pin-to-pin leaves, one per library set) and the
model leaves (pair merge and Λ-peak, built when a model first needs
them).
:data:`COMPILES` hands every analyzer of one circuit, epoch, library set
and pair of boundary loads the same compile, so a sign-off job builds
one layout and one load sweep, not one per analyzer.  A pass picks its
merges from its own model, so one compile serves every model; the
incremental engine builds a compile of its own, which it patches.

The trailing axis ``B`` generalizes the Monte Carlo engine's trailing
sample axis (:mod:`repro.stat.engine`): it batches MC samples (via
per-gate variation ``factors``), PVT corners (a corner-batched compile)
and what-if trial columns (:mod:`repro.sta.incremental`) through the
very same compiled pass.

Exactness contract: the pass is **bit-identical** to the scalar
reference and to :class:`TimingAnalyzer`.  Cube roots go through
:func:`~repro.sta.kernels.cbrt_grid`; every reduction is a min, a max,
a logical or or an integer count, which no grouping or ordering of the
operands can change, and masked reductions pad with ``±inf`` (identity
under min/max); every other operation is elementwise on the same
operands as the scalar code — stacked surface evaluation repeats the
exact expression of :mod:`repro.characterize.formulas` with each
combo's own cell's coefficient rows, the pair-overlap predicate uses
the exact
``a_s <= a_l + OVERLAP_TOL`` form of
:meth:`~repro.sta.windows.DirWindow.overlaps_arrivals`, and every load
adjustment repeats the scalar expression of
:meth:`~repro.characterize.library.CellTiming.load_adjusted_delay`.
The backward pass keeps the same contract against
:meth:`~repro.sta.analysis.TimingAnalyzer.compute_required_per_gate`.
The ``test_sta_compile`` parity suite and the ``level`` fuzz oracle
enforce this.

The pair merges are one fold.  The Λ-peak is the V-shape mirrored:
:meth:`LevelCompiledAnalyzer._pair_merge` minimizes ``floor(δ) +
V(δ)`` over the earliest arrivals, :meth:`~LevelCompiledAnalyzer
._peak_merge` maximizes ``ceiling(δ) + Λ(δ)`` over the latest, and both
call :func:`~repro.sta.kernels.fold_pairs` with their reduction
(``np.minimum`` or ``np.maximum``) and arrival rows, their endpoint
tails from the one expression of :func:`~repro.sta.kernels.end_tails`.
The fold computes each of the six skew breakpoints (the window edges,
the arrival offset, zero skew, +S and −S) once, at the coarsest axis it
depends on, and at zero skew and ±S writes the value the shape's
branches return there.  That is the scalar value when both saturation
skews are > 0: they are fitted values floored at ``_S_FLOOR`` (1e-12)
times the variation factor and the derate, which
:meth:`LevelCompiledAnalyzer.propagate` requires to be finite and > 0
(:func:`check_derates`); the product underflows to zero only for
factor times derate below about 2.5e-312.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import threading
import weakref
from collections.abc import Mapping
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

import numpy as np

from ..characterize.library import (
    CellLibrary,
    CellTiming,
    SimultaneousTiming,
    TimingArc,
    pair_key,
    parse_sized_name,
)
from ..circuit.netlist import Circuit, Gate, UnknownCellError
from ..models.base import DelayModel
from ..models.vshape import VShapeModel
from ..obs import get_registry
from .analysis import StaConfig, StaResult, compute_loads, fanin_arcs
from .kernels import (
    Workspace,
    _trans_v,
    anchor_surfaces,
    cbrt_grid,
    end_tails,
    fold_pairs,
    quad_extremes_batch,
    ratio_table,
    trans_anchor_surfaces,
)
from .windows import (
    DEFINITE,
    IMPOSSIBLE,
    OVERLAP_TOL,
    POTENTIAL,
    DirWindow,
    LineRequired,
    LineTiming,
    RequiredWindow,
)

def _is_ctrl(cell: CellTiming) -> bool:
    """Whether a cell's gates join the ctrl groups (else the arc-table
    groups)."""
    return cell.controlling_value is not None and cell.n_inputs >= 2


def _slot_key(cell: CellTiming, peak_enabled: bool) -> tuple:
    """The run lengths a cell's gate occupies on every group axis.

    Two cells with the same key give a gate the same number of lanes,
    pairs, combos and peak elements, which is exactly the condition
    under which one gate's columns can be rewritten in place
    (:meth:`CompiledCircuit.patch_gate`).  ``key[0]`` names the group
    kind (``"ctrl"`` or ``"arc"``).
    """
    if _is_ctrl(cell):
        uses_peak = peak_enabled and getattr(cell, "nonctrl", None) is not None
        return ("ctrl", cell.n_inputs, uses_peak)
    return (
        "arc", cell.n_inputs,
        len(fanin_arcs(cell, True)), len(fanin_arcs(cell, False)),
    )


def _same_structure(
    cell: CellTiming, other: CellTiming, peak_enabled: bool
) -> bool:
    """Whether ``other`` lays a gate out exactly as ``cell`` does.

    Slot key, controlling value, output polarity and arc presence decide
    a gate's gather rows and index leaves; coefficients may differ.  Two
    such cells can be one gate's coefficient columns in one group, as
    the corner libraries of a corner-batched compile are.
    """
    return (
        _slot_key(cell, peak_enabled) == _slot_key(other, peak_enabled)
        and cell.controlling_value == other.controlling_value
        and (cell.ctrl is None) == (other.ctrl is None)
        and (
            cell.ctrl is None or cell.ctrl.out_rising == other.ctrl.out_rising
        )
        and all(
            cell.has_arc(p, d, o) == other.has_arc(p, d, o)
            for p in range(cell.n_inputs)
            for d in (True, False)
            for o in (True, False)
        )
    )


# ----------------------------------------------------------------------
# Stacked surfaces: per-element coefficient rows
# ----------------------------------------------------------------------
# Each record keeps all its coefficients in one ``(k, N, C)`` array, so a
# gather touches one array per record; the named coefficients are views
# of its first axis.  The evaluators repeat the source
# expressions' float operations in their order, into the workspace
# buffer ``name`` (partial terms in ``ws["term"]``): ``(..., N, B)``
# values at ``(N, B)`` points.
@dataclasses.dataclass(frozen=True)
class _StackedRoots:
    """Per-element rows of :class:`CubeRootSurface` coefficients.

    ``eval_roots`` repeats the source expression verbatim, so each
    element sees the exact float ops of its own cell's surface.
    """

    rows: np.ndarray  # (4, N, C): k_xy, k_x, k_y, k_c

    def eval_roots(self, x, y, ws: Workspace, name: str) -> np.ndarray:
        k_xy, k_x, k_y, k_c = self.rows
        shape = self.rows.shape[1:-1] + x.shape[-1:]
        out = np.multiply(k_xy, x, out=ws(name, shape))
        out *= y
        term = np.multiply(k_x, x, out=ws("term", shape))
        out += term
        out += np.multiply(k_y, y, out=term)
        out += k_c
        return out


@dataclasses.dataclass(frozen=True)
class _StackedQuad2:
    """Per-element rows of :class:`QuadForm2` coefficients."""

    rows: np.ndarray  # (6, N, C): k0 .. k5

    def eval_many(self, txs, tys, ws: Workspace, name: str) -> np.ndarray:
        # k0*tx*tx + k1*ty*ty + k2*tx*ty + k3*tx + k4*ty + k5
        k0, k1, k2, k3, k4, k5 = self.rows
        shape = self.rows.shape[1:-1] + txs.shape[-1:]
        out = np.multiply(k0, txs, out=ws(name, shape))
        out *= txs
        term = np.multiply(k1, tys, out=ws("term", shape))
        term *= tys
        out += term
        np.multiply(k2, txs, out=term)
        out += np.multiply(term, tys, out=term)
        out += np.multiply(k3, txs, out=term)
        out += np.multiply(k4, tys, out=term)
        out += k5
        return out


@dataclasses.dataclass(frozen=True)
class _StackedLin2:
    """Per-element rows of :class:`LinForm2` coefficients."""

    rows: np.ndarray  # (3, N, C): c0, c1, c2

    def eval_many(self, txs, tys, ws: Workspace, name: str) -> np.ndarray:
        c0, c1, c2 = self.rows
        shape = self.rows.shape[1:-1] + txs.shape[-1:]
        out = np.multiply(c1, txs, out=ws(name, shape))
        np.add(c0, out, out=out)
        out += np.multiply(c2, tys, out=ws("term", shape))
        return out


#: (SimultaneousTiming attribute, stacked class, coefficient names) in
#: the row order of :class:`_StackedShape`.
_SURFACES = (
    ("d0", _StackedRoots, ("k_xy", "k_x", "k_y", "k_c")),
    ("t_vertex", _StackedRoots, ("k_xy", "k_x", "k_y", "k_c")),
    ("s_pos", _StackedQuad2, ("k0", "k1", "k2", "k3", "k4", "k5")),
    ("s_neg", _StackedQuad2, ("k0", "k1", "k2", "k3", "k4", "k5")),
    ("t_vertex_skew", _StackedLin2, ("c0", "c1", "c2")),
)


def _pairwise(rows: np.ndarray) -> np.ndarray:
    """Two surfaces' coefficient rows, one after the other, as one
    surface's rows whose coefficients stack the two: ``(2k, ...)`` ->
    ``(k, 2, ...)`` (a view)."""
    return rows.reshape((2, -1) + rows.shape[1:]).swapaxes(0, 1)


def _surface_rows(attr: str):
    """A :class:`_StackedShape` property viewing one surface's rows."""
    first = 0
    for name, cls, coeffs in _SURFACES:
        if name == attr:
            stop = first + len(coeffs)
            return property(lambda self: cls(self.rows[first:stop]))
        first += len(coeffs)
    raise KeyError(attr)


@dataclasses.dataclass(frozen=True)
class _StackedShape:
    """Per-element rows of a :class:`SimultaneousTiming` record.

    Duck-types the attribute surface the anchor primitives of
    :mod:`repro.sta.kernels` touch (``d0`` / ``sr`` /
    ``t_vertex_skew``).  Two views stack surfaces that are evaluated at
    the same points, their coefficients on a leading axis, so each pair
    costs one evaluation: ``cube`` the D0 (P0) and transition-vertex
    surfaces (at the endpoints' cube roots), ``sr`` the ``s_pos`` and
    ``s_neg`` surfaces.
    """

    rows: np.ndarray  # (23, N, C), the surfaces in _SURFACES order

    d0 = _surface_rows("d0")
    t_vertex_skew = _surface_rows("t_vertex_skew")
    cube = property(lambda self: _StackedRoots(_pairwise(self.rows[0:8])))
    sr = property(lambda self: _StackedQuad2(_pairwise(self.rows[8:20])))


def _quad_star(q) -> Tuple[float, float, float]:
    """A quadratic's interior stationary point T* and its value there as
    an interval-minimum candidate (``+inf`` unless convex) and as an
    interval-maximum one (``-inf`` unless concave): the paper's Figure 9
    rule, decided once per arc (see :func:`quad_extremes_batch`)."""
    if q.a2 == 0.0:
        return math.inf, math.inf, -math.inf
    t = -q.a1 / (2.0 * q.a2)
    if q.a2 > 0.0:
        return t, q(t), -math.inf
    return t, math.inf, q(t)


def _arc_values(arc: TimingArc) -> Tuple[float, ...]:
    """One arc's row of a :class:`_StackedPack`: its clamp range, then
    each delay coefficient next to its transition twin, so the stacked
    (delay, transition) families are slices: the quadratic's ``a2``,
    ``a1``, ``a0`` and its T* candidates (:func:`_quad_star`)."""
    d, r = arc.delay, arc.trans
    pairs = zip((d.a2, d.a1, d.a0, *_quad_star(d)),
                (r.a2, r.a1, r.a0, *_quad_star(r)))
    return (arc.t_lo, arc.t_hi, *itertools.chain.from_iterable(pairs))


@dataclasses.dataclass(frozen=True)
class _StackedPack:
    """Rows of pin-to-pin arc coefficients (:func:`_arc_rows`), a ctrl
    table's (and its lanes') with a response axis before the rows.

    ``t_lo`` / ``t_hi`` are ``(..., N, C)`` views; ``quads``
    views the six quadratic rows of :func:`_arc_values` as ``(6, 2,
    ..., N, C)``, the family axis (delay, transition) second, in the
    argument order of :func:`quad_extremes_batch`.  ``pack[r]`` is a
    ctrl group's response ``r`` (0 to-controlling, 1
    to-non-controlling).
    """

    rows: np.ndarray  # (14, ..., N, C) in _arc_values order

    t_lo = property(lambda self: self.rows[0])
    t_hi = property(lambda self: self.rows[1])

    @property
    def quads(self) -> np.ndarray:
        rows = self.rows[2:]
        return rows.reshape((6, 2) + rows.shape[1:])

    def __getitem__(self, response: int) -> "_StackedPack":
        return _StackedPack(self.rows[:, response])


# ----------------------------------------------------------------------
# Ragged axes
# ----------------------------------------------------------------------
def _excl(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: the start of each gate's run."""
    starts = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    return starts


def _elements(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(gate, position within the gate's run) of every element."""
    gate = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
    return gate, np.arange(gate.size, dtype=np.intp) - _excl(counts)[gate]


def _take(leaf, idx):
    """A leaf (or a table's coefficients) gathered to the elements
    ``idx`` of its own axis.

    Float arrays carry the element axis at -2, integer arrays at -1, and
    a stacked record its ``rows``.  A slice gives views, an index array
    fresh copies; ``None`` passes through.
    """
    if leaf is None:
        return None
    if not isinstance(leaf, np.ndarray):
        return type(leaf)(_take(leaf.rows, idx))
    if isinstance(idx, slice):
        return leaf[..., idx] if leaf.dtype.kind == "i" else leaf[..., idx, :]
    return leaf.take(idx, axis=-1 if leaf.dtype.kind == "i" else -2)


def _gather(ws: Workspace, name: str, leaf, idx: np.ndarray):
    """:func:`_take` of a float leaf or a stacked record at an index
    array, into the workspace buffer ``name``."""
    if isinstance(leaf, np.ndarray):
        return ws.take(name, leaf, idx, -2)
    return type(leaf)(ws.take(name, leaf.rows, idx, -2))


def _pair_rows(a_s, a_l, pa, pb, asi, asj, ali, alj, blo, bhi) -> None:
    """Each pair's arrival rows ``(Q, 1, B)`` and its window edges
    ``blo = asj - ali``, ``bhi = alj - asi``, into the given buffers."""
    for src, idx, dst in ((a_s, pa, asi), (a_s, pb, asj), (a_l, pa, ali),
                          (a_l, pb, alj)):
        src.take(idx, 0, dst[:, 0], "clip")
    np.subtract(asj, ali, out=blo)
    np.subtract(alj, asi, out=bhi)


def _write(dst, sl: slice, src) -> None:
    """Write leaf ``src`` over the elements ``sl`` of ``dst``."""
    if dst.dtype.kind == "i":
        dst[..., sl] = src
    else:
        dst[..., sl, :] = src


def _mask(inactive: np.ndarray, *bounds: np.ndarray) -> None:
    """Pad the ``inactive`` lanes of ``(lows, highs, r_min, r_max)`` in
    place with the identity of the reduction each feeds."""
    for bound, value in zip(bounds, (np.inf, -np.inf, np.inf, -np.inf)):
        np.copyto(bound, value, where=inactive[..., None])


#: Signs turning stacked saturation skews ``(s_pos, s_neg)`` into the
#: breakpoints ``(+S, -S)``: ``s * -1.0`` is ``-s`` bit for bit.
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _on(axis: str, target: Optional[str] = None):
    """A group leaf on ``axis``; an index leaf names its ``target`` axis."""
    return dataclasses.field(metadata={"axis": (axis, target)})


def _ragged(cls):
    """Collect the ``_on`` declarations of a group class into ``AXES``."""
    cls.AXES = {
        f.name: f.metadata["axis"]
        for f in dataclasses.fields(cls)
        if "axis" in f.metadata
    }
    return cls


class _Ragged:
    """Shared machinery of the two group kinds.

    ``counts[axis]`` holds each gate's run length on that axis and
    ``starts[axis]`` where its run starts; both view the rows of one
    ``(axes, gates)`` table each, built once per group.  Every leaf
    field is declared with :func:`_on`; ``AXES`` maps it to ``(axis,
    target)``, where ``target`` is the axis an index leaf points into
    (``None`` for the load terms and for rows of the global SoA arrays
    or of the kind's coefficient ``table``, which no cut moves).  Axes
    with no leaves of their own (the endpoint grids) only serve as
    targets.
    """

    AXES: Dict[str, Tuple[str, Optional[str]]] = {}
    #: The leaves holding rows of the global SoA state.
    ROWS = ("in_rows", "out_rows", "no_arc_rows")

    def __post_init__(self, runs: Optional[Tuple[np.ndarray, ...]]) -> None:
        if runs is None:
            table = np.stack(list(self.counts.values()))
            starts = np.zeros_like(table)
            np.cumsum(table[:, :-1], axis=1, out=starts[:, 1:])
            runs = (table, starts)
        #: The run-length and run-start tables (a cut hands over its own).
        self._runs = runs
        self.starts = dict(zip(self.counts, runs[1]))
        self.counts = dict(zip(self.counts, runs[0]))

    @property
    def n_gates(self) -> int:
        return len(self.counts["gate"])

    def cut(
        self,
        cols: Sequence[int],
        columns: Optional[np.ndarray] = None,
        width: int = 1,
    ):
        """The gates ``cols`` (ascending, repeats allowed) as a group of
        their own.

        The subset gathers the selected gates' runs on every axis
        (copies: the source group stays patchable) and re-bases its
        index leaves, while the row-gather arrays keep pointing into the
        *global* SoA state and the table rows into the same table, so
        running the subset through the level
        kernels recomputes exactly those gates, bitwise as in a full
        pass.  This is the unit of work of the incremental engine's
        cone replays and trial sweeps.  Every axis is cut at once, from
        the group's run tables: the elements of all axes are picked as
        one flat run, which each axis then slices.

        With ``columns``, subset gate ``i`` is a *lane*: gate
        ``cols[i]`` in column ``columns[i]`` of a ``width``-column
        state.  Its rows (:attr:`ROWS`) become ``row * width +
        column``, the rows of that state's flat ``(2n * width, 1)``
        view, so one call computes each gate in only the columns it
        lists.
        """
        cols = np.asarray(cols, dtype=np.intp)
        table, starts = self._runs
        sub = table[:, cols]
        new = np.cumsum(sub, axis=1)
        new -= sub
        # Per axis and new gate: how far its run moved down.
        shift = starts[:, cols] - new
        totals = new[:, -1] + sub[:, -1]
        bounds = np.zeros(len(totals) + 1, dtype=np.intp)
        np.cumsum(totals, out=bounds[1:])
        runs = sub.ravel()
        pick_all = np.repeat((shift - bounds[:-1, None]).ravel(), runs)
        pick_all += np.arange(bounds[-1], dtype=np.intp)
        gate_all = np.repeat(
            np.tile(np.arange(len(cols), dtype=np.intp), len(totals)), runs
        )
        bounds = bounds.tolist()
        pick, gate_of = {}, {}
        for i, axis in enumerate(self.counts):
            pick[axis] = pick_all[bounds[i]:bounds[i + 1]]
            gate_of[axis] = gate_all[bounds[i]:bounds[i + 1]]
        shifts = dict(zip(self.counts, shift))
        rebase: Dict[Tuple[str, str], np.ndarray] = {}
        fields = {}
        for name, (axis, target) in self.AXES.items():
            leaf = _take(getattr(self, name), pick[axis])
            if leaf is not None and target is not None:
                by = rebase.get((axis, target))
                if by is None:
                    by = rebase[axis, target] = shifts[target][gate_of[axis]]
                leaf -= by
            elif columns is not None and name in self.ROWS:
                leaf *= width
                leaf += columns[gate_of[axis]]
            fields[name] = leaf
        return type(self)(
            counts=dict(zip(self.counts, sub)), table=self.table, **fields,
            runs=(sub, new),
        )

    def split(self, bounds: Sequence[int]) -> List["_Ragged"]:
        """The consecutive gate ranges ``bounds[i]:bounds[i + 1]`` as
        groups of their own, their leaves views into this group's."""
        ends = {
            axis: [0] + np.cumsum(c).tolist()
            for axis, c in self.counts.items()
        }
        parts = []
        for g0, g1 in zip(bounds[:-1], bounds[1:]):
            fields = {}
            for name, (axis, target) in self.AXES.items():
                first = ends[axis]
                leaf = _take(getattr(self, name), slice(first[g0], first[g1]))
                if leaf is not None and target is not None:
                    leaf = leaf - ends[target][g0]
                fields[name] = leaf
            counts = {axis: c[g0:g1] for axis, c in self.counts.items()}
            parts.append(type(self)(counts=counts, table=self.table, **fields))
        return parts

    def leaves(self) -> Dict[str, object]:
        """The leaves this group carries, by name."""
        leaves = {name: getattr(self, name) for name in self.AXES}
        return {
            name: leaf for name, leaf in leaves.items() if leaf is not None
        }

    def put(self, col: int, leaves: Mapping[str, object],
            column: int = 0, width: int = 1) -> None:
        """Write one gate's ``leaves``, by name, over gate ``col``'s runs
        (its :meth:`CompiledCircuit.gate_leaves`); index leaves are
        re-based from the gate's own axes into this group's, rows of the
        global state into column ``column`` of a ``width``-column state,
        as :meth:`cut` lays out a lane."""
        for name, leaf in leaves.items():
            axis, target = self.AXES[name]
            if target is not None:
                leaf = leaf + int(self.starts[target][col])
            elif name in self.ROWS:
                leaf = leaf * width + column
            first = int(self.starts[axis][col])
            _write(
                getattr(self, name),
                slice(first, first + int(self.counts[axis][col])),
                leaf,
            )


@_ragged
@dataclasses.dataclass
class _CtrlGroup(_Ragged):
    """The controlling-value gates of one level, any fan-in.

    Lanes are (gate, pin) pairs; ``pack``, ``cell``, ``scale_c``,
    ``peak`` and ``pscale_c`` are rows of the :class:`_CtrlTable`.  The
    two responses share one leaf per quantity, with a response axis
    before the gate or lane axis: index 0 is the to-controlling
    response, 1 the to-non-controlling one, so the kernel gathers,
    bounds, reduces and scatters both at once.  Pair-merge and Λ-peak
    leaves are ``None`` until a model that reads them extends the
    compile (:meth:`CompiledCircuit.extend`).  The Λ-peak has no arcs or
    load terms of its own: its tails are its lanes' to-non-controlling
    arcs (``pack[1]``) with their delay terms (``adj[0, 1]``).
    """

    counts: Dict[str, np.ndarray]
    table: "_CtrlTable"
    out_rows: np.ndarray = _on("gate")    # (2, G) output rows
    in_rows: np.ndarray = _on("lane")     # (2, L) input rows
    lane_order: np.ndarray = _on("lane")  # rows into the MC factor matrix
    pack: np.ndarray = _on("lane")        # table rows of the pins' arcs
    # (2, 2, L, C) load-adjust terms: delay, then transition, per response.
    adj: np.ndarray = _on("lane")
    # ---- pair merge ----
    cell: Optional[np.ndarray] = _on("gate")       # table row of the cell
    scale_c: Optional[np.ndarray] = _on("combo")   # table rows: D0 scales
    combo_gate: Optional[np.ndarray] = _on("combo", "gate")
    # (2, K) endpoint-grid rows of the combo's two pins (lower position
    # first), and their lanes.
    ends: Optional[np.ndarray] = _on("combo", "lane2")
    ca: Optional[np.ndarray] = _on("combo", "lane")
    cb: Optional[np.ndarray] = _on("combo", "lane")
    pa: Optional[np.ndarray] = _on("pair", "lane")
    pb: Optional[np.ndarray] = _on("pair", "lane")
    pair_gate: Optional[np.ndarray] = _on("pair", "gate")
    # Ordered lane pairs (i, j) of each gate, j-major: overlap depth.
    ov_i: Optional[np.ndarray] = _on("ov", "lane")
    ov_j: Optional[np.ndarray] = _on("ov", "lane")
    # ---- Λ-peak (gates with peak data only) ----
    pgate: Optional[np.ndarray] = _on("pgate", "gate")
    peak: Optional[np.ndarray] = _on("pgate")  # table rows: Λ surfaces
    plane: Optional[np.ndarray] = _on("plane", "lane")  # tails: pack[1]
    pscale_c: Optional[np.ndarray] = _on("pcombo")
    pcombo_gate: Optional[np.ndarray] = _on("pcombo", "pgate")
    pends: Optional[np.ndarray] = _on("pcombo", "plane2")
    pca: Optional[np.ndarray] = _on("pcombo", "lane")
    pcb: Optional[np.ndarray] = _on("pcombo", "lane")
    #: bumped by every in-place patch; column-subset caches key on it.
    version: int = 0
    runs: dataclasses.InitVar[Optional[Tuple[np.ndarray, ...]]] = None

    def __post_init__(self, runs) -> None:
        super().__post_init__(runs)
        # Run starts for the per-gate (and per-lane) reductions.
        c, s = self.counts, self.starts
        self.lane_start = s["lane"]
        self.pair_start = s["pair"]
        self.combo_start = s["combo"]
        self.ov_start = _excl(np.repeat(c["lane"], c["lane"]))  # (gate, j)
        self.pcombo_start = s["pcombo"][c["pgate"] > 0]

    def outputs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every output row and the gate (column) it belongs to."""
        return (
            self.out_rows.ravel(),
            np.tile(np.arange(self.n_gates, dtype=np.intp), 2),
        )


@_ragged
@dataclasses.dataclass
class _ArcGroup(_Ragged):
    """The arc-table (inv / buf / xor) gates of one level.

    A *segment* is one output direction of one gate that has arcs; its
    lanes (one per arc) are contiguous, gate-major, and the kernel
    reduces each segment to one output row.
    """

    counts: Dict[str, np.ndarray]
    table: "_ArcTable"
    out_rows: np.ndarray = _on("seg")    # output row of each segment
    seg_n: np.ndarray = _on("seg")       # lanes per segment
    in_rows: np.ndarray = _on("lane")    # input row of each arc lane
    lane_order: np.ndarray = _on("lane")  # rows into the MC factor matrix
    pack: np.ndarray = _on("lane")       # table row of each lane's arc
    adj: np.ndarray = _on("lane")  # (2, L, C): delay, transition terms
    # Output rows of the directions without arcs (always IMPOSSIBLE).
    no_arc_rows: np.ndarray = _on("noarc")
    #: bumped by every in-place patch; column-subset caches key on it.
    version: int = 0
    runs: dataclasses.InitVar[Optional[Tuple[np.ndarray, ...]]] = None

    def __post_init__(self, runs) -> None:
        super().__post_init__(runs)
        self.seg_start = _excl(self.seg_n)

    def outputs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every output row with arcs and the gate it belongs to."""
        gate, _ = _elements(self.counts["seg"])
        return self.out_rows, gate


# ----------------------------------------------------------------------
# Cell tables and per-fan-in index templates
# ----------------------------------------------------------------------
def _table(cells: Sequence[Sequence[object]], get: Callable) -> np.ndarray:
    """One per-cell leaf: ``get(x)`` per ``cells[cell][corner]``.

    The per-cell value (a scalar or an array of any shape) keeps its
    axes in front; the cell and corner axes trail: ``(..., n_cells, C)``.
    """
    values = np.array([[get(x) for x in row] for row in cells], dtype=float)
    return np.ascontiguousarray(np.moveaxis(values, (0, 1), (-2, -1)))


def _rows(cells: Sequence[Sequence[object]], get: Callable) -> np.ndarray:
    """Ragged per-cell rows: ``get(x)`` is a vector (or a stack of
    vectors) per cell and corner; the cells' vectors are concatenated
    into ``(..., sum of lengths, C)``."""
    return np.concatenate([
        np.stack([np.asarray(get(x), dtype=float) for x in row], axis=-1)
        for row in cells
    ], axis=-2)


def _arc_rows(arcs: Sequence[Sequence[Sequence[TimingArc]]]) -> _StackedPack:
    """Per-(entry, arc) rows of ``arcs[entry][corner]``, one list of arcs
    per entry and corner (the corners' lists pair up arc by arc), the
    entries' lists concatenated: ``(14, arcs, C)``."""
    values = np.array(
        [[_arc_values(arc) for entry in lists for arc in entry]
         for lists in zip(*arcs)],
        dtype=float,
    )  # (C, arcs, 8)
    return _StackedPack(np.ascontiguousarray(values.transpose(2, 1, 0)))


def _pin_arcs(cell: CellTiming, to_ctrl: bool) -> List[TimingArc]:
    """A ctrl cell's to-controlling (``to_ctrl``) or to-non-controlling
    arc of every pin, in pin order: one per lane of its gate."""
    in_rising = cell.controlling_value == 1
    out_rising = cell.ctrl.out_rising
    if not to_ctrl:
        in_rising, out_rising = not in_rising, not out_rising
    return [cell.arc(pin, in_rising, out_rising)
            for pin in range(cell.n_inputs)]


def _surface_table(
    records: Sequence[Sequence[SimultaneousTiming]],
) -> _StackedShape:
    """Cell table of one :class:`SimultaneousTiming` record per cell."""
    getters = [
        attrgetter(f"{attr}.{coeff}")
        for attr, _, coeffs in _SURFACES
        for coeff in coeffs
    ]
    return _StackedShape(
        _table(records, lambda rec: [get(rec) for get in getters])
    )


def _pair_scales(record: SimultaneousTiming, n: int) -> List[float]:
    """D0 pair scale of each pin pair, in pair order."""
    return [
        record.pair_scale.get(pair_key(a, b), 1.0)
        for a, b in itertools.combinations(range(n), 2)
    ]


def _min_ratio(record: SimultaneousTiming) -> float:
    """Smallest multi-input delay ratio (1.0, an exact identity, if none)."""
    ratios = [float(v) for v in record.multi_scale.values()]
    return min(ratios) if ratios else 1.0


@dataclasses.dataclass(frozen=True)
class _CtrlTable:
    """Coefficient rows of every ctrl cell of a library set (``index``:
    name -> row), the corner axis ``C`` trailing.  A cell's rows start
    at ``pin`` in ``pack`` (each pin's arcs, both responses), at
    ``pair`` in ``scale`` (D0 pair scales) and at ``rt_at`` in ``rt``
    (multi-input ratios, k = 0 .. fan-in); ``shape`` and ``rt_min`` have
    one row per cell.  A cell with peak data in every corner has row
    ``peak_of`` (else -1) in ``peak``, its pair scales from ``ppair`` on
    in ``pscale``.  ``n``, ``ctrl_one`` and ``out_rising`` decide a
    gate's rows of the global state."""

    index: Dict[str, int]
    n: np.ndarray
    ctrl_one: np.ndarray
    out_rising: np.ndarray
    pin: np.ndarray
    pack: _StackedPack  # (14, 2, pins, C)
    shape: _StackedShape  # (23, cells, C)
    pair: np.ndarray
    scale: np.ndarray  # (pairs, C)
    rt_at: np.ndarray
    rt: np.ndarray  # (2, entries, C)
    rt_min: np.ndarray  # (cells, C)
    peak_of: np.ndarray
    peak: Optional[_StackedShape]
    ppair: np.ndarray
    pscale: Optional[np.ndarray]


@dataclasses.dataclass(frozen=True)
class _ArcTable:
    """Arc rows of every arc-table cell of a library set (``index``:
    name -> row), the corner axis ``C`` trailing.  A cell's ``n`` inputs
    drive its ``lanes`` lanes, rows ``first`` on of ``pack``, rising
    output first, each direction's arcs in :func:`fanin_arcs` order;
    per row, the input ``pin`` and whether input and output fall."""

    index: Dict[str, int]
    n: np.ndarray
    lanes: np.ndarray
    first: np.ndarray
    pin: np.ndarray
    fall: np.ndarray
    out_fall: np.ndarray
    pack: Optional[_StackedPack]  # (14, rows, C)


def _cell_tables(cells: Mapping[str, Sequence[CellTiming]]) -> dict:
    """The table of each group kind over ``cells`` (name -> the cell in
    every corner library), ``None`` for a kind without cells."""
    ctrl = {name: row for name, row in cells.items() if _is_ctrl(row[0])}
    arc = {name: row for name, row in cells.items() if name not in ctrl}
    return {"ctrl": _ctrl_table(ctrl) if ctrl else None,
            "arc": _arc_table(arc) if arc else None}


def _ctrl_table(cells: Mapping[str, Sequence[CellTiming]]) -> _CtrlTable:
    rows = list(cells.values())
    base = [row[0] for row in rows]
    n = np.array([c.n_inputs for c in base], dtype=np.intp)
    has = np.array([all(c.nonctrl is not None for c in row) for row in rows])
    peaks = [row for row, on in zip(rows, has) if on]
    pn = n[has]

    return _CtrlTable(
        index={name: i for i, name in enumerate(cells)},
        n=n,
        ctrl_one=np.array([c.controlling_value == 1 for c in base]),
        out_rising=np.array([c.ctrl.out_rising for c in base]),
        pin=_excl(n),
        pack=_StackedPack(np.stack([
            _arc_rows([[_pin_arcs(c, to) for c in row] for row in rows]).rows
            for to in (True, False)
        ], axis=1)),
        shape=_surface_table([[c.ctrl for c in row] for row in rows]),
        pair=_excl(n * (n - 1) // 2),
        scale=_rows(rows, lambda c: _pair_scales(c.ctrl, c.n_inputs)),
        rt_at=_excl(n + 1),
        rt=_rows(rows, lambda c: [
            ratio_table(c.ctrl.multi_scale, c.n_inputs),
            ratio_table(c.ctrl.trans_multi_scale, c.n_inputs),
        ]),
        rt_min=_table(rows, lambda c: _min_ratio(c.ctrl)),
        peak_of=np.where(has, np.cumsum(has) - 1, -1),
        peak=_surface_table(
            [[c.nonctrl for c in row] for row in peaks]
        ) if peaks else None,
        ppair=_excl(pn * (pn - 1) // 2),
        pscale=_rows(
            peaks, lambda c: _pair_scales(c.nonctrl, c.n_inputs)
        ) if peaks else None,
    )


def _arc_table(cells: Mapping[str, Sequence[CellTiming]]) -> _ArcTable:
    rows = list(cells.values())
    fans = [
        [(out, pin, rising) for out in (True, False)
         for pin, rising in fanin_arcs(row[0], out)]
        for row in rows
    ]
    lanes = np.array([len(fan) for fan in fans], dtype=np.intp)
    flat = np.array(sum(fans, []), dtype=np.intp).reshape(-1, 3)
    return _ArcTable(
        index={name: i for i, name in enumerate(cells)},
        n=np.array([row[0].n_inputs for row in rows], dtype=np.intp),
        lanes=lanes,
        first=_excl(lanes),
        pin=flat[:, 1],
        fall=1 - flat[:, 2],
        out_fall=1 - flat[:, 0],
        pack=_arc_rows([
            [[c.arc(pin, rising, out) for out, pin, rising in fan]
             for c in row]
            for fan, row in zip(fans, rows)
        ]) if flat.size else None,
    )


def _table_row(table, name: str) -> Optional[int]:
    """The row of cell ``name`` in ``table`` (``None`` if it lacks one);
    a sized variant (``NAND2@X2.0``) reads its base cell's rows, as
    :meth:`CellLibrary.cell` derives it from that cell."""
    base = (parse_sized_name(name) or (name,))[0]
    return table.index.get(name, table.index.get(base))


@functools.lru_cache(maxsize=None)
def _fanin_template(n: int) -> Dict[str, List[int]]:
    """Index templates of one fan-in-``n`` ctrl gate, local to the gate.

    * combos (the scalar loop order: pairs in position order, then
      ``(t_s, t_s), (t_s, t_l), (t_l, t_s), (t_l, t_l)``, so combo
      ``4 * pair`` is the ``(t_s, t_s)`` one the k-input ratio rule
      reuses): endpoint-grid rows ``2 * pin + k`` and the two pins;
    * ``ov_i`` / ``ov_j``: every ordered pin pair, ``j``-major;
    * backward candidates, pin-major: for each pin every other pin as
      its partner, then (pin ``t_s``, ``t_l``) x (partner arc ``t_lo``,
      ``t_hi``) — rows of the ``(pins, 4)`` grid ``[c_lo, c_hi, t_lo,
      t_hi]``, the D0 surface's ``x`` being the lower pin position —
      and the first combo of the pair.
    """
    pairs = list(itertools.combinations(range(n), 2))
    combos = [(a, b, ka, kb) for a, b in pairs
              for ka in (0, 1) for kb in (0, 1)]
    pair_of = {pair: q for q, pair in enumerate(pairs)}
    template = {
        "pa": [a for a, _ in pairs],
        "pb": [b for _, b in pairs],
        "lo_row": [2 * a + ka for a, _, ka, _ in combos],
        "hi_row": [2 * b + kb for _, b, _, kb in combos],
        "ca": [a for a, _, _, _ in combos],
        "cb": [b for _, b, _, _ in combos],
        "ov_i": [i for _ in range(n) for i in range(n)],
        "ov_j": [j for j in range(n) for _ in range(n)],
    }
    back = ("m_x", "m_y", "m_own", "m_oth", "m_combo")
    template.update((name, []) for name in back)
    for pin in range(n):
        for partner in range(n):
            if partner == pin:
                continue
            first = 4 * pair_of[min(pin, partner), max(pin, partner)]
            for k_own in (0, 1):
                for k_other in (0, 1):
                    own = 4 * pin + k_own
                    other = 4 * partner + 2 + k_other
                    x, y = (own, other) if pin < partner else (other, own)
                    for name, value in zip(back, (x, y, own, other, first)):
                        template[name].append(value)
    return template


@functools.lru_cache(maxsize=None)
def _fanin_tables(max_n: int) -> Dict[str, np.ndarray]:
    """``_fanin_template`` of every fan-in up to ``max_n``, padded into
    ``(max_n + 1, width)`` tables indexed ``[fan-in, position]``."""
    templates = [_fanin_template(n) for n in range(max_n + 1)]
    tables = {}
    for name in templates[-1]:
        width = max(len(t[name]) for t in templates)
        table = np.zeros((max_n + 1, max(width, 1)), dtype=np.intp)
        for n, t in enumerate(templates):
            table[n, : len(t[name])] = t[name]
        tables[name] = table
    return tables


def cell_leaves(
    kind: str,
    table,
    names: Sequence[str],
    cells: Mapping[str, Sequence[CellTiming]],
    loads: np.ndarray,
    lines: Optional[Tuple[np.ndarray, np.ndarray, int]] = None,
    parts: Iterable[str] = (),
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """The leaves a gate's cell decides inside its slot, for gates of one
    group kind: gate ``i`` is cell ``cells[names[i]][c]`` driving
    ``loads[i, c]`` in column ``c``, reading its rows of ``table``.

    ``adj`` holds the load terms: per lane, the scalar
    :meth:`~repro.characterize.library.CellTiming.load_adjusted_delay`
    (``_trans``) expression ``slope * (load - ref_load)`` of the output
    direction the lane serves, so bit for bit the scalar value; delay
    over transition terms, a ctrl lane's for both responses.  With
    ``lines`` (output and flat input line indices, number of lines)
    come the rows of the global state and the table rows: ``pack`` and,
    per the model leaf sets ``parts``, the merge's and the Λ-peak's.

    Returns:
        ``(leaves, runs)``: the leaves, gate-major, and each gate's run
        length on every axis they lie on.
    """
    kinds, cidx = np.unique(names, return_inverse=True)
    rows = np.array([_table_row(table, k) for k in kinds], np.intp)[cidx]
    cells = [cells[k] for k in kinds]
    n = table.n[rows]
    slopes = _table(cells, lambda c: [
        [c.load_delay_slope["R"], c.load_delay_slope["F"]],
        [c.load_trans_slope["R"], c.load_trans_slope["F"]],
    ])  # (family, output falls, kinds, C)
    dload = loads - _table(cells, attrgetter("ref_load"))[cidx]
    if kind == "arc":
        runs = {"lane": table.lanes[rows]}
        gate, at = _elements(runs["lane"])
        pack = table.first[rows][gate] + at
        falls = table.out_fall[pack]
    else:
        runs = {"gate": np.ones_like(n), "lane": n, "combo": 2 * n * (n - 1)}
        gate, pin = _elements(n)
        pack = table.pin[rows][gate] + pin
        falls = np.where(table.out_rising[rows], 0, 1)[gate]
        falls = np.stack([falls, 1 - falls])  # per response
    leaves = {"adj": slopes[:, falls, cidx[gate]] * dload[gate]}
    if lines is None:
        return leaves, runs
    out_idx, in_idx, n_lines = lines
    leaves["pack"] = pack
    if kind == "arc":
        leaves["in_rows"] = (
            in_idx[_excl(n)[gate] + table.pin[pack]]
            + table.fall[pack] * n_lines
        )
        return leaves, runs
    ctrl_off = np.where(table.ctrl_one[rows], 0, n_lines)[gate]
    out_off = np.where(table.out_rising[rows], 0, n_lines)
    leaves.update(
        out_rows=out_idx + np.stack([out_off, n_lines - out_off]),
        in_rows=in_idx + np.stack([ctrl_off, n_lines - ctrl_off]),
    )
    if "merge" in parts:
        gate, at = _elements(runs["combo"])
        leaves.update(cell=rows, scale_c=table.pair[rows][gate] + at // 4)
    if "peak" in parts:
        prow = table.peak_of[rows]
        runs.update(
            pgate=(prow >= 0).astype(np.intp),
            pcombo=runs["combo"] * (prow >= 0),
        )
        gate, at = _elements(runs["pcombo"])
        leaves.update(
            peak=prow[prow >= 0], pscale_c=table.ppair[prow[gate]] + at // 4
        )
    return leaves, runs


def _check_positive(name: str, values: np.ndarray) -> None:
    """Raise unless every value is finite and > 0, naming the first bad
    one.  The pair merge relies on it: it keeps the saturation skews
    S± positive (see the module docstring)."""
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
    if bad.size:
        at = "".join(
            f"[{i}]" for i in np.unravel_index(bad[0], values.shape)
        )
        raise ValueError(
            f"{name}{at} must be finite and > 0, "
            f"got {float(values.flat[bad[0]])!r}"
        )


def check_derates(derates: Tuple) -> Tuple[np.ndarray, np.ndarray]:
    """An ``(early, late)`` derate pair as float arrays, checked by the
    rule of :class:`repro.pvt.Corner`: every derate finite and > 0, and
    early <= late (column by column), or merged windows invert.

    Raises:
        ValueError: Naming the first derate that breaks the rule.
    """
    early = np.asarray(derates[0], dtype=float)
    late = np.asarray(derates[1], dtype=float)
    _check_positive("derate early", early)
    _check_positive("derate late", late)
    lo, hi = np.broadcast_arrays(early, late)
    inverted = np.flatnonzero(lo > hi)
    if inverted.size:
        i = inverted[0]
        raise ValueError(
            f"derate early ({float(lo.flat[i])!r}) must not exceed derate "
            f"late ({float(hi.flat[i])!r}) or merged windows invert"
        )
    return early, late


# ----------------------------------------------------------------------
# Compiled circuit: layout, library part, model leaves
# ----------------------------------------------------------------------
def _model_leaves(model: DelayModel) -> Tuple[bool, bool]:
    """(pair merge, Λ-peak): the model leaf sets ``model``'s pass reads."""
    return (
        bool(getattr(model, "supports_pair_merge", False)),
        hasattr(model, "nonctrl_shape"),
    )


def resolve_cells(
    circuit: Circuit,
    library: CellLibrary,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, CellTiming]:
    """The cell of every gate, resolved in ``library`` once per name.

    Args:
        circuit: The circuit whose gates name the cells.
        library: The library to resolve them in (sized variants are
            derived on demand, as :meth:`CellLibrary.cell` does).
        names: The distinct cell names, when already known.

    Raises:
        UnknownCellError: Naming a gate whose cell the library lacks.
    """
    if names is None:
        names = dict.fromkeys(g.cell_name() for g in circuit.gates.values())
    cells: Dict[str, CellTiming] = {}
    for name in names:
        try:
            cells[name] = library.cell(name)
        except KeyError:
            gate = next(
                out for out, g in circuit.gates.items()
                if g.cell_name() == name
            )
            raise UnknownCellError(
                f"gate {gate!r} needs cell {name!r}, which is not in the "
                f"library (cells: {', '.join(sorted(library.cells))})"
            ) from None
    return cells


class CircuitLayout:
    """The netlist side of a compile: one circuit at one edit epoch.

    Holds the line rows, topological positions, levels and gate cell
    names, and, per split of the cell names into ctrl and arc-table
    kinds, each kind's gates in (level, topological) order with their
    level bounds and line rows: everything a group's gather rows and
    index leaves are cut from.  Loads are kept per input-cap table and
    boundary config: a library enters them only through its cells'
    input caps, so every library set that agrees on those (derived
    corners all do) shares one :func:`compute_loads` sweep.  Nothing is
    written after construction except those two memos, so any number
    of compiles, shared or owned, can read one layout.
    """

    def __init__(self, circuit: Circuit) -> None:
        order = circuit.topological_order()
        self.circuit = circuit
        self.lines: List[str] = circuit.lines
        self.n_lines = len(self.lines)
        self.line_index: Dict[str, int] = {
            line: i for i, line in enumerate(self.lines)
        }
        self.order = order
        self.n_gates = len(order)
        self.order_pos = {line: i for i, line in enumerate(order)}
        self.level_of = circuit.levelize()
        #: Cell name of every gate, in topological order.
        self.gate_cells = [circuit.gates[out].cell_name() for out in order]
        self.names = list(dict.fromkeys(self.gate_cells))
        self._plans: Dict[tuple, list] = {}
        self._loads: Dict[tuple, Dict[str, float]] = {}
        get_registry().counter("sta.compile.layout_builds").inc()

    def row(self, line: str, rising: bool) -> int:
        """Row of one line direction in the global SoA arrays."""
        idx = self.line_index[line]
        return idx if rising else idx + self.n_lines

    def gate_rows(self, gates: Sequence[Gate]):
        """(output line index, MC factor row, flat input line indices)."""
        line_index = self.line_index
        out_idx = np.array(
            [line_index[g.output] for g in gates], dtype=np.intp
        )
        order_idx = np.array(
            [self.order_pos[g.output] for g in gates], dtype=np.intp
        )
        in_idx = np.array(
            [line_index[line] for g in gates for line in g.inputs],
            dtype=np.intp,
        )
        return out_idx, order_idx, in_idx

    def plan(self, is_ctrl: Dict[str, bool]) -> list:
        """Per kind, ctrl then arc: ``(members, gates, names, levels,
        bounds, rows)``, the kind's topological positions in (level,
        topological) order, its gates and their cell names, each level
        it occupies with the bounds of that level's run, and
        :meth:`gate_rows`."""
        key = tuple(is_ctrl[name] for name in self.names)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        ranked = np.argsort(
            np.array([self.level_of[out] for out in self.order],
                     dtype=np.intp),
            kind="stable",
        )
        ctrl = np.array(
            [is_ctrl[name] for name in self.gate_cells], dtype=bool
        )[ranked]
        plan = []
        for members in (ranked[ctrl], ranked[~ctrl]):
            rows = members.tolist()
            gates = [self.circuit.gates[self.order[pos]] for pos in rows]
            lvls, bounds = [], [0]
            for lvl, run in itertools.groupby(
                self.level_of[g.output] for g in gates
            ):
                lvls.append(lvl)
                bounds.append(bounds[-1] + sum(1 for _ in run))
            plan.append((
                members, gates, [self.gate_cells[pos] for pos in rows],
                lvls, bounds, self.gate_rows(gates),
            ))
        self._plans[key] = plan
        return plan

    def loads(
        self,
        library: CellLibrary,
        cells: Dict[str, CellTiming],
        config: StaConfig,
    ) -> Dict[str, float]:
        """The line loads under ``library`` (whose resolved ``cells``
        fix the input caps) and ``config``'s output and dangling loads;
        one sweep per cap table and pair of those."""
        key = (
            tuple(tuple(cells[n].input_caps) for n in self.names),
            config.po_load, config.dangling_load,
        )
        loads = self._loads.get(key)
        if loads is None:
            loads = self._loads[key] = compute_loads(
                self.circuit, library, config
            )
            get_registry().counter("sta.compile.load_sweeps").inc()
        return loads


class CompiledCircuit:
    """Circuit + library compiled into level-ordered SoA form.

    A compile has three parts, each built once for what it depends on:

    * the **layout** (:class:`CircuitLayout`): the circuit at one edit
      epoch, shared by every library set compiled over it;
    * the **library part** (this object): the resolved cells of every
      corner library, the loads, and the level groups with their
      pin-to-pin leaves, built the first time :meth:`extend` runs;
    * the **model leaves**: the pair-merge and the Λ-peak leaves,
      built by :meth:`extend` the first time a model that reads them
      asks.  A pass picks its merges from its own model
      (:class:`LevelCompiledAnalyzer`), never from the leaves a compile
      happens to carry, so one compile serves every model.

    :data:`COMPILES` shares layouts and library parts between the
    analyzers of one circuit and library set; constructing this class
    directly builds a compile of one's own.

    Args:
        circuit: Gate-level circuit under analysis.
        library: Characterized cell library, or a sequence of libraries
            (one per PVT corner) for a corner-batched compile.  With
            ``C`` corners every coefficient array gains a trailing
            corner axis of size ``C`` and a pass produces one batch
            column per corner; a single library compiles with ``C = 1``.
        model: Delay model whose leaves to build now; ``None`` leaves
            the groups to the first :meth:`extend`.
        config: STA boundary conditions (fixes the load vector).
        loads: The line loads of a single-library compile, exactly as
            :func:`~repro.sta.analysis.compute_loads` returns them (an
            analyzer hands over its own); read from the layout when
            omitted.
        layout: The circuit's layout at its current edit epoch; built
            here when omitted.

    Raises:
        UnknownCellError: If a library lacks a gate's cell (see
            :func:`resolve_cells`).
        CircuitError: If the circuit has a cycle.
        ValueError: If the corner libraries disagree on cell structure.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: Union[CellLibrary, Sequence[CellLibrary]],
        model: Optional[DelayModel],
        config: StaConfig,
        loads: Optional[Dict[str, float]] = None,
        layout: Optional[CircuitLayout] = None,
    ) -> None:
        if isinstance(library, CellLibrary):
            libraries: List[CellLibrary] = [library]
        else:
            libraries = list(library)
        if not libraries:
            raise ValueError("need at least one cell library")
        if loads is not None and len(libraries) > 1:
            raise ValueError("precomputed loads need a single-library compile")
        if layout is None:
            layout = CircuitLayout(circuit)
        self.layout = layout
        self.circuit = circuit
        self.library = libraries[0]
        self.libraries = libraries
        self.n_corners = len(libraries)
        self.lines: List[str] = layout.lines
        self.n_lines = layout.n_lines
        self.line_index: Dict[str, int] = layout.line_index
        self.n_gates = layout.n_gates
        self._order_pos = layout.order_pos
        #: Which model leaves the groups carry (see :meth:`extend`).
        self._merge = self._peak = False
        self._corner_cells = [
            resolve_cells(circuit, lib, layout.names) for lib in libraries
        ]
        #: Corner 0's resolved cells, by name (read-only).
        self.cells: Dict[str, CellTiming] = self._corner_cells[0]
        self._cells = dict(self.cells)
        self._validate_corner_cells(peak=False)
        #: The table of each group kind over the cells of the library
        #: set that every corner has, with one structure.
        self.tables = _cell_tables({
            name: row for name in libraries[0].cells
            for row in [[lib.cells.get(name) for lib in libraries]]
            if all(c is not None and _same_structure(row[0], c, False)
                   for c in row)
        })
        #: The line loads of every corner library, as dicts.
        self.line_loads: List[Dict[str, float]] = (
            [loads] if loads is not None else [
                layout.loads(lib, cells, config)
                for lib, cells in zip(libraries, self._corner_cells)
            ]
        )
        #: Output load of every gate (topological order) per corner,
        #: ``(n_gates, C)``: what the load-adjust terms are built from.
        self.loads = np.array(
            [[ld[out] for ld in self.line_loads] for out in layout.order]
        )
        self.levels: List[List[Union[_CtrlGroup, _ArcGroup]]] = []
        self.n_levels = self.n_groups = 0
        #: gate output line -> (group, column, slot key); the in-place
        #: patch path of :meth:`patch_gate` addresses columns through it.
        self._locs: Dict[str, Tuple[Union[_CtrlGroup, _ArcGroup], int, tuple]]
        self._locs = {}
        self._built = False
        get_registry().counter("sta.compile.library_builds").inc()
        if model is not None:
            self.extend(model)

    def _validate_corner_cells(self, peak: bool) -> None:
        """Reject corner libraries that disagree on cell *structure*.

        Corner libraries may differ in every coefficient, but the arc
        layout, controlling polarity and output polarity must match —
        those decide gather rows and group layouts, which are shared
        across the corner axis.  With ``peak``, so must the presence of
        Λ-peak data, checked when the Λ-peak leaves are built.
        """
        base = self._corner_cells[0]
        for ci, cells in enumerate(self._corner_cells[1:], start=1):
            for name, cell in base.items():
                if not _same_structure(cell, cells[name], peak):
                    raise ValueError(
                        f"corner library {ci} disagrees with corner 0 on "
                        f"the structure of cell {name!r}"
                    )

    # ------------------------------------------------------------------
    def row(self, line: str, rising: bool) -> int:
        """Row of one line direction in the global SoA arrays."""
        return self.layout.row(line, rising)

    def extend(self, model: DelayModel) -> None:
        """Build the groups with every leaf set ``model``'s passes read.

        The first call builds the level groups: their pin-to-pin leaves
        and the model leaves ``model`` reads (pair merge, Λ-peak).  A
        later call for a model that reads a leaf set the groups lack
        builds them again, with the union of the sets, on the same path.
        New groups replace the old ones whole and nothing is written
        into a built group, so a pass already running on the old groups
        finishes on them, and every leaf is bitwise the leaf a one-shot
        build holds.  Only a shared compile meets a second model; a
        private one is built for its owner's model and then patched
        (:meth:`patch_gate`), never extended.  A call that builds is one
        ``sta.compile.build_s`` observation and counts every model leaf
        set it builds.
        """
        merge, peak = _model_leaves(model)
        have = self._parts()
        parts = have | {
            part for part, on in (("merge", merge), ("peak", peak)) if on
        }
        if self._built and parts == have:
            return
        if peak:
            self._validate_corner_cells(peak=True)
        obs = get_registry()
        with obs.timer("sta.compile.build_s"):
            self._build_groups(parts)
        for part in parts:
            obs.counter(f"sta.compile.{part}_builds").inc()

    def _build_groups(self, parts: set) -> None:
        """The level groups, carrying the model leaf sets ``parts``."""
        peak = "peak" in parts
        slot = {name: _slot_key(cell, peak)
                for name, cell in self._corner_cells[0].items()}
        cells = {
            name: [cells[name] for cells in self._corner_cells]
            for name in self.layout.names
        }
        plans = self.layout.plan(
            {name: key[0] == "ctrl" for name, key in slot.items()}
        )
        # All gates of one kind in (level, topological) order, built in
        # one go; each level's group is a contiguous cut of that.
        locs = {}
        at_level: Dict[int, List[Union[_CtrlGroup, _ArcGroup]]] = {}
        for kind, plan in zip(("ctrl", "arc"), plans):
            members, gates, kinds, lvls, bounds, rows = plan
            if not members.size:
                continue
            build = self._build_ctrl if kind == "ctrl" else self._build_arc
            groups = build(
                gates, kinds, cells, self.loads[members], parts,
                self.tables[kind], rows,
            ).split(bounds)
            for lvl, start, group in zip(lvls, bounds, groups):
                for col in range(group.n_gates):
                    locs[gates[start + col].output] = (
                        group, col, slot[kinds[start + col]]
                    )
                at_level.setdefault(lvl, []).append(group)
        self._locs = locs
        self.levels = [at_level[lvl] for lvl in sorted(at_level)]
        self.n_levels = len(self.levels)
        self.n_groups = sum(len(groups) for groups in self.levels)
        self._merge = "merge" in parts
        self._peak = peak
        self._built = True
        get_registry().gauge("sta.compile.leaf_bytes").set(self.leaf_bytes())

    def leaf_bytes(self) -> int:
        """Bytes under the groups' leaves and the tables, each distinct
        buffer once however many views (level cuts of one build) share
        it."""
        arrays = [
            leaf for groups in self.levels for group in groups
            for leaf in group.leaves().values()
        ]
        for table in filter(None, self.tables.values()):
            arrays += vars(table).values()
        buffers = {}
        for array in arrays:
            array = getattr(array, "rows", array)
            if isinstance(array, np.ndarray):
                while isinstance(array.base, np.ndarray):
                    array = array.base
                buffers[id(array)] = array.nbytes
        return sum(buffers.values())

    def _parts(self) -> set:
        """The model leaf sets the groups carry."""
        parts = set()
        if self._merge:
            parts.add("merge")
        if self._peak:
            parts.add("peak")
        return parts

    # ------------------------------------------------------------------
    # Group builds
    # ------------------------------------------------------------------
    def _build_ctrl(
        self,
        gates: Sequence[Gate],
        names: Sequence[str],
        cells: Dict[str, Sequence[CellTiming]],
        loads: np.ndarray,
        parts: set,
        table: _CtrlTable,
        line_rows: Optional[tuple] = None,
    ) -> _CtrlGroup:
        """One ctrl group over ``gates`` (cell ``names[i]``, per-corner
        ``cells[name]``, ``loads`` ``(G, C)``, ``line_rows`` as
        :meth:`CircuitLayout.gate_rows` gives them) reading ``table``,
        with the model leaf sets ``parts`` names, ``"merge"`` and
        ``"peak"``; the other set's leaves stay ``None``.

        The cell decides its leaves by :func:`cell_leaves`, the slot
        every other index leaf, spread from the per-fan-in templates.
        Λ-peak axes count their elements only with ``"peak"`` in
        ``parts``; a peak lane indexes its lane, whose
        to-non-controlling arc is the peak's tail.
        """
        out_idx, order_idx, in_idx = (
            line_rows if line_rows is not None
            else self.layout.gate_rows(gates)
        )
        leaves: Dict[str, object] = dict.fromkeys(_CtrlGroup.AXES)
        cell, runs = cell_leaves(
            "ctrl", table, names, cells, loads,
            (out_idx, in_idx, self.n_lines), parts,
        )
        leaves.update(cell)
        n = runs["lane"]
        pairs = n * (n - 1) // 2
        peak = runs.get("pgate", np.zeros_like(n))
        counts = {
            "gate": runs["gate"], "lane": n, "lane2": 2 * n, "pair": pairs,
            "combo": 4 * pairs, "ov": n * n, "pgate": peak,
            "plane": peak * n, "plane2": 2 * peak * n,
            "pcombo": 4 * peak * pairs,
        }
        starts = {axis: _excl(c) for axis, c in counts.items()}
        tpl = _fanin_tables(int(n.max()))

        def spread(axis: str, name: str, target: str) -> np.ndarray:
            """Template ``name`` over ``axis``, re-based into ``target``."""
            gate, local = _elements(counts[axis])
            return tpl[name][n[gate], local] + starts[target][gate]

        leaves["lane_order"] = order_idx[_elements(n)[0]]
        if "merge" in parts:
            leaves.update(
                combo_gate=_elements(counts["combo"])[0],
                ends=np.stack([
                    spread("combo", "lo_row", "lane2"),
                    spread("combo", "hi_row", "lane2"),
                ]),
                ca=spread("combo", "ca", "lane"),
                cb=spread("combo", "cb", "lane"),
                pa=spread("pair", "pa", "lane"),
                pb=spread("pair", "pb", "lane"),
                pair_gate=_elements(pairs)[0],
                ov_i=spread("ov", "ov_i", "lane"),
                ov_j=spread("ov", "ov_j", "lane"),
            )
        if "peak" in parts:
            gpl, ppin = _elements(counts["plane"])
            leaves.update(
                pgate=_elements(peak)[0],
                plane=starts["lane"][gpl] + ppin,
                pcombo_gate=(np.cumsum(peak) - 1)[
                    _elements(counts["pcombo"])[0]
                ],
                pends=np.stack([
                    spread("pcombo", "lo_row", "plane2"),
                    spread("pcombo", "hi_row", "plane2"),
                ]),
                pca=spread("pcombo", "ca", "lane"),
                pcb=spread("pcombo", "cb", "lane"),
            )
        return _CtrlGroup(counts=counts, table=table, **leaves)

    def _build_arc(
        self,
        gates: Sequence[Gate],
        names: Sequence[str],
        cells: Dict[str, Sequence[CellTiming]],
        loads: np.ndarray,
        parts: set,
        table: _ArcTable,
        line_rows: Optional[tuple] = None,
    ) -> _ArcGroup:
        """One arc-table group over ``gates`` (see :meth:`_build_ctrl`;
        arc-table gates carry no model leaves, so ``parts`` is moot): a
        gate's segments are its lanes' output directions, rising first,
        the others its arc-less directions."""
        out_idx, order_idx, in_idx = (
            line_rows if line_rows is not None
            else self.layout.gate_rows(gates)
        )
        cell, runs = cell_leaves(
            "arc", table, names, cells, loads,
            (out_idx, in_idx, self.n_lines),
        )
        lane_gate, _ = _elements(runs["lane"])
        arcs = np.zeros((len(gates), 2), dtype=np.intp)
        np.add.at(arcs, (lane_gate, table.out_fall[cell["pack"]]), 1)
        gs, ds = np.nonzero(arcs)
        gn, dn = np.nonzero(arcs == 0)
        segs = np.count_nonzero(arcs, axis=1)
        return _ArcGroup(
            counts={"gate": np.ones(len(gates), dtype=np.intp), "seg": segs,
                    "lane": runs["lane"], "noarc": 2 - segs},
            table=table,
            out_rows=out_idx[gs] + ds * self.n_lines,
            seg_n=arcs[gs, ds],
            lane_order=order_idx[lane_gate],
            no_arc_rows=out_idx[gn] + dn * self.n_lines,
            **cell,
        )

    # ------------------------------------------------------------------
    # In-place patching (incremental STA)
    # ------------------------------------------------------------------
    def _cell_for(self, gate: Gate) -> CellTiming:
        name = gate.cell_name()
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = self.library.cell(name)
        return cell

    def can_patch(self, line: str) -> bool:
        """True when the gate's *current* cell fits its compiled slot
        (:meth:`fits`) on a single-corner compile.  Corner-batched
        compiles are never patched."""
        return self.n_corners == 1 and self.fits(
            line, self._cell_for(self.circuit.gates[line])
        )

    def fits(self, line: str, cell: CellTiming) -> bool:
        """Whether gate ``line`` can take ``cell`` in its compiled slot:
        the cell has table rows and keeps the slot key — fan-in, arc
        counts and Λ-peak membership.  A resize always does, a swap such
        as NAND2 -> NOR2 or INV -> BUF too; one that changes the slot
        (say NAND2 -> XOR2) needs a build of its own."""
        loc = self._locs.get(line)
        return (
            loc is not None
            and _slot_key(cell, self._peak) == loc[2]
            and _table_row(self.tables[loc[2][0]], cell.name) is not None
        )

    def patch_gate(self, line: str, load: float) -> None:
        """Rewrite one gate's cell leaves (:meth:`gate_leaves`) in place
        for its current cell and output ``load``: a resize or a re-load
        moves only the load terms, a swap inside the slot (:meth:`fits`)
        the rows too.  A patched circuit is bitwise-indistinguishable
        from a recompiled one.

        Raises:
            ValueError: If the gate's current cell no longer fits its
                compiled slot (see :meth:`can_patch`).
        """
        if self.n_corners > 1:
            raise ValueError(
                "in-place patching requires a single-corner compile"
            )
        loc = self._locs.get(line)
        if loc is None:
            raise ValueError(f"line {line!r} is not a compiled gate")
        group, col, key = loc
        gate = self.circuit.gates[line]
        cell = self._cell_for(gate)
        if not self.fits(line, cell):
            raise ValueError(
                f"cell {cell.name!r} does not fit the compiled slot {key} "
                f"of gate {line!r}; recompile required"
            )
        (leaves,) = self.gate_leaves([gate], [cell], [load])
        group.put(col, leaves)
        group.version += 1
        self.loads[self._order_pos[line]] = load

    def _by_kind(self, cells: Sequence[CellTiming], run: Callable) -> list:
        """``run(kind, pick)`` for the positions ``pick`` of each group
        kind's ``cells``, its results put back in ``cells`` order."""
        out = [None] * len(cells)
        for kind in ("ctrl", "arc"):
            pick = [
                i for i, c in enumerate(cells)
                if _is_ctrl(c) == (kind == "ctrl")
            ]
            for i, value in zip(pick, run(kind, pick) if pick else ()):
                out[i] = value
        return out

    def build_gates(
        self,
        gates: Sequence[Gate],
        cells: Sequence[CellTiming],
        loads: Sequence[float],
    ) -> List[Union[_CtrlGroup, _ArcGroup]]:
        """Each gate as a one-gate, one-column group, over tables of its
        own: gate ``i`` built for cell ``cells[i]`` at output load
        ``loads[i]``, with the model leaves this compile carries; bitwise
        what a recompile builds for it.  A swap that changes its gate's
        slot (:meth:`fits`) runs on one.  One build call per kind."""
        loads = np.asarray(loads, dtype=float)[:, None]
        tables = _cell_tables({cell.name: [cell] for cell in cells})

        def build(kind: str, pick: List[int]) -> list:
            builder = self._build_ctrl if kind == "ctrl" else self._build_arc
            return builder(
                [gates[i] for i in pick], [cells[i].name for i in pick],
                {cells[i].name: [cells[i]] for i in pick},
                loads[pick], self._parts(), tables[kind],
            ).split(range(len(pick) + 1))

        return self._by_kind(cells, build)

    def gate_leaves(
        self,
        gates: Sequence[Gate],
        cells: Sequence[CellTiming],
        loads: Sequence[float],
        rows: bool = True,
    ) -> List[Dict[str, np.ndarray]]:
        """Each gate's cell leaves (:func:`cell_leaves`, only the load
        terms without ``rows``), by name: gate ``i`` at cell ``cells[i]``
        and output load ``loads[i]``, bitwise what a recompile builds for
        them, while the gate's other leaves are its slot's
        (:meth:`fits`).  All gates of one kind share one call."""
        loads = np.asarray(loads, dtype=float)[:, None]

        def split(kind: str, pick: List[int]) -> list:
            lines = None
            if rows:
                out_idx, _, in_idx = self.layout.gate_rows(
                    [gates[i] for i in pick]
                )
                lines = (out_idx, in_idx, self.n_lines)
            leaves, runs = cell_leaves(
                kind, self.tables[kind], [cells[i].name for i in pick],
                {cells[i].name: [cells[i]] for i in pick}, loads[pick],
                lines, self._parts(),
            )
            axes = (_CtrlGroup if kind == "ctrl" else _ArcGroup).AXES
            return [dict(zip(leaves, run)) for run in zip(*(
                np.split(leaf, np.cumsum(runs[axes[name][0]])[:-1],
                         axis=-2 if leaf.dtype.kind == "f" else -1)
                for name, leaf in leaves.items()
            ))]

        return self._by_kind(cells, split)


class CompileRegistry:
    """Get-or-build for the shared parts of compiles, held weakly.

    Layouts are keyed by the circuit object and its ``edit_epoch``,
    library parts (:class:`CompiledCircuit`) also by the library objects
    and the two loads of the boundary config (its PI windows do not
    enter a compile).  Every :class:`LevelCompiledAnalyzer` that
    does not bring loads of its own — and through it every
    :class:`~repro.sta.analysis.TimingAnalyzer`,
    :class:`~repro.pvt.CornerAnalyzer` and
    :class:`~repro.stat.engine.MonteCarloEngine` — takes its compile
    from here, so the analyzers of one circuit and library set share
    one layout, one load sweep and one compile.

    Entries live only while something else holds them: an analyzer or
    engine, or a library part its layout.  An entry holds its circuit
    and libraries, so while it lives their ids name them.  Get-or-build
    and :meth:`CompiledCircuit.extend` run under :attr:`lock`, because
    a server's executor thread and a caller's thread can both build.
    The registry decides only whether a build runs; the build itself is
    the constructor's and :meth:`CompiledCircuit.extend`'s.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._layouts: "weakref.WeakValueDictionary[tuple, CircuitLayout]"
        self._layouts = weakref.WeakValueDictionary()
        self._compiles: "weakref.WeakValueDictionary[tuple, CompiledCircuit]"
        self._compiles = weakref.WeakValueDictionary()

    def layout(self, circuit: Circuit) -> CircuitLayout:
        """The circuit's layout at its current edit epoch."""
        key = (id(circuit), circuit.edit_epoch)
        with self.lock:
            layout = self._layouts.get(key)
            if layout is None:
                layout = self._layouts[key] = CircuitLayout(circuit)
            return layout

    def compiled(
        self,
        circuit: Circuit,
        libraries: Sequence[CellLibrary],
        config: StaConfig,
        model: Optional[DelayModel] = None,
    ) -> CompiledCircuit:
        """The library part of ``libraries`` over the circuit's layout,
        extended for ``model`` (:meth:`CompiledCircuit.extend`); without
        a model, its groups are left to the first model that asks."""
        key = (
            id(circuit), circuit.edit_epoch,
            tuple(id(lib) for lib in libraries),
            config.po_load, config.dangling_load,
        )
        with self.lock:
            compiled = self._compiles.get(key)
            if compiled is None:
                compiled = self._compiles[key] = CompiledCircuit(
                    circuit, libraries, model, config,
                    layout=self.layout(circuit),
                )
            elif model is not None:
                compiled.extend(model)
            return compiled


#: The process-wide compile registry.
COMPILES = CompileRegistry()


# ----------------------------------------------------------------------
# Compiled pass output
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CompiledWindows:
    """SoA windows of one compiled pass.

    Rows index line x direction (rise rows first), columns index the
    batch axis (MC samples, PVT corners or what-if trials).  A pass's
    ``states`` are structural, one per row (``(2n,)``) and shared by
    every column; windows gathered column by column from separate
    passes carry one state per row and column (``(2n, B)``).  Results
    read a column through a :class:`ColumnTimings` view, which builds
    :class:`LineTiming` objects only for the lines a caller reads, and
    :meth:`envelope` reduces the columns to one without building any.
    """

    a_s: np.ndarray
    a_l: np.ndarray
    t_s: np.ndarray
    t_l: np.ndarray
    states: np.ndarray
    line_index: Dict[str, int]
    n_lines: int

    @property
    def n_columns(self) -> int:
        return self.a_s.shape[1]

    def row(self, line: str, rising: bool) -> int:
        idx = self.line_index[line]
        return idx if rising else idx + self.n_lines

    def column_states(self, column: int) -> np.ndarray:
        """The ``(2n,)`` states of one column."""
        return self.states if self.states.ndim == 1 else self.states[:, column]

    def window(self, line: str, rising: bool, column: int = 0) -> DirWindow:
        """One direction's :class:`DirWindow` (exact float round-trip)."""
        r = self.row(line, rising)
        state = int(self.column_states(column)[r])
        if state == IMPOSSIBLE:
            return DirWindow.impossible()
        return DirWindow(
            a_s=float(self.a_s[r, column]),
            a_l=float(self.a_l[r, column]),
            t_s=float(self.t_s[r, column]),
            t_l=float(self.t_l[r, column]),
            state=state,
        )

    def line_timing(self, line: str, column: int = 0) -> LineTiming:
        return LineTiming(
            rise=self.window(line, True, column),
            fall=self.window(line, False, column),
        )

    def envelope(self) -> "CompiledWindows":
        """The conservative envelope of every column, as one column.

        Per row, over the columns where it is active, the min of
        ``a_s`` / ``t_s`` and the max of ``a_l`` / ``t_l``; DEFINITE
        only if every active column is, IMPOSSIBLE if none is active:
        the window :func:`~repro.sta.windows.merge_dir_windows` builds
        from the columns' windows, bit for bit (min and max are exact).
        States may be a pass's, one per row, or one per row and column.
        """
        states = np.broadcast_to(
            self.states.reshape(len(self.states), -1), self.a_s.shape
        )
        active = states != IMPOSSIBLE
        definite = ((states == DEFINITE) | ~active).all(axis=1)
        return CompiledWindows(
            *(
                reduce(np.where(active, a, pad), axis=1, keepdims=True)
                for a, reduce, pad in (
                    (self.a_s, np.min, np.inf), (self.a_l, np.max, -np.inf),
                    (self.t_s, np.min, np.inf), (self.t_l, np.max, -np.inf),
                )
            ),
            np.select(
                [~active.any(axis=1), definite], [IMPOSSIBLE, DEFINITE],
                POTENTIAL,
            ).astype(np.int8),
            self.line_index, self.n_lines,
        )


class ColumnTimings(Mapping):
    """Read-only ``{line: LineTiming}`` view over one column of a
    :class:`CompiledWindows`: the ``timings`` of a compiled
    :class:`StaResult`.

    The constructor copies the column with ``tolist()``, which gives
    the bit-identical Python floats and detaches the view from later
    in-place writes to the arrays (the incremental engine re-times the
    last pass's state in place).  A line's :class:`LineTiming` is built
    on first access and kept, so every reader gets the same object and
    sees an in-place edit of it, as with a dict.  Lines iterate in
    circuit order.  Windows skip ``DirWindow.__init__`` validation: a
    finished pass satisfies the invariants by construction (the parity
    suite proves its windows equal to the validated per-gate walk's).
    """

    __slots__ = ("_index", "_n", "_a_s", "_a_l", "_t_s", "_t_l",
                 "_states", "_built")

    def __init__(self, windows: CompiledWindows, column: int) -> None:
        self._index = windows.line_index
        self._n = windows.n_lines
        self._a_s = windows.a_s[:, column].tolist()
        self._a_l = windows.a_l[:, column].tolist()
        self._t_s = windows.t_s[:, column].tolist()
        self._t_l = windows.t_l[:, column].tolist()
        self._states = windows.column_states(column).tolist()
        self._built: Dict[str, LineTiming] = {}

    def __getitem__(self, line: str) -> LineTiming:
        timing = self._built.get(line)
        if timing is None:
            i = self._index[line]
            timing = self._built[line] = LineTiming(
                rise=self._window(i), fall=self._window(i + self._n)
            )
        return timing

    def _window(self, r: int) -> DirWindow:
        state = self._states[r]
        if state == IMPOSSIBLE:
            return DirWindow.impossible()
        w = DirWindow.__new__(DirWindow)
        w.a_s = self._a_s[r]
        w.a_l = self._a_l[r]
        w.t_s = self._t_s[r]
        w.t_l = self._t_l[r]
        w.state = state
        return w

    def transition_rows(
        self, lines: Sequence[str], position: Mapping[str, int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(states, t_s, t_l)`` of ``lines``' rise rows, then their
        fall rows, read from the column without building windows.

        ``position`` maps each line to its place in ``lines``.  Lines a
        caller has already read come from their kept
        :class:`LineTiming`, so an in-place edit is seen as through
        ``self[line]``.  An impossible row's times are NaN, as in
        :meth:`DirWindow.impossible`.
        """
        index, n, k = self._index, self._n, len(lines)
        rows = [index[line] for line in lines]
        rows += [r + n for r in rows]
        states = np.array(self._states, dtype=np.int8)[rows]
        t_s = np.array(self._t_s)[rows]
        t_l = np.array(self._t_l)[rows]
        for line, timing in self._built.items():
            i = position[line]
            for r, w in ((i, timing.rise), (i + k, timing.fall)):
                states[r] = w.state
                t_s[r] = w.t_s
                t_l[r] = w.t_l
        impossible = states == IMPOSSIBLE
        t_s[impossible] = np.nan
        t_l[impossible] = np.nan
        return states, t_s, t_l

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, line: object) -> bool:
        return line in self._index


class LiveTimings(ColumnTimings):
    """A :class:`ColumnTimings` over window state that is re-timed in
    place: the incremental engine's master (:mod:`repro.sta.incremental`).

    It reads the column from the arrays themselves rather than from a
    copy, so it follows every in-place write.  A line's
    :class:`LineTiming` is still built on first read and kept;
    :meth:`forget` drops the lines a re-time rewrote, and their next
    read builds them afresh.
    """

    __slots__ = ()

    def __init__(self, windows: CompiledWindows, column: int = 0) -> None:
        self._index = windows.line_index
        self._n = windows.n_lines
        self._a_s = windows.a_s[:, column]
        self._a_l = windows.a_l[:, column]
        self._t_s = windows.t_s[:, column]
        self._t_l = windows.t_l[:, column]
        self._states = windows.column_states(column)
        self._built: Dict[str, LineTiming] = {}

    def _window(self, r: int) -> DirWindow:
        state = int(self._states[r])
        if state == IMPOSSIBLE:
            return DirWindow.impossible()
        w = DirWindow.__new__(DirWindow)
        w.a_s = float(self._a_s[r])
        w.a_l = float(self._a_l[r])
        w.t_s = float(self._t_s[r])
        w.t_l = float(self._t_l[r])
        w.state = state
        return w

    def forget(self, lines: Iterable[str]) -> None:
        """Drop the built windows of ``lines``, which a re-time rewrote."""
        built = self._built
        for line in lines:
            built.pop(line, None)


class ColumnRequired(Mapping):
    """Read-only ``{line: LineRequired}`` view over the required-time
    columns of one compiled backward pass
    (:meth:`LevelCompiledAnalyzer.required`).

    Like :class:`ColumnTimings`: the columns are copied with
    ``tolist()`` (the bit-identical Python floats), a line's
    :class:`LineRequired` is built on first access and kept, so every
    reader gets the same object, and lines iterate in circuit order.
    It compares equal to the per-gate walk's dict.
    """

    __slots__ = ("_index", "_n", "_q_s", "_q_l", "_built")

    def __init__(
        self,
        q_s: np.ndarray,
        q_l: np.ndarray,
        line_index: Dict[str, int],
        n_lines: int,
    ) -> None:
        self._index = line_index
        self._n = n_lines
        self._q_s = q_s.tolist()
        self._q_l = q_l.tolist()
        self._built: Dict[str, LineRequired] = {}

    def __getitem__(self, line: str) -> LineRequired:
        required = self._built.get(line)
        if required is None:
            i = self._index[line]
            j = i + self._n
            required = self._built[line] = LineRequired(
                rise=RequiredWindow(self._q_s[i], self._q_l[i]),
                fall=RequiredWindow(self._q_s[j], self._q_l[j]),
            )
        return required

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, line: object) -> bool:
        return line in self._index


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
class LevelCompiledAnalyzer:
    """Forward STA over the compiled form — bit-identical, batched.

    Args:
        circuit: Gate-level circuit under analysis.
        library: Characterized cell library, or a sequence of per-corner
            libraries (same cells, per-corner coefficients) to compile a
            corner-batched engine whose batch axis is the corner axis.
        model: Delay model (defaults to the proposed V-shape model).
        config: Boundary conditions (fixes the compiled load vector).
        loads: Precomputed line loads (see :class:`CompiledCircuit`).
            With them the analyzer compiles a circuit of its own, which
            the incremental engine patches in place; without them it
            takes its compile from :data:`COMPILES`, shared with every
            analyzer of the same circuit, epoch, libraries and boundary
            loads.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: Union[CellLibrary, Sequence[CellLibrary]],
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
        loads: Optional[Dict[str, float]] = None,
    ) -> None:
        self.circuit = circuit
        self.model = model if model is not None else VShapeModel()
        self.config = config or StaConfig()
        #: The merges this analyzer's passes run, whatever leaves the
        #: (possibly shared) compile carries.
        self._merge, self._peak = _model_leaves(self.model)
        obs = get_registry()
        self._obs = obs
        libraries = (
            [library] if isinstance(library, CellLibrary) else list(library)
        )
        if loads is None:
            compiled = COMPILES.compiled(
                circuit, libraries, self.config, self.model
            )
        else:
            # Loads of the caller's own (the incremental engine edits
            # them in place): a compile of its own too, over the shared
            # layout, which nothing writes.
            compiled = CompiledCircuit(
                circuit, libraries, self.model, self.config,
                loads=loads, layout=COMPILES.layout(circuit),
            )
        self.compiled = compiled
        self.library = self.compiled.library
        obs.gauge("sta.compile.levels").set(self.compiled.n_levels)
        obs.gauge("sta.compile.groups").set(self.compiled.n_groups)
        obs.gauge("sta.compile.gates").set(self.compiled.n_gates)
        obs.gauge("sta.compile.corners").set(self.compiled.n_corners)
        #: SoA state of the last ``analyze`` call (see that method).
        self.last_windows: Optional[CompiledWindows] = None
        self._m_gates = obs.counter("sta.gates_evaluated")
        self._m_corners = obs.counter("sta.corner_calls")
        self._m_passes = obs.counter("sta.compile.passes")
        self._m_cols = obs.counter("sta.compile.columns")
        self._m_scratch = obs.gauge("sta.compile.scratch_bytes")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def analyze(
        self, pi_overrides: Optional[Dict[str, LineTiming]] = None
    ) -> StaResult:
        """Single-scenario run; drop-in for ``TimingAnalyzer.analyze``.

        Returns:
            A :class:`StaResult` whose ``timings`` is a
            :class:`ColumnTimings` view of the pass.
        """
        compiled = self.propagate(pi_overrides=pi_overrides)
        # Retained for the incremental engine, which re-times cones by
        # mutating this state in place (see repro.sta.incremental).
        self.last_windows = compiled
        result = self._extract(compiled, 0)
        if self._obs.enabled:
            # Per line, rise then fall: the per-gate walk's order, so
            # both record the same observations in the same sequence.
            n = compiled.n_lines
            width = compiled.a_l[:, 0] - compiled.a_s[:, 0]
            active = compiled.states != IMPOSSIBLE
            pairs = np.stack([width[:n], width[n:]], axis=1)
            keep = np.stack([active[:n], active[n:]], axis=1)
            widths = self._obs.histogram("sta.window_width_s")
            for value in pairs[keep].tolist():
                widths.observe(value)
        return result

    def analyze_corners(
        self, derates: Optional[Tuple] = None
    ) -> List[StaResult]:
        """One batched pass over every compiled corner.

        Args:
            derates: Optional ``(early, late)`` derate pair; scalars or
                length-``n_corners`` vectors (see :meth:`propagate`).

        Returns:
            One :class:`StaResult` per corner library, in compile order,
            each bit-identical to a separate single-corner analyzer run
            with that corner's library and scalar derates.  Each is a
            :class:`ColumnTimings` view of its corner column, and
            :attr:`last_windows` keeps the whole pass, which is what
            :meth:`CompiledWindows.envelope` reduces for a multi-corner
            sign-off (see :class:`repro.pvt.CornerAnalyzer`).
        """
        compiled = self.propagate(derates=derates)
        self.last_windows = compiled
        return [
            self._extract(compiled, c) for c in range(compiled.n_columns)
        ]

    def propagate(
        self,
        factors: Optional[np.ndarray] = None,
        pi_overrides: Optional[Dict[str, LineTiming]] = None,
        derates: Optional[Tuple] = None,
    ) -> CompiledWindows:
        """The compiled forward pass over a batch of B columns.

        Args:
            factors: Per-gate variation factors ``(n_gates, B)`` aligned
                with ``circuit.topological_order()`` (Monte Carlo mode).
                Requires a single-corner compile — on a corner-batched
                compile the batch axis *is* the corner axis.
            pi_overrides: Per-PI windows replacing the default boundary
                condition (broadcast across all columns).
            derates: Optional ``(early, late)`` timing-derate pair.
                Each member is a scalar, or a length-``B`` vector (one
                value per batch column, e.g. per corner column).
                The early derate multiplies min-side responses
                (earliest arrivals / fastest transitions), the late
                derate max-side responses, after any variation factor.

        Returns:
            The raw SoA windows of every line direction.  On a
            corner-batched compile column ``c`` is corner ``c``'s pass,
            bit-identical to a single-corner compile of that corner's
            library run with its scalar derates.

        Raises:
            ValueError: On a malformed batch, a factor that is not
                finite and > 0, or derates that break
                :func:`check_derates`.
        """
        cc = self.compiled
        if cc.n_corners > 1 and factors is not None:
            raise ValueError(
                "factors require a single-corner compile; the batch axis "
                "of a corner-batched compile is the corner axis"
            )
        if factors is not None:
            factors = np.asarray(factors, dtype=float)
            if factors.ndim != 2 or factors.shape[0] != cc.n_gates:
                raise ValueError(
                    f"factor rows {factors.shape} != gates ({cc.n_gates},B)"
                )
            _check_positive("variation factor", factors)
            n_cols = factors.shape[1]
        else:
            n_cols = cc.n_corners
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if derates is not None:
            for d in derates:
                shape = np.shape(d)
                if len(shape) > 1 or (len(shape) == 1 and shape[0] != n_cols):
                    raise ValueError(
                        f"derate shape {shape} does not broadcast over "
                        f"{n_cols} batch column(s)"
                    )
            g = check_derates(derates)
        n_rows = 2 * cc.n_lines
        a_s = np.full((n_rows, n_cols), np.nan)
        a_l = np.full((n_rows, n_cols), np.nan)
        t_s = np.full((n_rows, n_cols), np.nan)
        t_l = np.full((n_rows, n_cols), np.nan)
        states = np.full(n_rows, IMPOSSIBLE, dtype=np.int8)
        self._init_pis(a_s, a_l, t_s, t_l, states, pi_overrides)
        arrays = (a_s, a_l, t_s, t_l)
        ws = Workspace()
        with self._obs.timer("sta.compile.pass_s"):
            for level in cc.levels:
                for group in level:
                    self.run_group(group, arrays, states, ws, factors, g)
        self._m_scratch.set(ws.nbytes)
        self._m_passes.inc()
        self._m_cols.inc(n_cols)
        # Work accounting: one corner search per gate per direction,
        # regardless of how many columns ride along.
        self._m_gates.inc(cc.n_gates)
        self._m_corners.inc(2 * cc.n_gates)
        return CompiledWindows(
            a_s, a_l, t_s, t_l, states, cc.line_index, cc.n_lines
        )

    def required(
        self,
        result: StaResult,
        po_required: Dict[str, LineRequired],
    ) -> ColumnRequired:
        """The compiled backward pass: required-time windows per line.

        Walks the forward levels in reverse over the forward groups.
        Every arc turns its output's ``(Q_S, Q_L)`` into the bound
        ``(Q_S - d_min, Q_L - d_max)`` on its input, with the pin-to-pin
        delay range over the input's transition window (and, under a
        pair-merge model, the V-shape minimum for to-controlling arcs).
        Bounds are folded into the input rows with ``np.maximum.at`` /
        ``np.minimum.at``: max and min are exact and order-free, so a
        line read by several arcs — across fan-out, or twice by one
        gate — gets the same bits as the per-gate walk.

        Args:
            result: Forward windows (any engine); arcs out of inactive
                input directions are skipped.  A compiled result's
                windows are read from its column, building no line
                (see :meth:`ColumnTimings.transition_rows`).
            po_required: Starting requirement per line (normally the
                primary outputs); every other line starts unconstrained.

        Returns:
            Required windows for every line, as a :class:`ColumnRequired`
            view that builds the lines a caller reads; equal, bit for
            bit, to the dict of
            :meth:`~repro.sta.analysis.TimingAnalyzer.compute_required_per_gate`.
        """
        cc = self.compiled
        if cc.n_corners > 1:
            raise ValueError("required times need a single-corner compile")
        n = cc.n_lines
        timings = result.timings
        if isinstance(timings, ColumnTimings):
            states, t_s, t_l = timings.transition_rows(
                cc.lines, cc.line_index
            )
        else:
            windows = [timings[line].rise for line in cc.lines]
            windows += [timings[line].fall for line in cc.lines]
            states = np.array([w.state for w in windows], dtype=np.int8)
            t_s = np.array([w.t_s for w in windows], dtype=float)
            t_l = np.array([w.t_l for w in windows], dtype=float)
        q_s = np.full((2 * n, 1), -np.inf)
        q_l = np.full((2 * n, 1), np.inf)
        unconstrained = RequiredWindow()
        for line, req in po_required.items():
            i = cc.line_index[line]
            for r, want in ((i, req.rise), (i + n, req.fall)):
                start = unconstrained.tighten(want)
                q_s[r] = start.q_s
                q_l[r] = start.q_l
        ins = (t_s[:, None], t_l[:, None], states)
        q = (q_s, q_l)
        back = self._back_arcs
        ws = Workspace()
        for level in reversed(cc.levels):
            for group in level:
                pack = _take(group.table.pack, group.pack)
                if isinstance(group, _CtrlGroup):
                    pins = group.counts["lane"]
                    back(pack, group.adj[0], group.in_rows,
                         np.repeat(group.out_rows, pins, axis=1), ins, q,
                         (group, ws) if self._merge else None)
                elif group.in_rows.size:
                    back(pack, group.adj[0], group.in_rows,
                         np.repeat(group.out_rows, group.seg_n), ins, q)
        return ColumnRequired(q_s[:, 0], q_l[:, 0], cc.line_index, n)

    # ------------------------------------------------------------------
    def run_group(
        self,
        group: Union[_CtrlGroup, _ArcGroup],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        ws: Workspace,
        factors: Optional[np.ndarray] = None,
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Run one (possibly column-subset) group against SoA state.

        ``arrays``/``states`` are a persistent ``(2 * n_lines, B)``
        window state (as produced by :meth:`propagate`), ``group`` is
        either a compiled group or a column subset (:meth:`_Ragged.cut`),
        ``ws`` the caller's workspace, reused by every group it runs,
        and ``factors`` the whole ``(n_gates, B)`` variation matrix (the
        group gathers its own rows).  The incremental engine's batched
        cone re-timing calls this directly.
        """
        if isinstance(group, _CtrlGroup):
            self._run_ctrl(group, factors, arrays, states, ws, g=g)
        else:
            self._run_arc(group, factors, arrays, states, g=g)

    # ------------------------------------------------------------------
    # Boundary conditions
    # ------------------------------------------------------------------
    def _init_pis(
        self,
        a_s: np.ndarray,
        a_l: np.ndarray,
        t_s: np.ndarray,
        t_l: np.ndarray,
        states: np.ndarray,
        pi_overrides: Optional[Dict[str, LineTiming]],
    ) -> None:
        cc = self.compiled
        arr_lo, arr_hi = self.config.pi_arrival
        trn_lo, trn_hi = self.config.pi_trans
        rows = np.array(
            [cc.row(pi, rising) for pi in self.circuit.inputs
             for rising in (True, False)],
            dtype=np.intp,
        )
        states[rows] = POTENTIAL
        a_s[rows] = arr_lo
        a_l[rows] = arr_hi
        t_s[rows] = trn_lo
        t_l[rows] = trn_hi
        for pi, override in (pi_overrides or {}).items():
            if not self.circuit.is_primary_input(pi):
                continue
            for rising in (True, False):
                row = cc.row(pi, rising)
                window = override.window(rising)
                if not window.is_active:
                    states[row] = IMPOSSIBLE
                    a_s[row] = a_l[row] = t_s[row] = t_l[row] = np.nan
                    continue
                states[row] = window.state
                a_s[row] = window.a_s
                a_l[row] = window.a_l
                t_s[row] = window.t_s
                t_l[row] = window.t_l

    # ------------------------------------------------------------------
    # Per-group forward kernels
    # ------------------------------------------------------------------
    @staticmethod
    def _scatter(
        rows: np.ndarray,
        ok: np.ndarray,
        state: np.ndarray,
        values: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
    ) -> None:
        """Write one output row per gate (or segment), of any number of
        responses; those with no active fan-in get NaN fields so a
        missed mask surfaces in the parity tests."""
        if ok.all():
            for target, value in zip(arrays, values):
                target[rows] = value
            states[rows] = state.astype(np.int8)
            return
        okb = ok[..., None]
        for target, value in zip(arrays, values):
            target[rows] = np.where(okb, value, np.nan)
        states[rows] = np.where(ok, state, IMPOSSIBLE).astype(np.int8)

    @staticmethod
    def _pin_to_pin(
        pack: _StackedPack,
        adj: np.ndarray,
        t_s_in: np.ndarray,
        t_l_in: np.ndarray,
        f: Optional[np.ndarray],
        g: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> Tuple[np.ndarray, ...]:
        """Per-lane ``(mins, maxs, c_lo, c_hi)``.

        Each lane's arc delay (row 0 of ``mins`` / ``maxs``) and
        transition (row 1) range over its clamped input window,
        load-adjusted, times the variation factor ``f`` and then the
        ``(early, late)`` derate pair ``g``, with the clamped endpoints.
        Any leading axes of the windows (a ctrl group's responses) ride
        along.
        """
        c_lo = np.minimum(np.maximum(t_s_in, pack.t_lo), pack.t_hi)
        c_hi = np.minimum(np.maximum(t_l_in, pack.t_lo), pack.t_hi)
        mins, maxs = quad_extremes_batch(
            *pack.quads, c_lo, np.maximum(c_hi, c_lo)
        )
        mins += adj
        maxs += adj
        if f is not None:
            mins *= f
            maxs *= f
        if g is not None:
            mins *= g[0]
            maxs *= g[1]
        return mins, maxs, c_lo, c_hi

    def _run_arc(
        self,
        grp: _ArcGroup,
        factors: Optional[np.ndarray],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Level-batched mirror of ``corners.arc_fanin_window``, both
        output directions of every gate in one call.

        Lanes gather their ``(A, C)`` coefficients from the table against
        the ``(A, B)`` gathered windows (per-corner columns when ``B ==
        C``); each segment's lanes reduce to its output row.
        """
        arr_a_s, arr_a_l, arr_t_s, arr_t_l = arrays
        if grp.no_arc_rows.size:
            states[grp.no_arc_rows] = IMPOSSIBLE
        rows = grp.in_rows
        if not rows.size:
            return
        seg = grp.seg_start
        st_in = states[rows]
        act = st_in != IMPOSSIBLE
        n_act = np.add.reduceat(act, seg, dtype=np.intp)
        f = None if factors is None else factors[grp.lane_order]
        (d_min, r_min), (d_max, r_max), _, _ = self._pin_to_pin(
            _take(grp.table.pack, grp.pack), grp.adj,
            arr_t_s[rows], arr_t_l[rows], f, g,
        )
        lows = arr_a_s[rows] + d_min
        highs = arr_a_l[rows] + d_max
        if not act.all():
            _mask(~act, lows, highs, r_min, r_max)
        out = (
            np.minimum.reduceat(lows, seg),
            np.maximum.reduceat(highs, seg),
            np.minimum.reduceat(r_min, seg),
            np.maximum.reduceat(r_max, seg),
        )
        any_def = np.logical_or.reduceat(st_in == DEFINITE, seg)
        state = np.where(any_def & (n_act == 1), DEFINITE, POTENTIAL)
        self._scatter(grp.out_rows, n_act > 0, state, out, arrays, states)

    def _run_ctrl(
        self,
        grp: _CtrlGroup,
        factors: Optional[np.ndarray],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        ws: Workspace,
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Level-batched mirror of ``corners.ctrl_response_window`` and
        ``corners.nonctrl_response_window`` (one group, both outputs).

        Both responses run as one: every per-lane and per-gate array
        carries the response axis first (0 to-controlling, 1
        to-non-controlling), so one gather, one pin-to-pin bound, one
        reduction per quantity and one scatter serve both; only the
        definite-switcher rule, the pair merge (response 0) and the
        Λ-peak (response 1) differ.  The lanes' arcs, gathered once per
        call, carry the trailing corner axis (size 1 on a single-corner
        compile) and broadcast against the ``(2, L, B)`` windows.
        ``g`` is the optional ``(early, late)`` derate pair: the early
        factor multiplies every min-side quantity (earliest arrivals,
        fastest transitions and the pair-merge candidates that can only
        lower them), the late factor every max-side quantity (latest
        arrivals, slowest transitions and the Λ-peak candidates that can
        only raise them), each applied *after* the variation factor.
        """
        arr_a_s, arr_a_l, arr_t_s, arr_t_l = arrays
        f = None if factors is None else factors[grp.lane_order]
        ls = grp.lane_start
        rows = grp.in_rows  # (2, L)
        st_in = states[rows]
        act = st_in != IMPOSSIBLE
        def_ = st_in == DEFINITE
        all_act = bool(act.all())
        a_s_in = arr_a_s[rows]  # (2, L, B)
        a_l_in = arr_a_l[rows]
        pack = _take(grp.table.pack, grp.pack)  # (14, 2, L, C)
        (d_min, r_min), (d_max, r_max), c_lo, c_hi = self._pin_to_pin(
            pack, grp.adj, arr_t_s[rows], arr_t_l[rows], f, g,
        )
        lows = a_s_in + d_min
        highs = a_l_in + d_max
        if not all_act:
            _mask(~act, lows, highs, r_min, r_max)
        a_s = np.minimum.reduceat(lows, ls, axis=1)  # (2, G, B)
        a_l = np.maximum.reduceat(highs, ls, axis=1)
        t_s = np.minimum.reduceat(r_min, ls, axis=1)
        t_l = np.maximum.reduceat(r_max, ls, axis=1)
        has_def = np.logical_or.reduceat(def_, ls, axis=1)  # (2, G)
        # A definite switcher bounds the to-controlling latest arrival by
        # its own path; definite switchers raise the to-non-controlling
        # earliest one.
        if has_def[0].any():
            a_l[0] = np.where(
                has_def[0][:, None],
                np.minimum.reduceat(
                    np.where(def_[0][:, None], highs[0], np.inf), ls
                ),
                a_l[0],
            )
        if has_def[1].any():
            a_s[1] = np.where(
                has_def[1][:, None],
                np.maximum.reduceat(
                    np.where(def_[1][:, None], lows[1], -np.inf), ls
                ),
                a_s[1],
            )
        if self._merge:
            self._pair_merge(
                grp, pack, f, None if g is None else g[0], act[0],
                bool(act[0].all()), a_s_in[0], a_l_in[0], c_lo[0], c_hi[0],
                a_s[0], t_s[0], ws,
            )
        if self._peak and grp.pgate is not None and grp.pgate.size:
            self._peak_merge(
                grp, pack, f, None if g is None else g[1],
                c_lo[1], c_hi[1], a_s_in[1], a_l_in[1], a_l[1], ws,
            )
        np.minimum(a_s, a_l, out=a_s)
        np.minimum(t_s[0], t_l[0], out=t_s[0])
        ok = (
            np.ones(has_def.shape, dtype=bool) if all_act
            else np.logical_or.reduceat(act, ls, axis=1)
        )
        self._scatter(
            grp.out_rows, ok, np.where(has_def, DEFINITE, POTENTIAL),
            (a_s, a_l, t_s, t_l), arrays, states,
        )

    @staticmethod
    def _pair_merge(
        grp: _CtrlGroup,
        pack: _StackedPack,
        f: Optional[np.ndarray],
        ge: Optional[np.ndarray],
        act: np.ndarray,
        all_act: bool,
        a_s_in: np.ndarray,
        a_l_in: np.ndarray,
        c_lo: np.ndarray,
        c_hi: np.ndarray,
        a_s: np.ndarray,
        t_s: np.ndarray,
        ws: Workspace,
    ) -> None:
        """The V-shape pair merge: lower the earliest arrivals ``a_s``
        and fastest transitions ``t_s`` (``(G, B)`` each) of the
        to-controlling response in place.

        Candidates involving an inactive lane carry NaN, fail every
        comparison and never enter a masked minimum — so gates with < 2
        active inputs self-mask.  ``pack`` holds the lanes' arcs and
        ``f`` their variation factors; a combo reads its gate's through
        its lane, its cell's surfaces and pair scale from the table.
        Every gather and intermediate goes into the pass's workspace
        ``ws``.

        Each quantity is computed at the coarsest axis it depends on.
        Combos run four per pair (combo ``4q + k`` is pair ``q``'s
        ``k``-th endpoint combination), so a ``(K, B)`` combo array views
        as ``(Q, 4, B)`` and a pair quantity — the window edges and the
        earliest arrivals — broadcasts from ``(Q, 1, B)``.  The earliest
        arrival is the fold of the pair breakpoints
        (:func:`~repro.sta.kernels.fold_pairs`, the minimum of
        ``floor(δ) + V(δ)``), then the k>2 candidate.
        """
        width = c_lo.shape[-1]
        n_lanes, n_gates = c_lo.shape[0], a_s.shape[0]
        # Overlap depth: for each (gate, j) count the gate's lanes i
        # covering j's start, then take the gate's deepest j.
        s_i = ws.take("s_i", a_s_in, grp.ov_i)
        s_j = ws.take("s_j", a_s_in, grp.ov_j)
        covers, reaches = ws("covers", (2,) + s_i.shape, bool)
        np.less_equal(s_i, s_j, out=covers)
        l_i = a_l_in.take(grp.ov_i, 0, s_i, "clip")  # s_i is read
        covers &= np.greater_equal(l_i, s_j, out=reaches)
        depth = np.maximum.reduceat(
            np.add.reduceat(covers, grp.ov_start, dtype=np.intp,
                            out=ws("cover_n", (n_lanes, width), np.intp)),
            grp.lane_start, out=ws("depth", (n_gates, width), np.intp),
        )  # (G, B)
        # Ratio lookup: the per-column corner index broadcasts to (1, 1)
        # on a single-corner compile — every batch column reads corner
        # 0 — and to the per-corner column when B == C; each pair reads
        # its gate's k, row-major into the flattened (k, corner) table.
        table = grp.table
        k = np.add(table.rt_at[grp.cell][:, None], depth, out=depth)
        n_pairs = grp.pa.size
        at = ws.take("k_at", k, grp.pair_gate)
        n_c = table.rt.shape[-1]
        at *= n_c
        at += np.arange(n_c, dtype=np.intp)
        ratio, t_ratio = ws.take("ratio", table.rt.reshape(2, -1), at, 1)
        tc = np.stack(
            [c_lo, c_hi], axis=1, out=ws("tc", (n_lanes, 2, width))
        )
        # One cube root per real pin endpoint; the combos index into it.
        rc = cbrt_grid(tc).reshape(-1, width)
        adj = grp.adj[:, 0]  # (2, L, C): delay and transition terms
        # Both families' tails at once: (2, L, 2, B).
        drtr = end_tails(
            pack[0].quads[:3, :, :, None], adj[:, :, None], tc, ws, f, ge
        )
        # Each combo's (lower, upper) pin endpoint, stacked (2, K, B),
        # and the delay tails at them.
        ends = grp.ends
        t_end = ws.take("t_end", tc.reshape(-1, width), ends)
        roots = ws.take("roots", rc, ends)
        dr_end = ws.take("dr_end", drtr[0].reshape(-1, width), ends)
        fc = None if f is None else ws.take("fc", f, grp.ca)
        adj_c = ws.take("adj_c", adj, grp.ca, 1)
        # Each combo's own cell surfaces and its gate's load terms.
        shape = _gather(ws, "shape", table.shape, grp.cell[grp.combo_gate])
        cube = shape.cube.eval_roots(*roots, ws, "cube")  # D0, the vertex
        d0, sat = anchor_surfaces(
            shape, t_end, cube[0],
            _gather(ws, "scale", table.scale, grp.scale_c), dr_end,
            adj_c[0], np.minimum, ws, f=fc, g=ge,
        )
        sat *= _SIGNS  # (+S, -S)

        def quads(x: np.ndarray) -> np.ndarray:
            return x.reshape(x.shape[:-2] + (n_pairs, 4, width))

        # ---- pair level (Q, 1, B) ----
        pa, pb = grp.pa, grp.pb
        asi, asj, ali, alj, blo, bhi, lhs = ws("pair", (7, n_pairs, 1, width))
        _pair_rows(a_s_in, a_l_in, pa, pb, asi, asj, ali, alj, blo, bhi)

        # ---- combo level (Q, 4, B) ----
        d0q, sat_q = quads(d0), quads(sat)
        best = fold_pairs(
            np.minimum, asi, asj, blo, bhi, d0q, quads(dr_end), sat_q, ws
        )
        # Same tolerance and form as DirWindow.overlaps_arrivals.
        pair_ov, rhs = ws("pair_ov", (2,) + asi.shape, bool)
        np.less_equal(asi, np.add(alj, OVERLAP_TOL, out=lhs), out=pair_ov)
        np.less_equal(asj, np.add(ali, OVERLAP_TOL, out=lhs), out=rhs)
        pair_ov &= rhs
        # The k>2 candidate rides on each pair's (t_s, t_s) combo (the
        # last read of d0).
        k_cand = np.maximum(asi, asj, out=lhs)[:, 0]
        k_cand += np.multiply(d0q[:, 0], ratio, out=d0q[:, 0])
        below = np.less(ratio, 1.0, out=ws("below", ratio.shape, bool))
        np.minimum(
            best[:, 0], k_cand, out=best[:, 0],
            where=np.logical_and(pair_ov[:, 0], below, out=below),
        )
        reduced = ws("reduced", a_s.shape)
        np.minimum.reduceat(best.reshape(-1, width), grp.combo_start,
                            out=reduced)
        np.minimum(a_s, reduced, out=a_s)

        # ---- transition-time merge (SK_t,min rule) ----
        # The transition tails at the combos' endpoints (roots are read).
        tr_end = drtr[1].reshape(-1, width).take(ends, 0, roots, "clip")
        vskew, vval = (
            quads(x) for x in trans_anchor_surfaces(
                shape, t_end, cube[1], tr_end, adj_c[1], sat, ws, f=fc, g=ge,
            )
        )
        delta_t = np.maximum(vskew, blo, out=ws("delta_t", vskew.shape))
        np.minimum(delta_t, bhi, out=delta_t)
        tval = _trans_v(delta_t, vskew, vval, sat_q, quads(tr_end), ws)
        t_ratio = t_ratio[:, None]
        scaled = np.multiply(vval, t_ratio, out=delta_t)  # delta_t is read
        below = np.less(t_ratio, 1.0, out=ws("below", t_ratio.shape, bool))
        np.minimum(
            tval, scaled, out=tval,
            where=np.logical_and(pair_ov, below, out=below),
        )
        if not all_act:
            # Unlike the arrival candidates there is no validity
            # filter here, so combos touching an inactive lane need
            # an explicit mask before the reduction.
            pair_act = act[pa] & act[pb]
            np.copyto(tval, np.inf, where=~pair_act[:, None, None])
        np.minimum.reduceat(tval.reshape(-1, width), grp.combo_start,
                            out=reduced)
        np.minimum(t_s, reduced, out=t_s)

    @staticmethod
    def _peak_merge(
        grp: _CtrlGroup,
        pack: _StackedPack,
        f: Optional[np.ndarray],
        gl: Optional[np.ndarray],
        c_lo: np.ndarray,
        c_hi: np.ndarray,
        a_s_in: np.ndarray,
        a_l_in: np.ndarray,
        a_l: np.ndarray,
        ws: Workspace,
    ) -> None:
        """The Λ-peak slow-down of the non-controlling response: raise
        the latest arrival ``a_l`` of each gate with peak data in place.

        The V's merge mirrored: peak lanes and combos exist only for
        those gates, and P0 is clamped from below, but the tails, the
        anchors and the breakpoint fold (with ``np.maximum`` over the
        latest arrivals) are the V's, in the same workspace ``ws``.  The
        peak's tails are its pins' to-non-controlling arcs (``pack[1]``)
        at the window endpoints the pin-to-pin bounds clamped against
        them (``c_lo`` / ``c_hi``, per lane, of the lanes' arcs
        ``pack``), plus the gate's to-non-controlling delay terms.
        """
        lanes = grp.plane
        width = c_lo.shape[-1]
        tc = ws("tc", (lanes.size, 2, width))  # (Lp, 2, B)
        c_lo.take(lanes, 0, tc[:, 0], "clip")
        c_hi.take(lanes, 0, tc[:, 1], "clip")
        tails = end_tails(
            pack[1].quads[:3, 0, lanes, None],  # delay family
            grp.adj[0, 1][lanes][:, None], tc, ws,
            None if f is None else f[lanes], gl,
        )
        ends = grp.pends
        roots = ws.take("roots", cbrt_grid(tc).reshape(-1, width), ends)
        tail = ws.take("dr_end", tails.reshape(-1, width), ends)  # (p, q)
        peak = _gather(ws, "shape", grp.table.peak, grp.peak[grp.pcombo_gate])
        p0, s = anchor_surfaces(
            peak, ws.take("t_end", tc.reshape(-1, width), ends),
            peak.d0.eval_roots(*roots, ws, "cube"),
            _gather(ws, "scale", grp.table.pscale, grp.pscale_c), tail,
            grp.adj[0, 1][grp.pca], np.maximum, ws,
            f=None if f is None else ws.take("fc", f, grp.pca), g=gl,
        )
        s *= _SIGNS
        n_pairs = grp.pca.size // 4

        def quads(x: np.ndarray) -> np.ndarray:
            return x.reshape(x.shape[:-2] + (n_pairs, 4, width))

        # ---- pair level (Q, 1, B) ----
        pa, pb = grp.pca[::4], grp.pcb[::4]
        asi, asj, ali, alj, blo, bhi = ws("pair", (6, n_pairs, 1, width))
        _pair_rows(a_s_in, a_l_in, pa, pb, asi, asj, ali, alj, blo, bhi)

        # ---- combo level (Q, 4, B); the +S tail is q's ----
        best = fold_pairs(
            np.maximum, ali, alj, blo, bhi,
            quads(p0), quads(tail)[::-1], quads(s), ws,
        )
        gates = grp.pgate
        a_l[gates] = np.maximum(
            a_l[gates],
            np.maximum.reduceat(
                best.reshape(-1, width), grp.pcombo_start,
                out=ws("reduced", (gates.size, width)),
            ),
        )

    # ------------------------------------------------------------------
    # Per-group backward kernels
    # ------------------------------------------------------------------
    @classmethod
    def _back_arcs(
        cls,
        pack: _StackedPack,
        d_adj: np.ndarray,
        in_rows: np.ndarray,
        out_rows: np.ndarray,
        ins: Tuple[np.ndarray, np.ndarray, np.ndarray],
        q: Tuple[np.ndarray, np.ndarray],
        merge: Optional[Tuple[_CtrlGroup, Workspace]] = None,
    ) -> None:
        """Fold the lanes' arcs (rows ``in_rows`` -> ``out_rows``, with
        any leading axes, a ctrl group's responses) into the required
        windows ``q`` of their inputs.

        ``d_min`` / ``d_max`` are the forward pass's own expressions;
        ``merge`` (a pair-merge ctrl group whose arcs these are, and the
        pass's workspace) swaps in the V-shape minimum for the
        to-controlling ``d_min``.
        """
        t_s, t_l, states = ins
        q_s, q_l = q
        act = states[in_rows] != IMPOSSIBLE  # (..., L)
        c_lo = np.minimum(np.maximum(t_s[in_rows], pack.t_lo), pack.t_hi)
        c_hi = np.minimum(np.maximum(t_l[in_rows], pack.t_lo), pack.t_hi)
        mins, maxs = quad_extremes_batch(
            *pack.quads[:, 0], c_lo, np.maximum(c_hi, c_lo)
        )
        d_min = mins + d_adj
        d_max = maxs + d_adj
        if merge is not None:
            d_min[0] = cls._vshape_min(
                *merge, pack, d_min[0], c_lo[0], c_hi[0]
            )
        lo = q_s[out_rows] - d_min
        hi = q_l[out_rows] - d_max
        if not act.all():
            actb = act[..., None]
            lo = np.where(actb, lo, -np.inf)
            hi = np.where(actb, hi, np.inf)
        in_rows = in_rows.ravel()
        np.maximum.at(q_s, in_rows, lo.reshape(-1, 1))
        np.minimum.at(q_l, in_rows, hi.reshape(-1, 1))

    @staticmethod
    def _vshape_min(
        grp: _CtrlGroup,
        ws: Workspace,
        pack: _StackedPack,
        d_min: np.ndarray,
        c_lo: np.ndarray,
        c_hi: np.ndarray,
    ) -> np.ndarray:
        """Smallest to-controlling delay through each pin, ``(L, 1)``.

        The per-gate ``_ctrl_min_delay``: a perfectly aligned partner
        brings the delay down to the V-shape vertex, so every (pin,
        partner) pair contributes ``min(D0, DR_pin, DR_partner)`` with
        the pin at its clamped ``t_s`` / ``t_l`` and the partner at its
        arc's ``t_lo`` / ``t_hi``.  The pin's minimum over those and its
        pin-to-pin ``d_min`` is scaled by the cell's smallest
        multi-input ratio.  ``pack`` holds the lanes' arcs.
        """
        table = grp.table
        pack = pack[0]
        d_adj = grp.adj[0, 0]
        t = np.stack([c_lo, c_hi, pack.t_lo, pack.t_hi], axis=1)  # (L, 4, 1)
        roots = cbrt_grid(t).reshape(-1, 1)
        a2, a1, a0 = pack.quads[:3, 0, :, None]  # delay family
        dr = ((a2 * t + a1) * t + a0 + d_adj[:, None]).reshape(-1, 1)
        # The candidates, pin-major (see _fanin_template), re-based from
        # each gate's template into the group's grid and combo rows.
        n = grp.counts["lane"]
        tpl = _fanin_tables(int(n.max()))
        gate, local = _elements(4 * n * (n - 1))
        fanin = n[gate]
        grid = 4 * grp.lane_start[gate]
        x, y, own, other, combo = (
            tpl[name][fanin, local] + base
            for name, base in (
                ("m_x", grid), ("m_y", grid), ("m_own", grid),
                ("m_oth", grid), ("m_combo", grp.combo_start[gate]),
            )
        )
        d0 = (
            _take(table.shape.d0, grp.cell[grp.combo_gate[combo]])
            .eval_roots(roots[x], roots[y], ws, "d0")
            * _take(table.scale, grp.scale_c[combo])
            + d_adj[grp.ca[combo]]
        )
        cand = np.minimum(np.minimum(d0, dr[own]), dr[other])
        per_pin = np.minimum.reduceat(
            cand, _excl(4 * (np.repeat(n, n) - 1))
        )
        return np.minimum(d_min, per_pin) * _take(
            table.rt_min, np.repeat(grp.cell, n)
        )

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def _extract(self, compiled: CompiledWindows, column: int) -> StaResult:
        """One column as a :class:`StaResult` over a
        :class:`ColumnTimings` view; building the view is one
        ``sta.compile.extract_s`` observation."""
        with self._obs.timer("sta.compile.extract_s"):
            return StaResult(self.circuit, ColumnTimings(compiled, column))

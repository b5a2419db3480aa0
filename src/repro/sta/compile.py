"""Level-compiled structure-of-arrays STA: the whole-circuit fast pass.

:class:`repro.sta.analysis.TimingAnalyzer` walks the circuit one gate at
a time; even with the batched corner kernels the full pass pays Python
dispatch, window (un)boxing and memo bookkeeping per gate.  This module
compiles circuit + library **once** into a level-ordered
structure-of-arrays form and then evaluates each *level* in a handful of
NumPy ops:

* every line direction becomes one row of four big ``(2 * n_lines, B)``
  arrays (``A_S`` / ``A_L`` / ``T_S`` / ``T_L``) plus a structural
  ``(2 * n_lines,)`` state vector — rise rows first, fall rows offset by
  ``n_lines``;
* gates are grouped per level by *shape* (fan-in count and arc-table
  layout, not cell name), so a NAND2 and a NOR2 at the same level ride
  through the same kernel invocation with per-gate coefficient columns;
* a forward pass gathers each group's input windows ``(P, G, B)``,
  evaluates the DR / D0R / SR corner-candidate surfaces for all ``G``
  gates at once — the same candidate sets as
  :mod:`repro.sta.kernels`, with inactive fan-in lanes carried as NaN
  and masked out of every reduction — and scatters the output windows;
* a backward pass (:meth:`LevelCompiledAnalyzer.required`) walks the
  same levels in reverse over the same groups, turning each output's
  required-time window into per-arc bounds on its inputs and folding
  them in with ``np.maximum.at`` / ``np.minimum.at``.

Compile layout.  The paper characterizes its K-coefficient formulas
once per cell, and the compile follows that structure:

1. per shape key, every distinct cell gets one column of a *cell
   table*: its quadratic arc packs, V-shape / Λ-peak surface
   coefficients, pair scales, multi-input ratio tables and load slopes,
   laid out once per library as ``(..., n_cells, C)`` leaves (``C``
   corner libraries on the trailing axis);
2. all gates of the key, in (level, topological) order, gather their
   columns from the table with one fancy index per leaf; the
   gather/scatter rows (line index plus direction offset) and the load
   adjustments ``slope * (load - ref_load)`` are computed as whole
   vectors — elementwise IEEE ops, so they equal the scalar values;
3. each (level, shape key) group is a contiguous gate-axis slice of
   those key-wide arrays, copied so every group leaf is contiguous.

Every group leaf follows one rule: float leaves are coefficients
``(..., G, C)`` and integer leaves are rows ``(..., G)``.  Column
subsets (:func:`subset_group`) and in-place patches
(:meth:`CompiledCircuit.patch_gate`) walk the same leaves, and a patch
builds its gate's column with the compile's own code.

The trailing axis ``B`` generalizes the Monte Carlo engine's trailing
sample axis (:mod:`repro.stat.engine`): it batches MC samples (via
per-gate variation ``factors``) *and* boundary-condition scenarios (via
``boundaries``) through the very same compiled pass.

Exactness contract: the pass is **bit-identical** to the scalar
reference and to :class:`TimingAnalyzer`.  Cube roots go through
:func:`~repro.sta.kernels.cbrt_grid`; masked reductions pad with
``±inf`` (identity under min/max); stacked surface evaluation repeats
the exact expression of :mod:`repro.characterize.formulas` with
per-gate coefficient columns (same IEEE ops per element); the
pair-overlap predicate uses the exact ``a_s <= a_l + OVERLAP_TOL`` form
of :meth:`~repro.sta.windows.DirWindow.overlaps_arrivals`; and every
load adjustment repeats the scalar expression of
:meth:`~repro.characterize.library.CellTiming.load_adjusted_delay`.
The backward pass keeps the same contract against
:meth:`~repro.sta.analysis.TimingAnalyzer.compute_required_per_gate`:
its only reductions are min and max, which are exact and independent
of the order in which fan-out branches are folded in.
The ``test_sta_compile`` parity suite and the ``level`` fuzz oracle
enforce this.
"""

from __future__ import annotations

import dataclasses
import itertools
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..characterize.library import (
    CellLibrary,
    CellTiming,
    SimultaneousTiming,
    pair_key,
)
from ..circuit.netlist import Circuit, Gate
from ..models.base import DelayModel
from ..models.vshape import VShapeModel
from ..obs import get_registry
from .analysis import StaConfig, StaResult, compute_loads
from .kernels import (
    KernelContext,
    _pair_combos,
    _peak_delay,
    _trans_v,
    _v_delay,
    cbrt_grid,
    overlap_depth,
    peak_anchor_surfaces,
    quad_extremes_batch,
    ratio_table,
    trans_anchor_surfaces,
    vshape_anchor_surfaces,
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

#: One boundary scenario: ((a_s, a_l), (t_s, t_l)) applied to every PI.
Boundary = Tuple[Tuple[float, float], Tuple[float, float]]


def _shape_key(cell: CellTiming, peak_enabled: bool) -> tuple:
    """Kernel-shape grouping key of one cell.

    Gates are grouped by this key, not by cell name: any two cells with
    the same key ride through the same stacked kernel invocation, which
    is also exactly the condition under which one gate's coefficient
    columns can be rewritten in place (:meth:`CompiledCircuit.patch_gate`).
    """
    if cell.controlling_value is not None and cell.n_inputs >= 2:
        uses_peak = peak_enabled and getattr(cell, "nonctrl", None) is not None
        return ("ctrl", cell.n_inputs, uses_peak)
    arcs_t = sum(
        1
        for pin in range(cell.n_inputs)
        for d in (True, False)
        if cell.has_arc(pin, d, True)
    )
    arcs_f = sum(
        1
        for pin in range(cell.n_inputs)
        for d in (True, False)
        if cell.has_arc(pin, d, False)
    )
    return ("arc", cell.n_inputs, arcs_t, arcs_f)


# ----------------------------------------------------------------------
# Stacked surfaces: per-gate coefficient columns
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _StackedRoots:
    """Per-gate columns of :class:`CubeRootSurface` coefficients.

    ``eval_roots`` repeats the source expression verbatim, so each
    element sees the exact float ops of its own cell's surface.
    """

    k_xy: np.ndarray
    k_x: np.ndarray
    k_y: np.ndarray
    k_c: np.ndarray

    def eval_roots(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.k_xy * x * y + self.k_x * x + self.k_y * y + self.k_c


@dataclasses.dataclass(frozen=True)
class _StackedQuad2:
    """Per-gate columns of :class:`QuadForm2` coefficients."""

    k0: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    k4: np.ndarray
    k5: np.ndarray

    def eval_many(self, txs: np.ndarray, tys: np.ndarray) -> np.ndarray:
        return (
            self.k0 * txs * txs
            + self.k1 * tys * tys
            + self.k2 * txs * tys
            + self.k3 * txs
            + self.k4 * tys
            + self.k5
        )


@dataclasses.dataclass(frozen=True)
class _StackedLin2:
    """Per-gate columns of :class:`LinForm2` coefficients."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def eval_many(self, txs: np.ndarray, tys: np.ndarray) -> np.ndarray:
        return self.c0 + self.c1 * txs + self.c2 * tys


@dataclasses.dataclass(frozen=True)
class _StackedShape:
    """Per-gate columns of a :class:`SimultaneousTiming` record.

    Duck-types the attribute surface the anchor primitives of
    :mod:`repro.sta.kernels` touch (``d0`` / ``s_pos`` / ``s_neg`` /
    ``t_vertex`` / ``t_vertex_skew``); every leaf is ``(G, C)``.
    """

    d0: _StackedRoots
    s_pos: _StackedQuad2
    s_neg: _StackedQuad2
    t_vertex: _StackedRoots
    t_vertex_skew: _StackedLin2


@dataclasses.dataclass(frozen=True)
class _StackedPack:
    """Per-gate columns of an :class:`~repro.sta.kernels.ArcPack`.

    ``t_lo`` / ``t_hi`` / ``d_*`` are ``(A, G, C)`` and the stacked
    quadratic families ``q_*`` are ``(2, A, G, C)`` (delay row 0,
    transition row 1).
    """

    t_lo: np.ndarray
    t_hi: np.ndarray
    q_a2: np.ndarray
    q_a1: np.ndarray
    q_a0: np.ndarray
    d_a2: np.ndarray
    d_a1: np.ndarray
    d_a0: np.ndarray


# ----------------------------------------------------------------------
# Compiled gate groups
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _CtrlGroup:
    """Same-shape controlling-value gates of one level.

    Gather/scatter arrays hold *rows* of the global SoA arrays; the
    leading axis is the pin, the gate axis follows, and every numeric
    coefficient array additionally carries the trailing corner axis
    ``C`` (size 1 for a single-corner compile).
    """

    n_pins: int
    pack: _StackedPack          # to-controlling arcs
    npack: _StackedPack         # to-non-controlling arcs
    ppack: Optional[_StackedPack]  # Λ-peak tails (None without peak data)
    shape: Optional[_StackedShape]    # V-shape surfaces (None w/o merge)
    peak: Optional[_StackedShape]     # Λ-peak surfaces
    ctrl_rows: np.ndarray     # (P, G) input rows, controlling direction
    nonctrl_rows: np.ndarray  # (P, G) input rows, non-controlling direction
    out_ctrl: np.ndarray      # (G,) output rows of the ctrl response
    out_nonctrl: np.ndarray   # (G,)
    order_idx: np.ndarray     # (G,) rows into the MC factor matrix
    gate_idx: np.ndarray      # (G, 1) arange(G) column for table lookups
    d_adj_c: np.ndarray       # (G, C) load-adjust terms (ctrl delay)
    r_adj_c: np.ndarray
    d_adj_n: np.ndarray
    r_adj_n: np.ndarray
    p_adj: Optional[np.ndarray]
    scale_c: Optional[np.ndarray]   # (4 * pairs, G, C) V-shape pair scales
    pscale_c: Optional[np.ndarray]  # (4 * pairs, G, C) Λ-peak pair scales
    rt: Optional[np.ndarray]        # (P+1, G, C) multi-input delay ratios
    rt_t: Optional[np.ndarray]      # (P+1, G, C) multi-input trans ratios
    rt_min: Optional[np.ndarray]    # (G, C) smallest delay ratio (backward)
    pa: Optional[np.ndarray]        # (pairs,) first member pin
    pb: Optional[np.ndarray]        # (pairs,) second member pin
    #: bumped by every in-place patch; column-subset caches key on it.
    version: int = 0


@dataclasses.dataclass
class _ArcDir:
    """One output direction of an arc-table (inv/buf/xor) group."""

    pack: _StackedPack    # (A, G, C) arc rows feeding this direction
    in_rows: np.ndarray   # (A, G) input rows (pin + input direction)
    out_rows: np.ndarray  # (G,)
    d_adj: np.ndarray     # (G, C)
    r_adj: np.ndarray     # (G, C)


@dataclasses.dataclass
class _ArcGroup:
    """Same-shape arc-table gates of one level."""

    order_idx: np.ndarray  # (G,)
    dirs: Tuple[Optional[_ArcDir], Optional[_ArcDir]]  # (rise, fall)
    no_arc_rows: np.ndarray  # (k, G) output rows of the k arc-less directions
    #: bumped by every in-place patch; column-subset caches key on it.
    version: int = 0


# ----------------------------------------------------------------------
# The leaf layout: cell tables, gate-axis cuts and column writes
# ----------------------------------------------------------------------
#: Integer group leaves that are not per gate.
_GROUP_WIDE = frozenset({"gate_idx", "pa", "pb"})

#: (SimultaneousTiming attribute, stacked class); every stacked field is
#: named after the source surface's coefficient.
_SURFACES = (
    ("d0", _StackedRoots),
    ("s_pos", _StackedQuad2),
    ("s_neg", _StackedQuad2),
    ("t_vertex", _StackedRoots),
    ("t_vertex_skew", _StackedLin2),
)


def _take(obj, idx: np.ndarray):
    """A group tree (or cell-table leaf) gathered to the gates ``idx``.

    Float leaves are gathered on their gate axis -2, integer leaves on
    -1, into fresh contiguous arrays; ``_GROUP_WIDE`` fields pass
    through, and a ctrl group's ``gate_idx`` is re-derived for the new
    gate count.
    """
    if isinstance(obj, np.ndarray):
        return obj.take(idx, axis=-1 if obj.dtype.kind == "i" else -2)
    if isinstance(obj, tuple):
        return tuple(_take(item, idx) for item in obj)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is None:
        return obj  # None, pin counts, versions
    cut = type(obj)(**{
        name: getattr(obj, name) if name in _GROUP_WIDE
        else _take(getattr(obj, name), idx)
        for name in fields
    })
    if isinstance(cut, _CtrlGroup):
        cut.gate_idx = np.arange(idx.size, dtype=np.intp)[:, None]
    return cut


def _put(dst, col: int, src) -> None:
    """Write gate 0 of group tree ``src`` into column ``col`` of ``dst``."""
    if isinstance(dst, np.ndarray):
        if dst.dtype.kind == "i":
            dst[..., col] = src[..., 0]
        else:
            dst[..., col, :] = src[..., 0, :]
    elif isinstance(dst, tuple):
        for d, s in zip(dst, src):
            _put(d, col, s)
    else:
        for name in getattr(dst, "__dataclass_fields__", ()):
            if name not in _GROUP_WIDE:
                _put(getattr(dst, name), col, getattr(src, name))


def _table(cells: Sequence[Sequence[object]], get: Callable) -> np.ndarray:
    """One cell-table leaf: ``get(x)`` per ``cells[cell][corner]``.

    The per-cell value (a scalar or an array of any shape) keeps its
    axes in front; the cell and corner axes trail: ``(..., n_cells, C)``.
    """
    values = np.array([[get(x) for x in row] for row in cells], dtype=float)
    return np.ascontiguousarray(np.moveaxis(values, (0, 1), (-2, -1)))


def _pack_table(packs: Sequence[Sequence[object]]) -> _StackedPack:
    """Cell table of :class:`~repro.sta.kernels.ArcPack` leaves."""
    return _StackedPack(**{
        f.name: _table(packs, attrgetter(f.name))
        for f in dataclasses.fields(_StackedPack)
    })


def _surface_table(
    records: Sequence[Sequence[SimultaneousTiming]],
) -> _StackedShape:
    """Cell table of one :class:`SimultaneousTiming` record per cell."""
    return _StackedShape(**{
        attr: cls(**{
            f.name: _table(records, attrgetter(f"{attr}.{f.name}"))
            for f in dataclasses.fields(cls)
        })
        for attr, cls in _SURFACES
    })


def _pair_scales(record: SimultaneousTiming, pairs) -> np.ndarray:
    """Per-combo D0 pair scales (each pair's scale repeated 4 times)."""
    return np.repeat(
        np.array(
            [record.pair_scale.get(pair_key(a, b), 1.0) for a, b in pairs],
            dtype=float,
        ),
        4,
    )


def _min_ratio(record: SimultaneousTiming) -> float:
    """Smallest multi-input delay ratio (1.0, an exact identity, if none)."""
    ratios = [float(v) for v in record.multi_scale.values()]
    return min(ratios) if ratios else 1.0


def _dir(rising: bool) -> str:
    return "R" if rising else "F"


_PARTNER_CACHE: Dict[int, Tuple[np.ndarray, ...]] = {}


def _partner_combos(n: int) -> Tuple[np.ndarray, ...]:
    """Index arrays of the backward pass's V-shape minimum candidates.

    Candidates run pin-major — for each pin, every other pin as its
    partner, then (pin ``t_s``, pin ``t_l``) x (partner arc ``t_lo``,
    ``t_hi``) — so the ``4 * (n - 1)`` candidates of one pin are one
    contiguous run.  Rows index a stacked ``(2n, 2, ...)`` array: the
    pins' clamped windows first, the partners' arc endpoints after.

    Returns:
        ``(own_i, own_k, other_i, other_k, x_i, x_k, y_i, y_k,
        scale_row)``: the candidate's own and partner endpoints, the
        same two in pin-position order (the D0 surface's ``x`` is the
        lower position), and the pair's row in ``scale_c``.
    """
    entry = _PARTNER_CACHE.get(n)
    if entry is not None:
        return entry
    _, _, _, _, pairs = _pair_combos(n)
    scale_row = {pair: 4 * k for k, pair in enumerate(pairs)}
    rows = []
    for pin in range(n):
        for partner in range(n):
            if partner == pin:
                continue
            for k_own in (0, 1):
                for k_other in (0, 1):
                    own, other = (pin, k_own), (n + partner, k_other)
                    x, y = (own, other) if pin < partner else (other, own)
                    rows.append((
                        *own, *other, *x, *y,
                        scale_row[min(pin, partner), max(pin, partner)],
                    ))
    entry = tuple(np.array(col, dtype=np.intp) for col in zip(*rows))
    _PARTNER_CACHE[n] = entry
    return entry


# ----------------------------------------------------------------------
# Column subsets: cone-limited kernel runs (incremental STA)
# ----------------------------------------------------------------------
def subset_group(
    group: Union["_CtrlGroup", "_ArcGroup"], cols: Sequence[int]
) -> Union["_CtrlGroup", "_ArcGroup"]:
    """A column subset of one compiled group, runnable on its own.

    The subset gathers the selected gates' leaves (copies — the source
    group stays patchable) while the row-gather arrays keep pointing
    into the *global* SoA state, so running the subset through the
    level kernels recomputes exactly those gates, bitwise as in a full
    pass.  This is the unit of work of the incremental engine's batched
    cone re-timing.
    """
    return _take(group, np.asarray(cols, dtype=np.intp))


# ----------------------------------------------------------------------
# Compiled circuit
# ----------------------------------------------------------------------
class CompiledCircuit:
    """Circuit + library compiled into level-ordered SoA form.

    Args:
        circuit: Gate-level circuit under analysis.
        library: Characterized cell library, or a sequence of libraries
            (one per PVT corner) for a corner-batched compile.  With
            ``C`` corners every coefficient array gains a trailing
            corner axis of size ``C`` and a pass produces one batch
            column per corner; a single library compiles with ``C = 1``.
        model: Delay model — decides whether the pair-merge layout and
            the Λ-peak tail packs are compiled in.
        config: STA boundary conditions (fixes the load vector).
    """

    def __init__(
        self,
        circuit: Circuit,
        library: Union[CellLibrary, Sequence[CellLibrary]],
        model: DelayModel,
        config: StaConfig,
    ) -> None:
        self.circuit = circuit
        if isinstance(library, CellLibrary):
            libraries: List[CellLibrary] = [library]
        else:
            libraries = list(library)
        if not libraries:
            raise ValueError("need at least one cell library")
        self.library = libraries[0]
        self.libraries = libraries
        self.n_corners = len(libraries)
        self.lines: List[str] = circuit.lines
        self.n_lines = len(self.lines)
        self.line_index: Dict[str, int] = {
            line: i for i, line in enumerate(self.lines)
        }
        order = circuit.topological_order()
        self.n_gates = len(order)
        self._order_pos = {line: i for i, line in enumerate(order)}
        level_of = circuit.levelize()
        self._merge = bool(getattr(model, "supports_pair_merge", False))
        self._peak = hasattr(model, "nonctrl_shape")
        # One kernel context per corner: contexts cache arc packs by
        # cell *name*, and the same name resolves to different
        # coefficients in each corner's library.
        ctxs = [KernelContext() for _ in libraries]
        self._ctx = ctxs[0]
        gate_cells = [circuit.gates[out].cell_name() for out in order]
        names = list(dict.fromkeys(gate_cells))
        corner_cells = [
            {name: lib.cell(name) for name in names} for lib in libraries
        ]
        self._cells = corner_cells[0]
        self._validate_corner_cells(corner_cells)
        corner_loads = [
            compute_loads(circuit, lib, config) for lib in libraries
        ]
        #: gate output line -> (group, column, shape key); the in-place
        #: patch path of :meth:`patch_gate` addresses columns through it.
        self._locs: Dict[str, Tuple[Union[_CtrlGroup, _ArcGroup], int, tuple]]
        self._locs = {}

        # Gates of each shape key in (level, topological) order, so every
        # (level, key) group is one contiguous run of the key's gates.
        key_of = {name: _shape_key(self._cells[name], self._peak)
                  for name in names}
        by_key: Dict[tuple, List[Tuple[int, int]]] = {}
        for pos, out in enumerate(order):
            by_key.setdefault(key_of[gate_cells[pos]], []).append(
                (level_of[out], pos)
            )
        at_level: Dict[int, List[Union[_CtrlGroup, _ArcGroup]]] = {}
        for key in sorted(by_key):
            members = sorted(by_key[key])
            gates = [circuit.gates[order[pos]] for _, pos in members]
            kinds = list(dict.fromkeys(gate_cells[pos] for _, pos in members))
            column = {name: i for i, name in enumerate(kinds)}
            table = self._cell_table(
                key,
                [[cells[name] for cells in corner_cells] for name in kinds],
                ctxs,
            )
            cidx = np.array(
                [column[gate_cells[pos]] for _, pos in members],
                dtype=np.intp,
            )
            loads = np.array(
                [[ld[g.output] for ld in corner_loads] for g in gates]
            )
            key_wide = self._build(key, gates, cidx, table, loads)
            start = 0
            for lvl, run in itertools.groupby(members, key=itemgetter(0)):
                stop = start + sum(1 for _ in run)
                group = _take(key_wide, np.arange(start, stop))
                for col, gate in enumerate(gates[start:stop]):
                    self._locs[gate.output] = (group, col, key)
                at_level.setdefault(lvl, []).append(group)
                start = stop
        self.levels: List[List[Union[_CtrlGroup, _ArcGroup]]] = [
            at_level[lvl] for lvl in sorted(at_level)
        ]
        self.n_levels = len(self.levels)
        self.n_groups = sum(len(groups) for groups in self.levels)

    def _validate_corner_cells(
        self, corner_cells: List[Dict[str, CellTiming]]
    ) -> None:
        """Reject corner libraries that disagree on cell *structure*.

        Corner libraries may differ in every coefficient, but the arc
        layout, controlling polarity and output polarity must match —
        those decide gather rows and kernel shapes, which are shared
        across the corner axis.
        """
        if len(corner_cells) == 1:
            return
        base = corner_cells[0]
        for ci, cells in enumerate(corner_cells[1:], start=1):
            for name, cell in base.items():
                other = cells[name]
                consistent = (
                    _shape_key(cell, self._peak)
                    == _shape_key(other, self._peak)
                    and cell.controlling_value == other.controlling_value
                    and (cell.ctrl is None) == (other.ctrl is None)
                    and (
                        cell.ctrl is None
                        or cell.ctrl.out_rising == other.ctrl.out_rising
                    )
                    and all(
                        cell.has_arc(p, d, o) == other.has_arc(p, d, o)
                        for p in range(cell.n_inputs)
                        for d in (True, False)
                        for o in (True, False)
                    )
                )
                if not consistent:
                    raise ValueError(
                        f"corner library {ci} disagrees with corner 0 on "
                        f"the structure of cell {name!r}"
                    )

    # ------------------------------------------------------------------
    def row(self, line: str, rising: bool) -> int:
        """Row of one line direction in the global SoA arrays."""
        idx = self.line_index[line]
        return idx if rising else idx + self.n_lines

    # ------------------------------------------------------------------
    # Cell tables and key-wide builds
    # ------------------------------------------------------------------
    def _cell_table(
        self,
        key: tuple,
        cells: Sequence[Sequence[CellTiming]],
        ctxs: Sequence[KernelContext],
    ) -> Dict[str, object]:
        """Per-cell leaves of one shape key, ``cells[i][c]`` being the
        key's ``i``-th cell in corner ``c``'s library.

        Float leaves are ``(..., n_cells, C)``.  Integer leaves hold row
        offsets and arc pins; they are structural, so corner 0 decides
        them (:meth:`_validate_corner_cells` guarantees the rest agree).
        """
        base = [row[0] for row in cells]
        n = self.n_lines

        def packs(make: Callable) -> _StackedPack:
            return _pack_table([
                [make(ctx, cell) for ctx, cell in zip(ctxs, row)]
                for row in cells
            ])

        def slopes(rising: Callable) -> Tuple[np.ndarray, np.ndarray]:
            """(delay, transition) load slopes of direction ``rising(c)``."""
            return tuple(
                _table(cells, lambda c: getattr(c, kind)[_dir(rising(c))])
                for kind in ("load_delay_slope", "load_trans_slope")
            )

        table: Dict[str, object] = {
            "ref_load": _table(cells, attrgetter("ref_load")),
        }
        if key[0] == "ctrl":
            _, n_pins, uses_peak = key
            _, _, _, _, pairs = _pair_combos(n_pins)
            table["pack"] = packs(KernelContext.ctrl_pack)
            table["npack"] = packs(KernelContext.nonctrl_pack)
            table["ctrl_off"] = np.array(
                [0 if c.controlling_value == 1 else n for c in base],
                dtype=np.intp,
            )
            table["out_off"] = np.array(
                [0 if c.ctrl.out_rising else n for c in base], dtype=np.intp
            )
            table["d_slope_c"], table["r_slope_c"] = slopes(
                attrgetter("ctrl.out_rising")
            )
            table["d_slope_n"], table["r_slope_n"] = slopes(
                lambda c: not c.ctrl.out_rising
            )
            if uses_peak:
                table["ppack"] = packs(KernelContext.peak_pack)
                table["peak"] = _surface_table(
                    [[c.nonctrl for c in row] for row in cells]
                )
                table["p_slope"] = slopes(attrgetter("nonctrl.out_rising"))[0]
                table["pscale_c"] = _table(
                    cells, lambda c: _pair_scales(c.nonctrl, pairs)
                )
            if self._merge:
                table["shape"] = _surface_table(
                    [[c.ctrl for c in row] for row in cells]
                )
                table["scale_c"] = _table(
                    cells, lambda c: _pair_scales(c.ctrl, pairs)
                )
                table["rt"] = _table(
                    cells, lambda c: ratio_table(c.ctrl.multi_scale, n_pins)
                )
                table["rt_t"] = _table(
                    cells,
                    lambda c: ratio_table(c.ctrl.trans_multi_scale, n_pins),
                )
                table["rt_min"] = _table(cells, lambda c: _min_ratio(c.ctrl))
            return table
        for out_rising in (True, False):
            d = _dir(out_rising)
            # Arcs in arc-table enumeration order (the pack row order).
            arcs = [
                sorted(index, key=index.get)
                for index, _ in (
                    ctxs[0].fanin_pack(c, out_rising) for c in base
                )
            ]
            if not arcs[0]:
                continue
            table[f"pack_{d}"] = packs(
                lambda ctx, c: ctx.fanin_pack(c, out_rising)[1]
            )
            table[f"pin_{d}"] = np.array(
                [[pin for pin, _ in a] for a in arcs], dtype=np.intp
            ).T
            table[f"off_{d}"] = np.array(
                [[0 if rising else n for _, rising in a] for a in arcs],
                dtype=np.intp,
            ).T
            table[f"d_slope_{d}"], table[f"r_slope_{d}"] = slopes(
                lambda c: out_rising
            )
        return table

    def _build(
        self,
        key: tuple,
        gates: Sequence[Gate],
        cidx: np.ndarray,
        table: Dict[str, object],
        loads: np.ndarray,
    ) -> Union[_CtrlGroup, _ArcGroup]:
        """One group over ``gates`` of shape ``key``.

        ``cidx`` maps each gate to its cell-table column and ``loads``
        is ``(G, C)``.  Every coefficient leaf is gathered from the
        table with one fancy index; rows and load adjustments are
        computed as whole vectors.
        """
        col = {name: _take(leaf, cidx) for name, leaf in table.items()}
        n = self.n_lines
        line_index = self.line_index
        in_idx = np.array(
            [[line_index[line] for line in g.inputs] for g in gates],
            dtype=np.intp,
        ).T  # (P, G)
        out_idx = np.array(
            [line_index[g.output] for g in gates], dtype=np.intp
        )
        order_idx = np.array(
            [self._order_pos[g.output] for g in gates], dtype=np.intp
        )
        # The scalar load_adjusted_* expression, elementwise.
        dload = loads - col["ref_load"]
        if key[0] == "ctrl":
            n_pins = key[1]
            pa = pb = None
            if self._merge:
                _, _, _, _, pairs = _pair_combos(n_pins)
                pa = np.array([a for a, _ in pairs], dtype=np.intp)
                pb = np.array([b for _, b in pairs], dtype=np.intp)
            return _CtrlGroup(
                n_pins=n_pins,
                pack=col["pack"],
                npack=col["npack"],
                ppack=col.get("ppack"),
                shape=col.get("shape"),
                peak=col.get("peak"),
                ctrl_rows=in_idx + col["ctrl_off"],
                nonctrl_rows=in_idx + (n - col["ctrl_off"]),
                out_ctrl=out_idx + col["out_off"],
                out_nonctrl=out_idx + (n - col["out_off"]),
                order_idx=order_idx,
                gate_idx=np.arange(len(gates), dtype=np.intp)[:, None],
                d_adj_c=col["d_slope_c"] * dload,
                r_adj_c=col["r_slope_c"] * dload,
                d_adj_n=col["d_slope_n"] * dload,
                r_adj_n=col["r_slope_n"] * dload,
                p_adj=col["p_slope"] * dload if "p_slope" in col else None,
                scale_c=col.get("scale_c"),
                pscale_c=col.get("pscale_c"),
                rt=col.get("rt"),
                rt_t=col.get("rt_t"),
                rt_min=col.get("rt_min"),
                pa=pa,
                pb=pb,
            )
        gate_axis = np.arange(len(gates))
        dirs: List[Optional[_ArcDir]] = []
        no_arc: List[np.ndarray] = []
        for out_rising in (True, False):
            d = _dir(out_rising)
            out_rows = out_idx if out_rising else out_idx + n
            if f"pack_{d}" not in col:
                no_arc.append(out_rows)
                dirs.append(None)
                continue
            dirs.append(_ArcDir(
                pack=col[f"pack_{d}"],
                in_rows=in_idx[col[f"pin_{d}"], gate_axis] + col[f"off_{d}"],
                out_rows=out_rows,
                d_adj=col[f"d_slope_{d}"] * dload,
                r_adj=col[f"r_slope_{d}"] * dload,
            ))
        return _ArcGroup(
            order_idx=order_idx,
            dirs=(dirs[0], dirs[1]),
            no_arc_rows=np.array(no_arc, dtype=np.intp).reshape(
                len(no_arc), len(gates)
            ),
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
        """True when the gate's *current* cell fits its compiled slot.

        Resizes always fit (a sized variant keeps the base cell's arc
        layout); cell swaps fit as long as the new kind shares the shape
        key (e.g. NAND2 -> NOR2).  A swap that changes the kernel shape
        (say NAND2 -> XOR2) or any structural edit needs a recompile.
        Corner-batched compiles are never patchable — a resize would
        have to be re-derived against every corner library at once.
        """
        if self.n_corners > 1:
            return False
        loc = self._locs.get(line)
        if loc is None:
            return False
        cell = self._cell_for(self.circuit.gates[line])
        return _shape_key(cell, self._peak) == loc[2]

    def patch_gate(self, line: str, load: float) -> None:
        """Rewrite one gate's columns in place.

        Builds the gate's column — cell-table leaves, gather rows and
        the load-adjust terms for ``load`` — from its current cell with
        the compile's own code and writes it over the old one, so a
        patched circuit is bitwise-indistinguishable from a recompiled
        one.

        Raises:
            ValueError: If the gate's current cell no longer fits its
                compiled kernel shape (see :meth:`can_patch`).
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
        if _shape_key(cell, self._peak) != key:
            raise ValueError(
                f"cell {cell.name!r} does not fit the compiled shape {key} "
                f"of gate {line!r}; recompile required"
            )
        table = self._cell_table(key, [[cell]], [self._ctx])
        fresh = self._build(
            key, [gate], np.zeros(1, dtype=np.intp), table,
            np.array([[load]], dtype=float),
        )
        _put(group, col, fresh)
        group.version += 1


# ----------------------------------------------------------------------
# Compiled pass output
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CompiledWindows:
    """SoA windows of one compiled pass.

    Rows index line x direction (rise rows first), columns index the
    batch axis (MC samples, boundary scenarios, or PVT corners).
    ``states`` is structural and shared by every column.
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

    def window(self, line: str, rising: bool, column: int = 0) -> DirWindow:
        """One direction's :class:`DirWindow` (exact float round-trip)."""
        r = self.row(line, rising)
        state = int(self.states[r])
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
    """

    def __init__(
        self,
        circuit: Circuit,
        library: Union[CellLibrary, Sequence[CellLibrary]],
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
    ) -> None:
        self.circuit = circuit
        self.model = model if model is not None else VShapeModel()
        self.config = config or StaConfig()
        obs = get_registry()
        self._obs = obs
        with obs.timer("sta.compile.build_s"):
            self.compiled = CompiledCircuit(
                circuit, library, self.model, self.config
            )
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

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def analyze(
        self, pi_overrides: Optional[Dict[str, LineTiming]] = None
    ) -> StaResult:
        """Single-scenario run; drop-in for ``TimingAnalyzer.analyze``."""
        compiled = self.propagate(pi_overrides=pi_overrides)
        # Retained for the incremental engine, which re-times cones by
        # mutating this state in place (see repro.sta.incremental).
        self.last_windows = compiled
        result = self._extract(compiled, 0)
        if self._obs.enabled:
            widths = self._obs.histogram("sta.window_width_s")
            for timing in result.timings.values():
                for window in (timing.rise, timing.fall):
                    if window.is_active:
                        widths.observe(window.a_l - window.a_s)
        return result

    def analyze_boundaries(
        self, boundaries: Sequence[Boundary]
    ) -> List[StaResult]:
        """One batched pass over many PI boundary scenarios.

        Args:
            boundaries: ``((a_s, a_l), (t_s, t_l))`` per scenario,
                applied to every primary input.  Loads are fixed at
                compile time, so only the PI windows may vary.

        Returns:
            One :class:`StaResult` per scenario, each bit-identical to
            a separate ``analyze`` run under that boundary condition.
        """
        compiled = self.propagate(boundaries=boundaries)
        return [
            self._extract(compiled, b) for b in range(compiled.n_columns)
        ]

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
            with that corner's library and scalar derates.
        """
        compiled = self.propagate(derates=derates)
        self.last_windows = compiled
        return [
            self._extract(compiled, c) for c in range(compiled.n_columns)
        ]

    def propagate(
        self,
        factors: Optional[np.ndarray] = None,
        boundaries: Optional[Sequence[Boundary]] = None,
        pi_overrides: Optional[Dict[str, LineTiming]] = None,
        derates: Optional[Tuple] = None,
    ) -> CompiledWindows:
        """The compiled forward pass over a batch of B columns.

        Args:
            factors: Per-gate variation factors ``(n_gates, B)`` aligned
                with ``circuit.topological_order()`` (Monte Carlo mode);
                mutually exclusive with ``boundaries``.  Requires a
                single-corner compile — on a corner-batched compile the
                batch axis *is* the corner axis.
            boundaries: PI boundary scenarios, one column each
                (single-corner compiles only, like ``factors``).
            pi_overrides: Per-PI windows replacing the default boundary
                condition (broadcast across all columns).
            derates: Optional ``(early, late)`` timing-derate pair.
                Each member is a scalar, or a length-``C`` vector on a
                corner-batched compile (one value per corner column).
                The early derate multiplies min-side responses
                (earliest arrivals / fastest transitions), the late
                derate max-side responses, after any variation factor.

        Returns:
            The raw SoA windows of every line direction.  On a
            corner-batched compile column ``c`` is corner ``c``'s pass,
            bit-identical to a single-corner compile of that corner's
            library run with its scalar derates.
        """
        cc = self.compiled
        if factors is not None and boundaries is not None:
            raise ValueError("factors and boundaries are mutually exclusive")
        if cc.n_corners > 1 and (
            factors is not None or boundaries is not None
        ):
            raise ValueError(
                "factors/boundaries require a single-corner compile; "
                "the batch axis of a corner-batched compile is the "
                "corner axis"
            )
        if factors is not None:
            factors = np.asarray(factors, dtype=float)
            if factors.ndim != 2 or factors.shape[0] != cc.n_gates:
                raise ValueError(
                    f"factor rows {factors.shape} != gates ({cc.n_gates},B)"
                )
            n_cols = factors.shape[1]
        elif boundaries is not None:
            n_cols = len(boundaries)
            if n_cols == 0:
                raise ValueError("need at least one boundary scenario")
        else:
            n_cols = cc.n_corners
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if derates is not None:
            ge = np.asarray(derates[0], dtype=float)
            gl = np.asarray(derates[1], dtype=float)
            for d in (ge, gl):
                if d.ndim > 1 or (d.ndim == 1 and d.shape[0] != n_cols):
                    raise ValueError(
                        f"derate shape {d.shape} does not broadcast over "
                        f"{n_cols} batch column(s)"
                    )
            g = (ge, gl)
        n_rows = 2 * cc.n_lines
        a_s = np.full((n_rows, n_cols), np.nan)
        a_l = np.full((n_rows, n_cols), np.nan)
        t_s = np.full((n_rows, n_cols), np.nan)
        t_l = np.full((n_rows, n_cols), np.nan)
        states = np.full(n_rows, IMPOSSIBLE, dtype=np.int8)
        self._init_pis(a_s, a_l, t_s, t_l, states, boundaries, pi_overrides)
        arrays = (a_s, a_l, t_s, t_l)
        with self._obs.timer("sta.compile.pass_s"):
            for level in cc.levels:
                for group in level:
                    f = None if factors is None else factors[group.order_idx]
                    if isinstance(group, _CtrlGroup):
                        self._run_ctrl(group, f, arrays, states, g=g)
                    else:
                        self._run_arc(group, f, arrays, states, g=g)
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
    ) -> Dict[str, LineRequired]:
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
                input directions are skipped.
            po_required: Starting requirement per line (normally the
                primary outputs); every other line starts unconstrained.

        Returns:
            Required windows for every line, bit-identical to
            :meth:`~repro.sta.analysis.TimingAnalyzer.compute_required_per_gate`.
        """
        cc = self.compiled
        if cc.n_corners > 1:
            raise ValueError("required times need a single-corner compile")
        n = cc.n_lines
        timings = result.timings
        windows = [timings[line].rise for line in cc.lines]
        windows += [timings[line].fall for line in cc.lines]
        states = np.array([w.state for w in windows], dtype=np.int8)
        t_s = np.array([w.t_s for w in windows], dtype=float)[:, None]
        t_l = np.array([w.t_l for w in windows], dtype=float)[:, None]
        q_s = np.full((2 * n, 1), -np.inf)
        q_l = np.full((2 * n, 1), np.inf)
        unconstrained = RequiredWindow()
        for line, req in po_required.items():
            i = cc.line_index[line]
            for r, want in ((i, req.rise), (i + n, req.fall)):
                start = unconstrained.tighten(want)
                q_s[r] = start.q_s
                q_l[r] = start.q_l
        ins = (t_s, t_l, states)
        q = (q_s, q_l)
        back = self._back_arcs
        for level in reversed(cc.levels):
            for group in level:
                if isinstance(group, _CtrlGroup):
                    merge = group if group.shape is not None else None
                    back(group.pack, group.d_adj_c, group.ctrl_rows,
                         group.out_ctrl, ins, q, merge)
                    back(group.npack, group.d_adj_n, group.nonctrl_rows,
                         group.out_nonctrl, ins, q)
                    continue
                for d in group.dirs:
                    if d is not None:
                        back(d.pack, d.d_adj, d.in_rows, d.out_rows, ins, q)
        # tolist() gives the bit-identical Python floats, as in _extract.
        early = q_s[:, 0].tolist()
        late = q_l[:, 0].tolist()
        return {
            line: LineRequired(
                rise=RequiredWindow(early[i], late[i]),
                fall=RequiredWindow(early[i + n], late[i + n]),
            )
            for i, line in enumerate(cc.lines)
        }

    # ------------------------------------------------------------------
    def run_group(
        self,
        group: Union[_CtrlGroup, _ArcGroup],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        f: Optional[np.ndarray] = None,
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Run one (possibly column-subset) group against SoA state.

        The incremental engine's batched cone re-timing entry point:
        ``arrays``/``states`` are a persistent ``(2 * n_lines, B)`` window
        state (as produced by :meth:`propagate`) and ``group`` is either
        a compiled group or a :func:`subset_group` slice of one.
        """
        if isinstance(group, _CtrlGroup):
            self._run_ctrl(group, f, arrays, states, g=g)
        else:
            self._run_arc(group, f, arrays, states, g=g)

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
        boundaries: Optional[Sequence[Boundary]],
        pi_overrides: Optional[Dict[str, LineTiming]],
    ) -> None:
        cc = self.compiled
        if boundaries is not None:
            arr_lo = np.array([arr[0] for arr, _ in boundaries], dtype=float)
            arr_hi = np.array([arr[1] for arr, _ in boundaries], dtype=float)
            trn_lo = np.array([trn[0] for _, trn in boundaries], dtype=float)
            trn_hi = np.array([trn[1] for _, trn in boundaries], dtype=float)
        else:
            arr_lo, arr_hi = self.config.pi_arrival
            trn_lo, trn_hi = self.config.pi_trans
        for pi in self.circuit.inputs:
            override = pi_overrides.get(pi) if pi_overrides else None
            for rising in (True, False):
                row = cc.row(pi, rising)
                if override is not None:
                    window = override.window(rising)
                    if not window.is_active:
                        continue  # stays IMPOSSIBLE / NaN
                    states[row] = window.state
                    a_s[row] = window.a_s
                    a_l[row] = window.a_l
                    t_s[row] = window.t_s
                    t_l[row] = window.t_l
                else:
                    states[row] = POTENTIAL
                    a_s[row] = arr_lo
                    a_l[row] = arr_hi
                    t_s[row] = trn_lo
                    t_l[row] = trn_hi

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
        """Write one output direction; gates with no active fan-in get
        NaN fields so a missed mask surfaces in the parity tests."""
        if ok.all():
            for target, value in zip(arrays, values):
                target[rows] = value
            states[rows] = state.astype(np.int8)
            return
        okb = ok[:, None]
        for target, value in zip(arrays, values):
            target[rows] = np.where(okb, value, np.nan)
        states[rows] = np.where(ok, state, IMPOSSIBLE).astype(np.int8)

    def _run_arc(
        self,
        grp: _ArcGroup,
        f: Optional[np.ndarray],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Level-batched mirror of ``kernels.arc_fanin_window``.

        The pack arrays carry the trailing corner axis ``C`` (size 1 on
        a single-corner compile), so they broadcast directly against the
        ``(A, G, B)`` gathered windows — identical float ops to the old
        ``[..., None]`` expansion when ``C == 1``, per-corner columns
        when ``B == C``.  ``g`` is the optional ``(early, late)`` derate
        pair, multiplied after ``f`` onto min-side / max-side responses.
        """
        ge, gl = (None, None) if g is None else g
        arr_a_s, arr_a_l, arr_t_s, arr_t_l = arrays
        if grp.no_arc_rows.size:
            states[grp.no_arc_rows] = IMPOSSIBLE
        for d in grp.dirs:
            if d is None:
                continue
            st_in = states[d.in_rows]  # (A, G)
            act = st_in != IMPOSSIBLE
            n_act = act.sum(axis=0)
            all_act = bool(act.all())
            t_s_in = arr_t_s[d.in_rows]  # (A, G, B)
            t_l_in = arr_t_l[d.in_rows]
            a_s_in = arr_a_s[d.in_rows]
            a_l_in = arr_a_l[d.in_rows]
            arc_lo = d.pack.t_lo
            arc_hi = d.pack.t_hi
            c_lo = np.minimum(np.maximum(t_s_in, arc_lo), arc_hi)
            c_hi = np.minimum(np.maximum(t_l_in, arc_lo), arc_hi)
            b_hi = np.maximum(c_hi, c_lo)
            mins, maxs = quad_extremes_batch(
                d.pack.q_a2,
                d.pack.q_a1,
                d.pack.q_a0,
                c_lo, b_hi,
            )
            d_adj = d.d_adj
            r_adj = d.r_adj
            d_min = mins[0] + d_adj
            d_max = maxs[0] + d_adj
            r_min = mins[1] + r_adj
            r_max = maxs[1] + r_adj
            if f is not None:
                d_min = d_min * f
                d_max = d_max * f
                r_min = r_min * f
                r_max = r_max * f
            if ge is not None:
                d_min = d_min * ge
                d_max = d_max * gl
                r_min = r_min * ge
                r_max = r_max * gl
            lows = a_s_in + d_min
            highs = a_l_in + d_max
            if all_act:
                out = (
                    lows.min(axis=0),
                    highs.max(axis=0),
                    r_min.min(axis=0),
                    r_max.max(axis=0),
                )
            else:
                actb = act[:, :, None]
                out = (
                    np.where(actb, lows, np.inf).min(axis=0),
                    np.where(actb, highs, -np.inf).max(axis=0),
                    np.where(actb, r_min, np.inf).min(axis=0),
                    np.where(actb, r_max, -np.inf).max(axis=0),
                )
            any_def = (st_in == DEFINITE).any(axis=0)
            state = np.where(any_def & (n_act == 1), DEFINITE, POTENTIAL)
            self._scatter(d.out_rows, n_act > 0, state, out, arrays, states)

    def _run_ctrl(
        self,
        grp: _CtrlGroup,
        f: Optional[np.ndarray],
        arrays: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        states: np.ndarray,
        g: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Level-batched mirror of ``kernels.ctrl_response_window`` and
        ``kernels.nonctrl_response_window`` (one group, both outputs).

        Coefficient arrays carry the trailing corner axis (size 1 on a
        single-corner compile) and broadcast directly against the
        gathered ``(P, G, B)`` windows.  ``g`` is the optional
        ``(early, late)`` derate pair: the early factor multiplies every
        min-side quantity (earliest arrivals, fastest transitions and
        the pair-merge candidates that can only lower them), the late
        factor every max-side quantity (latest arrivals, slowest
        transitions and the Λ-peak candidates that can only raise them),
        each applied *after* the variation factor ``f``.
        """
        ge, gl = (None, None) if g is None else g
        arr_a_s, arr_a_l, arr_t_s, arr_t_l = arrays

        # ---- to-controlling response ----
        st_in = states[grp.ctrl_rows]  # (P, G)
        act = st_in != IMPOSSIBLE
        def_ = st_in == DEFINITE
        n_act = act.sum(axis=0)
        all_act = bool(act.all())
        t_s_in = arr_t_s[grp.ctrl_rows]  # (P, G, B)
        t_l_in = arr_t_l[grp.ctrl_rows]
        a_s_in = arr_a_s[grp.ctrl_rows]
        a_l_in = arr_a_l[grp.ctrl_rows]
        arc_lo = grp.pack.t_lo
        arc_hi = grp.pack.t_hi
        c_lo = np.minimum(np.maximum(t_s_in, arc_lo), arc_hi)
        c_hi = np.minimum(np.maximum(t_l_in, arc_lo), arc_hi)
        b_hi = np.maximum(c_hi, c_lo)
        d_adj = grp.d_adj_c  # (G, C)
        r_adj = grp.r_adj_c
        mins, maxs = quad_extremes_batch(
            grp.pack.q_a2,
            grp.pack.q_a1,
            grp.pack.q_a0,
            c_lo, b_hi,
        )
        d_min = mins[0] + d_adj
        d_max = maxs[0] + d_adj
        r_min = mins[1] + r_adj
        r_max = maxs[1] + r_adj
        if f is not None:
            d_min = d_min * f
            d_max = d_max * f
            r_min = r_min * f
            r_max = r_max * f
        if ge is not None:
            d_min = d_min * ge
            d_max = d_max * gl
            r_min = r_min * ge
            r_max = r_max * gl
        has_def = def_.any(axis=0)
        upper = a_l_in + d_max
        if all_act:
            a_s = (a_s_in + d_min).min(axis=0)
            t_s = r_min.min(axis=0)
            t_l = r_max.max(axis=0)
            no_def_al = upper.max(axis=0)
        else:
            actb = act[:, :, None]
            a_s = np.where(actb, a_s_in + d_min, np.inf).min(axis=0)
            t_s = np.where(actb, r_min, np.inf).min(axis=0)
            t_l = np.where(actb, r_max, -np.inf).max(axis=0)
            no_def_al = np.where(actb, upper, -np.inf).max(axis=0)
        if has_def.any():
            defb = def_[:, :, None]
            a_l = np.where(
                has_def[:, None],
                np.where(defb, upper, np.inf).min(axis=0),
                no_def_al,
            )
        else:
            a_l = no_def_al
        if grp.shape is not None:
            # Pair merge: candidates involving an inactive lane carry
            # NaN, fail every comparison and fall to the ±inf branch of
            # np.where — so gates with < 2 active inputs self-mask.
            overlap_k = overlap_depth(a_s_in, a_l_in)  # (G, B)
            # Ratio lookup: rt is (P+1, G, C); the per-column corner
            # index broadcasts to (1, 1) on a single-corner compile —
            # every batch column reads corner 0, exactly the old (G, B)
            # lookup — and to the per-corner column when B == C.
            cidx = np.arange(grp.rt.shape[-1], dtype=np.intp)[None, :]
            ratio = grp.rt[overlap_k, grp.gate_idx, cidx]
            t_ratio = grp.rt_t[overlap_k, grp.gate_idx, cidx]
            tc = np.stack([c_lo, c_hi], axis=1)  # (P, 2, G, B)
            # One cube root per pin endpoint; the combos index into it.
            rc = cbrt_grid(tc)
            qa2e = grp.pack.q_a2[:, :, None]  # (2, A, 1, G, C)
            qa1e = grp.pack.q_a1[:, :, None]
            qa0e = grp.pack.q_a0[:, :, None]
            drtr = (qa2e * tc + qa1e) * tc + qa0e  # (2, P, 2, G, B)
            dr = drtr[0] + d_adj
            tr = drtr[1] + r_adj
            if f is not None:
                dr = dr * f
                tr = tr * f
            if ge is not None:
                dr = dr * ge
                tr = tr * ge
            ii, jj, ki, kj, pairs = _pair_combos(grp.n_pins)
            t_lo_c = tc[ii, ki]  # (C, G, B)
            t_hi_c = tc[jj, kj]
            dr_lo = dr[ii, ki]
            dr_hi = dr[jj, kj]
            roots = (rc[ii, ki], rc[jj, kj])
            d0, s_pos, s_neg = vshape_anchor_surfaces(
                grp.shape, t_lo_c, t_hi_c, grp.scale_c,
                dr_lo, dr_hi, d_adj, f=f, roots=roots, g=ge,
            )
            asi, asj = a_s_in[ii], a_s_in[jj]
            ali, alj = a_l_in[ii], a_l_in[jj]
            blo = asj - ali
            bhi = alj - asi
            delta = np.stack(
                [blo, bhi, asj - asi, np.zeros_like(blo), s_pos, -s_neg],
                axis=1,
            )  # (C, 6, G, B)
            valid = (blo[:, None] <= delta) & (delta <= bhi[:, None])
            dval = _v_delay(
                delta, d0[:, None], s_pos[:, None], s_neg[:, None],
                dr_lo[:, None], dr_hi[:, None],
            )
            floor = (
                np.maximum(asi[:, None], asj[:, None] - delta)
                + np.minimum(0.0, delta)
            )
            cand = np.where(valid, floor + dval, np.inf)
            a_s = np.minimum(a_s, cand.min(axis=(0, 1)))
            # Same tolerance and form as DirWindow.overlaps_arrivals.
            pair_ov = (a_s_in[grp.pa] <= a_l_in[grp.pb] + OVERLAP_TOL) & (
                a_s_in[grp.pb] <= a_l_in[grp.pa] + OVERLAP_TOL
            )  # (pairs, G, B)
            first = np.arange(len(pairs), dtype=np.intp) * 4
            pair_floor = np.maximum(a_s_in[grp.pa], a_s_in[grp.pb])
            extra = np.where(
                pair_ov & (ratio < 1.0),
                pair_floor + d0[first] * ratio,
                np.inf,
            )
            a_s = np.minimum(a_s, extra.min(axis=0))

            # ---- transition-time merge (SK_t,min rule) ----
            vskew, vval, sp_t, sn_t = trans_anchor_surfaces(
                grp.shape, t_lo_c, t_hi_c, tr[ii, ki], tr[jj, kj], r_adj,
                f=f, roots=roots, g=ge,
            )
            delta_t = np.minimum(np.maximum(vskew, blo), bhi)
            tval = _trans_v(
                delta_t, vskew, vval, sp_t, sn_t, tr[ii, ki], tr[jj, kj]
            )
            combo_ov = np.repeat(pair_ov, 4, axis=0)
            tval = np.where(
                combo_ov & (t_ratio < 1.0),
                np.minimum(tval, vval * t_ratio),
                tval,
            )
            if not all_act:
                # Unlike the arrival candidates there is no validity
                # filter here, so combos touching an inactive lane need
                # an explicit mask before the reduction.
                combo_act = np.repeat(act[grp.pa] & act[grp.pb], 4, axis=0)
                tval = np.where(combo_act[:, :, None], tval, np.inf)
            t_s = np.minimum(t_s, tval.min(axis=0))
        a_s = np.minimum(a_s, a_l)
        t_s = np.minimum(t_s, t_l)
        state = np.where(has_def, DEFINITE, POTENTIAL)
        self._scatter(
            grp.out_ctrl, n_act > 0, state, (a_s, a_l, t_s, t_l),
            arrays, states,
        )

        # ---- to-non-controlling response ----
        st_in = states[grp.nonctrl_rows]
        act = st_in != IMPOSSIBLE
        def_ = st_in == DEFINITE
        n_act = act.sum(axis=0)
        all_act = bool(act.all())
        t_s_in = arr_t_s[grp.nonctrl_rows]
        t_l_in = arr_t_l[grp.nonctrl_rows]
        a_s_in = arr_a_s[grp.nonctrl_rows]
        a_l_in = arr_a_l[grp.nonctrl_rows]
        arc_lo = grp.npack.t_lo
        arc_hi = grp.npack.t_hi
        c_lo = np.minimum(np.maximum(t_s_in, arc_lo), arc_hi)
        b_hi = np.maximum(
            np.minimum(np.maximum(t_l_in, arc_lo), arc_hi), c_lo
        )
        d_adj = grp.d_adj_n
        r_adj = grp.r_adj_n
        mins, maxs = quad_extremes_batch(
            grp.npack.q_a2,
            grp.npack.q_a1,
            grp.npack.q_a0,
            c_lo, b_hi,
        )
        d_min = mins[0] + d_adj
        d_max = maxs[0] + d_adj
        r_min = mins[1] + r_adj
        r_max = maxs[1] + r_adj
        if f is not None:
            d_min = d_min * f
            d_max = d_max * f
            r_min = r_min * f
            r_max = r_max * f
        if ge is not None:
            d_min = d_min * ge
            d_max = d_max * gl
            r_min = r_min * ge
            r_max = r_max * gl
        has_def = def_.any(axis=0)
        lows = a_s_in + d_min
        highs = a_l_in + d_max
        if all_act:
            no_def_as = lows.min(axis=0)
            a_l = highs.max(axis=0)
            t_s = r_min.min(axis=0)
            t_l = r_max.max(axis=0)
        else:
            actb = act[:, :, None]
            no_def_as = np.where(actb, lows, np.inf).min(axis=0)
            a_l = np.where(actb, highs, -np.inf).max(axis=0)
            t_s = np.where(actb, r_min, np.inf).min(axis=0)
            t_l = np.where(actb, r_max, -np.inf).max(axis=0)
        if has_def.any():
            defb = def_[:, :, None]
            a_s = np.where(
                has_def[:, None],
                np.where(defb, lows, -np.inf).max(axis=0),
                no_def_as,
            )
        else:
            a_s = no_def_as
        if grp.ppack is not None:
            p_adj = grp.p_adj  # (G, C)
            p_lo = grp.ppack.t_lo
            p_hi = grp.ppack.t_hi
            tc = np.stack(
                [
                    np.minimum(np.maximum(t_s_in, p_lo), p_hi),
                    np.minimum(np.maximum(t_l_in, p_lo), p_hi),
                ],
                axis=1,
            )  # (P, 2, G, B)
            tails = (
                (grp.ppack.d_a2[:, None] * tc
                 + grp.ppack.d_a1[:, None]) * tc
                + grp.ppack.d_a0[:, None]
                + p_adj
            )
            if f is not None:
                tails = tails * f
            if gl is not None:
                tails = tails * gl
            ii, jj, ki, kj, pairs = _pair_combos(grp.n_pins)
            tail_lo = tails[ii, ki]
            tail_hi = tails[jj, kj]
            rc = cbrt_grid(tc)
            p0, s_pos, s_neg = peak_anchor_surfaces(
                grp.peak, tc[ii, ki], tc[jj, kj],
                grp.pscale_c, tail_lo, tail_hi, p_adj, f=f,
                roots=(rc[ii, ki], rc[jj, kj]), g=gl,
            )
            asi, asj = a_s_in[ii], a_s_in[jj]
            ali, alj = a_l_in[ii], a_l_in[jj]
            blo = asj - ali
            bhi = alj - asi
            delta = np.stack(
                [blo, bhi, alj - ali, np.zeros_like(blo), s_pos, -s_neg],
                axis=1,
            )
            valid = (blo[:, None] <= delta) & (delta <= bhi[:, None])
            dval = _peak_delay(
                delta, p0[:, None], s_pos[:, None], s_neg[:, None],
                tail_lo[:, None], tail_hi[:, None],
            )
            ceiling = (
                np.minimum(ali[:, None], alj[:, None] - delta)
                + np.maximum(0.0, delta)
            )
            cand = np.where(valid, ceiling + dval, -np.inf)
            a_l = np.maximum(a_l, cand.max(axis=(0, 1)))
        a_s = np.minimum(a_s, a_l)
        state = np.where(has_def, DEFINITE, POTENTIAL)
        self._scatter(
            grp.out_nonctrl, n_act > 0, state, (a_s, a_l, t_s, t_l),
            arrays, states,
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
        merge: Optional[_CtrlGroup] = None,
    ) -> None:
        """Fold the arcs ``pack`` (rows ``in_rows`` -> ``out_rows``) into
        the required windows ``q`` of their inputs.

        ``d_min`` / ``d_max`` are the forward pass's own expressions;
        ``merge`` (a pair-merge ctrl group whose to-controlling arcs
        these are) swaps in the V-shape minimum for ``d_min``.
        """
        t_s, t_l, states = ins
        q_s, q_l = q
        act = states[in_rows] != IMPOSSIBLE  # (A, G)
        c_lo = np.minimum(np.maximum(t_s[in_rows], pack.t_lo), pack.t_hi)
        c_hi = np.minimum(np.maximum(t_l[in_rows], pack.t_lo), pack.t_hi)
        mins, maxs = quad_extremes_batch(
            pack.d_a2, pack.d_a1, pack.d_a0, c_lo, np.maximum(c_hi, c_lo)
        )
        d_min = mins + d_adj
        d_max = maxs + d_adj
        if merge is not None:
            d_min = cls._vshape_min(merge, d_min, c_lo, c_hi)
        lo = q_s[out_rows] - d_min
        hi = q_l[out_rows] - d_max
        if not act.all():
            actb = act[:, :, None]
            lo = np.where(actb, lo, -np.inf)
            hi = np.where(actb, hi, np.inf)
        np.maximum.at(q_s, in_rows, lo)
        np.minimum.at(q_l, in_rows, hi)

    @staticmethod
    def _vshape_min(
        grp: _CtrlGroup,
        d_min: np.ndarray,
        c_lo: np.ndarray,
        c_hi: np.ndarray,
    ) -> np.ndarray:
        """Smallest to-controlling delay through each pin, ``(P, G, 1)``.

        The per-gate ``_ctrl_min_delay``: a perfectly aligned partner
        brings the delay down to the V-shape vertex, so every (pin,
        partner) pair contributes ``min(D0, DR_pin, DR_partner)`` with
        the pin at its clamped ``t_s`` / ``t_l`` and the partner at its
        arc's ``t_lo`` / ``t_hi``.  The pin's minimum over those and its
        pin-to-pin ``d_min`` is scaled by the cell's smallest
        multi-input ratio.
        """
        pack = grp.pack
        own_i, own_k, oth_i, oth_k, x_i, x_k, y_i, y_k, srow = (
            _partner_combos(grp.n_pins)
        )
        t = np.concatenate([
            np.stack([c_lo, c_hi], axis=1),
            np.stack([pack.t_lo, pack.t_hi], axis=1),
        ])  # (2P, 2, G, 1)
        roots = cbrt_grid(t)
        a2, a1, a0 = (
            np.concatenate([a, a])[:, None]
            for a in (pack.d_a2, pack.d_a1, pack.d_a0)
        )
        dr = (a2 * t + a1) * t + a0 + grp.d_adj_c
        d0 = (
            grp.shape.d0.eval_roots(roots[x_i, x_k], roots[y_i, y_k])
            * grp.scale_c[srow]
            + grp.d_adj_c
        )
        cand = np.minimum(np.minimum(d0, dr[own_i, own_k]), dr[oth_i, oth_k])
        per_pin = cand.reshape((grp.n_pins, -1) + cand.shape[1:]).min(axis=1)
        return np.minimum(d_min, per_pin) * grp.rt_min

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def _extract(self, compiled: CompiledWindows, column: int) -> StaResult:
        # Bulk variant of CompiledWindows.line_timing: tolist() converts
        # each float64 to the bit-identical Python float in one pass, and
        # the windows of a finished pass satisfy the DirWindow invariants
        # by construction (the parity suite proves them equal to the
        # validated gate-engine output), so __init__ re-validation is
        # skipped for the 2 * n_lines instances.
        cc = self.compiled
        n = cc.n_lines
        a_s = compiled.a_s[:, column].tolist()
        a_l = compiled.a_l[:, column].tolist()
        t_s = compiled.t_s[:, column].tolist()
        t_l = compiled.t_l[:, column].tolist()
        states = compiled.states.tolist()
        new = DirWindow.__new__
        timings: Dict[str, LineTiming] = {}
        for i, line in enumerate(cc.lines):
            pair = []
            for r in (i, i + n):
                if states[r] == IMPOSSIBLE:
                    pair.append(DirWindow.impossible())
                    continue
                w = new(DirWindow)
                w.a_s = a_s[r]
                w.a_l = a_l[r]
                w.t_s = t_s[r]
                w.t_l = t_l[r]
                w.state = states[r]
                pair.append(w)
            timings[line] = LineTiming(rise=pair[0], fall=pair[1])
        return StaResult(self.circuit, timings)

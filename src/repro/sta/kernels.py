"""Batched NumPy corner kernels — the fast path of :mod:`repro.sta.corners`.

The scalar corner identification walks every candidate (window endpoints,
interior T* peaks, saturation skews, breakpoint kinks) through a chain of
per-candidate Python model calls.  This module evaluates the same
candidate sets in bulk: each corner search assembles its candidates into
NumPy arrays and evaluates the DR / D0R / SR surfaces and the
transition-time polynomials vectorized, once per output direction.

Every function here is a drop-in replacement for its scalar counterpart
in :mod:`repro.sta.corners` and produces **bit-identical** windows.  The
only floating-point hazard is ``T**(1/3)`` (SIMD ``pow`` can differ from
libm in the last ulp), which is why the cube roots go through
:func:`repro.characterize.formulas.cbrt_many`; every other operation used
(+, -, *, /, min, max) is IEEE-exact and therefore identical whether
NumPy or the Python interpreter executes it.

A :class:`KernelContext` caches per-cell coefficient packs (the quadratic
arc coefficients and clamp bounds laid out as arrays) so the per-gate
work reduces to small fancy-indexing plus a handful of vector ops.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..characterize.formulas import cbrt_many
from ..characterize.library import CellTiming, TimingArc, pair_key
from ..models.vshape import _S_FLOOR
from .corners import CtrlInput, _multi_ratio, _overlap_count
from .windows import DEFINITE, DirWindow, POTENTIAL


# ----------------------------------------------------------------------
# Coefficient packs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ArcPack:
    """Quadratic coefficients and clamp bounds of a list of arcs, as arrays.

    Row ``i`` holds arc ``i``'s delay quadratic (``d_*``), output
    transition-time quadratic (``r_*``), and characterized clamp range.
    """

    t_lo: np.ndarray
    t_hi: np.ndarray
    d_a2: np.ndarray
    d_a1: np.ndarray
    d_a0: np.ndarray
    r_a2: np.ndarray
    r_a1: np.ndarray
    r_a0: np.ndarray
    # Delay (row 0) and transition (row 1) coefficients stacked, so both
    # polynomial families go through one quad_extremes_batch call.
    q_a2: np.ndarray
    q_a1: np.ndarray
    q_a0: np.ndarray

    @classmethod
    def from_arcs(cls, arcs: Sequence[TimingArc]) -> "ArcPack":
        d_a2 = np.array([a.delay.a2 for a in arcs], dtype=float)
        d_a1 = np.array([a.delay.a1 for a in arcs], dtype=float)
        d_a0 = np.array([a.delay.a0 for a in arcs], dtype=float)
        r_a2 = np.array([a.trans.a2 for a in arcs], dtype=float)
        r_a1 = np.array([a.trans.a1 for a in arcs], dtype=float)
        r_a0 = np.array([a.trans.a0 for a in arcs], dtype=float)
        return cls(
            t_lo=np.array([a.t_lo for a in arcs], dtype=float),
            t_hi=np.array([a.t_hi for a in arcs], dtype=float),
            d_a2=d_a2, d_a1=d_a1, d_a0=d_a0,
            r_a2=r_a2, r_a1=r_a1, r_a0=r_a0,
            q_a2=np.stack([d_a2, r_a2]),
            q_a1=np.stack([d_a1, r_a1]),
            q_a0=np.stack([d_a0, r_a0]),
        )


class KernelContext:
    """Per-analyzer cache of :class:`ArcPack` layouts, keyed by cell name."""

    def __init__(self) -> None:
        self._ctrl: Dict[str, ArcPack] = {}
        self._nonctrl: Dict[str, ArcPack] = {}
        self._peak: Dict[str, ArcPack] = {}
        self._fanin: Dict[
            Tuple[str, bool],
            Tuple[Dict[Tuple[int, bool], int], ArcPack],
        ] = {}

    def ctrl_pack(self, cell: CellTiming) -> ArcPack:
        """Arc pack of the to-controlling arcs, row = pin."""
        pack = self._ctrl.get(cell.name)
        if pack is None:
            arcs = [cell.ctrl_arc(pin) for pin in range(cell.n_inputs)]
            pack = self._ctrl[cell.name] = ArcPack.from_arcs(arcs)
        return pack

    def nonctrl_pack(self, cell: CellTiming) -> ArcPack:
        """Arc pack of the to-non-controlling arcs, row = pin."""
        pack = self._nonctrl.get(cell.name)
        if pack is None:
            in_rising = cell.controlling_value == 0
            out_rising = not cell.ctrl.out_rising
            arcs = [
                cell.arc(pin, in_rising, out_rising)
                for pin in range(cell.n_inputs)
            ]
            pack = self._nonctrl[cell.name] = ArcPack.from_arcs(arcs)
        return pack

    def peak_pack(self, cell: CellTiming) -> ArcPack:
        """Arc pack used by the Λ-shape extension tails, row = pin."""
        pack = self._peak.get(cell.name)
        if pack is None:
            in_rising = cell.controlling_value == 0
            out_rising = cell.nonctrl.out_rising
            arcs = [
                cell.arc(pin, in_rising, out_rising)
                for pin in range(cell.n_inputs)
            ]
            pack = self._peak[cell.name] = ArcPack.from_arcs(arcs)
        return pack

    def fanin_pack(
        self, cell: CellTiming, out_rising: bool
    ) -> Tuple[Dict[Tuple[int, bool], int], ArcPack]:
        """Arc pack of every arc producing ``out_rising``, plus its index."""
        key = (cell.name, out_rising)
        entry = self._fanin.get(key)
        if entry is None:
            arcs: List[TimingArc] = []
            index: Dict[Tuple[int, bool], int] = {}
            for pin in range(cell.n_inputs):
                for in_rising in (True, False):
                    if cell.has_arc(pin, in_rising, out_rising):
                        index[(pin, in_rising)] = len(arcs)
                        arcs.append(cell.arc(pin, in_rising, out_rising))
            entry = self._fanin[key] = (index, ArcPack.from_arcs(arcs))
        return entry


# ----------------------------------------------------------------------
# Vectorized primitives
# ----------------------------------------------------------------------
def cbrt_grid(values: np.ndarray) -> np.ndarray:
    """Shape-preserving :func:`cbrt_many` (which only takes 1-D input)."""
    arr = np.asarray(values, dtype=float)
    return cbrt_many(arr.ravel()).reshape(arr.shape)


def overlap_depth(a_s_in: np.ndarray, a_l_in: np.ndarray) -> np.ndarray:
    """Per-column max arrival-window overlap depth.

    Vectorized :func:`repro.sta.corners._overlap_count` over a leading
    window axis: the sweep-line maximum equals, for each trailing-axis
    element, the largest number of windows covering any window's start
    instant.  Fan-ins are tiny (<= 5), so the O(k^2) pairwise
    formulation beats sorting per element.
    """
    covers = (a_s_in[:, None, ...] <= a_s_in[None, :, ...]) & (
        a_l_in[:, None, ...] >= a_s_in[None, :, ...]
    )
    return covers.sum(axis=0).max(axis=0)


def ratio_table(scales: dict, max_k: int) -> np.ndarray:
    """Lookup table k -> multi-input ratio (1.0 for k <= 2)."""
    return np.array(
        [
            1.0 if k <= 2 else _multi_ratio(scales, k)
            for k in range(max_k + 1)
        ],
        dtype=float,
    )


def sr_slopes(
    shape,
    t_lo: np.ndarray,
    t_hi: np.ndarray,
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Saturation skews (s_pos, s_neg): the SR surfaces at the floor,
    times the variation factor ``f`` and then the derate ``g``."""
    s_pos = np.maximum(shape.s_pos.eval_many(t_lo, t_hi), _S_FLOOR)
    s_neg = np.maximum(shape.s_neg.eval_many(t_lo, t_hi), _S_FLOOR)
    if f is not None:
        s_pos = s_pos * f
        s_neg = s_neg * f
    if g is not None:
        s_pos = s_pos * g
        s_neg = s_neg * g
    return s_pos, s_neg


def vshape_anchor_surfaces(
    ctrl,
    t_lo: np.ndarray,
    t_hi: np.ndarray,
    scale: np.ndarray,
    dr_lo: np.ndarray,
    dr_hi: np.ndarray,
    load_adj: float,
    f: Optional[np.ndarray] = None,
    roots: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V-shape anchors (d0, s_pos, s_neg) of the candidate surfaces.

    The any-shape core of :meth:`VShapeModel.vshape_anchors_batch`: the
    caller supplies the precomputed load adjustment, an optional
    per-element variation factor ``f`` (Monte Carlo), an optional timing
    derate ``g`` (multiplied after ``f``, at the same sites) and
    optionally the precomputed cube roots of the transition times.  With
    ``f`` and ``g`` omitted the float operations match the model method
    bit for bit.
    """
    x, y = roots if roots is not None else (cbrt_grid(t_lo), cbrt_grid(t_hi))
    d0 = ctrl.d0.eval_roots(x, y) * scale + load_adj
    if f is not None:
        d0 = d0 * f
    if g is not None:
        d0 = d0 * g
    d0 = np.minimum(np.minimum(d0, dr_lo), dr_hi)
    s_pos, s_neg = sr_slopes(ctrl, t_lo, t_hi, f, g)
    return d0, s_pos, s_neg


def trans_anchor_surfaces(
    ctrl,
    t_lo: np.ndarray,
    t_hi: np.ndarray,
    tail_lo: np.ndarray,
    tail_hi: np.ndarray,
    load_adj: float,
    f: Optional[np.ndarray] = None,
    roots: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    g: Optional[np.ndarray] = None,
    slopes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transition-V anchors (vertex_skew, vertex_value, s_pos, s_neg).

    ``slopes`` hands in the :func:`sr_slopes` a caller already evaluated
    on the same operands (the V-shape anchors share them).
    """
    x, y = roots if roots is not None else (cbrt_grid(t_lo), cbrt_grid(t_hi))
    vertex_value = ctrl.t_vertex.eval_roots(x, y) + load_adj
    vertex_skew = ctrl.t_vertex_skew.eval_many(t_lo, t_hi)
    if f is not None:
        vertex_value = vertex_value * f
        vertex_skew = vertex_skew * f
    if g is not None:
        vertex_value = vertex_value * g
        vertex_skew = vertex_skew * g
    s_pos, s_neg = (
        slopes if slopes is not None else sr_slopes(ctrl, t_lo, t_hi, f, g)
    )
    vertex_skew = np.minimum(np.maximum(vertex_skew, -s_neg), s_pos)
    vertex_value = np.minimum(np.minimum(vertex_value, tail_lo), tail_hi)
    return vertex_skew, vertex_value, s_pos, s_neg


def peak_anchor_surfaces(
    data,
    t_lo: np.ndarray,
    t_hi: np.ndarray,
    scale: np.ndarray,
    tail_lo: np.ndarray,
    tail_hi: np.ndarray,
    load_adj: float,
    f: Optional[np.ndarray] = None,
    roots: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Λ-peak anchors (p0, s_pos, s_neg) of the non-ctrl slow-down."""
    x, y = roots if roots is not None else (cbrt_grid(t_lo), cbrt_grid(t_hi))
    p0 = data.d0.eval_roots(x, y) * scale + load_adj
    if f is not None:
        p0 = p0 * f
    if g is not None:
        p0 = p0 * g
    p0 = np.maximum(np.maximum(p0, tail_lo), tail_hi)
    s_pos, s_neg = sr_slopes(data, t_lo, t_hi, f, g)
    return p0, s_pos, s_neg


def quad_extremes_batch(
    a2: np.ndarray,
    a1: np.ndarray,
    a0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(min, max) of each quadratic over its interval.

    Matches :meth:`repro.characterize.formulas.QuadPoly1.min_over` /
    ``max_over`` element-wise: endpoints always, the interior stationary
    point only when it is strictly inside and of the right curvature.
    Coefficients may carry extra leading axes (e.g. delay and transition
    families stacked); ``lo`` / ``hi`` broadcast against them.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        stat = -a1 / (2.0 * a2)
    v_lo = (a2 * lo + a1) * lo + a0
    v_hi = (a2 * hi + a1) * hi + a0
    v_st = (a2 * stat + a1) * stat + a0
    interior = (lo < stat) & (stat < hi)
    maxs = np.maximum(v_lo, v_hi)
    maxs = np.where(interior & (a2 < 0.0), np.maximum(maxs, v_st), maxs)
    mins = np.minimum(v_lo, v_hi)
    mins = np.where(interior & (a2 > 0.0), np.minimum(mins, v_st), mins)
    return mins, maxs


def _v_delay(
    delta: np.ndarray,
    d0: np.ndarray,
    s_pos: np.ndarray,
    s_neg: np.ndarray,
    dr_p: np.ndarray,
    dr_q: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`repro.models.vshape.VShape.delay`."""
    pos = d0 + (dr_p - d0) * (delta / s_pos)
    neg = d0 + (dr_q - d0) * (-delta / s_neg)
    return np.where(
        delta >= s_pos,
        dr_p,
        np.where(delta <= -s_neg, dr_q, np.where(delta >= 0.0, pos, neg)),
    )


def _peak_delay(
    delta: np.ndarray,
    p0: np.ndarray,
    s_pos: np.ndarray,
    s_neg: np.ndarray,
    tail_p: np.ndarray,
    tail_q: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`repro.models.nonctrl.PeakShape.delay`."""
    pos = p0 + (tail_q - p0) * (delta / s_pos)
    neg = p0 + (tail_p - p0) * (-delta / s_neg)
    return np.where(
        delta >= s_pos,
        tail_q,
        np.where(delta <= -s_neg, tail_p, np.where(delta >= 0.0, pos, neg)),
    )


def _trans_v(
    delta: np.ndarray,
    vskew: np.ndarray,
    vval: np.ndarray,
    s_pos: np.ndarray,
    s_neg: np.ndarray,
    t_p: np.ndarray,
    t_q: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`repro.models.vshape.TransVShape.trans`."""
    span_p = s_pos - vskew
    span_q = vskew + s_neg
    with np.errstate(divide="ignore", invalid="ignore"):
        frac_p = (delta - vskew) / span_p
        frac_q = (vskew - delta) / span_q
        val_p = vval + (t_p - vval) * frac_p
        val_q = vval + (t_q - vval) * frac_q
    return np.where(
        delta >= s_pos,
        t_p,
        np.where(
            delta <= -s_neg,
            t_q,
            np.where(
                delta >= vskew,
                np.where(span_p <= 0.0, t_p, val_p),
                np.where(span_q <= 0.0, t_q, val_q),
            ),
        ),
    )


_COMBOS_CACHE: Dict[
    int,
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, int]]],
] = {}


def _pair_combos(
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, int]]]:
    """Index arrays enumerating every (pair, endpoint-combo) candidate.

    Combos follow the scalar loop order: pairs in position order, then
    ``(t_s, t_s), (t_s, t_l), (t_l, t_s), (t_l, t_l)`` — so combo
    ``4*pair + 0`` is the (t_s, t_s) corner the multi-input ratio rule
    reuses.  The layout depends only on the input count, so it is cached.
    """
    entry = _COMBOS_CACHE.get(n)
    if entry is not None:
        return entry
    ii: List[int] = []
    jj: List[int] = []
    ki: List[int] = []
    kj: List[int] = []
    pairs: List[Tuple[int, int]] = []
    for a in range(n):
        for b in range(a + 1, n):
            pairs.append((a, b))
            for k1 in (0, 1):
                for k2 in (0, 1):
                    ii.append(a)
                    jj.append(b)
                    ki.append(k1)
                    kj.append(k2)
    entry = (
        np.array(ii, dtype=np.intp),
        np.array(jj, dtype=np.intp),
        np.array(ki, dtype=np.intp),
        np.array(kj, dtype=np.intp),
        pairs,
    )
    _COMBOS_CACHE[n] = entry
    return entry


# ----------------------------------------------------------------------
# Window propagation
# ----------------------------------------------------------------------
def ctrl_response_window(
    cell: CellTiming,
    model,
    inputs: Sequence[CtrlInput],
    load: float,
    ctx: KernelContext,
) -> DirWindow:
    """Batched :func:`repro.sta.corners.ctrl_response_window`."""
    ctrl = cell.ctrl
    if ctrl is None:
        raise ValueError(f"cell {cell.name} has no controlling value")
    active = [i for i in inputs if i.window.is_active]
    if not active:
        return DirWindow.impossible()
    out_rising = ctrl.out_rising
    pack = ctx.ctrl_pack(cell)
    pins = np.array([i.pin for i in active], dtype=np.intp)
    fields = np.array(
        [
            (i.window.t_s, i.window.t_l, i.window.a_s, i.window.a_l)
            for i in active
        ],
        dtype=float,
    ).T
    a_s_in = fields[2]
    a_l_in = fields[3]
    definite = np.array([i.window.is_definite for i in active], dtype=bool)

    arc_lo = pack.t_lo[pins]
    arc_hi = pack.t_hi[pins]
    # arc.clamp of each window endpoint; the bounds interval additionally
    # repairs inverted intervals exactly like _clamped_interval.
    clamped = np.minimum(np.maximum(fields[:2], arc_lo), arc_hi)
    c_lo = clamped[0]
    c_hi = clamped[1]
    b_hi = np.maximum(c_hi, c_lo)

    d_adj = cell.load_adjusted_delay(out_rising, load)
    r_adj = cell.load_adjusted_trans(out_rising, load)
    qa2 = pack.q_a2[:, pins]
    qa1 = pack.q_a1[:, pins]
    qa0 = pack.q_a0[:, pins]
    mins, maxs = quad_extremes_batch(qa2, qa1, qa0, c_lo, b_hi)
    d_min = mins[0] + d_adj
    d_max = maxs[0] + d_adj
    r_min = mins[1] + r_adj
    r_max = maxs[1] + r_adj

    # ---- latest arrival (T* peak rule; definite switchers bound it) ----
    upper = a_l_in + d_max
    has_definite = bool(definite.any())
    if has_definite:
        a_l = float(upper[definite].min())
    else:
        a_l = float(upper.max())

    # ---- earliest arrival ----
    a_s = float((a_s_in + d_min).min())
    merge = getattr(model, "supports_pair_merge", False) and len(active) >= 2
    t_s = float(r_min.min())
    t_l = float(r_max.max())
    if merge:
        overlap_k = _overlap_count(active)
        ratio = (
            _multi_ratio(ctrl.multi_scale, overlap_k)
            if overlap_k > 2 else 1.0
        )
        t_ratio = (
            _multi_ratio(ctrl.trans_multi_scale, overlap_k)
            if overlap_k > 2 else 1.0
        )
        # Per-pin clamped endpoints and their DR / transition tails
        # (delay row 0 / transition row 1 of the stacked coefficients).
        tc = clamped.T
        drtr = (qa2[:, :, None] * tc + qa1[:, :, None]) * tc + qa0[:, :, None]
        dr = drtr[0] + d_adj
        tr = drtr[1] + r_adj
        ii, jj, ki, kj, pairs = _pair_combos(len(active))
        scale_c = np.repeat(
            np.array(
                [
                    ctrl.pair_scale.get(
                        pair_key(active[a].pin, active[b].pin), 1.0
                    )
                    for a, b in pairs
                ],
                dtype=float,
            ),
            4,
        )
        t_lo_c = tc[ii, ki]
        t_hi_c = tc[jj, kj]
        d0, s_pos, s_neg = model.vshape_anchors_batch(
            cell, t_lo_c, t_hi_c, scale_c, dr[ii, ki], dr[jj, kj], load
        )
        asi, asj = a_s_in[ii], a_s_in[jj]
        ali, alj = a_l_in[ii], a_l_in[jj]
        blo = asj - ali
        bhi = alj - asi
        # Breakpoints of earliest_arrival(delta) + d_V(delta): feasible
        # interval endpoints, the arrival kink, zero skew, +-S.
        delta = np.stack(
            [blo, bhi, asj - asi, np.zeros_like(blo), s_pos, -s_neg], axis=1
        )
        valid = (blo[:, None] <= delta) & (delta <= bhi[:, None])
        dval = _v_delay(
            delta,
            d0[:, None],
            s_pos[:, None],
            s_neg[:, None],
            dr[ii, ki][:, None],
            dr[jj, kj][:, None],
        )
        floor = (
            np.maximum(asi[:, None], asj[:, None] - delta)
            + np.minimum(0.0, delta)
        )
        cand = np.where(valid, floor + dval, np.inf)
        a_s = min(a_s, float(cand.min()))
        overlap = None
        if ratio < 1.0 or t_ratio < 1.0:
            overlap = np.array(
                [
                    active[a].window.overlaps_arrivals(active[b].window)
                    for a, b in pairs
                ],
                dtype=bool,
            )
        if ratio < 1.0 and overlap.any():
            first = np.arange(len(pairs), dtype=np.intp) * 4
            pair_floor = np.maximum(
                a_s_in[[a for a, _ in pairs]],
                a_s_in[[b for _, b in pairs]],
            )
            extra = pair_floor + d0[first] * ratio
            a_s = min(a_s, float(extra[overlap].min()))

        # ---- transition-time merge (SK_t,min rule) ----
        vskew, vval, sp_t, sn_t = model.trans_vshape_anchors_batch(
            cell, t_lo_c, t_hi_c, tr[ii, ki], tr[jj, kj], load
        )
        delta_t = np.minimum(np.maximum(vskew, blo), bhi)
        tval = _trans_v(
            delta_t, vskew, vval, sp_t, sn_t, tr[ii, ki], tr[jj, kj]
        )
        if t_ratio < 1.0:
            combo_overlap = np.repeat(overlap, 4)
            tval = np.where(
                combo_overlap, np.minimum(tval, vval * t_ratio), tval
            )
        t_s = min(t_s, float(tval.min()))
    a_s = min(a_s, a_l)
    t_s = min(t_s, t_l)

    state = DEFINITE if has_definite else POTENTIAL
    return DirWindow(a_s=a_s, a_l=a_l, t_s=t_s, t_l=t_l, state=state)


def nonctrl_response_window(
    cell: CellTiming,
    inputs: Sequence[CtrlInput],
    load: float,
    ctx: KernelContext,
    model=None,
) -> DirWindow:
    """Batched :func:`repro.sta.corners.nonctrl_response_window`."""
    active = [i for i in inputs if i.window.is_active]
    if not active:
        return DirWindow.impossible()
    ctrl = cell.ctrl
    if ctrl is None:
        raise ValueError(f"cell {cell.name} has no controlling value")
    out_rising = not ctrl.out_rising
    pack = ctx.nonctrl_pack(cell)
    pins = np.array([i.pin for i in active], dtype=np.intp)
    fields = np.array(
        [
            (i.window.t_s, i.window.t_l, i.window.a_s, i.window.a_l)
            for i in active
        ],
        dtype=float,
    ).T
    a_s_in = fields[2]
    a_l_in = fields[3]
    definite = np.array([i.window.is_definite for i in active], dtype=bool)

    clamped = np.minimum(
        np.maximum(fields[:2], pack.t_lo[pins]), pack.t_hi[pins]
    )
    c_lo = clamped[0]
    b_hi = np.maximum(clamped[1], c_lo)
    d_adj = cell.load_adjusted_delay(out_rising, load)
    r_adj = cell.load_adjusted_trans(out_rising, load)
    mins, maxs = quad_extremes_batch(
        pack.q_a2[:, pins], pack.q_a1[:, pins], pack.q_a0[:, pins],
        c_lo, b_hi,
    )
    d_min = mins[0] + d_adj
    d_max = maxs[0] + d_adj
    r_min = mins[1] + r_adj
    r_max = maxs[1] + r_adj

    lows = a_s_in + d_min
    highs = a_l_in + d_max
    if definite.any():
        a_s = float(lows[definite].max())
    else:
        a_s = float(lows.min())
    a_l = float(highs.max())

    uses_peak = (
        model is not None
        and hasattr(model, "nonctrl_shape")
        and getattr(cell, "nonctrl", None) is not None
    )
    if uses_peak and len(active) >= 2:
        data = cell.nonctrl
        ppack = ctx.peak_pack(cell)
        p_adj = cell.load_adjusted_delay(data.out_rising, load)
        # The Λ-shape clamps window endpoints against its own arcs.
        tc = np.minimum(
            np.maximum(fields[:2], ppack.t_lo[pins]), ppack.t_hi[pins]
        ).T
        tails = (
            (ppack.d_a2[pins, None] * tc + ppack.d_a1[pins, None]) * tc
            + ppack.d_a0[pins, None]
            + p_adj
        )
        ii, jj, ki, kj, pairs = _pair_combos(len(active))
        scale_c = np.repeat(
            np.array(
                [
                    data.pair_scale.get(
                        pair_key(active[a].pin, active[b].pin), 1.0
                    )
                    for a, b in pairs
                ],
                dtype=float,
            ),
            4,
        )
        p0, s_pos, s_neg = model.peak_anchors_batch(
            cell, tc[ii, ki], tc[jj, kj], scale_c,
            tails[ii, ki], tails[jj, kj], load,
        )
        asi, asj = a_s_in[ii], a_s_in[jj]
        ali, alj = a_l_in[ii], a_l_in[jj]
        blo = asj - ali
        bhi = alj - asi
        delta = np.stack(
            [blo, bhi, alj - ali, np.zeros_like(blo), s_pos, -s_neg], axis=1
        )
        valid = (blo[:, None] <= delta) & (delta <= bhi[:, None])
        dval = _peak_delay(
            delta,
            p0[:, None],
            s_pos[:, None],
            s_neg[:, None],
            tails[ii, ki][:, None],
            tails[jj, kj][:, None],
        )
        ceiling = (
            np.minimum(ali[:, None], alj[:, None] - delta)
            + np.maximum(0.0, delta)
        )
        cand = np.where(valid, ceiling + dval, -np.inf)
        a_l = max(a_l, float(cand.max()))
    a_s = min(a_s, a_l)
    state = DEFINITE if definite.any() else POTENTIAL
    return DirWindow(
        a_s=a_s,
        a_l=a_l,
        t_s=float(r_min.min()),
        t_l=float(r_max.max()),
        state=state,
    )


def arc_fanin_window(
    cell: CellTiming,
    arcs: Sequence[Tuple[int, bool, DirWindow]],
    out_rising: bool,
    load: float,
    ctx: KernelContext,
) -> DirWindow:
    """Batched :func:`repro.sta.corners.arc_fanin_window`."""
    active = [(p, d, w) for (p, d, w) in arcs if w.is_active]
    if not active:
        return DirWindow.impossible()
    index, pack = ctx.fanin_pack(cell, out_rising)
    sel = np.array([index[(p, d)] for (p, d, _) in active], dtype=np.intp)
    fields = np.array(
        [(w.t_s, w.t_l, w.a_s, w.a_l) for *_, w in active], dtype=float
    ).T

    clamped = np.minimum(
        np.maximum(fields[:2], pack.t_lo[sel]), pack.t_hi[sel]
    )
    c_lo = clamped[0]
    b_hi = np.maximum(clamped[1], c_lo)
    d_adj = cell.load_adjusted_delay(out_rising, load)
    r_adj = cell.load_adjusted_trans(out_rising, load)
    mins, maxs = quad_extremes_batch(
        pack.q_a2[:, sel], pack.q_a1[:, sel], pack.q_a0[:, sel],
        c_lo, b_hi,
    )
    any_definite = any(w.is_definite for *_, w in active)
    state = DEFINITE if any_definite and len(active) == 1 else POTENTIAL
    return DirWindow(
        a_s=float((fields[2] + (mins[0] + d_adj)).min()),
        a_l=float((fields[3] + (maxs[0] + d_adj)).max()),
        t_s=float((mins[1] + r_adj).min()),
        t_l=float((maxs[1] + r_adj).max()),
        state=state,
    )

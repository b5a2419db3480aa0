"""NumPy primitives of the level-compiled engine's corner searches.

:mod:`repro.sta.corners` walks every corner candidate (window
endpoints, interior T* peaks, saturation skews, breakpoint kinks)
through per-candidate Python model calls; it is the scalar reference.
The level-compiled engine (:mod:`repro.sta.compile`) evaluates the same
candidate sets for a whole level at once from the pieces kept here:

* :func:`quad_extremes_batch` — interval extremes of the pin-to-pin
  quadratics (the paper's T* rule);
* :func:`_v_delay`, :func:`_peak_delay` and :func:`_trans_v` — the
  V-shape, Λ-peak and transition-V evaluated over candidate skews;
* :func:`sr_slopes` and the anchor surfaces
  (:func:`vshape_anchor_surfaces`, :func:`trans_anchor_surfaces`,
  :func:`peak_anchor_surfaces`) — D0 / P0, the transition vertex and
  S± under a variation factor and a derate;
* :func:`cbrt_grid`, :func:`ratio_table` and :func:`_pair_combos`.

Every primitive is bit-identical per element to its scalar counterpart.
The only floating-point hazard is ``T**(1/3)`` (SIMD ``pow`` can differ
from libm in the last ulp), which is why the cube roots go through
:func:`repro.characterize.formulas.cbrt_many`; every other operation
used (+, -, *, /, min, max) is IEEE-exact and therefore identical
whether NumPy or the Python interpreter executes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..characterize.formulas import cbrt_many
from ..characterize.library import multi_input_ratio
from ..models.vshape import _S_FLOOR


# ----------------------------------------------------------------------
# Vectorized primitives
# ----------------------------------------------------------------------
def cbrt_grid(values: np.ndarray) -> np.ndarray:
    """Shape-preserving :func:`cbrt_many` (which only takes 1-D input)."""
    arr = np.asarray(values, dtype=float)
    return cbrt_many(arr.ravel()).reshape(arr.shape)


def ratio_table(scales: dict, max_k: int) -> np.ndarray:
    """Lookup table k -> multi-input ratio (1.0 for k <= 2)."""
    return np.array(
        [
            1.0 if k <= 2 else multi_input_ratio(scales, k)
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
    load_adj: np.ndarray,
    roots: Tuple[np.ndarray, np.ndarray],
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V-shape anchors (d0, s_pos, s_neg) of the candidate surfaces.

    The array form of :meth:`VShapeModel.vshape` for position-ordered
    pairs: the caller supplies the tails, the precomputed load
    adjustment, the cube roots of the transition times
    (:func:`cbrt_grid`), an optional per-element variation factor ``f``
    (Monte Carlo) and an optional timing derate ``g`` (multiplied after
    ``f``, at the same sites).  Per element the float operations match
    the model method with the same ``f`` and ``g``, bit for bit.
    """
    x, y = roots
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
    load_adj: np.ndarray,
    roots: Tuple[np.ndarray, np.ndarray],
    slopes: Tuple[np.ndarray, np.ndarray],
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transition-V anchors (vertex_skew, vertex_value, s_pos, s_neg).

    ``slopes`` are the :func:`sr_slopes` the V-shape anchors evaluated
    on the same operands, ``roots`` as in
    :func:`vshape_anchor_surfaces`.
    """
    x, y = roots
    vertex_value = ctrl.t_vertex.eval_roots(x, y) + load_adj
    vertex_skew = ctrl.t_vertex_skew.eval_many(t_lo, t_hi)
    if f is not None:
        vertex_value = vertex_value * f
        vertex_skew = vertex_skew * f
    if g is not None:
        vertex_value = vertex_value * g
        vertex_skew = vertex_skew * g
    s_pos, s_neg = slopes
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
    load_adj: np.ndarray,
    roots: Tuple[np.ndarray, np.ndarray],
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Λ-peak anchors (p0, s_pos, s_neg) of the non-ctrl slow-down
    (``roots`` as in :func:`vshape_anchor_surfaces`)."""
    x, y = roots
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

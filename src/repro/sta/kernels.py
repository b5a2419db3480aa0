"""NumPy primitives of the level-compiled engine's corner searches.

:mod:`repro.sta.corners` walks every corner candidate (window
endpoints, interior T* peaks, saturation skews, breakpoint kinks)
through per-candidate Python model calls; it is the scalar reference.
The level-compiled engine (:mod:`repro.sta.compile`) evaluates the same
candidate sets for a whole level at once from the pieces kept here:

* :func:`quad_extremes_batch` — interval extremes of the pin-to-pin
  quadratics (the paper's T* rule, its stationary point and curvature
  read from the compiled arc rows);
* :func:`_shape_delay` and :func:`_trans_v` — the V-shape (and
  Λ-peak) and the transition-V evaluated over candidate skews, and
  :func:`fold_pairs`, the pair breakpoint fold both shapes run through;
* :func:`end_tails` — the pin endpoints' arc values, the shapes' tails;
* :func:`sr_slopes` and the anchor surfaces (:func:`anchor_surfaces`,
  :func:`trans_anchor_surfaces`) — D0 / P0, the transition vertex and
  S± (both SR surfaces in one evaluation) under a variation factor and
  a derate;
* :func:`cbrt_grid` and :func:`ratio_table`.

Every primitive is bit-identical per element to its scalar counterpart.
The only floating-point hazard is ``T**(1/3)`` (SIMD ``pow`` can differ
from libm in the last ulp), which is why the cube roots go through
:func:`repro.characterize.formulas.cbrt_many`; every other operation
used (+, -, *, /, min, max) is IEEE-exact and therefore identical
whether NumPy or the Python interpreter executes it.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
) -> np.ndarray:
    """Saturation skews ``(s_pos, s_neg)``, stacked on a leading axis:
    both SR surfaces in one evaluation (``shape.sr``), at the floor,
    times the variation factor ``f`` and then the derate ``g``."""
    s = shape.sr.eval_many(t_lo, t_hi)
    np.maximum(s, _S_FLOOR, out=s)
    if f is not None:
        s *= f
    if g is not None:
        s *= g
    return s


def anchor_surfaces(
    shape,
    t: np.ndarray,
    surface: np.ndarray,
    scale: np.ndarray,
    tails: np.ndarray,
    load_adj: np.ndarray,
    clamp: np.ufunc,
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-skew value and saturation skews ``(d0, s)`` of a pair shape,
    ``s`` the stacked :func:`sr_slopes`.

    The array form of :meth:`~repro.models.vshape.PairAnchors.pair`'s
    vertex and S± for position-ordered pairs: D0 with ``clamp``
    ``np.minimum`` (simultaneous to-controlling switching can only speed
    a gate up), P0 with ``np.maximum`` (the peak is a slow-down).  ``t``
    and the ``tails`` hold the lower pin's endpoint, then the upper
    pin's, on a leading axis; ``surface`` is the D0 (P0)
    surface at the endpoints' cube roots (:func:`cbrt_grid`).  The
    caller supplies the precomputed load adjustment, an optional
    per-element variation factor ``f`` (Monte Carlo) and an optional
    timing derate ``g`` (multiplied after ``f``, at the same sites).
    Per element the float operations match the model's with the same
    ``f`` and ``g``, bit for bit.
    """
    d0 = surface * scale
    d0 += load_adj
    if f is not None:
        d0 *= f
    if g is not None:
        d0 *= g
    clamp(d0, tails[0], out=d0)
    clamp(d0, tails[1], out=d0)
    return d0, sr_slopes(shape, t[0], t[1], f, g)


def trans_anchor_surfaces(
    ctrl,
    t: np.ndarray,
    surface: np.ndarray,
    tail: np.ndarray,
    load_adj: np.ndarray,
    skews: np.ndarray,
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Transition-V anchors ``(vertex_skew, vertex_value)``.

    ``surface`` is the vertex surface at the endpoints' cube roots,
    ``skews`` stacks ``+s_pos`` and ``-s_neg`` of the :func:`sr_slopes`
    the V-shape anchors evaluated on the same operands; ``t`` and
    ``tail`` as in :func:`anchor_surfaces`.
    """
    vertex_value = surface + load_adj
    vertex_skew = ctrl.t_vertex_skew.eval_many(t[0], t[1])
    for x in (vertex_value, vertex_skew):
        if f is not None:
            x *= f
        if g is not None:
            x *= g
    np.maximum(vertex_skew, skews[1], out=vertex_skew)
    np.minimum(vertex_skew, skews[0], out=vertex_skew)
    np.minimum(vertex_value, tail[0], out=vertex_value)
    np.minimum(vertex_value, tail[1], out=vertex_value)
    return vertex_skew, vertex_value


def quad_extremes_batch(
    a2: np.ndarray,
    a1: np.ndarray,
    a0: np.ndarray,
    t_star: np.ndarray,
    v_min: np.ndarray,
    v_max: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(min, max) of each quadratic over its interval.

    Matches :meth:`repro.characterize.formulas.QuadPoly1.min_over` /
    ``max_over`` element-wise: endpoints always, the interior stationary
    point ``t_star`` only when it is strictly inside.  Its curvature
    rule is decided once per quadratic, not per call: ``v_min`` is the
    value at ``t_star`` where that can be the minimum (``a2 > 0``) and
    ``+inf`` elsewhere, ``v_max`` likewise for the maximum (``a2 < 0``)
    with ``-inf``, so an inert candidate leaves the endpoints' extreme
    as it is.  Coefficients may carry extra leading axes (e.g. delay and
    transition families stacked); ``lo`` / ``hi`` broadcast against
    them.
    """
    v_lo, v_hi = a2 * lo, a2 * hi  # (a2 * t + a1) * t + a0, in place
    for v, t in ((v_lo, lo), (v_hi, hi)):
        v += a1
        v *= t
        v += a0
    interior = (lo < t_star) & (t_star < hi)
    maxs = np.maximum(v_lo, v_hi)
    np.maximum(maxs, v_max, out=maxs, where=interior)
    mins = np.minimum(v_lo, v_hi, out=v_lo)
    np.minimum(mins, v_min, out=mins, where=interior)
    return mins, maxs


def end_tails(
    quads: np.ndarray,
    adj: np.ndarray,
    tc: np.ndarray,
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The pair shapes' tails: each lane's arc at its two clamped
    endpoints ``tc`` ``(L, 2, B)``, the array form of
    :meth:`~repro.models.vshape.PairAnchors.end`.  ``quads`` stacks
    ``a2``, ``a1``, ``a0`` (any leading axes, say the delay and
    transition families), ``adj`` holds the lanes' load terms and ``f``
    their variation factors ``(L, B)``."""
    a2, a1, a0 = quads
    out = a2 * tc
    out += a1
    out *= tc
    out += a0
    out += adj
    if f is not None:
        out *= f[:, None]
    if g is not None:
        out *= g
    return out


def _shape_delay(
    delta: np.ndarray,
    vertex: np.ndarray,
    tails: np.ndarray,
    skews: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`repro.models.vshape.VShape.delay` at a stack of
    skews: the V and, mirrored through the same fold
    (:func:`fold_pairs`), the Λ.

    ``vertex`` is the zero-skew value; ``tails`` and ``skews`` stack the
    positive side over the negative one: the value reaches ``tails[0]``
    at ``skews[0] = +S`` and ``tails[1]`` at ``skews[1] = -S`` (the V's
    tails are ``(DR_p, DR_q)``; the Λ's are ``(tail_q, tail_p)``, its
    delay running from the latest arrival).  ``delta``
    carries a leading axis of breakpoints, which the result keeps.  Both
    sides' fractions come from one division: ``delta / -S`` is
    ``-delta / S`` bit for bit, so each value is the scalar expression
    (up to the order of commutative operands).  Wide calls pay for every
    fresh temporary, so the values are built in place.
    """
    side = delta / skews[:, None]
    side *= (tails - vertex)[:, None]
    side += vertex
    out = np.where(delta >= 0.0, side[0], side[1])
    np.copyto(out, tails[1], where=delta <= skews[1])
    np.copyto(out, tails[0], where=delta >= skews[0])
    return out


def fold_pairs(
    reduce: np.ufunc,
    e_i: np.ndarray,
    e_j: np.ndarray,
    blo: np.ndarray,
    bhi: np.ndarray,
    vertex: np.ndarray,
    tails: np.ndarray,
    skews: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`repro.sta.corners.fold_pair`: each endpoint
    combo's extreme output arrival, ``(Q, 4, B)``.

    ``reduce`` is ``np.minimum`` for the V, whose ``e_i`` / ``e_j`` are
    the pair's earliest arrivals, and ``np.maximum`` for the Λ, whose
    are the latest.  The pair quantities (``e_i``, ``e_j`` and the
    feasible-skew edges ``blo`` / ``bhi``) are ``(Q, 1, B)`` and
    broadcast over the pair's four combos; ``tails`` and ``skews``
    stack the +S side over the −S side as in :func:`_shape_delay`.
    Every breakpoint folds into one running extreme in place.  The
    shape runs over the edges and the offset only; at zero skew and ±S
    its branches return ``vertex + (tails[0] - vertex) * 0.0``,
    ``tails[0]`` and ``tails[1]`` (while S± > 0, see
    :mod:`repro.sta.compile`), written directly.
    """
    bound = np.maximum if reduce is np.minimum else np.minimum
    edges = np.stack([blo, bhi, e_j - e_i])  # (3, Q, 1, B)
    cand = _shape_delay(edges, vertex, tails, skews)
    cand += bound(e_i, e_j - edges) + reduce(0.0, edges)
    valid = (blo <= edges) & (edges <= bhi)
    best = np.where(
        valid[0], cand[0], np.inf if reduce is np.minimum else -np.inf
    )
    reduce(best, cand[1], out=best, where=valid[1])
    reduce(best, cand[2], out=best, where=valid[2])
    zero = tails[0] - vertex
    zero *= 0.0
    zero += vertex
    zero += bound(e_i, e_j - 0.0) + reduce(0.0, 0.0)
    reduce(best, zero, out=best, where=(blo <= 0.0) & (0.0 <= bhi))
    cand = e_j - skews
    bound(e_i, cand, out=cand)
    cand += reduce(0.0, skews)
    cand += tails
    valid = (blo <= skews) & (skews <= bhi)
    reduce(best, cand[0], out=best, where=valid[0])
    reduce(best, cand[1], out=best, where=valid[1])
    return best


def _trans_v(
    delta: np.ndarray,
    vskew: np.ndarray,
    vval: np.ndarray,
    skews: np.ndarray,
    tails: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`repro.models.vshape.TransVShape.trans`.

    ``skews`` and ``tails`` stack ``(+S, -S)`` and ``(t_p, t_q)`` as in
    :func:`_shape_delay` (``vskew - (-S)`` is ``vskew + S`` bit for
    bit); the sides are built in place.
    """
    t_p, t_q = tails
    span_p = skews[0] - vskew
    span_q = vskew - skews[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        val_p = delta - vskew
        val_p /= span_p
        val_p *= t_p - vval
        val_p += vval
        val_q = vskew - delta
        val_q /= span_q
        val_q *= t_q - vval
        val_q += vval
    return np.where(
        delta >= skews[0],
        t_p,
        np.where(
            delta <= skews[1],
            t_q,
            np.where(
                delta >= vskew,
                np.where(span_p <= 0.0, t_p, val_p),
                np.where(span_q <= 0.0, t_q, val_q),
            ),
        ),
    )

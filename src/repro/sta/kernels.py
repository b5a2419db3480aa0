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

The pair-merge primitives write into a :class:`Workspace`: named
scratch buffers that one compiled pass (or one incremental sweep) owns
and hands to every kernel call, so a wide call reuses the pages the
previous call touched instead of faulting fresh temporaries in.

Every primitive is bit-identical per element to its scalar counterpart.
The only floating-point hazard is ``T**(1/3)`` (SIMD ``pow`` can differ
from libm in the last ulp), which is why the cube roots go through
:func:`repro.characterize.formulas.cbrt_many`; every other operation
used (+, -, *, /, min, max) is IEEE-exact and therefore identical
whether NumPy or the Python interpreter executes it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ..characterize.formulas import cbrt_many
from ..characterize.library import multi_input_ratio
from ..models.vshape import _S_FLOOR


# ----------------------------------------------------------------------
# Scratch buffers
# ----------------------------------------------------------------------
class Workspace:
    """Named scratch buffers, reused by every kernel call of one pass.

    ``ws(name, shape, dtype)`` is an uninitialized C-contiguous view of
    the buffer ``name``, which grows to its largest request and never
    shrinks.  A name holds one live value: a kernel takes a name only
    once the value last written under it is dead, and no result a pass
    returns lives in a buffer.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: Tuple[int, ...], dtype=float):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            # Drop the old buffer first: its pages can back the new one.
            self._buffers[name] = buf = None
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def take(self, name: str, src: np.ndarray, idx: np.ndarray, axis=0):
        """``src.take(idx, axis)`` into the buffer ``name``."""
        axis %= src.ndim
        shape = src.shape[:axis] + idx.shape + src.shape[axis + 1:]
        return src.take(idx, axis, self(name, shape, src.dtype), "clip")

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())


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
    ws: Workspace,
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Saturation skews ``(s_pos, s_neg)``, stacked on a leading axis:
    both SR surfaces in one evaluation (``shape.sr``), at the floor,
    times the variation factor ``f`` and then the derate ``g``; in
    ``ws["sr"]``."""
    s = shape.sr.eval_many(t_lo, t_hi, ws, "sr")
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
    ws: Workspace,
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
    ``f`` and ``g``, bit for bit.  ``d0`` is ``ws["d0"]``.
    """
    d0 = np.multiply(surface, scale, out=ws("d0", surface.shape))
    d0 += load_adj
    if f is not None:
        d0 *= f
    if g is not None:
        d0 *= g
    clamp(d0, tails[0], out=d0)
    clamp(d0, tails[1], out=d0)
    return d0, sr_slopes(shape, t[0], t[1], ws, f, g)


def trans_anchor_surfaces(
    ctrl,
    t: np.ndarray,
    surface: np.ndarray,
    tail: np.ndarray,
    load_adj: np.ndarray,
    skews: np.ndarray,
    ws: Workspace,
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Transition-V anchors ``(vertex_skew, vertex_value)``, in
    ``ws["vskew"]`` and ``ws["vval"]``.

    ``surface`` is the vertex surface at the endpoints' cube roots,
    ``skews`` stacks ``+s_pos`` and ``-s_neg`` of the :func:`sr_slopes`
    the V-shape anchors evaluated on the same operands; ``t`` and
    ``tail`` as in :func:`anchor_surfaces`.
    """
    vertex_value = np.add(surface, load_adj, out=ws("vval", surface.shape))
    vertex_skew = ctrl.t_vertex_skew.eval_many(t[0], t[1], ws, "vskew")
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
    ws: Workspace,
    f: Optional[np.ndarray] = None,
    g: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The pair shapes' tails: each lane's arc at its two clamped
    endpoints ``tc`` ``(L, 2, B)``, the array form of
    :meth:`~repro.models.vshape.PairAnchors.end`.  ``quads`` stacks
    ``a2``, ``a1``, ``a0`` ``(..., L, 1, C)`` (any leading axes, say the
    delay and transition families), ``adj`` holds the lanes' load terms
    and ``f`` their variation factors ``(L, B)``; in ``ws["tails"]``."""
    a2, a1, a0 = quads
    out = np.multiply(a2, tc, out=ws("tails", a2.shape[:-2] + tc.shape[-2:]))
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
    ws: Workspace,
) -> np.ndarray:
    """Vectorized :meth:`repro.models.vshape.VShape.delay` at a stack of
    skews: the V and, mirrored through the same fold
    (:func:`fold_pairs`), the Λ; in ``ws["cand"]``.

    ``vertex`` is the zero-skew value; ``tails`` and ``skews`` stack the
    positive side over the negative one: the value reaches ``tails[0]``
    at ``skews[0] = +S`` and ``tails[1]`` at ``skews[1] = -S`` (the V's
    tails are ``(DR_p, DR_q)``; the Λ's are ``(tail_q, tail_p)``, its
    delay running from the latest arrival).  ``delta``
    carries a leading axis of breakpoints, which the result keeps.  Both
    sides' fractions come from one division: ``delta / -S`` is
    ``-delta / S`` bit for bit, so each value is the scalar expression
    (up to the order of commutative operands).  The −S side is built
    over every breakpoint, then each breakpoint's +S side is copied over
    it where ``delta >= 0`` (masked arithmetic ran 2x slower).
    """
    out = ws("cand", delta.shape[:1] + vertex.shape)
    tv, side = ws("tv", vertex.shape), ws("side", vertex.shape)
    np.divide(delta, skews[1], out=out)
    out *= np.subtract(tails[1], vertex, out=tv)
    out += vertex
    pos = np.greater_equal(delta, 0.0, out=ws("pos", delta.shape, bool))
    np.subtract(tails[0], vertex, out=tv)
    for d, o, p in zip(delta, out, pos):
        side = np.divide(d, skews[0], out=side)
        side *= tv
        side += vertex
        np.copyto(o, side, where=p)
    past = ws("past", out.shape, bool)
    np.copyto(out, tails[1], where=np.less_equal(delta, skews[1], out=past))
    np.copyto(out, tails[0], where=np.greater_equal(delta, skews[0], out=past))
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
    ws: Workspace,
) -> np.ndarray:
    """Vectorized :func:`repro.sta.corners.fold_pair`: each endpoint
    combo's extreme output arrival, ``(Q, 4, B)`` in ``ws["best"]``.

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
    edges = ws("edges", (3,) + e_i.shape)  # (3, Q, 1, B)
    edges[0] = blo
    edges[1] = bhi
    np.subtract(e_j, e_i, out=edges[2])
    cand = _shape_delay(edges, vertex, tails, skews, ws)
    valid, within = ws("valid", (2,) + edges.shape, bool)
    np.less_equal(blo, edges, out=valid)
    valid &= np.less_equal(edges, bhi, out=within)
    lift = np.subtract(e_j, edges, out=ws("lift", edges.shape))
    bound(e_i, lift, out=lift)
    lift += reduce(0.0, edges, out=edges)  # the edges' last read
    cand += lift
    best = ws("best", vertex.shape)
    best.fill(np.inf if reduce is np.minimum else -np.inf)
    np.copyto(best, cand[0], where=valid[0])
    reduce(best, cand[1], out=best, where=valid[1])
    reduce(best, cand[2], out=best, where=valid[2])
    zero = np.subtract(tails[0], vertex, out=cand[0])
    zero *= 0.0
    zero += vertex
    at_zero = bound(e_i, np.subtract(e_j, 0.0, out=lift[0]), out=lift[0])
    at_zero += reduce(0.0, 0.0)
    zero += at_zero
    np.less_equal(blo, 0.0, out=valid[0])
    valid[0] &= np.less_equal(0.0, bhi, out=within[0])
    reduce(best, zero, out=best, where=valid[0])
    side, flat = cand[1], cand[2]
    ok, within = ws("ok", (2,) + vertex.shape, bool)
    for sk, tail in zip(skews, tails):
        bound(e_i, np.subtract(e_j, sk, out=side), out=side)
        side += reduce(0.0, sk, out=flat)
        side += tail
        np.less_equal(blo, sk, out=ok)
        ok &= np.less_equal(sk, bhi, out=within)
        reduce(best, side, out=best, where=ok)
    return best


def _trans_v(
    delta: np.ndarray,
    vskew: np.ndarray,
    vval: np.ndarray,
    skews: np.ndarray,
    tails: np.ndarray,
    ws: Workspace,
) -> np.ndarray:
    """Vectorized :meth:`repro.models.vshape.TransVShape.trans`, in
    ``ws["trans"]``.

    ``skews`` and ``tails`` stack ``(+S, -S)`` and ``(t_p, t_q)`` as in
    :func:`_shape_delay` (``vskew - (-S)`` is ``vskew + S`` bit for
    bit).  Each side is built in place, and the scalar form's branches
    are written over the −S side, lowest priority first.
    """
    t_p, t_q = tails
    shape = vskew.shape
    span = ws("tv", shape)
    flat_p, flat_q = ws("flat", (2,) + shape, bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        val_p = np.subtract(delta, vskew, out=ws("side", shape))
        val_p /= np.subtract(skews[0], vskew, out=span)
        np.less_equal(span, 0.0, out=flat_p)
        val_p *= np.subtract(t_p, vval, out=span)
        val_p += vval
        val_q = np.subtract(vskew, delta, out=ws("trans", shape))
        val_q /= np.subtract(vskew, skews[1], out=span)
        np.less_equal(span, 0.0, out=flat_q)
        val_q *= np.subtract(t_q, vval, out=span)
        val_q += vval
    np.copyto(val_p, t_p, where=flat_p)
    np.copyto(val_q, t_q, where=flat_q)
    for cond, edge, value in ((np.greater_equal, vskew, val_p),
                              (np.less_equal, skews[1], t_q),
                              (np.greater_equal, skews[0], t_p)):
        np.copyto(val_q, value, where=cond(delta, edge, out=flat_p))
    return val_q

"""Empirical formula forms of the paper's Section 3.4, with least-squares fits.

The paper's characterized quantities and their functional forms:

* ``DR(Tx) = K10*Tx^2 + K11*Tx + K12`` — pin-to-pin delay versus input
  transition time, quadratic so it can be monotone *or* bi-tonic
  (:class:`QuadPoly1`);
* ``D0R(Tx,Ty) = (K20*Tx^(1/3) + K21)*(K22*Ty^(1/3) + K23) + K24`` — the
  zero-skew simultaneous-switching delay (:class:`CubeRootSurface`);
* ``SR(Tx,Ty) = K30*Tx^2 + K31*Ty^2 + K32*Tx*Ty + K33*Tx + K34*Ty + K35``
  — the saturation skew beyond which the lagging input has no effect
  (:class:`QuadForm2`).

:class:`CubeRootSurface` stores the expanded linear basis
``k_xy*x*y + k_x*x + k_y*y + k_c`` with ``x = Tx^(1/3)``, ``y = Ty^(1/3)``,
which spans exactly the same function family as the paper's product form
(see :meth:`CubeRootSurface.to_paper_form`) but fits with a single linear
least-squares solve.

All fits are plain ``numpy.linalg.lstsq`` — the forms are linear in their
coefficients by construction, which is precisely why the paper chose them
for one-time library characterization.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import repeat
from typing import Optional, Sequence, Tuple

import numpy as np

#: The exponent used by every cube-root evaluation.  Kept as a single
#: constant so the scalar and vectorized paths round identically.
ONE_THIRD = 1.0 / 3.0


def _lstsq(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return solution


def cbrt_many(values: np.ndarray) -> np.ndarray:
    """Element-wise ``t ** (1/3)`` bit-identical to the scalar evaluation.

    ``np.power``'s vectorized float64 loop can differ from libm ``pow``
    in the last ulp (and ``np.cbrt`` is a different function), and the
    batched STA kernels must reproduce the scalar model arithmetic
    exactly — so every root is libm ``pow`` on one value: ``math.pow``,
    which computes what Python's float ``**`` computes, mapped over the
    values without a per-element bytecode loop.  It is not free: a
    33-column Monte Carlo pass on c7552s takes about 433k roots, about
    47 ms on a 2-vCPU Xeon host (the ``**`` loop took 70 ms).

    Raises:
        ValueError: If a value is negative (its real root is not what
            ``**`` computes either).
    """
    flat = np.asarray(values, dtype=float)
    return np.fromiter(
        map(math.pow, flat.tolist(), repeat(ONE_THIRD)),
        float,
        count=flat.size,
    )


def _time_scale(*arrays: np.ndarray) -> float:
    """A normalization scale for time-valued regressors.

    Characterized times are of order 1e-10 s; fitting T^2 columns in raw SI
    units would produce design matrices with condition numbers near 1e20.
    Every fit therefore normalizes by this scale and folds it back into the
    returned coefficients, keeping the public API in plain seconds.
    """
    magnitude = max(float(np.max(np.abs(a))) for a in arrays)
    return magnitude if magnitude > 0.0 else 1.0


@dataclasses.dataclass(frozen=True)
class QuadPoly1:
    """``f(t) = a2*t^2 + a1*t + a0`` (the paper's DR form).

    Besides evaluation, this exposes the interval extremes STA's
    worst-case corner identification needs (the paper's Figure 9: the
    maximum of a bi-tonic delay curve over a transition-time window lies
    at an endpoint or at the interior peak).
    """

    a2: float
    a1: float
    a0: float

    def __call__(self, t: float) -> float:
        return (self.a2 * t + self.a1) * t + self.a0

    def peak_location(self) -> Optional[float]:
        """Interior stationary point (the bi-tonic peak), if one exists."""
        if self.a2 >= 0.0:
            return None
        return -self.a1 / (2.0 * self.a2)

    def max_over(self, lo: float, hi: float) -> Tuple[float, float]:
        """(argmax, max) of the polynomial over ``[lo, hi]``.

        Ties resolve to the earlier candidate in (lo, hi, peak) order,
        and every candidate is evaluated exactly once.
        """
        best_t, best_v = lo, self(lo)
        v = self(hi)
        if v > best_v:
            best_t, best_v = hi, v
        if self.a2 < 0.0:
            peak = -self.a1 / (2.0 * self.a2)
            if lo < peak < hi:
                v = self(peak)
                if v > best_v:
                    best_t, best_v = peak, v
        return best_t, best_v

    def min_over(self, lo: float, hi: float) -> Tuple[float, float]:
        """(argmin, min) of the polynomial over ``[lo, hi]``.

        Ties resolve to the earlier candidate in (lo, hi, valley) order,
        and every candidate is evaluated exactly once.
        """
        best_t, best_v = lo, self(lo)
        v = self(hi)
        if v < best_v:
            best_t, best_v = hi, v
        if self.a2 > 0.0:
            valley = -self.a1 / (2.0 * self.a2)
            if lo < valley < hi:
                v = self(valley)
                if v < best_v:
                    best_t, best_v = valley, v
        return best_t, best_v

    def eval_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation, bit-identical per element to ``self(t)``."""
        return (self.a2 * ts + self.a1) * ts + self.a0

    def coefficients(self) -> Tuple[float, float, float]:
        return self.a2, self.a1, self.a0

    @classmethod
    def fit(cls, ts: Sequence[float], ys: Sequence[float]) -> "QuadPoly1":
        ts = np.asarray(ts, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if ts.size < 3:
            raise ValueError("quadratic fit needs at least three samples")
        s = _time_scale(ts)
        tn = ts / s
        design = np.column_stack([tn * tn, tn, np.ones_like(tn)])
        a2, a1, a0 = _lstsq(design, ys)
        return cls(float(a2) / (s * s), float(a1) / s, float(a0))

    def rms_error(self, ts: Sequence[float], ys: Sequence[float]) -> float:
        ts = np.asarray(ts, dtype=float)
        ys = np.asarray(ys, dtype=float)
        pred = (self.a2 * ts + self.a1) * ts + self.a0
        return float(np.sqrt(np.mean((pred - ys) ** 2)))


@dataclasses.dataclass(frozen=True)
class CubeRootSurface:
    """``f(Tx,Ty) = k_xy*x*y + k_x*x + k_y*y + k_c`` with ``x=Tx^(1/3)``.

    The linear-basis expansion of the paper's D0R product form.
    """

    k_xy: float
    k_x: float
    k_y: float
    k_c: float

    def __call__(self, tx: float, ty: float) -> float:
        return self.eval_roots(tx ** ONE_THIRD, ty ** ONE_THIRD)

    def eval_many(self, txs: np.ndarray, tys: np.ndarray) -> np.ndarray:
        """Vectorized evaluation, bit-identical per element to scalar."""
        return self.eval_roots(cbrt_many(txs), cbrt_many(tys))

    def eval_roots(self, x, y):
        """The surface at pre-computed cube roots ``x = Tx**(1/3)``,
        ``y = Ty**(1/3)``: Python floats (the scalar corner search,
        which takes each pin endpoint's root once) or arrays (see
        :func:`cbrt_many`).  ``__call__`` is this expression too."""
        return self.k_xy * x * y + self.k_x * x + self.k_y * y + self.k_c

    def to_paper_form(self) -> Tuple[float, float, float, float, float]:
        """(K20, K21, K22, K23, K24) of the paper's product form.

        The expansion ``(K20*x + K21)*(K22*y + K23) + K24`` equals
        ``K20*K22*xy + K20*K23*x + K21*K22*y + K21*K23 + K24``.  Fixing
        the gauge freedom with ``K22 = 1`` recovers the paper form.

        Raises:
            ValueError: If the surface is degenerate (``k_xy == 0``), in
                which case no finite product form exists.
        """
        if self.k_xy == 0.0:
            raise ValueError("degenerate surface has no product form")
        k20 = self.k_xy
        k22 = 1.0
        k23 = self.k_x / self.k_xy
        k21 = self.k_y
        k24 = self.k_c - k21 * k23
        return k20, k21, k22, k23, k24

    @classmethod
    def fit(
        cls,
        txs: Sequence[float],
        tys: Sequence[float],
        zs: Sequence[float],
    ) -> "CubeRootSurface":
        txs = np.asarray(txs, dtype=float)
        tys = np.asarray(tys, dtype=float)
        zs = np.asarray(zs, dtype=float)
        if txs.size < 4:
            raise ValueError("surface fit needs at least four samples")
        s = _time_scale(txs, tys) ** (1.0 / 3.0)
        x = txs ** (1.0 / 3.0) / s
        y = tys ** (1.0 / 3.0) / s
        design = np.column_stack([x * y, x, y, np.ones_like(x)])
        k_xy, k_x, k_y, k_c = _lstsq(design, zs)
        return cls(
            float(k_xy) / (s * s), float(k_x) / s, float(k_y) / s, float(k_c)
        )

    def rms_error(
        self,
        txs: Sequence[float],
        tys: Sequence[float],
        zs: Sequence[float],
    ) -> float:
        preds = [self(tx, ty) for tx, ty in zip(txs, tys)]
        return float(np.sqrt(np.mean((np.asarray(preds) - np.asarray(zs)) ** 2)))


@dataclasses.dataclass(frozen=True)
class QuadForm2:
    """``f(Tx,Ty) = k0*Tx^2 + k1*Ty^2 + k2*Tx*Ty + k3*Tx + k4*Ty + k5``.

    The paper's SR form (full bivariate quadratic).
    """

    k0: float
    k1: float
    k2: float
    k3: float
    k4: float
    k5: float

    def __call__(self, tx: float, ty: float) -> float:
        return (
            self.k0 * tx * tx
            + self.k1 * ty * ty
            + self.k2 * tx * ty
            + self.k3 * tx
            + self.k4 * ty
            + self.k5
        )

    def eval_many(self, txs: np.ndarray, tys: np.ndarray) -> np.ndarray:
        """Vectorized evaluation, bit-identical per element to scalar."""
        return (
            self.k0 * txs * txs
            + self.k1 * tys * tys
            + self.k2 * txs * tys
            + self.k3 * txs
            + self.k4 * tys
            + self.k5
        )

    def coefficients(self) -> Tuple[float, ...]:
        return (self.k0, self.k1, self.k2, self.k3, self.k4, self.k5)

    @classmethod
    def fit(
        cls,
        txs: Sequence[float],
        tys: Sequence[float],
        zs: Sequence[float],
    ) -> "QuadForm2":
        txs = np.asarray(txs, dtype=float)
        tys = np.asarray(tys, dtype=float)
        zs = np.asarray(zs, dtype=float)
        if txs.size < 6:
            raise ValueError("quadratic form fit needs at least six samples")
        s = _time_scale(txs, tys)
        xn = txs / s
        yn = tys / s
        design = np.column_stack(
            [xn * xn, yn * yn, xn * yn, xn, yn, np.ones_like(xn)]
        )
        c = _lstsq(design, zs)
        s2 = s * s
        return cls(
            float(c[0]) / s2,
            float(c[1]) / s2,
            float(c[2]) / s2,
            float(c[3]) / s,
            float(c[4]) / s,
            float(c[5]),
        )

    def rms_error(
        self,
        txs: Sequence[float],
        tys: Sequence[float],
        zs: Sequence[float],
    ) -> float:
        preds = [self(tx, ty) for tx, ty in zip(txs, tys)]
        return float(np.sqrt(np.mean((np.asarray(preds) - np.asarray(zs)) ** 2)))


@dataclasses.dataclass(frozen=True)
class LinForm2:
    """``f(Tx,Ty) = c0 + c1*Tx + c2*Ty`` (used for the SK_t,min vertex skew)."""

    c0: float
    c1: float
    c2: float

    def __call__(self, tx: float, ty: float) -> float:
        return self.c0 + self.c1 * tx + self.c2 * ty

    def eval_many(self, txs: np.ndarray, tys: np.ndarray) -> np.ndarray:
        """Vectorized evaluation, bit-identical per element to scalar."""
        return self.c0 + self.c1 * txs + self.c2 * tys

    @classmethod
    def fit(
        cls,
        txs: Sequence[float],
        tys: Sequence[float],
        zs: Sequence[float],
    ) -> "LinForm2":
        txs = np.asarray(txs, dtype=float)
        tys = np.asarray(tys, dtype=float)
        zs = np.asarray(zs, dtype=float)
        if txs.size < 3:
            raise ValueError("linear form fit needs at least three samples")
        s = _time_scale(txs, tys)
        design = np.column_stack([np.ones_like(txs), txs / s, tys / s])
        c0, c1, c2 = _lstsq(design, zs)
        return cls(float(c0), float(c1) / s, float(c2) / s)


def refine_minimum(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[float, float]:
    """Parabolic refinement of the minimum of a sampled curve.

    Used to locate the transition-time V-vertex (SK_t,min) from discrete
    skew samples.

    Returns:
        (x_min, y_min); falls back to the raw sample minimum when the
        neighbourhood is not locally convex.
    """
    xs = list(xs)
    ys = list(ys)
    idx = int(np.argmin(ys))
    if idx == 0 or idx == len(ys) - 1:
        return xs[idx], ys[idx]
    x0, x1, x2 = xs[idx - 1], xs[idx], xs[idx + 1]
    y0, y1, y2 = ys[idx - 1], ys[idx], ys[idx + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    if denom == 0:
        return x1, y1
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
    if a <= 0:
        return x1, y1
    x_min = -b / (2 * a)
    if not (x0 <= x_min <= x2):
        return x1, y1
    c = y1 - (a * x1 * x1 + b * x1)
    return float(x_min), float(a * x_min * x_min + b * x_min + c)


def saturation_crossing(
    xs: Sequence[float],
    ys: Sequence[float],
    floor: float,
    ceiling: float,
    fraction: float = 0.98,
) -> float:
    """First x where a rising-to-saturation curve reaches ``fraction`` of span.

    Used to extract the paper's SR point (the minimum skew at which a
    lagging transition stops affecting the delay) from a sampled
    delay-versus-skew curve.

    Args:
        xs: Increasing sample positions (skews).
        ys: Curve values, expected to rise from ``floor`` toward ``ceiling``.
        floor: Curve value at x=0 (the zero-skew delay D0).
        ceiling: Saturated value (the pin-to-pin delay DR).
        fraction: Saturation threshold.

    Returns:
        The interpolated crossing position (clamped to the sampled range).
    """
    target = floor + fraction * (ceiling - floor)
    prev_x, prev_y = xs[0], ys[0]
    for x, y in zip(xs, ys):
        if y >= target:
            if y == prev_y or x == prev_x:
                return float(x)
            frac = (target - prev_y) / (y - prev_y)
            return float(prev_x + frac * (x - prev_x))
        prev_x, prev_y = x, y
    return float(xs[-1])

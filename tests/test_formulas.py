"""Unit and property tests for the empirical formula forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterize.formulas import (
    ONE_THIRD,
    CubeRootSurface,
    LinForm2,
    QuadForm2,
    QuadPoly1,
    cbrt_many,
    refine_minimum,
    saturation_crossing,
)

NS = 1e-9


class TestQuadPoly1:
    def test_exact_fit_recovers_coefficients(self):
        truth = QuadPoly1(-2e8 / NS, 0.4, 0.05 * NS)
        ts = np.linspace(0.1 * NS, 2 * NS, 8)
        poly = QuadPoly1.fit(ts, [truth(t) for t in ts])
        for t in np.linspace(0.05 * NS, 2.5 * NS, 11):
            assert poly(t) == pytest.approx(truth(t), rel=1e-6, abs=1e-18)

    def test_fit_requires_three_points(self):
        with pytest.raises(ValueError):
            QuadPoly1.fit([1e-9, 2e-9], [1.0, 2.0])

    def test_peak_of_bitonic(self):
        # Peak at T = 1 ns.
        poly = QuadPoly1(-1e8 / NS / NS * NS, 0.2, 0.0)
        peak = poly.peak_location()
        assert peak is not None
        assert poly(peak) >= poly(peak * 0.9)
        assert poly(peak) >= poly(peak * 1.1)

    def test_monotone_has_no_peak(self):
        assert QuadPoly1(0.0, 0.5, 0.1 * NS).peak_location() is None
        assert QuadPoly1(1e10, 0.5, 0.1 * NS).peak_location() is None

    def test_max_over_interval_interior_peak(self):
        poly = QuadPoly1(-1.0, 2.0, 0.0)  # peak at t=1
        arg, val = poly.max_over(0.0, 3.0)
        assert arg == pytest.approx(1.0)
        assert val == pytest.approx(1.0)

    def test_max_over_interval_endpoint(self):
        poly = QuadPoly1(-1.0, 2.0, 0.0)
        arg, val = poly.max_over(2.0, 3.0)  # peak left of interval
        assert arg == 2.0
        assert val == pytest.approx(poly(2.0))

    def test_min_over_interval_convex(self):
        poly = QuadPoly1(1.0, -2.0, 3.0)  # valley at t=1
        arg, val = poly.min_over(0.0, 4.0)
        assert arg == pytest.approx(1.0)
        assert val == pytest.approx(2.0)

    @given(
        a2=st.floats(min_value=-5, max_value=5),
        a1=st.floats(min_value=-5, max_value=5),
        a0=st.floats(min_value=-5, max_value=5),
        lo=st.floats(min_value=0.0, max_value=1.0),
        width=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_interval_extremes_bound_samples(self, a2, a1, a0, lo, width):
        poly = QuadPoly1(a2, a1, a0)
        hi = lo + width
        _, vmax = poly.max_over(lo, hi)
        _, vmin = poly.min_over(lo, hi)
        for t in np.linspace(lo, hi, 17):
            assert vmin - 1e-9 <= poly(t) <= vmax + 1e-9

    def test_rms_error_zero_for_exact(self):
        poly = QuadPoly1(1.0, 2.0, 3.0)
        ts = [0.0, 1.0, 2.0, 3.0]
        assert poly.rms_error(ts, [poly(t) for t in ts]) == pytest.approx(0.0, abs=1e-9)


class TestCubeRootSurface:
    def test_exact_fit(self):
        truth = CubeRootSurface(2e-7, -3e-8, 1e-8, 0.02 * NS)
        txs, tys, zs = [], [], []
        for tx in np.linspace(0.1 * NS, 1.5 * NS, 5):
            for ty in np.linspace(0.1 * NS, 1.5 * NS, 5):
                txs.append(tx)
                tys.append(ty)
                zs.append(truth(tx, ty))
        fit = CubeRootSurface.fit(txs, tys, zs)
        for tx, ty, z in zip(txs, tys, zs):
            assert fit(tx, ty) == pytest.approx(z, rel=1e-6, abs=1e-20)

    def test_fit_requires_four_points(self):
        with pytest.raises(ValueError):
            CubeRootSurface.fit([1e-9] * 3, [1e-9] * 3, [1.0] * 3)

    def test_paper_form_round_trip(self):
        surf = CubeRootSurface(2e-7, -3e-8, 1e-8, 0.02 * NS)
        k20, k21, k22, k23, k24 = surf.to_paper_form()
        for tx in (0.2 * NS, 0.7 * NS):
            for ty in (0.3 * NS, 1.1 * NS):
                x = tx ** (1 / 3)
                y = ty ** (1 / 3)
                paper = (k20 * x + k21) * (k22 * y + k23) + k24
                assert paper == pytest.approx(surf(tx, ty), rel=1e-9)

    def test_degenerate_paper_form_raises(self):
        with pytest.raises(ValueError):
            CubeRootSurface(0.0, 1.0, 1.0, 1.0).to_paper_form()

    def test_rms_error(self):
        surf = CubeRootSurface(0.0, 0.0, 0.0, 1.0)
        assert surf.rms_error([1e-9], [1e-9], [2.0]) == pytest.approx(1.0)


class TestQuadForm2:
    def test_exact_fit(self):
        truth = QuadForm2(1e8, -2e8, 5e7, 0.3, -0.1, 0.05 * NS)
        txs, tys, zs = [], [], []
        for tx in np.linspace(0.1 * NS, 1.5 * NS, 4):
            for ty in np.linspace(0.1 * NS, 1.5 * NS, 4):
                txs.append(tx)
                tys.append(ty)
                zs.append(truth(tx, ty))
        fit = QuadForm2.fit(txs, tys, zs)
        for tx, ty, z in zip(txs, tys, zs):
            assert fit(tx, ty) == pytest.approx(z, rel=1e-6, abs=1e-20)

    def test_fit_requires_six_points(self):
        with pytest.raises(ValueError):
            QuadForm2.fit([1e-9] * 5, [1e-9] * 5, [1.0] * 5)

    def test_coefficients_order_matches_paper(self):
        # SR = K30*Tx^2 + K31*Ty^2 + K32*TxTy + K33*Tx + K34*Ty + K35
        form = QuadForm2(1, 2, 3, 4, 5, 6)
        assert form(1.0, 1.0) == 1 + 2 + 3 + 4 + 5 + 6
        assert form(2.0, 0.0) == 1 * 4 + 4 * 2 + 6


class TestLinForm2:
    def test_exact_fit(self):
        truth = LinForm2(0.01 * NS, 0.2, -0.1)
        txs = [0.1 * NS, 0.5 * NS, 1.0 * NS, 1.5 * NS]
        tys = [1.2 * NS, 0.3 * NS, 0.8 * NS, 0.1 * NS]
        zs = [truth(a, b) for a, b in zip(txs, tys)]
        fit = LinForm2.fit(txs, tys, zs)
        for a, b, z in zip(txs, tys, zs):
            assert fit(a, b) == pytest.approx(z, rel=1e-9, abs=1e-22)

    def test_requires_three(self):
        with pytest.raises(ValueError):
            LinForm2.fit([1.0], [1.0], [1.0])


class TestRefineMinimum:
    def test_exact_parabola_vertex(self):
        xs = np.linspace(-1, 1, 11)
        ys = (xs - 0.123) ** 2 + 0.5
        x_min, y_min = refine_minimum(xs, ys)
        assert x_min == pytest.approx(0.123, abs=1e-9)
        assert y_min == pytest.approx(0.5, abs=1e-9)

    def test_boundary_minimum_returned_raw(self):
        xs = [0.0, 1.0, 2.0]
        ys = [0.1, 0.5, 0.9]
        assert refine_minimum(xs, ys) == (0.0, 0.1)

    def test_flat_curve(self):
        xs = [0.0, 1.0, 2.0]
        ys = [1.0, 1.0, 1.0]
        x_min, y_min = refine_minimum(xs, ys)
        assert y_min == 1.0


class TestSaturationCrossing:
    def test_linear_rise_to_plateau(self):
        xs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        ys = [0.0, 0.5, 1.0, 1.0, 1.0, 1.0]
        crossing = saturation_crossing(xs, ys, floor=0.0, ceiling=1.0,
                                       fraction=0.98)
        assert crossing == pytest.approx(0.196, abs=1e-6)

    def test_never_saturating_returns_last(self):
        xs = [0.0, 1.0, 2.0]
        ys = [0.0, 0.1, 0.2]
        assert saturation_crossing(xs, ys, 0.0, 1.0) == 2.0

    def test_already_saturated_returns_first(self):
        xs = [0.0, 1.0]
        ys = [1.0, 1.0]
        assert saturation_crossing(xs, ys, 0.0, 1.0) == 0.0


class TestCbrtMany:
    """``cbrt_many`` is the one cube root of the scalar models, the
    kernels, the compiled pass and the characterizer."""

    @staticmethod
    def _power(values):
        return np.array([v ** ONE_THIRD for v in values], dtype=float)

    def test_bit_equal_to_the_float_power(self, library):
        grid = {
            t
            for cell in library.cells.values()
            for arc in cell.arcs.values()
            for t in (arc.t_lo, arc.t_hi)
        }
        grid.update(library.meta.get("t_grid", []))
        grid.update(np.linspace(0.05 * NS, 2.5 * NS, 997).tolist())
        special = [
            5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0,
            np.inf, np.nan, 1.0, 8.0, 1e300,
        ]
        values = sorted(grid) + special
        got = cbrt_many(np.array(values))
        assert got.dtype == np.float64 and got.shape == (len(values),)
        assert np.array_equal(
            got.view(np.int64), self._power(values).view(np.int64)
        )

    def test_negative_values_raise(self):
        with pytest.raises(ValueError):
            cbrt_many(np.array([1e-10, -1e-12]))

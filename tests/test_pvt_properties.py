"""Property-based tests (hypothesis) for the PVT corner subsystem.

Three families of invariants:

* physics monotonicity — more supply voltage or less heat can only
  speed a corner up, and the exact time-rescale of a derived library
  obeys the homogeneity law ``D'(s*t) = s * D(t)``;
* determinism — a sigma-0 Monte Carlo pass at any corner reproduces
  the deterministic corner windows bit for bit, for both engines;
* conservatism — the merged envelope of a corner set contains every
  per-corner window, whatever the derates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pvt import (
    Corner,
    CornerAnalyzer,
    STANDARD_CORNERS,
    scaled_library,
)
from repro.sta.compile import LevelCompiledAnalyzer

from .test_perf_parity import assert_results_equal

vdds = st.floats(min_value=2.6, max_value=4.0)
temps = st.floats(min_value=-40.0, max_value=125.0)
processes = st.floats(min_value=0.7, max_value=1.3)
earlies = st.floats(min_value=0.85, max_value=1.0)
lates = st.floats(min_value=1.0, max_value=1.15)


def corner_strategy(name="h"):
    return st.builds(
        Corner,
        name=st.just(name),
        process=processes,
        vdd=vdds,
        temp_c=temps,
        derate_early=earlies,
        derate_late=lates,
    )


class TestPhysicsMonotonicity:
    @given(v1=vdds, v2=vdds, temp=temps, process=processes)
    @settings(max_examples=60, deadline=None)
    def test_delay_scale_monotone_in_vdd(self, v1, v2, temp, process):
        """More supply voltage never slows a corner down."""
        lo, hi = sorted((v1, v2))
        slow = Corner("lo", process=process, vdd=lo, temp_c=temp)
        fast = Corner("hi", process=process, vdd=hi, temp_c=temp)
        assert fast.delay_scale() <= slow.delay_scale() + 1e-15

    @given(t1=temps, t2=temps, vdd=vdds, process=processes)
    @settings(max_examples=60, deadline=None)
    def test_delay_scale_monotone_in_temperature(
        self, t1, t2, vdd, process
    ):
        """Heat costs mobility faster than it buys threshold drop."""
        cool, hot = sorted((t1, t2))
        a = Corner("cool", process=process, vdd=vdd, temp_c=cool)
        b = Corner("hot", process=process, vdd=vdd, temp_c=hot)
        assert a.delay_scale() <= b.delay_scale() + 1e-15

    @given(p1=processes, p2=processes, vdd=vdds, temp=temps)
    @settings(max_examples=60, deadline=None)
    def test_delay_scale_monotone_in_process(self, p1, p2, vdd, temp):
        weak, strong = sorted((p1, p2))
        a = Corner("strong", process=strong, vdd=vdd, temp_c=temp)
        b = Corner("weak", process=weak, vdd=vdd, temp_c=temp)
        assert a.delay_scale() <= b.delay_scale() + 1e-15

    @given(corner=corner_strategy(), u=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_scaled_arc_homogeneity(self, library, corner, u):
        """Derived-library arcs obey ``D'(s*t) = s * D(t)`` per cell.

        This is the defining property of the exact time-rescale: the
        corner library evaluated at the corner-scaled operating point
        reproduces the base delay times the corner's delay scale —
        monotone in the scale by construction.
        """
        s = corner.delay_scale()
        derived = scaled_library(library, corner)
        for name, cell in library.cells.items():
            for key, arc in cell.arcs.items():
                t = arc.t_lo + u * (arc.t_hi - arc.t_lo)
                scaled_arc = derived.cells[name].arcs[key]
                assert scaled_arc.delay(s * t) == pytest.approx(
                    s * arc.delay(t), rel=1e-9, abs=1e-22
                )
                assert scaled_arc.trans(s * t) == pytest.approx(
                    s * arc.trans(t), rel=1e-9, abs=1e-22
                )
                assert scaled_arc.t_lo == pytest.approx(
                    s * arc.t_lo, rel=1e-12
                )
            if cell.ctrl is not None:
                t = cell.arcs[next(iter(cell.arcs))].t_hi
                d0 = derived.cells[name].ctrl.d0
                assert d0(s * t, s * t) == pytest.approx(
                    s * cell.ctrl.d0(t, t), rel=1e-9, abs=1e-22
                )

    @given(g1=lates, g2=lates)
    @settings(max_examples=20, deadline=None)
    def test_late_derate_monotone_on_circuit(self, c17, library, g1, g2):
        """A larger late derate never produces an earlier late bound."""
        lo, hi = sorted((g1, g2))
        engine = LevelCompiledAnalyzer(c17, library)
        a = engine.analyze_corners(derates=(1.0, lo))[0]
        b = engine.analyze_corners(derates=(1.0, hi))[0]
        for line in c17.lines:
            for direction in ("rise", "fall"):
                wa = getattr(a.line(line), direction)
                wb = getattr(b.line(line), direction)
                if wa.is_active and wb.is_active:
                    assert wb.a_l >= wa.a_l - 1e-15
                    assert wb.t_l >= wa.t_l - 1e-15


class TestSigmaZeroDeterminism:
    @given(corner=corner_strategy())
    @settings(max_examples=15, deadline=None)
    def test_sigma_zero_mc_equals_corner_windows(
        self, c17, library, corner
    ):
        """Unit-factor MC at a corner == the deterministic corner pass
        == the derated scalar walk."""
        from repro.sta.analysis import StaResult, TimingAnalyzer
        from repro.stat import MonteCarloEngine

        lib = scaled_library(library, corner)
        deterministic = CornerAnalyzer(
            c17, [corner], [lib]
        ).analyze().results[0]
        mc = MonteCarloEngine(c17, lib, derate=corner.derates)
        windows = mc.propagate(np.ones((mc.n_gates, 1)))
        sampled = StaResult(c17, {
            line: windows.line_timing(line, 0) for line in c17.lines
        })
        walked = TimingAnalyzer(c17, lib).analyze_per_gate(
            derates=corner.derates
        )
        for result in (sampled, walked):
            assert_results_equal(c17, deterministic, result)


class TestMergedConservatism:
    @given(
        corners=st.lists(
            corner_strategy(), min_size=1, max_size=4, unique_by=id
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_merged_contains_every_corner(self, c17, library, corners):
        corners = [
            Corner.from_dict({**c.to_dict(), "name": f"h{i}"})
            for i, c in enumerate(corners)
        ]
        libraries = [scaled_library(library, c) for c in corners]
        result = CornerAnalyzer(c17, corners, libraries).analyze()
        for per_corner in result.results:
            for line in c17.lines:
                merged = result.merged.line(line)
                single = per_corner.line(line)
                for direction in ("rise", "fall"):
                    wm = getattr(merged, direction)
                    ws = getattr(single, direction)
                    if ws.is_active:
                        assert wm.contains_window(ws, tol=0.0)

    def test_standard_corner_envelope_is_slowest_fastest(
        self, c17, library
    ):
        """Sanity anchor: slow dominates setup, fast dominates hold."""
        corners = [
            STANDARD_CORNERS[n] for n in ("typ", "fast", "slow")
        ]
        libraries = [scaled_library(library, c) for c in corners]
        result = CornerAnalyzer(c17, corners, libraries).analyze()
        assert result.setup_arrival() == result.result(
            "slow"
        ).output_max_arrival()
        assert result.hold_arrival() == result.result(
            "fast"
        ).output_min_arrival()

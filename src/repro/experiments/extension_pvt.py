"""Extension experiment: multi-corner PVT timing windows.

The paper characterizes one technology (Section 3) and signs its
applications off at that single operating point.  This extension
re-derives the Figure-9-style switching-window tables at multiple PVT
corners: each corner rescales the characterized K-coefficient library
(process/voltage/temperature through the alpha-power delay scale, plus
early/late timing derates), and one corner-batched STA pass produces
every corner's windows at once — the trailing batch axis of the
level-compiled engine carries corners instead of Monte Carlo samples.

Recorded findings pin the structural guarantees the corner flow leans
on: the batched N-corner pass is bit-identical to N separate
single-corner passes, the merged setup/hold envelope conservatively
bounds every per-corner window, and the derated slow corner widens both
sides of the underived slow windows (derates apply per propagation
site, so the widening compounds along paths rather than being a flat
end-multiplier).
"""

from __future__ import annotations

from ..characterize import CellLibrary
from ..circuit import load_packaged_bench
from ..pvt import STANDARD_CORNERS, CornerAnalyzer, scaled_library
from ..sta.compile import LevelCompiledAnalyzer
from .common import ExperimentResult, NS

CORNER_NAMES = ("fast", "typ", "slow", "slow_derated")


def _windows_match(circuit, a, b) -> bool:
    for line in circuit.lines:
        ta, tb = a.line(line), b.line(line)
        for wa, wb in ((ta.rise, tb.rise), (ta.fall, tb.fall)):
            if wa.state != wb.state:
                return False
            if wa.is_active and (wa.a_s, wa.a_l, wa.t_s, wa.t_l) != (
                wb.a_s, wb.a_l, wb.t_s, wb.t_l
            ):
                return False
    return True


def run(bench: str = "c432s") -> ExperimentResult:
    circuit = load_packaged_bench(bench)
    library = CellLibrary.load_default()
    corners = [STANDARD_CORNERS[name] for name in CORNER_NAMES]
    libraries = [scaled_library(library, corner) for corner in corners]
    batched = CornerAnalyzer(circuit, corners, libraries).analyze()

    # The reference the batched pass must reproduce bit-for-bit: one
    # independent single-corner engine per corner.
    separate = [
        LevelCompiledAnalyzer(circuit, lib).analyze_corners(
            derates=corner.derates
        )[0]
        for corner, lib in zip(corners, libraries)
    ]
    batched_identical = all(
        _windows_match(circuit, got, want)
        for got, want in zip(batched.results, separate)
    )

    merged_bounds_all = all(
        batched.merged.line(line).window(rising).contains_window(
            res.line(line).window(rising), tol=0.0
        )
        for res in batched.results
        for line in circuit.lines
        for rising in (True, False)
    )

    rows = []
    for po in circuit.outputs:
        for corner, res in zip(corners, batched.results):
            timing = res.line(po)
            rows.append([
                po, corner.name,
                timing.rise.a_s / NS, timing.rise.a_l / NS,
                timing.fall.a_s / NS, timing.fall.a_l / NS,
            ])
        merged = batched.merged.line(po)
        rows.append([
            po, "merged",
            merged.rise.a_s / NS, merged.rise.a_l / NS,
            merged.fall.a_s / NS, merged.fall.a_l / NS,
        ])

    by_name = {c.name: r for c, r in zip(corners, batched.results)}
    slow_setup = by_name["slow"].output_max_arrival()
    derated_setup = by_name["slow_derated"].output_max_arrival()
    late = STANDARD_CORNERS["slow_derated"].derate_late
    # Derates apply at every propagation site, so the late margin
    # compounds along paths: the derated setup bound must be at least
    # the flat end-multiplier the derate names.
    derate_widens = (
        derated_setup >= slow_setup * late
        and by_name["slow_derated"].output_min_arrival()
        <= by_name["slow"].output_min_arrival()
    )
    return ExperimentResult(
        experiment="extension-pvt",
        title=(
            f"Per-corner switching windows ({bench}, "
            f"{len(corners)} corners in one batched pass)"
        ),
        headers=[
            "output", "corner",
            "rise a_s (ns)", "rise a_l (ns)",
            "fall a_s (ns)", "fall a_l (ns)",
        ],
        rows=rows,
        findings={
            "corners": ", ".join(CORNER_NAMES),
            "setup_bound_ns": batched.setup_arrival() / NS,
            "hold_bound_ns": batched.hold_arrival() / NS,
            "slow_over_fast_setup": (
                slow_setup / by_name["fast"].output_max_arrival()
            ),
            "derated_setup_over_slow": derated_setup / slow_setup,
            "derate_widens_both_sides": derate_widens,
            "batched_bit_identical_to_separate": batched_identical,
            "merged_bounds_every_corner": merged_bounds_all,
        },
        paper_reference=(
            "beyond the paper: Section 3 characterizes one operating "
            "point; this extension rescales the fitted K-coefficients "
            "to PVT corners (alpha-power delay scale + timing derates) "
            "and derives every corner's Figure-9-style windows in one "
            "corner-batched pass"
        ),
    )

"""Multi-corner PVT tests: batched corner STA vs. independent runs.

The acceptance bar of the corner-batched engine is exactness: corner
column ``c`` of one batched pass must reproduce, bit for bit, a
single-corner analyzer run with corner ``c``'s library and scalar
derates — on every packaged circuit, for both engines.
"""

import numpy as np
import pytest

from repro.circuit import load_packaged_bench
from repro.fuzz.generate import generate_case
from repro.fuzz.oracles import run_oracle
from repro.pvt import (
    Corner,
    CornerAnalyzer,
    CornerLibrary,
    STANDARD_CORNERS,
    analyze_corners,
    parse_corner,
    parse_corner_list,
    scaled_library,
)
from repro.obs import use_registry
from repro.sta.analysis import TimingAnalyzer
from repro.sta.compile import LevelCompiledAnalyzer

from .test_perf_parity import assert_results_equal

BENCHES = ["c17", "c432s", "c880s", "c5315s", "c7552s"]


@pytest.fixture(scope="module")
def corner_set(library):
    """The standard 4-corner set with analytically derived libraries."""
    corner_lib = CornerLibrary.derived(
        library, STANDARD_CORNERS.values(), default_corner="typ"
    )
    return corner_lib.ordered()


# ----------------------------------------------------------------------
# The acceptance criterion: batched == N independent single-corner runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench", BENCHES)
def test_batched_corners_bitwise_identical(bench, library, corner_set):
    """One batched N-corner pass == N separate runs == N derated
    scalar walks."""
    circuit = load_packaged_bench(bench)
    corners, libraries = corner_set
    analyzer = CornerAnalyzer(circuit, corners, libraries)
    batched = analyzer.analyze()
    walked = analyzer.analyze_per_gate()
    for i, (corner, corner_library) in enumerate(zip(corners, libraries)):
        reference = LevelCompiledAnalyzer(
            circuit, corner_library
        ).analyze_corners(derates=corner.derates)[0]
        assert_results_equal(circuit, reference, batched.results[i])
        assert_results_equal(circuit, reference, walked.results[i])
    # The envelope's column reduction == the per-line merge.
    assert_results_equal(circuit, walked.merged, batched.merged)


@pytest.mark.parametrize("bench", ["c17", "c432s", "c880s"])
def test_typ_corner_matches_legacy_single_corner_analyze(
    bench, library, corner_set
):
    """The unit-derate typ column == a plain pre-PVT ``analyze`` run."""
    circuit = load_packaged_bench(bench)
    corners, libraries = corner_set
    assert corners[0].name == "typ"
    assert corners[0].derates == (1.0, 1.0)
    legacy = TimingAnalyzer(circuit, library).analyze_per_gate()
    batched = CornerAnalyzer(circuit, corners, libraries).analyze()
    assert_results_equal(circuit, legacy, batched.results[0])


def test_merged_envelope_contains_every_corner(library, corner_set):
    circuit = load_packaged_bench("c432s")
    corners, libraries = corner_set
    result = CornerAnalyzer(circuit, corners, libraries).analyze()
    for per_corner in result.results:
        for line in circuit.lines:
            merged = result.merged.line(line)
            single = per_corner.line(line)
            for direction in ("rise", "fall"):
                wm = getattr(merged, direction)
                ws = getattr(single, direction)
                if ws.is_active:
                    assert wm.contains_window(ws, tol=0.0), (
                        f"{line}.{direction}"
                    )
    # The envelope extremes are exactly the worst corners' extremes.
    assert result.setup_arrival() == max(
        r.output_max_arrival() for r in result.results
    )
    assert result.hold_arrival() == min(
        r.output_min_arrival() for r in result.results
    )


def test_corners_oracle_clean_run():
    """>= 100 random corner cases pass the differential oracle."""
    for index in range(100):
        case = generate_case("corners", seed=2026, index=index)
        result = run_oracle(case)
        assert result.ok, f"case {index}: {result.detail}"


# ----------------------------------------------------------------------
# Corner definitions and derates
# ----------------------------------------------------------------------
class TestCorner:
    def test_standard_scales_are_sane(self):
        assert STANDARD_CORNERS["typ"].delay_scale() == 1.0
        assert 1.5 < STANDARD_CORNERS["slow"].delay_scale() < 2.5
        assert 0.4 < STANDARD_CORNERS["fast"].delay_scale() < 0.7

    def test_technology_parameterization(self):
        slow = STANDARD_CORNERS["slow"].technology()
        fast = STANDARD_CORNERS["fast"].technology()
        assert slow.vdd == 2.97 and fast.vdd == 3.63
        assert slow.kpn < fast.kpn  # slow silicon, hot -> less drive
        assert slow.vtn < fast.vtn  # thresholds drop when hot
        assert slow.name.endswith("@slow")

    def test_validation(self):
        with pytest.raises(ValueError, match="derate_early"):
            Corner("bad", derate_early=1.2, derate_late=1.0)
        with pytest.raises(ValueError, match="finite"):
            Corner("bad", process=0.0)
        with pytest.raises(ValueError, match="overdrive"):
            Corner("bad", vdd=0.5).technology()

    def test_parse_specs(self):
        assert parse_corner("slow") == STANDARD_CORNERS["slow"]
        inline = parse_corner("cold:process=1.1:temp=-40:late=1.02")
        assert inline == Corner(
            "cold", process=1.1, temp_c=-40.0, derate_late=1.02
        )
        corners = parse_corner_list("typ,fast,cold:temp=-40")
        assert [c.name for c in corners] == ["typ", "fast", "cold"]
        with pytest.raises(ValueError, match="unknown corner"):
            parse_corner("nope")
        with pytest.raises(ValueError, match="duplicate"):
            parse_corner_list("typ,typ")

    def test_unit_scale_rescale_is_bitwise_identity(self, library):
        scaled = scaled_library(library, Corner("unit"))
        base = library.to_dict()["cells"]
        assert scaled.to_dict()["cells"] == base


# ----------------------------------------------------------------------
# Engine API contracts under a corner-batched compile
# ----------------------------------------------------------------------
class TestCornerCompile:
    def test_factors_rejected(self, corner_set):
        circuit = load_packaged_bench("c17")
        corners, libraries = corner_set
        engine = LevelCompiledAnalyzer(circuit, libraries)
        assert engine.compiled.n_corners == len(corners)
        with pytest.raises(ValueError, match="corner"):
            engine.propagate(
                factors=np.ones((engine.compiled.n_gates, 2))
            )

    def test_patching_requires_single_corner(self, corner_set):
        circuit = load_packaged_bench("c17")
        _, libraries = corner_set
        engine = LevelCompiledAnalyzer(circuit, libraries)
        gate_line = next(iter(circuit.gates))
        assert not engine.compiled.can_patch(gate_line)
        with pytest.raises(ValueError, match="corner"):
            engine.compiled.patch_gate(gate_line, 1e-13)
        single = LevelCompiledAnalyzer(circuit, libraries[0])
        assert single.compiled.n_corners == 1

    def test_derate_shape_validation(self, library):
        circuit = load_packaged_bench("c17")
        engine = LevelCompiledAnalyzer(circuit, library)
        with pytest.raises(ValueError, match="derate"):
            engine.propagate(derates=(np.ones(3), np.ones(3)))

    def test_corner_gauge_and_counters(self, corner_set):
        circuit = load_packaged_bench("c17")
        corners, libraries = corner_set
        with use_registry() as registry:
            LevelCompiledAnalyzer(circuit, libraries)
            assert registry.gauge("sta.compile.corners").value == len(
                corners
            )
            LevelCompiledAnalyzer(circuit, libraries[0])
            assert registry.gauge("sta.compile.corners").value == 1

    def test_structural_mismatch_rejected(self, library, corner_set):
        circuit = load_packaged_bench("c17")
        _, libraries = corner_set
        import dataclasses

        broken = dataclasses.replace(libraries[1])
        cell = broken.cells["NAND2"]
        broken.cells = dict(broken.cells)
        broken.cells["NAND2"] = dataclasses.replace(
            cell,
            arcs={
                k: a for k, a in cell.arcs.items() if not k.startswith("0")
            },
        )
        with pytest.raises(ValueError, match="disagrees"):
            LevelCompiledAnalyzer(circuit, [libraries[0], broken])


# ----------------------------------------------------------------------
# High-level entry points
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_timing_analyzer_delegate(self, library, corner_set):
        circuit = load_packaged_bench("c17")
        corners, libraries = corner_set
        direct = analyze_corners(circuit, corners, libraries)
        via_analyzer = TimingAnalyzer(circuit, library).analyze_corners(
            corners, libraries
        )
        for a, b in zip(direct.results, via_analyzer.results):
            assert_results_equal(circuit, a, b)
        by_name = via_analyzer.result("slow")
        assert by_name is via_analyzer.results[
            [c.name for c in corners].index("slow")
        ]
        with pytest.raises(KeyError):
            via_analyzer.result("nope")

    def test_delegate_derives_libraries_when_omitted(self, library):
        circuit = load_packaged_bench("c17")
        corners = [STANDARD_CORNERS["typ"], STANDARD_CORNERS["slow"]]
        result = TimingAnalyzer(circuit, library).analyze_corners(corners)
        expected = analyze_corners(
            circuit,
            corners,
            [scaled_library(library, c) for c in corners],
        )
        for a, b in zip(expected.results, result.results):
            assert_results_equal(circuit, a, b)

    def test_corner_library_round_trip(self, tmp_path, library, corner_set):
        corners, _ = corner_set
        corner_lib = CornerLibrary.derived(library, corners)
        path = tmp_path / "corners.json"
        corner_lib.save(path)
        loaded = CornerLibrary.load(path)
        assert loaded.names == corner_lib.names
        assert loaded.default_corner == corner_lib.default_corner
        circuit = load_packaged_bench("c17")
        a = CornerAnalyzer.from_library(circuit, corner_lib).analyze()
        b = CornerAnalyzer.from_library(circuit, loaded).analyze()
        for ra, rb in zip(a.results, b.results):
            assert_results_equal(circuit, ra, rb)

    def test_sigma_zero_mc_at_corner_equals_deterministic(
        self, corner_set
    ):
        """sigma-0 one-sample MC with derates == the corner column ==
        the derated scalar walk."""
        from repro.stat import MonteCarloEngine
        from repro.sta.analysis import StaResult

        circuit = load_packaged_bench("c432s")
        corners, libraries = corner_set
        corner = corners[-1]  # the derated slow corner
        deterministic = CornerAnalyzer(
            circuit, [corner], [libraries[-1]]
        ).analyze().results[0]
        mc = MonteCarloEngine(circuit, libraries[-1], derate=corner.derates)
        windows = mc.propagate(np.ones((mc.n_gates, 1)))
        sampled = StaResult(circuit, {
            line: windows.line_timing(line, 0) for line in circuit.lines
        })
        walked = TimingAnalyzer(circuit, libraries[-1]).analyze_per_gate(
            derates=corner.derates
        )
        for result in (sampled, walked):
            assert_results_equal(circuit, deterministic, result)

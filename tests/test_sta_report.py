"""Tests for timing-path tracing and slack reports."""

import hashlib

import pytest

import repro.models
from repro.circuit import load_packaged_bench
from repro.models import NonCtrlAwareModel, VShapeModel
from repro.sta import TimingAnalyzer, TimingReporter

NS = 1e-9


@pytest.fixture(scope="module")
def reporter(c17, library):
    analyzer = TimingAnalyzer(c17, library, VShapeModel())
    result = analyzer.analyze()
    return TimingReporter(analyzer, result), analyzer, result


class TestPathTracing:
    def test_critical_path_structure(self, reporter, c17):
        rep, _, result = reporter
        path = rep.critical_path()
        assert path.kind == "max"
        # Starts at a primary input, ends at a primary output.
        assert c17.is_primary_input(path.startpoint)
        assert path.endpoint in c17.outputs
        assert path.arrival == pytest.approx(result.output_max_arrival())

    def test_arrivals_monotone_along_path(self, reporter):
        rep, _, _ = reporter
        path = rep.critical_path()
        arrivals = [stage.arrival for stage in path.stages]
        assert arrivals == sorted(arrivals)

    def test_stages_are_connected(self, reporter, c17):
        rep, _, _ = reporter
        path = rep.critical_path()
        for upstream, downstream in zip(path.stages, path.stages[1:]):
            gate = c17.driver(downstream.line)
            assert gate is not None
            assert upstream.line in gate.inputs

    def test_shortest_path(self, reporter, c17, library):
        rep, _, result = reporter
        path = rep.shortest_path()
        assert path.kind == "min"
        assert path.arrival == pytest.approx(result.output_min_arrival())
        assert c17.is_primary_input(path.startpoint)

    def test_trace_impossible_direction_raises(self, c17, library):
        from repro.itr import ItrEngine, TwoFrame

        engine = ItrEngine(c17, library, VShapeModel())
        values = engine.assign(engine.initial_values(), "G1", TwoFrame.parse("11"))
        refined = engine.refine(values)
        rep = TimingReporter(engine.analyzer, refined.sta)
        with pytest.raises(ValueError):
            rep.trace("G1", True, kind="max")

    def test_format_mentions_cells(self, reporter):
        rep, _, _ = reporter
        text = rep.critical_path().format()
        assert "NAND2" in text
        assert "primary input" in text
        assert "ns" in text

    def test_trace_level_engine_result(self, c17, library):
        # The level-compiled pass is bit-identical, so the gate-level
        # tracer reproduces its bounds without slack.
        gate = TimingAnalyzer(c17, library, VShapeModel())
        gate_path = TimingReporter(
            gate, gate.analyze_per_gate()
        ).critical_path()
        level = TimingAnalyzer(c17, library, VShapeModel())
        level_path = TimingReporter(
            level, level.analyze()
        ).critical_path()
        assert [s.line for s in gate_path.stages] == [
            s.line for s in level_path.stages
        ]
        assert gate_path.arrival == level_path.arrival

    def test_trace_foreign_result_raises(self, c17, library):
        # Pairing a result with an analyzer whose loads differ must
        # raise, not fabricate the closest-looking path.
        from repro.sta.analysis import StaConfig

        analyzer = TimingAnalyzer(c17, library, VShapeModel())
        other = TimingAnalyzer(
            c17,
            library,
            VShapeModel(),
            config=StaConfig(po_load=21e-15),
        )
        rep = TimingReporter(analyzer, other.analyze())
        with pytest.raises(ValueError, match="stale"):
            rep.critical_path()

    def test_trace_is_not_counted(self, library):
        # The tracer re-runs corner searches, uncounted: the counters
        # count the passes and the per-gate walk only.
        from repro.obs import use_registry

        with use_registry() as registry:
            analyzer = TimingAnalyzer(
                load_packaged_bench("c432s"), library, VShapeModel()
            )
            rep = TimingReporter(analyzer, analyzer.analyze_per_gate())
            names = ("sta.gates_evaluated", "sta.corner_calls")
            before = [registry.counter(n).value for n in names]
            assert min(before) > 0
            rep.critical_path()
            rep.shortest_path()
            assert [registry.counter(n).value for n in names] == before

    def test_trace_tampered_result_raises(self, reporter, c17):
        import copy

        rep, analyzer, result = reporter
        endpoint = rep.critical_path().endpoint
        tampered = copy.deepcopy(result)
        tampered.timings[endpoint].rise.a_l += 0.5 * NS
        tampered.timings[endpoint].fall.a_l += 0.5 * NS
        bad = TimingReporter(analyzer, tampered)
        with pytest.raises(ValueError, match="stale"):
            bad.critical_path()


#: Traced paths some of whose stages only a pair candidate reproduces:
#: (circuit, model, kind, stages set by one, the path's stages as
#: ``LINE`` + direction + ``/CELL.pin`` of the gate driving the line).
PAIR_PATHS = [
    ("c17", VShapeModel, "min", 1, "G1F G10R/NAND2.0 G22F/NAND2.0"),
    ("c880s", VShapeModel, "min", 1, "I26R G224F/NOR3.2"),
    (
        "c1908s", NonCtrlAwareModel, "max", 2,
        "I13R G0F/NAND3.0 G1F/AND4.1 G6R/NOR4.2 G27R/AND3.0 G83R/XOR2.1 "
        "G388F/NAND2.0 G463F/OR2.0 G603F/AND3.2 G863R/NOR3.2 "
        "G166R/OR4.0 G171F/NAND2.0 G199R/NOR5.3 G227R/OR2.1 "
        "G236F/NAND5.0 G301R/NOR2.1 G402R/OR3.1 G496F/NAND4.3 "
        "G516R/NAND2.0 G625F/NAND2.0 G867F/AND2.1 G246F/OR2.0 "
        "G850R/INV.0 G340F/NAND2.0 G502F/AND2.0 G726R/NAND2.0 "
        "G748R/AND4.1 G775F/NAND2.1 G787R/INV.0 G851F/INV.0 "
        "G641R/XOR2.0 G708F/NAND3.0 G792R/INV.0 G814F/XOR2.1 "
        "G874R/NAND5.0 G302F/INV.0 G515R/NAND2.1 G560F/NAND2.0 "
        "G592R/XOR2.0 G848F/NOR2.0 G870R/NOR2.1 G554R/AND4.0 "
        "G606F/INV.0 G766F/AND3.2 G873R/NOR2.1 G220R/AND3.1 "
        "G503R/AND2.1 G615R/AND4.1 G742R/AND2.0 G834R/AND2.0 "
        "G853F/NAND3.2 G230R/NOR2.0 G843F/NOR2.0 G862R/NAND3.0 "
        "G655F/INV.0 G717R/NOR2.0 G826R/OR2.0",
    ),
]


def _stage(stage) -> str:
    via = f"/{stage.cell}.{stage.pin}" if stage.cell is not None else ""
    return f"{stage.line}{'R' if stage.rising else 'F'}{via}"


class TestPairStages:
    """Paths through stages set by a pair merge: the V-shape's earliest
    bound (shortest paths) and the Λ-peak's latest one (critical path
    under :class:`NonCtrlAwareModel`).  The corner search names a pair
    candidate behind exactly those stages' bounds."""

    @pytest.mark.parametrize(
        "name, model, kind, n_pair, stages", PAIR_PATHS,
        ids=[f"{p[0]}-{p[2]}" for p in PAIR_PATHS],
    )
    def test_traced_stages(self, library, name, model, kind, n_pair, stages):
        circuit = load_packaged_bench(name)
        analyzer = TimingAnalyzer(circuit, library, model())
        result = analyzer.analyze()
        rep = TimingReporter(analyzer, result)
        path = rep.critical_path() if kind == "max" else rep.shortest_path()
        assert [_stage(s) for s in path.stages] == stages.split()
        by_pair = 0
        for stage in path.stages[1:]:
            gate = circuit.driver(stage.line)
            _, winners = analyzer.search(
                gate, analyzer.cell_of(gate), analyzer.load(stage.line),
                result.timings, stage.rising,
            )
            by_pair += winners[kind == "max"].pair
        assert by_pair == n_pair


#: SHA-256 (first 16 hex digits) of every primary output's traced
#: paths, both directions and both kinds, as :func:`_stage` strings.
TRACE_DIGESTS = {
    ("c432s", "VShapeModel"): "0964e3275fe50dab",
    ("c432s", "PinToPinModel"): "04a4cf57a6de553f",
    ("c432s", "NonCtrlAwareModel"): "87df784a72ccefa0",
    ("c880s", "VShapeModel"): "fcf194376e3b9a06",
    ("c880s", "PinToPinModel"): "a90f991d4cf63ce5",
    ("c880s", "NonCtrlAwareModel"): "f16492b537cc2b94",
    ("c1908s", "VShapeModel"): "3b134ab125c75ef6",
    ("c1908s", "PinToPinModel"): "9d4c3fa7577bf792",
    ("c1908s", "NonCtrlAwareModel"): "c4bc50abbaf0ed5f",
}


class TestAllOutputTraces:
    """Every output's latest and earliest path, rising and falling,
    keeps its stages: where several inputs reproduce a bound, the
    tracer names the first in the search's candidate order."""

    @pytest.mark.parametrize(
        "name, model", sorted(TRACE_DIGESTS),
        ids=[f"{n}-{m}" for n, m in sorted(TRACE_DIGESTS)],
    )
    def test_stages_digest(self, library, name, model):
        circuit = load_packaged_bench(name)
        analyzer = TimingAnalyzer(
            circuit, library, getattr(repro.models, model)()
        )
        rep = TimingReporter(analyzer, analyzer.analyze())
        rows = []
        for po in circuit.outputs:
            for rising in (True, False):
                for kind in ("max", "min"):
                    path = rep.trace(po, rising, kind)
                    rows.append(" ".join(_stage(s) for s in path.stages))
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest[:16] == TRACE_DIGESTS[name, model]


class TestSlackTable:
    def test_sorted_by_slack(self, reporter):
        rep, analyzer, result = reporter
        required = analyzer.compute_required(result)
        table = rep.slack_table(required)
        slacks = [row[-1] for row in table]
        assert slacks == sorted(slacks)

    def test_zero_worst_slack_at_default_requirements(self, reporter):
        rep, analyzer, result = reporter
        required = analyzer.compute_required(result)
        table = rep.slack_table(required, worst=1)
        assert table[0][-1] == pytest.approx(0.0, abs=1e-15)

    def test_worst_limits_rows(self, reporter):
        rep, analyzer, result = reporter
        required = analyzer.compute_required(result)
        assert len(rep.slack_table(required, worst=2)) == 2


class TestReportCli:
    def test_report_command(self, capsys):
        from repro.cli import main

        assert main(["report", "c17", "--worst", "3"]) == 0
        out = capsys.readouterr().out
        assert "latest path" in out
        assert "earliest path" in out
        assert "slack" in out

"""One compile per circuit and library: the compile registry.

Analyzers of one circuit, edit epoch, library set and config share one
layout, one load sweep and one compile; its model leaves are built the
first time a model asks, and every pass still picks its merges from its
own model.  Entries live only while an analyzer over them does, and an
incremental engine's compile stays its own.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.circuit import CircuitError, load_packaged_bench, parse_bench
from repro.models import NonCtrlAwareModel, PinToPinModel, VShapeModel
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.pvt import CornerAnalyzer, CornerLibrary, parse_corner_list
from repro.sta import IncrementalAnalyzer, TimingAnalyzer, TimingReporter
from repro.sta.compile import COMPILES, ColumnRequired, LevelCompiledAnalyzer
from repro.stat import run_mc

from tests.test_perf_parity import assert_results_equal

#: The build counters of the compile registry's build path.
BUILDS = (
    "sta.compile.layout_builds",
    "sta.compile.library_builds",
    "sta.compile.merge_builds",
    "sta.compile.peak_builds",
    "sta.compile.load_sweeps",
)


@pytest.fixture
def registry():
    previous = get_registry()
    reg = MetricsRegistry()
    set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)


def _builds(reg):
    return {name.split(".")[-1]: reg.counter(name).value for name in BUILDS}


def _bits(windows):
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for a in (windows.a_s, windows.a_l, windows.t_s, windows.t_l,
                  windows.states)
    )


def signoff_job(circuit, library):
    """The calls of one sign-off job at the public entry points."""
    analyzers = {
        label: TimingAnalyzer(circuit, library, model)
        for label, model in (("proposed", VShapeModel()),
                             ("pin2pin", PinToPinModel()))
    }
    results = {label: a.analyze() for label, a in analyzers.items()}
    reporter = TimingReporter(analyzers["proposed"], results["proposed"])
    reporter.critical_path()
    required = analyzers["proposed"].compute_required(results["proposed"])
    reporter.slack_table(required, worst=5)
    corners, libraries = CornerLibrary.derived(
        library, parse_corner_list("fast,typ,slow,slow_derated")
    ).ordered()
    CornerAnalyzer(circuit, corners, libraries).analyze()
    return run_mc(circuit, samples=4, seed=3)


def test_signoff_job_builds_each_part_once(registry, library):
    """One job: one layout and load sweep, a library part and pair-merge
    leaves for the base library and for the corner set, and two
    ``sta.compile.build_s`` observations.  A second job, after the
    first's analyzers are gone, builds them all again."""
    circuit = load_packaged_bench("c432s")
    build_s = registry.histogram("sta.compile.build_s")
    want = {"layout_builds": 1, "library_builds": 2, "merge_builds": 2,
            "peak_builds": 0, "load_sweeps": 1}
    for job in range(2):
        before, observed = _builds(registry), build_s.count
        signoff_job(circuit, library)
        after = _builds(registry)
        assert {k: after[k] - before[k] for k in after} == want, job
        assert build_s.count - observed == 2, job


def test_run_mc_at_defaults_shares_its_callers_compile(registry):
    """The packaged library is one object per process, so ``run_mc``
    without a library runs on the analyzer's compile."""
    from repro.characterize import CellLibrary

    library = CellLibrary.load_default()
    assert CellLibrary.load_default() is library
    circuit = load_packaged_bench("c17")
    analyzer = TimingAnalyzer(circuit, library)
    analyzer.analyze()
    before = _builds(registry)
    result = run_mc(circuit, samples=4, seed=1)
    assert _builds(registry) == before
    assert result.nominal_max == analyzer.analyze().output_max_arrival()


@pytest.mark.parametrize("bench", ["c17", "c432s", "c880s"])
def test_pin_to_pin_after_vshape_on_one_compile(bench, library):
    """A pin-to-pin pass over the compile a V-shape analyzer extended
    stays pin-to-pin: equal to pin-to-pin alone and to the scalar walk,
    required times included."""
    alone = load_packaged_bench(bench)
    p2p_alone = TimingAnalyzer(alone, library, PinToPinModel())
    want = p2p_alone.analyze()
    want_req = p2p_alone.compute_required(want)
    assert not p2p_alone.level_engine().compiled._merge

    circuit = load_packaged_bench(bench)
    vshape = TimingAnalyzer(circuit, library, VShapeModel())
    vshape.analyze()
    p2p = TimingAnalyzer(circuit, library, PinToPinModel())
    got = p2p.analyze()
    compiled = p2p.level_engine().compiled
    assert compiled is vshape.level_engine().compiled
    assert compiled._merge  # the V-shape leaves are built
    assert_results_equal(circuit, want, got)
    assert_results_equal(circuit, p2p.analyze_per_gate(), got)
    required = p2p.compute_required(got)
    assert dict(required) == dict(want_req)
    assert required == p2p.compute_required_per_gate(got)
    # And the V-shape pass is still the V-shape pass.
    assert_results_equal(
        circuit, vshape.analyze_per_gate(), vshape.analyze()
    )


def test_later_leaves_rebuild_the_groups_whole(registry, library):
    """Models that read more leaves than a compile carries rebuild its
    groups with the union of the leaf sets: one build each, new groups
    in place of the old ones, nothing written into a built group, and
    every pass still its own model's."""
    circuit = load_packaged_bench("c880s")
    build_s = registry.histogram("sta.compile.build_s")
    models = (PinToPinModel, VShapeModel, NonCtrlAwareModel)
    analyzers, bits, levels = [], [], []
    for model in models:
        analyzer = LevelCompiledAnalyzer(circuit, library, model())
        analyzers.append(analyzer)
        bits.append(_bits(analyzer.propagate()))
        levels.append(analyzer.compiled.levels)
    compiled = analyzers[0].compiled
    assert all(a.compiled is compiled for a in analyzers)
    assert compiled._merge and compiled._peak
    assert build_s.count == 3
    assert _builds(registry) == {
        "layout_builds": 1, "library_builds": 1, "merge_builds": 2,
        "peak_builds": 1, "load_sweeps": 1,
    }
    # The groups the pin-to-pin build made were replaced, not extended.
    assert levels[0] is not levels[1] is not levels[2]
    assert all(
        getattr(group, "rt", None) is None
        for level in levels[0] for group in level
    )
    for analyzer, model, want in zip(analyzers, models, bits):
        assert _bits(analyzer.propagate()) == want
        assert_results_equal(
            circuit,
            TimingAnalyzer(circuit, library, model()).analyze_per_gate(),
            analyzer.analyze(),
        )


def test_entries_live_only_while_an_analyzer_does(library):
    """The registry holds layouts and compiles weakly: a new analyzer
    after the old one is gone builds afresh, and nothing is kept."""
    circuit = load_packaged_bench("c17")
    analyzer = TimingAnalyzer(circuit, library)
    analyzer.analyze()
    compiled = analyzer.level_engine().compiled
    assert TimingAnalyzer(circuit, library).level_engine().compiled is compiled
    del analyzer, compiled
    gc.collect()
    assert all(
        c.circuit is not circuit for c in COMPILES._compiles.values()
    )
    assert all(
        lay.circuit is not circuit for lay in COMPILES._layouts.values()
    )
    fresh = TimingAnalyzer(circuit, library)
    fresh.analyze()
    assert fresh.level_engine().compiled.circuit is circuit


def test_edits_key_a_new_compile(library):
    """An out-of-band edit moves the epoch: the analyzer takes a new
    compile, and the old one is left as it was."""
    circuit = load_packaged_bench("c432s")
    analyzer = TimingAnalyzer(circuit, library)
    analyzer.analyze()
    old = analyzer.level_engine()
    before = _bits(old.propagate())
    line = next(g for g in sorted(circuit.gates)
                if circuit.gates[g].n_inputs >= 2)
    circuit.resize_gate(line, 2.0)
    result = analyzer.analyze()
    assert analyzer.level_engine().compiled is not old.compiled
    assert _bits(old.propagate()) == before
    assert_results_equal(circuit, analyzer.analyze_per_gate(), result)


def test_incremental_engine_owns_its_compile(library):
    """Patches write into the incremental engine's own compile, never
    into the shared one another analyzer of the same circuit runs on."""
    circuit = load_packaged_bench("c432s")
    plain = LevelCompiledAnalyzer(circuit, library)
    before = _bits(plain.propagate())
    analyzer = TimingAnalyzer(circuit, library)
    analyzer.analyze()  # builds on the shared compile first
    incr = IncrementalAnalyzer(analyzer)
    incr.analyze()
    owned = analyzer._level.compiled
    assert owned is not plain.compiled
    line = next(g for g in sorted(circuit.gates)
                if circuit.gates[g].cell_name() == "NAND2")
    incr.resize_gate(line, 2.0)
    incr.swap_cell(line, "nor")
    assert analyzer._level.compiled is owned  # patched, not rebuilt
    assert _bits(plain.propagate()) == before
    assert_results_equal(
        circuit, TimingAnalyzer(circuit, library).analyze(), incr.result()
    )


def test_cyclic_circuit_still_raises(library):
    """A cycle surfaces as CircuitError from every analyzer and leaves
    no registry entry behind."""
    circuit = parse_bench(
        "INPUT(a)\nOUTPUT(y)\nx = NAND(a, y)\ny = NAND(a, x)\n"
    )
    for build in (
        lambda: TimingAnalyzer(circuit, library),
        lambda: LevelCompiledAnalyzer(circuit, library),
        lambda: run_mc(circuit, library, samples=2),
    ):
        with pytest.raises(CircuitError, match="cycle"):
            build()
    assert all(c.circuit is not circuit for c in COMPILES._compiles.values())


def test_concurrent_builds_share_one_compile(registry, library):
    """Threads asking at once for one circuit's compile under different
    models get one compile over one layout and load sweep.  Its builds
    carry ever larger leaf sets (so the Λ-peak leaves are built once),
    and every pass still equals its model's scalar walk."""
    circuit = load_packaged_bench("c880s")
    models = [VShapeModel, PinToPinModel, NonCtrlAwareModel] * 2
    got, errors = {}, []

    def build(k):
        try:
            got[k] = LevelCompiledAnalyzer(circuit, library, models[k]())
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,))
                   for k in range(len(models))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(got) == len(models)
    assert len({id(a.compiled) for a in got.values()}) == 1
    builds = _builds(registry)
    merges = builds.pop("merge_builds")
    assert builds == {
        "layout_builds": 1, "library_builds": 1, "peak_builds": 1,
        "load_sweeps": 1,
    }
    n_builds = registry.histogram("sta.compile.build_s").count
    assert 1 <= merges <= n_builds <= 3
    for k, analyzer in got.items():
        assert_results_equal(
            circuit,
            TimingAnalyzer(circuit, library, models[k]()).analyze_per_gate(),
            analyzer.analyze(),
        )


def test_required_is_a_lazy_read_only_view(library):
    """Compiled required times are a column view: equal to the per-gate
    dict, each line built once on first read, assignment refused."""
    circuit = load_packaged_bench("c880s")
    analyzer = TimingAnalyzer(circuit, library)
    result = analyzer.analyze()
    required = analyzer.compute_required(result, setup_time=1e-9)
    assert isinstance(required, ColumnRequired)
    assert required._built == {}
    want = analyzer.compute_required_per_gate(result, setup_time=1e-9)
    assert required == want and want == required
    assert list(required) == circuit.lines and len(required) == len(want)
    line = circuit.outputs[0]
    assert required[line] is required[line]
    with pytest.raises(TypeError):
        required[line] = want[line]

"""One kernel workspace per compiled pass: the pair merges reuse buffers.

Every compiled pass (and every incremental trial sweep) hands one
:class:`repro.sta.kernels.Workspace` to all its kernel calls, so a
group's pair merge overwrites what the previous, narrower or wider,
group left in the buffers.  Passes of different widths run back to
back on one analyzer, and a pass after a trial sweep, must each equal a
fresh analyzer's pass bit for bit; no returned array lives in a
workspace buffer; and ``sta.compile.scratch_bytes`` reports what a
pass's workspace holds.
"""

import numpy as np
import pytest

from repro.circuit import load_packaged_bench
from repro.models import NonCtrlAwareModel, VShapeModel
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.pvt import CornerLibrary, parse_corner_list
from repro.sta import IncrementalAnalyzer, LevelCompiledAnalyzer, TimingAnalyzer
from repro.sta import compile as compile_mod
from repro.sta import incremental as incremental_mod
from repro.sta.incremental import TrialEdit
from repro.sta.kernels import Workspace

FIELDS = ("a_s", "a_l", "t_s", "t_l", "states")
MODELS = [VShapeModel, NonCtrlAwareModel]


@pytest.fixture
def registry():
    previous = get_registry()
    reg = MetricsRegistry()
    set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)


@pytest.fixture
def workspaces(monkeypatch):
    """Every workspace a pass or a trial sweep makes, in order."""
    made = []

    class Recorded(Workspace):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(compile_mod, "Workspace", Recorded)
    monkeypatch.setattr(incremental_mod, "Workspace", Recorded)
    return made


def _factors(n_gates, width, seed):
    rng = np.random.default_rng(seed)
    return np.abs(1.0 + 0.08 * rng.standard_normal((n_gates, width)))


def assert_same_bits(got, want, label):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, (label, name)
        assert a.tobytes() == b.tobytes(), (label, name)


def assert_private(windows, ws, label):
    """No array of ``windows`` shares memory with a buffer of ``ws``."""
    assert ws.nbytes > 0, label
    for name in FIELDS:
        for buf in ws._buffers.values():
            assert not np.shares_memory(getattr(windows, name), buf), (
                label, name,
            )


def _has_peak(analyzer):
    return any(
        getattr(group, "pgate", None) is not None and group.pgate.size
        for level in analyzer.compiled.levels for group in level
    )


@pytest.mark.parametrize("model_cls", MODELS)
def test_passes_of_any_width_back_to_back(model_cls, library, workspaces):
    """33, 1 and 5 columns on one analyzer, each against a fresh one."""
    circuit = load_packaged_bench("c880s")
    analyzer = LevelCompiledAnalyzer(circuit, library, model_cls())
    # The Λ-peak runs through the V's fold and buffers.
    assert _has_peak(analyzer) == (model_cls is NonCtrlAwareModel)
    n_gates = analyzer.compiled.n_gates
    for width, seed in ((33, 1), (1, 2), (5, 3)):
        factors = _factors(n_gates, width, seed)
        got = analyzer.propagate(factors)
        assert_private(got, workspaces[-1], width)
        fresh = LevelCompiledAnalyzer(circuit, library, model_cls())
        assert_same_bits(got, fresh.propagate(factors), width)
    # And a pass without factors, after the wide ones.
    fresh = LevelCompiledAnalyzer(circuit, library, model_cls())
    assert_same_bits(analyzer.propagate(), fresh.propagate(), "nominal")


def test_corner_batched_pass_back_to_back(library, workspaces):
    """A corner-batched pass (the batch axis is the corner axis) after
    another one on the same analyzer equals a fresh analyzer's."""
    circuit = load_packaged_bench("c880s")
    corners, libraries = CornerLibrary.derived(
        library, parse_corner_list("fast,typ,slow,slow_derated")
    ).ordered()
    derates = (
        np.array([c.derate_early for c in corners]),
        np.array([c.derate_late for c in corners]),
    )
    analyzer = LevelCompiledAnalyzer(circuit, libraries, VShapeModel())
    first = analyzer.propagate(derates=derates)
    second = analyzer.propagate(derates=derates)
    assert_private(second, workspaces[-1], "corners")
    fresh = LevelCompiledAnalyzer(circuit, libraries, VShapeModel())
    assert_same_bits(first, second, "repeat")
    assert_same_bits(second, fresh.propagate(derates=derates), "fresh")


@pytest.mark.parametrize("model_cls", MODELS)
def test_pass_after_a_trial_sweep(model_cls, library, workspaces):
    """A trial sweep's columns live outside its workspace, and the
    engine's next full pass equals a fresh analyzer's."""
    circuit = load_packaged_bench("c432s")
    incr = IncrementalAnalyzer(TimingAnalyzer(circuit, library, model_cls()))
    incr.analyze()
    gates = sorted(circuit.gates)[::17][:8]
    edits = [TrialEdit("resize", line, 2.0) for line in gates]
    trial = incr.try_edits(edits)
    assert_private(trial, workspaces[-1], "trial")
    after = incr.analyze()
    want = TimingAnalyzer(circuit, library, model_cls()).analyze()
    for line in circuit.lines:
        for rising in (True, False):
            g = after.line(line).window(rising)
            w = want.line(line).window(rising)
            assert g.state == w.state, (line, rising)
            assert np.array(
                [g.a_s, g.a_l, g.t_s, g.t_l]
            ).tobytes() == np.array(
                [w.a_s, w.a_l, w.t_s, w.t_l]
            ).tobytes(), (line, rising)


def test_scratch_gauge_on_c17(registry, library):
    """A pass with pair merges reports its workspace's bytes."""
    analyzer = LevelCompiledAnalyzer(
        load_packaged_bench("c17"), library, VShapeModel()
    )
    analyzer.propagate()
    assert registry.gauge("sta.compile.scratch_bytes").value > 0


@pytest.mark.parametrize("bench, mib", [("c7552s", 8.0), ("c5315s", 8.5)])
def test_scratch_bytes_bound(bench, mib, registry, library):
    """A 33-column pass (Monte Carlo's 32 samples and the nominal
    column) holds no more scratch than the widest pair merge's live
    temporaries did before the workspace: 7.9 MiB on c7552s, 8.2 MiB on
    c5315s."""
    analyzer = LevelCompiledAnalyzer(
        load_packaged_bench(bench), library, VShapeModel()
    )
    analyzer.propagate(_factors(analyzer.compiled.n_gates, 33, 4))
    value = registry.gauge("sta.compile.scratch_bytes").value
    assert 0 < value <= mib * 2**20

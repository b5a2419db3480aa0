"""Bit-parity of the per-gate timing core's entry points and pools.

ITR and ATPG walk the circuit gate by gate through
``TimingAnalyzer.propagate_gate``; ``analyze_per_gate`` is the scalar
reference walk, and ``refine_incremental`` re-walks only the cone a
decision touches.  These tests hold every pair to bit-identical
results: full-circuit windows across delay models and boundary windows,
randomized ITR decision sequences, and fault-parallel ATPG against the
serial path.  (The level-compiled pass is held to the scalar walk by
``test_sta_compile``.)
"""

import random

import pytest

from repro.atpg import AtpgConfig, CrosstalkAtpg, generate_fault_list
from repro.circuit import load_packaged_bench
from repro.itr import ItrEngine, TwoFrame
from repro.models import NonCtrlAwareModel, PinToPinModel, VShapeModel
from repro.sta.analysis import StaConfig, TimingAnalyzer

NS = 1e-9


def assert_windows_equal(a, b, context=""):
    """Require two DirWindows to match bit for bit."""
    assert a.state == b.state, f"{context}: state {a.state} != {b.state}"
    if not a.is_active:
        return
    assert a.a_s == b.a_s, f"{context}: a_s {a.a_s!r} != {b.a_s!r}"
    assert a.a_l == b.a_l, f"{context}: a_l {a.a_l!r} != {b.a_l!r}"
    assert a.t_s == b.t_s, f"{context}: t_s {a.t_s!r} != {b.t_s!r}"
    assert a.t_l == b.t_l, f"{context}: t_l {a.t_l!r} != {b.t_l!r}"


def assert_results_equal(circuit, base, fast):
    for line in circuit.lines:
        a, b = base.line(line), fast.line(line)
        assert_windows_equal(a.rise, b.rise, f"{line}.rise")
        assert_windows_equal(a.fall, b.fall, f"{line}.fall")


@pytest.mark.parametrize(
    "model_cls", [VShapeModel, PinToPinModel, NonCtrlAwareModel]
)
@pytest.mark.parametrize("bench", ["c17", "c432s", "c880s"])
def test_sta_full_circuit_parity(bench, model_cls, library):
    """ITR's all-unspecified walk through ``propagate_gate`` is
    bit-identical to the reference walk (STA is ITR's special case)."""
    circuit = load_packaged_bench(bench)
    base = TimingAnalyzer(circuit, library, model_cls()).analyze_per_gate()
    engine = ItrEngine(circuit, library, model_cls())
    walked = engine.refine(engine.initial_values())
    assert_results_equal(circuit, base, walked.sta)


def test_sta_parity_over_random_boundary_windows(library, c880s):
    """The same parity across randomized PI window configurations."""
    rng = random.Random(7)
    for _ in range(5):
        a_s = rng.uniform(0.0, 0.4) * NS
        a_l = a_s + rng.uniform(0.0, 0.6) * NS
        t_s = rng.uniform(0.05, 0.2) * NS
        t_l = t_s + rng.uniform(0.0, 0.3) * NS
        config = StaConfig(pi_arrival=(a_s, a_l), pi_trans=(t_s, t_l))
        base = TimingAnalyzer(c880s, library, config=config)
        engine = ItrEngine(c880s, library, config=config)
        assert_results_equal(
            c880s,
            base.analyze_per_gate(),
            engine.refine(engine.initial_values()).sta,
        )


def test_itr_decision_sequence_parity(library):
    """Cone-limited refinement under a random decision sequence matches
    a full refinement of each assignment."""
    circuit = load_packaged_bench("c432s")
    rng = random.Random(11)
    engine = ItrEngine(circuit, library)
    result = engine.refine(engine.initial_values())
    pis = list(circuit.inputs)
    rng.shuffle(pis)
    for pi in pis[:10]:
        literal = TwoFrame.parse(rng.choice(["01", "10", "00", "11"]))
        result = engine.refine_assign(result, pi, literal)
        full = engine.refine(result.values)
        assert_results_equal(circuit, full.sta, result.sta)


def _run_atpg(circuit, library, faults, period, jobs):
    atpg = CrosstalkAtpg(
        circuit,
        library,
        config=AtpgConfig(use_itr=True, backtrack_limit=24, period=period),
    )
    return atpg, atpg.run_all(faults, jobs=jobs)


@pytest.fixture(scope="module")
def atpg_workload(library):
    circuit = load_packaged_bench("c432s")
    faults = generate_fault_list(
        circuit, 4, seed=3, delta=0.5 * NS, window=0.4 * NS
    )
    probe = CrosstalkAtpg(circuit, library, config=AtpgConfig())
    period = probe._sta.output_max_arrival() * 0.85
    return circuit, faults, period


def test_atpg_parallel_matches_serial(library, atpg_workload):
    """jobs=2 returns the same results, order, and stats as jobs=1."""
    circuit, faults, period = atpg_workload
    serial_atpg, serial = _run_atpg(circuit, library, faults, period, 1)
    par_atpg, par = _run_atpg(circuit, library, faults, period, 2)
    assert [r.fault for r in par.results] == [r.fault for r in serial.results]
    for a, b in zip(serial.results, par.results):
        assert a.status == b.status
        assert a.backtracks == b.backtracks
        assert a.vector == b.vector
    assert par.stats == serial.stats
    # The parent generator's cumulative stats mirror the merged workers'.
    assert par_atpg.stats == serial_atpg.stats

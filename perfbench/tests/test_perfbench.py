"""The benchmark's own tests: seeded inputs, tiny smoke runs, planted errors.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import bench_common as bc  # noqa: E402
import wl_search  # noqa: E402
import wl_serve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the command runs, the ones BENCHMARK.json leaves out
#: as unsteady (``serve``) included.
WORKLOADS = ("signoff", "search", "serve")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------
def test_derived_seeds_depend_on_seed_and_label():
    base = bc.derive_seed(1, "sizing", "anneal", 0)
    assert base == bc.derive_seed(1, "sizing", "anneal", 0)
    assert base != bc.derive_seed(2, "sizing", "anneal", 0)
    assert base != bc.derive_seed(1, "sizing", "anneal", 1)
    assert base != bc.derive_seed(1, "signoff", "mc", 0)


def _population(seed):
    from repro.circuit import load_packaged_bench

    return wl_search.population(seed, load_packaged_bench("c432s"), 20)


def test_fault_lists_are_seeded():
    assert _population(3) == _population(3)
    assert _population(3) != _population(4)


def test_fault_list_spreads_each_status_over_its_range_of_cost():
    statuses = ["untestable", "aborted", "untestable", "aborted",
                "untestable", "untestable"]
    costs = [0.05, 0.5, 0.01, 0.6, 0.03, 0.02]
    mix = {"aborted": 1, "untestable": 2}
    # Untestable by cost: 2, 5 | 4, 0; the middle of each stratum.
    assert wl_search.pick_faults(statuses, costs, mix) == [1, 2, 4]
    # A status the population lacks is made up from the rest, in order.
    short = {"detected": 2, "untestable": 1}
    assert wl_search.pick_faults(statuses, costs, short) == [0, 1, 5]


def test_job_time_sums_each_operations_median_repeat():
    samples = {("a", "x"): [3.0, 1.0, 2.0], ("a", "y"): [0.5, 0.25],
               ("b", "x"): [4.0]}
    assert bc.job_times(samples) == {"a": 2.375, "b": 4.0}
    assert bc.mean_job_s(samples) == (2.375 + 4.0) / 2


def test_recorded_times_are_scaled_by_the_calibrations_around_them():
    ctx = bc.Context("search", 1, 1.0)
    ctx.record("a", "x", 2.0)
    assert ctx.samples == {}
    scale = ctx.speed.factor(0.5 * ctx.speed.REF_S, 1.5 * ctx.speed.REF_S)
    assert scale == 1.0
    ctx.commit(ctx.speed.factor(2 * ctx.speed.REF_S, 2 * ctx.speed.REF_S))
    assert ctx.samples == {("a", "x"): [1.0]}
    assert ctx.raw_samples == {("a", "x"): [2.0]}
    assert ctx.speed.calibrate() > 0 and len(ctx.speed.times) == 1


def _schedule(seed):
    from repro.circuit import load_packaged_bench

    circuits = {
        name: load_packaged_bench(name) for name in ("c432s", "c17")
    }
    return wl_serve.make_schedule(
        seed, 12.0, 5.0, circuits, {"c432s": 2.0, "c17": 0.5}
    )


def test_serve_schedule_is_seeded_rounds_of_one_deck():
    first, again, other = _schedule(5), _schedule(5), _schedule(6)
    assert first == again
    assert first != other
    labels = lambda s: [label for _, label, _, _, _ in s]  # noqa: E731
    assert sorted(labels(first)) == sorted(labels(other))
    # Two rounds, each dealing every template of the deck once.
    size = wl_serve.DECK_SIZE
    assert len(first) == 2 * size
    for k in range(2):
        assert len(set(labels(first)[k * size:(k + 1) * size])) == size
    # Each round's arrivals are in due order within its 6 s share.
    for k in range(2):
        dues = [due for due, _, _, _, _ in first[k * size:(k + 1) * size]]
        assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] < 6.0
    # A what-if template keeps its gate; its sizes never repeat.
    gates, sizes = {}, []
    for _, label, kind, _, body in first:
        if kind == "whatif":
            edit = body["params"]["edits"][0]
            assert gates.setdefault(label, edit["line"]) == edit["line"]
            sizes.append(edit["value"])
    assert len(sizes) == len(set(sizes))
    # Every batch repeats a member, so the daemon has a key to dedup.
    batches = [body["requests"] for _, _, kind, _, body in first
               if kind == "batch"]
    assert batches and all(b[-1] == b[0] and len(b) == len(
        {json.dumps(m, sort_keys=True) for m in b}) + 1 for b in batches)


def test_whatif_gates_take_one_gate_per_stratum_of_retime_size():
    from repro.circuit import load_packaged_bench

    circuit = load_packaged_bench("c432s")
    sizes = wl_serve.cone_sizes(circuit)
    assert set(sizes) == set(circuit.gates)
    ranked = sorted(sizes, key=lambda line: (sizes[line], line))
    picks = wl_serve.stratified_gates(circuit, 8)
    ranks = [ranked.index(line) for line in picks]
    n = len(ranked)
    assert all(k * n // 8 <= rank < (k + 1) * n // 8
               for k, rank in enumerate(ranks))


# ----------------------------------------------------------------------
# Smoke runs: every workload, tiny, with checked answers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload):
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    result = last_json(run_bench(
        "--workload", workload, "--seed", "1", "--seconds", "1", "--tiny",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0.0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_answer_counts_as_failed(workload):
    result = last_json(run_bench(
        "--workload", workload, "--seed", "1", "--seconds", "1", "--tiny",
        "--plant-wrong",
    ))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_traced_run_reports_per_layer_metrics_and_a_chrome_trace():
    result = last_json(run_bench(
        "--workload", "search", "--seed", "2", "--seconds", "1", "--tiny",
        "--trace", "1",
    ))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["atpg.decisions"]["value"] > 0
    document = json.loads((bc.OUT / "search-seed2-trace1.json").read_text())
    trace = json.loads((ROOT / document["chrome_trace"]).read_text())
    assert "atpg.fault" in {e["name"] for e in trace["traceEvents"]}
    assert document["profile"]
    assert document["host"]["nproc"] >= 1
    assert "run_manifest" in document["host"]


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    proc = run_bench(
        "--workload", "signoff", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

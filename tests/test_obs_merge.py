"""Cross-process telemetry: capture, deterministic merge, exporters.

The contract under test is the one the parallel runners rely on
(see ``repro.obs.merge``): worker registries snapshot into picklable
payloads, the parent merge is deterministic and scheduler-independent,
and an instrumented ``--jobs N`` run reports counter totals identical
to ``--jobs 1`` for every pooled subsystem (characterize, ATPG, MC).
"""

import json

import pytest

from repro.atpg import AtpgConfig, CrosstalkAtpg, generate_fault_list
from repro.characterize import CharacterizationConfig, characterize_library
from repro.obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    build_manifest,
    chrome_trace,
    current_manifest,
    manifest_from_trace,
    read_trace,
    self_time_profile,
    snapshot_from_trace,
    snapshot_to_prom,
    use_registry,
    write_chrome_trace,
    write_trace,
)
from repro.obs.manifest import MANIFEST_FIELDS, set_run_context
from repro.obs.merge import (
    assign_lanes,
    capture_and_reset,
    capture_registry,
    init_worker_obs,
    merge_payloads,
)
from repro.obs.registry import Histogram, get_registry, set_registry
from repro.stat import run_mc
from repro.tech import GENERIC_05UM as TECH

NS = 1e-9

FAST = CharacterizationConfig(
    t_grid=(0.15 * NS, 0.4 * NS, 0.9 * NS),
    pair_t_grid=(0.2 * NS, 0.5 * NS, 1.0 * NS),
    skews_per_side=3,
    load_multipliers=(1.0, 2.0),
)


def worker_payload(pid, counters=(), gauges=(), hist=(), spans=()):
    """A payload as a worker would produce it, with a forced pid."""
    reg = MetricsRegistry()
    for name, value in counters:
        reg.counter(name).inc(value)
    for name, value in gauges:
        reg.gauge(name).set(value)
    for name, values in hist:
        h = reg.histogram(name)
        for v in values:
            h.observe(v)
    for name in spans:
        with reg.span(name):
            pass
    payload = capture_registry(reg)
    payload["pid"] = pid
    return payload


def non_pool_counters(registry):
    """Counter values excluding pool-dispatch bookkeeping.

    ``*.pool.*`` counters exist only on the parallel path by design
    (they count dispatches, not work), so parity comparisons skip them.
    """
    return {
        name: c.value
        for name, c in registry.counters.items()
        if ".pool." not in name and c.value
    }


def assert_counter_parity(serial_reg, pooled_reg):
    """Pooled counter totals must equal serial, every one exactly."""
    assert non_pool_counters(serial_reg) == non_pool_counters(pooled_reg)


class TestWorkerCapture:
    def test_disabled_worker_captures_none(self):
        previous = get_registry()
        try:
            registry = init_worker_obs(False)
            assert registry is NULL_REGISTRY
            assert capture_registry(registry) is None
            assert capture_and_reset(registry) is None
        finally:
            set_registry(previous)

    def test_enabled_worker_gets_fresh_registry(self):
        previous = get_registry()
        try:
            registry = init_worker_obs(True)
            assert registry.enabled
            assert registry is get_registry()
            assert registry is not previous
        finally:
            set_registry(previous)

    def test_capture_and_reset_yields_disjoint_deltas(self):
        reg = MetricsRegistry()
        handle = reg.counter("sim.steps")
        handle.inc(3)
        first = capture_and_reset(reg)
        handle.inc(4)  # construction-time handle survives the reset
        second = capture_and_reset(reg)
        assert first["counters"] == {"sim.steps": 3}
        assert second["counters"] == {"sim.steps": 4}

    def test_capture_keeps_raw_histogram_values(self):
        reg = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            reg.histogram("x").observe(v)
        payload = capture_registry(reg)
        assert payload["histograms"]["x"]["values"] == [3.0, 1.0, 2.0]


class TestMerge:
    def test_counters_sum_across_workers(self):
        reg = MetricsRegistry()
        reg.counter("atpg.decisions").inc(5)
        merge_payloads(reg, [
            worker_payload(201, counters=[("atpg.decisions", 7)]),
            worker_payload(202, counters=[("atpg.decisions", 11)]),
        ])
        assert reg.counters["atpg.decisions"].value == 23

    def test_lanes_are_dense_and_pid_sorted(self):
        payloads = [worker_payload(pid) for pid in (3010, 144, 970)]
        assert assign_lanes(payloads) == {144: 1, 970: 2, 3010: 3}
        assert assign_lanes([None, payloads[0]]) == {3010: 1}

    def test_gauges_last_write_by_lane(self):
        reg = MetricsRegistry()
        # Submission order has the higher pid first; the lane order
        # (sorted by pid) must win regardless.
        merge_payloads(reg, [
            worker_payload(999, gauges=[("sta.compile.groups", 50.0)]),
            worker_payload(111, gauges=[("sta.compile.groups", 8.0)]),
        ])
        assert reg.gauges["sta.compile.groups"].value == 50.0

    def test_histograms_concatenate_with_exact_percentiles(self):
        reg = MetricsRegistry()
        parent = reg.histogram("job_s")
        parent.observe(1.0)
        chunks = [[4.0, 2.0], [9.0, 3.0, 5.0]]
        merge_payloads(reg, [
            worker_payload(300 + i, hist=[("job_s", chunk)])
            for i, chunk in enumerate(chunks)
        ])
        reference = Histogram("ref")
        for v in [1.0] + [v for chunk in chunks for v in chunk]:
            reference.observe(v)
        assert parent.summary() == reference.summary()

    def test_spans_rerooted_under_worker_lane(self):
        reg = MetricsRegistry()
        with reg.span("parent.phase"):
            pass
        merge_payloads(reg, [worker_payload(42, spans=["atpg.fault"])])
        worker_spans = [s for s in reg.spans if s.lane == 1]
        assert len(worker_spans) == 1
        span = worker_spans[0]
        assert span.path == "worker/1/atpg.fault"
        assert span.depth == 1
        parent_span = next(s for s in reg.spans if s.lane == 0)
        assert parent_span.path == "parent.phase"

    def test_merge_skips_none_payloads(self):
        reg = MetricsRegistry()
        assert merge_payloads(reg, [None, None]) == 0
        assert merge_payloads(
            reg, [None, worker_payload(9, counters=[("c", 1)])]
        ) == 1
        assert reg.counters["c"].value == 1

    def test_merge_into_disabled_registry_is_noop(self):
        assert merge_payloads(
            NULL_REGISTRY, [worker_payload(1, counters=[("c", 1)])]
        ) == 0

    def test_merge_is_deterministic_in_payload_order(self):
        def merged(payloads):
            reg = MetricsRegistry()
            merge_payloads(reg, payloads)
            return reg.snapshot()

        payloads = [
            worker_payload(77, counters=[("a", 1)], hist=[("h", [2.0])]),
            worker_payload(78, counters=[("a", 2)], hist=[("h", [1.0])]),
        ]
        # Same payload list => identical snapshot, run after run.
        assert merged(payloads) == merged(payloads)


class TestHistogramReservoirCap:
    def test_default_is_unbounded(self):
        h = Histogram("h")
        for i in range(1000):
            h.observe(float(i))
        assert len(h.values) == 1000
        assert "overflow" not in h.summary()

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("h", cap=0)

    def test_overflow_keeps_count_sum_min_max(self):
        h = Histogram("h", cap=3)
        for v in (5.0, 1.0, 3.0, 9.0, 0.5):
            h.observe(v)
        digest = h.summary()
        assert digest["count"] == 5
        assert digest["total"] == pytest.approx(18.5)
        assert digest["min"] == 0.5
        assert digest["max"] == 9.0
        assert digest["overflow"] == 2
        assert len(h.values) == 3  # reservoir bounded

    def test_percentiles_exact_below_cap(self):
        capped = Histogram("a", cap=100)
        exact = Histogram("b")
        for v in range(50):
            capped.observe(float(v))
            exact.observe(float(v))
        assert capped.summary() == {
            key: value
            for key, value in exact.summary().items()
        }

    def test_registry_first_caller_wins_on_cap(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", cap=2)
        assert reg.histogram("h") is h
        assert h.cap == 2

    def test_reset_clears_overflow_state(self):
        h = Histogram("h", cap=1)
        h.observe(1.0)
        h.observe(2.0)
        reg = MetricsRegistry()
        reg.histograms["h"] = h
        reg.reset()
        assert h.count == 0
        assert h.overflow_count == 0
        assert h._lo is None and h._hi is None

    def test_null_registry_accepts_cap(self):
        NULL_REGISTRY.histogram("h", cap=5).observe(1.0)


class TestMergedTraceRoundTrip:
    def _merged_registry(self):
        reg = MetricsRegistry()
        reg.counter("atpg.faults").inc(4)
        with reg.span("cli.atpg"):
            pass
        merge_payloads(reg, [
            worker_payload(
                501,
                counters=[("atpg.decisions", 3)],
                hist=[("atpg.fault_s", [0.25, 0.5])],
                spans=["atpg.fault"],
            ),
            worker_payload(
                502,
                counters=[("atpg.decisions", 5)],
                spans=["atpg.fault"],
            ),
        ])
        return reg

    def test_write_trace_snapshot_round_trip(self, tmp_path):
        reg = self._merged_registry()
        path = write_trace(reg, tmp_path / "merged.jsonl")
        events = read_trace(path)
        assert snapshot_from_trace(events) == reg.snapshot()

    def test_trace_spans_carry_lanes(self, tmp_path):
        reg = self._merged_registry()
        events = read_trace(write_trace(reg, tmp_path / "t.jsonl"))
        lanes = {e["lane"] for e in events if e["type"] == "span"}
        assert lanes == {0, 1, 2}

    def test_trace_embeds_complete_manifest(self, tmp_path):
        reg = self._merged_registry()
        events = read_trace(write_trace(reg, tmp_path / "t.jsonl"))
        manifest = manifest_from_trace(events)
        assert manifest is not None
        assert set(MANIFEST_FIELDS) <= set(manifest)

    def test_v1_trace_reads_back_laneless(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "version": 1}) + "\n"
            + json.dumps({
                "type": "span", "name": "run", "path": "run",
                "start_s": 0.0, "elapsed_s": 1.0, "depth": 0,
            }) + "\n"
            + json.dumps({"type": "counter", "name": "c", "value": 2}) + "\n"
        )
        events = read_trace(path)
        assert manifest_from_trace(events) is None
        assert snapshot_from_trace(events)["counters"] == {"c": 2}
        trace = chrome_trace(events)
        assert [e["tid"] for e in trace["traceEvents"]
                if e["ph"] == "X"] == [0]


class TestChromeExport:
    def test_one_thread_lane_per_worker(self):
        reg = MetricsRegistry()
        with reg.span("parent.work"):
            pass
        merge_payloads(reg, [
            worker_payload(601, spans=["job"]),
            worker_payload(602, spans=["job"]),
        ])
        trace = chrome_trace(reg)
        names = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "parent", 1: "worker/1", 2: "worker/2"}
        x_tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert x_tids == {0, 1, 2}

    def test_written_file_is_valid_json(self, tmp_path):
        reg = MetricsRegistry()
        with reg.span("run"):
            pass
        out = write_chrome_trace(
            reg, tmp_path / "trace.chrome.json",
            manifest=build_manifest(command="test"),
        )
        trace = json.loads(out.read_text())
        assert trace["displayTimeUnit"] == "ms"
        assert trace["metadata"]["run_manifest"]["command"] == "test"
        event = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert event["args"]["path"] == "run"

    def test_self_time_subtracts_direct_children(self):
        events = [
            {"type": "span", "name": "inner", "path": "outer/inner",
             "start_s": 0.2, "elapsed_s": 0.3, "depth": 1, "lane": 0},
            {"type": "span", "name": "outer", "path": "outer",
             "start_s": 0.0, "elapsed_s": 1.0, "depth": 0, "lane": 0},
        ]
        rows = {r["path"]: r for r in self_time_profile(events)}
        assert rows["outer"]["self_s"] == pytest.approx(0.7)
        assert rows["outer"]["total_s"] == pytest.approx(1.0)
        assert rows["outer/inner"]["self_s"] == pytest.approx(0.3)

    def test_self_time_ignores_other_lanes(self):
        events = [
            {"type": "span", "name": "inner", "path": "outer/inner",
             "start_s": 0.2, "elapsed_s": 0.3, "depth": 1, "lane": 1},
            {"type": "span", "name": "outer", "path": "outer",
             "start_s": 0.0, "elapsed_s": 1.0, "depth": 0, "lane": 0},
        ]
        rows = {r["path"]: r for r in self_time_profile(events)}
        assert rows["outer"]["self_s"] == pytest.approx(1.0)


class TestPromExposition:
    def test_families_and_quantiles(self):
        reg = MetricsRegistry()
        reg.counter("atpg.decisions").inc(7)
        reg.gauge("sta.compile.groups").set(42.0)
        h = reg.histogram("pool.job_s", cap=2)
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        text = snapshot_to_prom(reg.snapshot())
        assert "# TYPE repro_atpg_decisions_total counter" in text
        assert "repro_atpg_decisions_total 7" in text
        assert "repro_sta_compile_groups 42.0" in text
        assert '{quantile="0.5"}' in text
        assert "repro_pool_job_s_count 3" in text
        assert "repro_pool_job_s_overflow_total 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert snapshot_to_prom(MetricsRegistry().snapshot()) == ""


class TestManifest:
    def test_build_manifest_has_every_field(self):
        manifest = build_manifest(command="x", seeds=7, jobs=2)
        assert set(manifest) == set(MANIFEST_FIELDS)
        assert manifest["seeds"] == [7]
        assert manifest["python_version"]
        assert manifest["package_version"]

    def test_run_context_feeds_current_manifest(self):
        set_run_context(command="repro-sta mc", args=["mc", "c17"])
        try:
            manifest = current_manifest(circuit="c17")
            assert manifest["command"] == "repro-sta mc"
            assert manifest["args"] == ["mc", "c17"]
            assert manifest["circuit"] == "c17"
            assert manifest["wall_s"] is not None
            assert manifest["started_unix"] is not None
        finally:
            set_run_context()


@pytest.mark.slow
class TestPoolCounterParity:
    """Instrumented --jobs N must report the totals of --jobs 1."""

    def test_characterize_counters_match(self):
        cells = (("inv", 1),)
        with use_registry() as serial_reg:
            serial = characterize_library(TECH, cells, FAST, jobs=1)
        with use_registry() as pooled_reg:
            pooled = characterize_library(TECH, cells, FAST, jobs=4)
        assert (
            pooled_reg.counters["characterize.pool.jobs_dispatched"].value
            > 0
        )
        assert_counter_parity(serial_reg, pooled_reg)
        a, b = serial.to_dict(), pooled.to_dict()
        a["meta"].pop("jobs"), b["meta"].pop("jobs")
        assert json.dumps(a) == json.dumps(b)

    def test_atpg_counters_match(self, c17, library):
        faults = generate_fault_list(
            c17, 6, seed=1, delta=0.4 * NS, window=0.12 * NS
        )
        config = AtpgConfig(backtrack_limit=16)

        def run(jobs):
            with use_registry() as reg:
                atpg = CrosstalkAtpg(c17, library, config=config)
                summary = atpg.run_all(faults, jobs=jobs)
            return reg, summary

        serial_reg, serial = run(1)
        pooled_reg, pooled = run(4)
        assert [r.status for r in serial.results] == [
            r.status for r in pooled.results
        ]
        assert_counter_parity(serial_reg, pooled_reg)
        # One base refinement per generator, timed where it runs: in
        # the first search, or in the parent before the pool starts.
        for reg in (serial_reg, pooled_reg):
            assert reg.histogram("atpg.baseline_s").count == 1
        # The merged trace keeps one timeline per reporting worker.
        worker_lanes = {s.lane for s in pooled_reg.spans if s.lane > 0}
        assert worker_lanes
        assert all(
            s.path.startswith(f"worker/{s.lane}/")
            for s in pooled_reg.spans
            if s.lane > 0
        )

    def test_mc_counters_match(self, c17, library):
        def run(jobs):
            with use_registry() as reg:
                result = run_mc(
                    c17, library, samples=32, seed=3, jobs=jobs, block=8
                )
            return reg, result

        serial_reg, serial = run(1)
        pooled_reg, pooled = run(4)
        assert (serial.po_max == pooled.po_max).all()
        assert_counter_parity(serial_reg, pooled_reg)
        serial_hist = serial_reg.histograms["stat.mc.block_s"]
        pooled_hist = pooled_reg.histograms["stat.mc.block_s"]
        assert serial_hist.count == pooled_hist.count == 4

"""Shared harness of the repo benchmark: seeds, timing, set-up, results.

Every workload module exposes ``run(ctx) -> (e2e, layers)`` where
``ctx`` is a :class:`Context`.  The harness owns what is common to all
of them: deriving every input from the single ``--seed``, the rounds of
repeated jobs with set-up measured in fresh interpreters between them,
the per-operation ledger (attempted / failed / time of every repeat),
the host fingerprint and the traced-run registry with its Chrome
export.

Timing rule.  The benchmark's host is a shared 2-CPU virtual machine
whose speed changes from one spell to the next, over seconds and over
minutes (by up to 2x; process CPU time tracks wall time, so the CPU
runs slower rather than less often).  So every run times a fixed
calibration computation of its own (:class:`HostSpeed`: a dict/float
loop and a sweep over an object graph, the kinds of work the program's
pure-Python layers do) before and after each job, and scales the job's
measured times by ``HostSpeed.REF_S`` over the calibration's mean time
around it.  Every time metric is thus in seconds at the reference host
speed: the same as a wall-clock reading when the host runs at its
reference speed, and unmoved when a slow spell slows the calibration and
the program alike.  A change to the program moves the program's time
and not the calibration, which is benchmark code.  The raw wall-clock
times are kept in the result document beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

HERE = Path(__file__).resolve().parent
#: Root of the checkout the benchmark runs from (holds ``src/``).
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where runs leave their result files and Chrome traces.
OUT = HERE / "out"

#: Set-up is measured this many times per run (fresh interpreter each).
SETUP_REPEATS = 9
#: Nodes and fan-out of the calibration's object graph.
GRAPH_NODES, GRAPH_FANOUT = 20000, 3


def child_env() -> dict:
    """Environment for subprocesses: the checkout's ``src`` on the path."""
    extra = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(SRC)] + ([extra] if extra else [])),
    }


def derive_seed(seed: int, *labels) -> int:
    """A 63-bit seed derived from the workload seed and a label path.

    Every random input of every workload comes from here, so one
    ``--seed`` fixes all of them and distinct labels never share draws.
    """
    blob = json.dumps([seed, *labels]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def rng(seed: int, *labels) -> random.Random:
    return random.Random(derive_seed(seed, *labels))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def host_fingerprint() -> dict:
    import numpy

    from repro.obs import current_manifest

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run_manifest": current_manifest(),
    }


class _Node:
    """A vertex of the calibration graph."""

    __slots__ = ("succ", "val")

    def __init__(self) -> None:
        self.succ: list = []
        self.val = 0.0


class HostSpeed:
    """The run's calibration clock (see the timing rule above)."""

    #: The calibration's median time on the reference host (a 2-vCPU
    #: Intel Xeon virtual machine, Python 3.11.7) in a quiet spell.
    REF_S = 0.030

    def __init__(self) -> None:
        # Fixed structure, independent of the workload seed: the
        # calibration is the same work in every run.
        r = random.Random(20011)
        self._nodes = [_Node() for _ in range(GRAPH_NODES)]
        for node in self._nodes:
            node.succ = [self._nodes[r.randrange(GRAPH_NODES)]
                         for _ in range(GRAPH_FANOUT)]
        #: Every calibration time of the run, in order.
        self.times: List[float] = []

    def _work(self) -> float:
        table: Dict[int, float] = {}
        total = 0.0
        for i in range(60000):
            key = i % 97
            table[key] = table.get(key, 0.0) * 0.5 + i * 1e-3
            total += table[key]
        for _ in range(2):
            for node in self._nodes:
                value = node.val
                for succ in node.succ:
                    if succ.val < value + 1.0:
                        succ.val = value + 0.5
            for node in self._nodes:
                node.val = 0.0
        return total

    def calibrate(self) -> float:
        """Time one calibration; returns its seconds."""
        t0 = time.perf_counter()
        self._work()
        seconds = time.perf_counter() - t0
        self.times.append(seconds)
        return seconds

    def factor(self, before: float, after: float) -> float:
        """Scale for times measured between two calibrations."""
        return self.REF_S / (0.5 * (before + after))


class Stopwatch:
    """Times the consecutive calls of one job, calibrating between them.

    ``laps`` holds ``(op, seconds, scale)`` per call, each scaled by the
    calibrations just before and just after it; for jobs whose calls
    each last long enough that the host's speed may change from one to
    the next.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.laps: List[tuple] = []
        self._before = speed.calibrate()
        self._t0 = time.perf_counter()

    def lap(self, op: str) -> None:
        """End the running call as ``op``; the next one starts now."""
        seconds = time.perf_counter() - self._t0
        after = self.speed.calibrate()
        self.laps.append((op, seconds, self.speed.factor(self._before, after)))
        self._before = after
        self._t0 = time.perf_counter()


class SetupSampler:
    """Set-up measured in fresh interpreters, spread over the run.

    Each child imports the package, loads the packaged library and
    parses ``circuits`` (see ``setup_child.py``).  The ``repeats``
    children run at even steps of the measured time, between jobs, so
    their median covers the host's fast and slow spells over the whole
    run rather than the few seconds before it.
    """

    def __init__(self, speed: HostSpeed, circuits: Iterable[str],
                 repeats: int, seconds: float) -> None:
        self.speed = speed
        self.cmd = [sys.executable, str(HERE / "setup_child.py"), *circuits]
        self.repeats = repeats
        self.step = seconds / repeats
        self.totals: List[float] = []
        self.parses: List[float] = []
        #: Unscaled wall-clock totals, for the result document.
        self.raw: List[float] = []

    def _one(self) -> None:
        before = self.speed.calibrate()
        proc = subprocess.run(
            self.cmd, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-400:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = self.speed.factor(before, self.speed.calibrate())
        self.raw.append(report["total_s"])
        self.totals.append(report["total_s"] * scale)
        self.parses.append(report["parse_s"] * scale)

    def due(self, measured: float) -> None:
        """Run the children due by ``measured`` seconds of measured time."""
        while (len(self.totals) < self.repeats
               and measured >= len(self.totals) * self.step):
            self._one()

    def finish(self):
        """Run the children still owed; returns the ``(setup_s, parse_s)``
        medians."""
        while len(self.totals) < self.repeats:
            self._one()
        return median(self.totals), median(self.parses)


def pin_to_one_cpu() -> None:
    """Keep this process (and the children it starts) on one CPU, so
    the calibration and the jobs it scales always run on the same one.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_rounds(ctx, jobs: Sequence[tuple], setup: SetupSampler) -> int:
    """Run ``jobs`` round-robin until ``ctx.seconds`` of measured time.

    ``jobs`` is a list of ``(name, fn)``; ``fn(round_index, traced)``
    runs one job and records its operations.  The run stops between
    jobs once the measured time is up, after at least one full round
    (two in a traced run, whose odd rounds are traced).  Set-up children
    run between jobs, outside the measured time.  Returns the number of
    jobs run.  Each job's times are scaled by the calibrations just
    before and just after it.
    """
    measured, k = 0.0, 0
    min_jobs = len(jobs) * (2 if ctx.trace else 1)
    setup.due(measured)
    before = ctx.speed.calibrate()
    while k < min_jobs or measured < ctx.seconds:
        _, fn = jobs[k % len(jobs)]
        round_index = k // len(jobs)
        t0 = time.perf_counter()
        fn(round_index, ctx.trace and round_index % 2 == 1)
        measured += time.perf_counter() - t0
        after = ctx.speed.calibrate()
        ctx.commit(ctx.speed.factor(before, after))
        setup.due(measured)
        before = ctx.speed.times[-1]
        k += 1
    return k


def job_times(samples: Dict[tuple, list]) -> Dict[str, float]:
    """Per job: the sum of its operations' median (scaled) times."""
    jobs: Dict[str, float] = {}
    for (job, _op), times in samples.items():
        if times:
            jobs[job] = jobs.get(job, 0.0) + median(times)
    return jobs


def mean_job_s(samples: Dict[tuple, list]) -> float:
    """Mean over the workload's jobs of each job's time."""
    jobs = job_times(samples)
    return statistics.fmean(jobs.values()) if jobs else 0.0


def op_summary(ctx) -> dict:
    """Per operation: repeats, median scaled time, and the scaled and
    raw wall-clock time of every repeat."""
    return {
        f"{job}/{op}": {"n": len(times), "median_s": median(times),
                        "scaled_s": times,
                        "raw_s": ctx.raw_samples.get((job, op), [])}
        for (job, op), times in sorted(ctx.samples.items()) if times
    }


class Context:
    """One benchmark run: arguments, the op ledger and the trace registry.

    Args:
        workload: Workload name.
        seed: The workload seed every input derives from.
        seconds: How long the measured phase runs.
        trace: Traced run (per-layer metrics) instead of the timed one.
        tiny: Smallest inputs (the benchmark's own smoke tests).
        plant_wrong: Corrupt the first checked answer, so the tests can
            show that a wrong answer is counted as a failed operation.
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool = False,
        tiny: bool = False,
        plant_wrong: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.plant_wrong = plant_wrong
        self.setup_repeats = 2 if tiny else SETUP_REPEATS
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: (job, op) -> scaled seconds of every untraced / traced repeat,
        #: and the untraced ones' raw wall-clock seconds.
        self.samples: Dict[tuple, list] = {}
        self.traced_samples: Dict[tuple, list] = {}
        self.raw_samples: Dict[tuple, list] = {}
        self._pending: List[tuple] = []
        self.speed = HostSpeed()
        #: Workload-specific detail for the result file.
        self.details: dict = {}
        self.registry = None
        self.untraced = None
        if trace:
            from repro.obs import MetricsRegistry, NULL_REGISTRY

            self.registry = MetricsRegistry()
            self.untraced = NULL_REGISTRY

    # -- op ledger ----------------------------------------------------
    def record(self, job: str, op: str, seconds: float,
               traced: bool = False, scale: float = None) -> None:
        """One timed operation of ``job`` that returned an answer.

        With a ``scale`` it joins the ledger at once; without one, at
        the next :meth:`commit`, scaled by the calibrations around the
        whole job.
        """
        self.attempted += 1
        if scale is None:
            self._pending.append(((job, op), seconds, traced))
        else:
            self._add((job, op), seconds, traced, scale)

    def _add(self, key, seconds, traced, scale) -> None:
        ledger = self.traced_samples if traced else self.samples
        ledger.setdefault(key, []).append(seconds * scale)
        if not traced:
            self.raw_samples.setdefault(key, []).append(seconds)

    def commit(self, scale: float) -> None:
        """Scale the operations recorded since the last commit."""
        for key, seconds, traced in self._pending:
            self._add(key, seconds, traced, scale)
        self._pending.clear()

    def record_error(self, op: str, what: str) -> None:
        """An operation that raised: attempted and failed, no time."""
        self.attempted += 1
        self.fail(f"{op}: {what}")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def planted(self, value):
        """``value``, or a corrupted copy the first time when planting."""
        if not self.plant_wrong:
            return value
        self.plant_wrong = False
        if isinstance(value, float):
            return value + 1e-12
        if isinstance(value, dict):
            return {**value, "_planted": True}
        return ("planted", value)

    # -- tracing --------------------------------------------------------
    def use_trace(self, traced: bool):
        """Install the trace registry (or the null one) for one job.

        Instrumented objects capture metric handles at construction, so
        the job must build its objects inside this block.
        """
        from repro.obs import use_registry

        return use_registry(self.registry if traced else self.untraced)

    def span(self, name: str):
        from repro.obs import get_registry

        return get_registry().span(name)

    def export_trace(self) -> dict:
        """Write the Chrome trace; return the self-time profile rows."""
        from repro.obs import (
            current_manifest,
            self_time_profile,
            write_chrome_trace,
        )

        path = OUT / f"{self.workload}-seed{self.seed}.trace.json"
        write_chrome_trace(self.registry, path, manifest=current_manifest())
        rows = self_time_profile(self.registry, top_k=25)
        return {"chrome_trace": str(path.relative_to(ROOT)), "profile": rows}


def counter(registry, name: str) -> int:
    metric = registry.counters.get(name)
    return metric.value if metric is not None else 0


def hist(registry, name: str):
    """``(count, total, median)`` of a registry histogram (zeros if absent)."""
    metric = registry.histograms.get(name)
    if metric is None or not metric.count:
        return 0, 0.0, 0.0
    return metric.count, metric.total, metric.percentile(50.0)


def span_times(registry, name: str) -> List[float]:
    return [s.elapsed for s in registry.spans if s.name == name]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _window_bits(timing) -> tuple:
    return tuple(
        (int(w.state),) + tuple(
            float(v).hex() for v in (w.a_s, w.a_l, w.t_s, w.t_l)
        ) if w.is_active else None
        for w in (timing.rise, timing.fall)
    )


def same_windows(a, b) -> bool:
    """Bitwise equality of two StaResults' windows on every line."""
    if set(a.timings) != set(b.timings):
        return False
    return all(
        _window_bits(a.timings[line]) == _window_bits(b.timings[line])
        for line in a.timings
    )


def trace_overhead(ctx) -> float:
    """Mean over jobs of the traced minus the untraced job time."""
    untraced = job_times(ctx.samples)
    traced = job_times(ctx.traced_samples)
    diffs = [traced[job] - untraced[job] for job in traced if job in untraced]
    return statistics.fmean(diffs) if diffs else 0.0


def registry_layers(registry, n_jobs: int) -> dict:
    """Per-layer metrics read from the program's own counters and timers.

    Counts and busy times are per job (``n_jobs`` traced jobs); timer
    medians are per call; ratios are useful outcomes over attempts.
    """
    per_job = lambda value: ratio(value, n_jobs)  # noqa: E731
    c = lambda name: counter(registry, name)  # noqa: E731
    gauges = registry.gauges
    _, trial_total, _ = hist(registry, "sta.incr.trial_s")
    _, retime_total, _ = hist(registry, "sta.incr.retime_s")
    _, opt_total, _ = hist(registry, "sta.opt.wall_s")
    cone_n, cone_total, _ = hist(registry, "sta.incr.trial_cone_gates")
    memo_hits = c("sta.memo.hits")
    return {
        "sta.compile.build_s": hist(registry, "sta.compile.build_s")[2],
        "sta.compile.groups": gauges["sta.compile.groups"].value
        if "sta.compile.groups" in gauges else 0,
        "sta.compile.levels": gauges["sta.compile.levels"].value
        if "sta.compile.levels" in gauges else 0,
        "sta.gates_evaluated": per_job(c("sta.gates_evaluated")),
        "sta.corner_calls": per_job(c("sta.corner_calls")),
        "sta.level.propagate_s": hist(registry, "sta.compile.pass_s")[2],
        "sta.incr.trial_s": per_job(trial_total),
        "sta.incr.trials": per_job(c("sta.incr.trials")),
        "sta.incr.trial_batches": per_job(c("sta.incr.trial_batches")),
        "sta.incr.trial_cone_gates": ratio(cone_total, cone_n),
        "sta.incr.retime_s": per_job(retime_total),
        "sta.incr.gates_retimed": per_job(c("sta.incr.gates_retimed")),
        "sta.incr.early_terminations": per_job(
            c("sta.incr.early_terminations")
        ),
        "sta.incr.full_rebuilds": per_job(c("sta.incr.full_rebuilds")),
        "sta.opt.self_s": per_job(
            max(opt_total - trial_total - retime_total, 0.0)
        ) if opt_total else 0.0,
        "sta.opt.commit_ratio": ratio(
            c("sta.opt.commits"), c("sta.opt.trials")
        ),
        "atpg.decisions": per_job(c("atpg.decisions")),
        "atpg.backtracks": per_job(c("atpg.backtracks")),
        "atpg.prune_ratio": ratio(c("atpg.itr_prunes"), c("atpg.decisions")),
        "itr.refinements": per_job(c("itr.refinements")),
        "itr.implications": per_job(c("itr.implications")),
        "itr.recomputed_gates": per_job(c("itr.recomputed_gates")),
        "sta.memo.hit_ratio": ratio(
            memo_hits, memo_hits + c("sta.memo.misses")
        ),
    }

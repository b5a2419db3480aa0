#!/usr/bin/env python3
"""Micro-benchmark the timing core: STA, ITR, and ATPG throughput.

Times each layer of the timing core as the program runs it:

* **STA full pass, per-gate walk** — ``TimingAnalyzer.analyze_per_gate()``
  over a benchmark circuit: the scalar corner searches ITR and ATPG pay
  for.
* **STA full pass, level engine** — the level-compiled
  structure-of-arrays pass (``repro.sta.compile``) on the two largest
  packaged circuits, plus the compile itself.
* **STA required times** — the compiled backward pass
  (``TimingAnalyzer.compute_required``) vs. the per-gate reference walk
  (``compute_required_per_gate``) on c7552s.
* **Incremental STA trials** — per-edit cost of
  ``IncrementalAnalyzer`` what-if batches (``try_edits``, a K=32 size
  ladder per gate) and solo re-times vs. the full level pass, on the
  same two circuits.
* **ITR per-decision refine** — ``refine_incremental`` over a decision
  sequence (only the cone a decision touches is re-walked).
* **ATPG fault throughput** — ``run_all`` over a random fault list with
  ITR pruning on, serial and fault-parallel.
* **Monte Carlo STA** — ``repro.stat.run_mc`` sample throughput vs. the
  naive alternative of one deterministic analyzer pass per sample (the
  vectorized engine pushes a whole sample block through one
  level-compiled pass).

All timings are best-of-N to damp scheduler noise.  Writes a
machine-readable ``benchmarks/results/BENCH_timing.json`` with
per-workload seconds and speedups.  There is one mode, so a CI run
measures the same work as the committed baseline.
``scripts/check_bench_regression.py`` gates only absolute seconds of
program legs; the in-run ratios (``*_ratio``) and speedups are
reported, not gated, since a faster reference leg would raise them.

Usage:
    python scripts/bench_timing.py [--jobs N] [--out FILE]
"""

import argparse
import gc
import json
import os
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.atpg import AtpgConfig, CrosstalkAtpg, generate_fault_list  # noqa: E402
from repro.characterize.library import CellLibrary  # noqa: E402
from repro.circuit import load_packaged_bench  # noqa: E402
from repro.itr.refine import ItrEngine  # noqa: E402
from repro.itr.values import TwoFrame  # noqa: E402
from repro.models import VShapeModel  # noqa: E402
from repro.obs.manifest import (  # noqa: E402
    attach_manifest,
    current_manifest,
    library_content_hash,
    set_run_context,
)
from repro.sta.analysis import StaConfig, TimingAnalyzer  # noqa: E402
from repro.sta.incremental import IncrementalAnalyzer, TrialEdit  # noqa: E402
from repro.stat import run_mc  # noqa: E402

NS = 1e-9

def _best_of(repeats, fn):
    """Best-of-N wall time (seconds) plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def bench_sta(circuit, library, passes):
    """Per-gate full pass: the scalar walk ITR and ATPG pay for, each
    pass on a fresh analyzer."""

    def one_pass():
        return TimingAnalyzer(circuit, library).analyze_per_gate()

    best, _ = _best_of(passes, one_pass)
    return {
        "circuit": circuit.name,
        "passes": passes,
        "optimized_s_per_pass": best,
    }


def bench_sta_level(circuits, library, passes):
    """Full-pass STA on the level-compiled SoA engine.

    The level leg compiles once per circuit and times the compiled
    forward pass, which is how the engine is used.  The compile itself
    is timed best-of-N as ``compile_s``, and ``compile_vs_pass_ratio``
    reports it over one pass.
    ``groups`` and ``levels`` record the kernel calls per pass.  The
    compile leg constructs :class:`CompiledCircuit` directly, the build
    without the compile registry, which would hand every analyzer after
    the first the same shared compile.
    Results are bit-identical — the ``test_sta_compile`` parity suite
    and the ``level`` fuzz oracle enforce that; this only measures time.
    """
    from repro.sta.compile import CompiledCircuit, LevelCompiledAnalyzer

    out = {"passes": passes, "circuits": {}}
    total_level = total_compile = 0.0
    for circuit in circuits:
        compile_s, _ = _best_of(
            passes, lambda circuit=circuit: CompiledCircuit(
                circuit, library, VShapeModel(), StaConfig()
            )
        )
        analyzer = LevelCompiledAnalyzer(circuit, library)
        level_s, _ = _best_of(passes, analyzer.analyze)
        entry = {
            "groups": analyzer.compiled.n_groups,
            "levels": analyzer.compiled.n_levels,
            "level_s_per_pass": level_s,
            "compile_s": compile_s,
            "compile_vs_pass_ratio": compile_s / level_s,
        }
        out["circuits"][circuit.name] = entry
        total_level += level_s
        total_compile += compile_s
    out["level_s_per_pass"] = total_level
    out["compile_s"] = total_compile
    out["compile_vs_pass_ratio"] = total_compile / total_level
    return out


def bench_sta_required(circuit, library, passes):
    """Backward pass: compiled required times vs. the per-gate walk.

    Both legs time best-of-N on one warm analyzer (compiled, forward
    pass done, one backward pass run) over the same forward result, so
    ``compiled_vs_per_gate_ratio`` compares the two backward walks
    alone, measured in the same run.  Results are bit-identical — the
    ``test_sta_compile`` parity suite and the ``level`` fuzz oracle
    enforce that; this only measures time.
    """
    analyzer = TimingAnalyzer(circuit, library)
    result = analyzer.analyze()
    analyzer.compute_required(result)
    compiled_s, _ = _best_of(
        passes, lambda: analyzer.compute_required(result)
    )
    per_gate_s, _ = _best_of(
        passes, lambda: analyzer.compute_required_per_gate(result)
    )
    return {
        "circuit": circuit.name,
        "passes": passes,
        "compiled_s": compiled_s,
        "per_gate_s": per_gate_s,
        "compiled_vs_per_gate_ratio": compiled_s / per_gate_s,
        "speedup": per_gate_s / compiled_s,
    }


def bench_itr(circuit, library, decisions, repeats):
    """Per-decision incremental refinement, search-style.

    Each trial walks the same decision sequence twice from the base
    result, the way a backtracking search re-derives sibling branches;
    every decision re-walks the cone it touches gate by gate.  Only the
    decision loops are timed (engine setup and the base refinement are
    not), best of ``repeats`` trials.
    """
    pis = circuit.inputs
    sequence = [
        (pis[i % len(pis)], TwoFrame.parse("01" if i % 2 else "10"))
        for i in range(min(decisions, len(pis)))
    ]
    passes = 2
    out = {
        "circuit": circuit.name,
        "decisions": len(sequence),
        "passes": passes,
    }

    def run():
        engine = ItrEngine(circuit, library)
        base = engine.refine(engine.initial_values())
        started = time.perf_counter()
        for _ in range(passes):
            result = base
            for line, literal in sequence:
                result = engine.refine_assign(result, line, literal)
        return time.perf_counter() - started

    # run() times just the decision loops, so take the best of its
    # returns rather than _best_of's wall.
    times = [run() for _ in range(repeats)]
    out["optimized_s_per_decision"] = min(times) / (passes * len(sequence))
    return out


def bench_atpg(circuit, library, n_faults, jobs, repeats):
    """ATPG-with-ITR fault throughput: the headline workload.

    The workload mirrors the Section 7 experiment: sizeable fault deltas
    and a clock at 85% of the longest fault-free arrival, so every fault
    drives a real ITR-pruned search.  The parallel leg must reach the
    serial leg's statuses.
    """
    faults = generate_fault_list(
        circuit, n_faults, seed=1, delta=0.5 * NS, window=0.4 * NS
    )
    probe = CrosstalkAtpg(circuit, library, config=AtpgConfig())
    period = probe._sta.output_max_arrival() * 0.85
    config = AtpgConfig(use_itr=True, backtrack_limit=48, period=period)
    out = {
        "circuit": circuit.name,
        "faults": len(faults),
        "jobs": jobs,
        "repeats": repeats,
    }

    def run(run_jobs):
        # A fresh generator per repetition: the shared base refinement
        # starts cold, so repeats measure the same work.  The collect
        # keeps one leg's garbage from being charged to the next.
        gc.collect()
        atpg = CrosstalkAtpg(circuit, library, config=config)
        return atpg.run_all(faults, jobs=run_jobs)

    opt_s, opt = _best_of(repeats, lambda: run(1))
    par_s, par = _best_of(repeats, lambda: run(jobs))
    if [r.status for r in par.results] != [r.status for r in opt.results]:
        raise AssertionError("parallel ATPG diverged from the serial run")
    out["optimized_serial_s"] = opt_s
    out["optimized_parallel_s"] = par_s
    out["s_per_fault_optimized"] = opt_s / len(faults)
    return out


def bench_mc(circuit, library, samples, baseline_passes, repeats):
    """Monte Carlo sample throughput vs. one-STA-pass-per-sample.

    The baseline leg times a handful of fresh per-gate full passes (what
    sampling would cost without a batched sample axis) and extrapolates
    to per-sample cost; the MC leg runs the real ``run_mc`` serially so
    the comparison is vectorization, not the process pool.
    ``mc_vs_baseline_ratio`` divides the two per-sample costs of the
    same run; ``mc_s_per_sample`` is the gated figure.
    """
    out = {
        "circuit": circuit.name,
        "samples": samples,
        "baseline_passes": baseline_passes,
        "baseline": "one fresh TimingAnalyzer.analyze_per_gate() per "
                    "sample (extrapolated from best-of timed passes)",
    }

    def one_pass():
        return TimingAnalyzer(circuit, library).analyze_per_gate()

    base_pass_s, _ = _best_of(baseline_passes, one_pass)
    mc_s, _ = _best_of(
        repeats,
        lambda: run_mc(circuit, library, samples=samples, seed=0, jobs=1),
    )
    out["baseline_s_per_sample"] = base_pass_s
    out["mc_s"] = mc_s
    out["mc_s_per_sample"] = mc_s / samples
    out["speedup"] = out["baseline_s_per_sample"] / out["mc_s_per_sample"]
    out["mc_vs_baseline_ratio"] = (
        out["mc_s_per_sample"] / out["baseline_s_per_sample"]
    )
    return out


#: The K=32 size ladder a gate-sizing pass evaluates per candidate gate.
_TRIAL_SIZES = (
    0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0, 5.7, 8.0, 11.3, 16.0, 22.6,
    0.35, 0.25, 3.4, 6.8, 1.2, 1.8, 2.4, 3.0, 4.8, 9.6, 0.6, 0.8,
    1.1, 1.3, 1.6, 2.2, 2.6, 3.6, 5.0, 7.0,
)


def bench_sta_incremental(circuits, library, passes, trial_gates):
    """Per-edit cost of incremental trials vs. the full level pass.

    Three legs per circuit, measured in the *same run* so the ratios are
    immune to machine drift: the full level-engine pass, a solo re-time
    of one real resize edit (apply + revert, two cone replays), and the
    gate-sizing optimizer's inner-loop shape — a K=32 size ladder on one
    gate evaluated as a single ``try_edits`` batch, averaged over a
    seeded random gate sample.  ``trial_vs_full_ratio`` divides the
    per-edit trial cost (``incr_s_per_edit``, the gated figure) by the
    full pass from the same run.  Bit-identity of all three against a
    fresh scalar analysis is enforced by ``tests/test_incremental.py``
    and the ``incremental`` fuzz oracle; this only measures time.
    """
    K = len(_TRIAL_SIZES)
    out = {
        "passes": passes,
        "trial_k": K,
        "trial_gates": trial_gates,
        "circuits": {},
    }
    total_full = total_retime = total_trial = 0.0
    for circuit in circuits:
        analyzer = TimingAnalyzer(circuit, library)
        incr = IncrementalAnalyzer(analyzer)
        incr.analyze()
        full_s, _ = _best_of(passes, analyzer.analyze)

        # Solo re-time: one real edit, re-timed, then reverted (another
        # re-time) — the per-edit figure halves the pair.
        gate = max(circuit.gates, key=lambda g: len(circuit.fanouts(g)))
        original = circuit.gates[gate].size

        def retime_pair(gate=gate, original=original):
            circuit.resize_gate(gate, original * 1.4)
            incr.retime()
            circuit.resize_gate(gate, original)
            return incr.retime()

        retime_s, _ = _best_of(passes, retime_pair)
        retime_s /= 2.0

        # Trial batches: K hypothetical sizes of one gate per batch.
        rng = random.Random(12345)
        lines = sorted(circuit.gates)
        sample = [rng.choice(lines) for _ in range(trial_gates)]

        def trial_round():
            for g in sample:
                incr.try_edits(
                    [TrialEdit("resize", g, s) for s in _TRIAL_SIZES]
                ).max_arrivals()

        batch_s, _ = _best_of(passes, trial_round)
        trial_s = batch_s / trial_gates / K
        entry = {
            "full_s_per_pass": full_s,
            "retime_s_per_edit": retime_s,
            "incr_s_per_edit": trial_s,
            "trial_vs_full_ratio": trial_s / full_s,
            "speedup_retime": full_s / retime_s,
            "speedup": full_s / trial_s,
        }
        out["circuits"][circuit.name] = entry
        total_full += full_s
        total_retime += retime_s
        total_trial += trial_s
    out["full_s_per_pass"] = total_full
    out["retime_s_per_edit"] = total_retime
    out["incr_s_per_edit"] = total_trial
    out["trial_vs_full_ratio"] = total_trial / total_full
    out["speedup_retime"] = total_full / total_retime
    out["speedup"] = total_full / total_trial
    return out


def bench_corner(circuit, library, passes):
    """Corner-batched N-corner pass vs. N separate single-corner passes.

    Both pass legs run the level-compiled engine with compilation
    excluded (analyzers are built once, outside the timed region) — the
    comparison is the batched trailing-corner-axis sweep against N
    independent sweeps, which is how multi-corner signoff would run
    without the corner axis.  The corner-batched compile is timed on
    its own, best-of-N, and reported against one batched pass as
    ``batched_compile_vs_pass_ratio``.  Results are bit-identical —
    enforced by ``tests/test_pvt.py`` and the ``corners`` fuzz oracle;
    this only measures time.
    """
    from repro.pvt import STANDARD_CORNERS, CornerAnalyzer, scaled_library
    from repro.sta.compile import CompiledCircuit, LevelCompiledAnalyzer

    corners = [
        STANDARD_CORNERS["fast"],
        STANDARD_CORNERS["typ"],
        STANDARD_CORNERS["slow"],
        STANDARD_CORNERS["slow_derated"],
    ]
    libraries = [scaled_library(library, corner) for corner in corners]
    # The build itself, without the compile registry (see
    # bench_sta_level).
    batched_compile_s, _ = _best_of(
        passes, lambda: CompiledCircuit(
            circuit, libraries, VShapeModel(), StaConfig()
        )
    )
    batched = CornerAnalyzer(circuit, corners, libraries)
    separates = [
        LevelCompiledAnalyzer(circuit, lib) for lib in libraries
    ]
    derate_pairs = [corner.derates for corner in corners]

    batched_s, _ = _best_of(passes, batched.analyze)

    def separate_round():
        return [
            analyzer.analyze_corners(derates=derates)[0]
            for analyzer, derates in zip(separates, derate_pairs)
        ]

    separate_s, _ = _best_of(passes, separate_round)
    n = len(corners)
    return {
        "circuit": circuit.name,
        "corners": [corner.name for corner in corners],
        "passes": passes,
        "baseline": "one single-corner level-engine pass per corner "
                    "(compile excluded from both legs)",
        "batched_s_per_pass": batched_s,
        "separate_s_per_pass": separate_s,
        "batched_s_per_corner": batched_s / n,
        "separate_s_per_corner": separate_s / n,
        "batched_vs_separate_ratio": batched_s / separate_s,
        "batched_compile_s": batched_compile_s,
        "batched_compile_vs_pass_ratio": batched_compile_s / batched_s,
        "speedup": separate_s / batched_s,
    }


def bench_server(circuit_name, warm_queries, cold_runs):
    """Warm daemon queries vs. cold one-shot CLI processes.

    The cold leg times a full ``repro-sta sta`` process per question —
    the pre-daemon cost of one timing query (interpreter boot, library
    load, full analysis).  The warm leg asks distinct what-if questions
    (a fresh resize value each time, so the response memo cannot
    answer) over real HTTP against a live :class:`ServerThread` whose
    session engines were warmed by one untimed query.  Answers are
    bitwise-identical either way — ``tests/test_server.py`` and the
    ``serve`` fuzz oracle enforce that; this only measures latency.
    """
    import subprocess

    from repro.server import ServerClient, ServerConfig, ServerThread

    circuit = load_packaged_bench(circuit_name)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
               else [])
        ),
    }

    def cold_once():
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "sta", circuit_name],
            check=True, capture_output=True, env=env, cwd=REPO_ROOT,
        )

    cold_s, _ = _best_of(cold_runs, cold_once)

    gate = max(circuit.gates, key=lambda g: len(circuit.fanouts(g)))
    counter = iter(range(1, 10 ** 9))

    with ServerThread(
        {circuit_name: circuit}, ServerConfig(port=0, workers=0)
    ) as handle:
        with ServerClient("127.0.0.1", handle.port) as client:
            client.result(circuit_name, "slack", {"worst": 5})  # warm up

            def warm_round():
                for _ in range(warm_queries):
                    client.result(circuit_name, "whatif", {"edits": [
                        {"op": "resize", "line": gate,
                         "value": 1.0 + next(counter) * 1e-6},
                    ]})

            warm_total, _ = _best_of(2, warm_round)
    warm_s = warm_total / warm_queries
    return {
        "circuit": circuit_name,
        "cold_runs": cold_runs,
        "warm_queries": warm_queries,
        "baseline": "one `repro-sta sta` process per question "
                    "(interpreter boot + library load + full analysis)",
        "cold_s_per_query": cold_s,
        "warm_s_per_query": warm_s,
        "speedup": cold_s / warm_s,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker processes for the parallel ATPG leg")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "benchmarks" / "results"
                        / "BENCH_timing.json")
    args = parser.parse_args()
    set_run_context(command="bench_timing", args=sys.argv[1:])

    library = CellLibrary.load_default()
    sta_circuit = load_packaged_bench("c880s")
    itr_circuit = load_packaged_bench("c432s")
    passes = 5
    repeats = 3

    report = {"generated_unix": time.time()}
    print("benchmarking STA full pass ...", flush=True)
    report["sta_full_pass"] = bench_sta(sta_circuit, library, passes)
    print("benchmarking STA full pass (level engine) ...", flush=True)
    level_circuits = [
        load_packaged_bench(name) for name in ("c5315s", "c7552s")
    ]
    report["sta_full_pass_level"] = bench_sta_level(
        level_circuits, library, passes
    )
    print("benchmarking STA required times ...", flush=True)
    report["sta_required"] = bench_sta_required(
        level_circuits[1], library, passes
    )
    print("benchmarking incremental STA trials ...", flush=True)
    report["sta_incremental"] = bench_sta_incremental(
        level_circuits, library, passes, trial_gates=12
    )
    print("benchmarking ITR per-decision refine ...", flush=True)
    report["itr_refine"] = bench_itr(
        itr_circuit, library, decisions=24, repeats=repeats
    )
    print("benchmarking ATPG fault throughput ...", flush=True)
    report["atpg_with_itr"] = bench_atpg(
        itr_circuit, library, 20, args.jobs, repeats
    )
    print("benchmarking Monte Carlo STA throughput ...", flush=True)
    report["mc"] = bench_mc(
        itr_circuit, library, samples=256, baseline_passes=8,
        repeats=repeats,
    )
    print("benchmarking corner-batched STA ...", flush=True)
    report["corner"] = bench_corner(
        load_packaged_bench("c7552s"), library, passes
    )
    print("benchmarking daemon warm-query latency ...", flush=True)
    report["server"] = bench_server("c432s", warm_queries=48, cold_runs=3)

    attach_manifest(
        report,
        current_manifest(
            library_hash=library_content_hash(library),
            jobs=args.jobs,
        ),
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for section, key in (
        ("sta_full_pass", "optimized_s_per_pass"),
        ("sta_full_pass_level", "level_s_per_pass"),
        ("itr_refine", "optimized_s_per_decision"),
        ("atpg_with_itr", "s_per_fault_optimized"),
    ):
        print(f"  {section}.{key}: {report[section][key] * 1e3:.3f} ms")
    for name in ("sta_required", "sta_incremental", "mc", "corner", "server"):
        print(f"  {name}: {report[name]['speedup']:.2f}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

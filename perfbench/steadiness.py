#!/usr/bin/env python3
"""Steadiness study: run workloads over several seeds, report spreads.

For every end-to-end metric a workload reports this prints the median
of the runs and the interquartile range
(``statistics.quantiles(values, n=4)``) as a share of the median, the
statistic the bounds are checked against.  With ``--sets 2`` it repeats
the whole study on fresh seeds and reports how far each bounded
metric's second median moved from the first.  Runs are sequential;
nothing else should load the host meanwhile.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --workloads signoff,serve --runs 10 \\
        --sets 2 --out perfbench/results/steadiness.json

``--from-out`` recomputes the study from the result documents that
earlier runs left in ``perfbench/out/`` instead of running again (run
wall times then come from each document's run manifest).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """``(median, iqr / median)`` of ``values``."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int,
             from_out: bool = False) -> dict:
    """One untraced run; returns its full result document."""
    saved = HERE / "out" / f"{workload}-seed{seed}-trace0.json"
    if from_out:
        document = json.loads(saved.read_text())
        if document["seconds"] != seconds:
            raise RuntimeError(f"{saved.name} ran {document['seconds']} s")
        return document
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-600:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    document = json.loads(saved.read_text())
    assert line["failed"] == document["failed"]
    return document


def study_set(workload, seeds, seconds, bounds, from_out=False) -> dict:
    documents, walls = [], []
    for seed in seeds:
        t0 = time.perf_counter()
        documents.append(run_once(workload, seed, seconds, from_out))
        walls.append(
            documents[-1]["host"]["run_manifest"]["wall_s"] if from_out
            else time.perf_counter() - t0
        )
    print(f"\n{workload}: seeds {seeds[0]}-{seeds[-1]}, "
          f"wall {statistics.median(walls):.1f} s median per run, "
          f"failed ops {sum(d['failed'] for d in documents)} of "
          f"{sum(d['attempted'] for d in documents)}")
    rows = {}
    for name in documents[0]["end_to_end"]:
        values = [d["end_to_end"][name] for d in documents]
        med, iqr = spread(values)
        bound = bounds.get(name)
        rows[name] = {"median": med, "iqr_share": iqr, "bound": bound,
                      "values": values}
        if bound is None:
            flag = "not in BENCHMARK.json (dropped)"
        else:
            flag = "ok" if iqr < bound / 3 else (
                "within bound" if iqr <= bound else "UNSTEADY")
        print(f"  {name:<14} median {med:12.6g}  IQR/median {iqr:7.2%}  "
              f"{flag}")
    return {
        "seeds": seeds,
        "metrics": rows,
        "wall_s_median": statistics.median(walls),
        "attempted": sum(d["attempted"] for d in documents),
        "failed": sum(d["failed"] for d in documents),
        "host": documents[0]["host"],
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    parser.add_argument("--from-out", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    study = {"runs": args.runs, "seconds": args.seconds, "sets": []}
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        seeds = list(range(first, first + args.runs))
        study["sets"].append({
            workload: study_set(workload, seeds, args.seconds, bounds,
                                args.from_out)
            for workload in args.workloads.split(",")
        })
    if args.sets >= 2:
        # Share by which the second set's median is worse than the first.
        study["second_vs_first"] = {}
        print("\nsecond set vs first (worse by, share of the first median):")
        for workload, first in study["sets"][0].items():
            second = study["sets"][1][workload]
            drift = {}
            for name, bound in bounds.items():
                a = first["metrics"][name]["median"]
                b = second["metrics"][name]["median"]
                worse = (b - a) / a if better[name] == "lower" else (a - b) / a
                drift[name] = worse
                print(f"  {workload:<8} {name:<14} {worse:+7.2%}  bound "
                      f"{bound:.0%}  {'ok' if worse <= bound else 'WORSE'}")
            study["second_vs_first"][workload] = drift
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(study, indent=2) + "\n")
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload signoff --seed 1 --seconds 25 --trace 0

Workloads (see README.md for what each measures and why):

* ``signoff`` — one-shot sign-off jobs (sta, report, corners, mc) on
  c5315s and c7552s;
* ``search``  — ``optimize_sizing`` greedy on c7552s and seeded
  simulated annealing on c5315s, each followed by a sign-off read, and
  serial crosstalk ATPG with ITR on c432s and c880s;
* ``serve``   — a seeded open-loop request mix, paced by Poisson
  arrivals, against a ``repro-sta serve c7552s c880s`` daemon (left
  out of ``BENCHMARK.json`` as unsteady on a shared host; README.md).

Every input derives from ``--seed``.  With ``--trace 0`` the last line
of stdout is a JSON object with every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer
metrics instead, measured with a live metrics registry and
benchmark-side spans, and the spans are exported as a Chrome/Perfetto
trace under ``perfbench/out/``.  The full result (host fingerprint,
run manifest, failures, both metric sets) is written next to it.

Exits 2 without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_common as bc  # noqa: E402

WORKLOADS = ("signoff", "search", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smallest inputs and a planted wrong answer: the benchmark's own
    # tests use these; the measured runs never do.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--plant-wrong", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_workload(args) -> dict:
    """Run one workload; returns the full result document."""
    from repro.obs import set_run_context

    set_run_context("perfbench", sys.argv[1:])
    ctx = bc.Context(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        tiny=args.tiny, plant_wrong=args.plant_wrong,
    )
    module = importlib.import_module(f"wl_{args.workload}")
    e2e, layers = module.run(ctx)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": bc.host_fingerprint(),
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "failures": ctx.failures,
        "end_to_end": e2e,
        "per_layer": layers,
        "details": ctx.details,
    }
    if ctx.trace:
        document.update(ctx.export_trace())
    return document


def final_line(document: dict, spec: dict) -> dict:
    """The summary line: every metric of the requested set, with units."""
    trace = bool(document["trace"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = document["per_layer"] if trace else document["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing and not trace:
        raise RuntimeError(f"workload did not report {missing}")
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted
    }
    return {
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    # A terminated run unwinds like an interrupted one, so the serve
    # workload's ``finally`` still stops its daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (bc.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {bc.SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bc.SRC))
    spec = json.loads((bc.ROOT / "BENCHMARK.json").read_text())
    document = run_workload(args)
    bc.OUT.mkdir(parents=True, exist_ok=True)
    out = bc.OUT / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.write_text(json.dumps(document, indent=2, default=str) + "\n")
    if document.get("profile"):
        from repro.obs import format_profile

        print("self-time profile (traced spans):")
        print(format_profile(document["profile"]))
    for failure in document["failures"]:
        print(f"FAILED: {failure}")
    print(f"result written to {out.relative_to(bc.ROOT)}")
    print(json.dumps(final_line(document, spec)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

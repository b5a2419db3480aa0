#!/usr/bin/env python
"""Gate CI on the timing micro-benchmarks.

Compares a fresh ``scripts/bench_timing.py`` run against the committed
baseline in ``benchmarks/results/BENCH_timing.json`` on *per-unit*
metrics (seconds per STA pass / compile / backward pass / what-if edit /
Monte Carlo sample / ITR decision / ATPG fault / warm query).  The bench
has one mode, so both reports measure the same circuits, decisions,
faults, samples and best-of counts.

Every gate is the absolute time of one program leg.  No gate is an
in-run ratio: a ratio's denominator is another leg (the scalar
reference walk, one compiled pass), so speeding that leg up would read
as a regression of the numerator.  The bench still reports its ratios
and speedups, ungated.

The threshold is deliberately generous (default 2.5x): shared CI runners
are noisy, and the gate exists to catch order-of-magnitude regressions
(an accidentally disabled kernel path, a per-gate walk on a compiled
path), not to police single-digit percentages.

Usage::

    python scripts/check_bench_regression.py \
        --current /tmp/BENCH_timing.json \
        [--baseline benchmarks/results/BENCH_timing.json] \
        [--threshold 2.5] [--allow-missing]

Exits 1 when any gated metric exceeds ``threshold * baseline`` — or is
missing from either report, since a silently skipped metric would let a
renamed key or a dropped bench section disable the gate forever
(``--allow-missing`` restores the old SKIP behaviour while a new
baseline lands).

Both reports carry a ``run_manifest`` provenance block (see
``repro.obs.manifest``); the gate prints the current run's provenance,
requires the block to be present (unless ``--allow-missing``), and notes
— without failing — environment differences against the baseline that
would explain timing deltas.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "results" / "BENCH_timing.json"

#: (section, key) pairs gated on, each in seconds per unit of work.
GATED_METRICS = (
    ("sta_full_pass", "optimized_s_per_pass"),
    ("sta_full_pass_level", "level_s_per_pass"),
    ("sta_full_pass_level", "compile_s"),
    ("sta_required", "compiled_s"),
    ("sta_incremental", "incr_s_per_edit"),
    ("itr_refine", "optimized_s_per_decision"),
    ("atpg_with_itr", "s_per_fault_optimized"),
    ("mc", "mc_s_per_sample"),
    ("corner", "batched_s_per_corner"),
    ("corner", "batched_compile_s"),
    ("server", "warm_s_per_query"),
)

#: Manifest fields printed for provenance when comparing reports.
_MANIFEST_SHOW = (
    "command",
    "package_version",
    "python_version",
    "numpy_version",
    "jobs",
    "wall_s",
)


def check_manifest(
    baseline: dict,
    current: dict,
    allow_missing: bool = False,
) -> int:
    """Compare the run-provenance blocks of the two reports.

    The current report must carry one (``bench_timing.py`` always writes
    it); a committed baseline predating manifests is tolerated with a
    note.  Environment mismatches (python/numpy version) are printed but
    never fail the gate — they explain timing deltas, they don't cause
    them here.
    """
    cur = current.get("run_manifest")
    base = baseline.get("run_manifest")
    if cur is None:
        if allow_missing:
            print("  run_manifest: SKIP (missing from current, allowed)")
            return 0
        print("  run_manifest: MISSING from current report")
        return 1
    print("  provenance (current):")
    for field in _MANIFEST_SHOW:
        print(f"    {field:<16} {cur.get(field)}")
    if base is None:
        print("  note: baseline predates run manifests; nothing to compare")
        return 0
    for field in ("python_version", "numpy_version", "package_version"):
        if base.get(field) != cur.get(field):
            print(
                f"  note: {field} differs from baseline "
                f"({base.get(field)} -> {cur.get(field)}) — expect "
                "timing noise"
            )
    return 0


def check(
    baseline: dict,
    current: dict,
    threshold: float,
    allow_missing: bool = False,
) -> int:
    failures = 0
    print(f"bench regression gate (threshold {threshold:.2f}x baseline):")
    failures += check_manifest(baseline, current, allow_missing)
    for section, key in GATED_METRICS:
        name = f"{section}.{key}"
        base = baseline.get(section, {}).get(key)
        cur = current.get(section, {}).get(key)
        if base is None or cur is None:
            # A silently skipped metric is a gate that stopped gating —
            # a renamed key or a dropped bench section would otherwise
            # pass CI forever.  Missing is a failure unless the caller
            # explicitly opts out (e.g. while a new baseline lands).
            if allow_missing:
                print(f"  {name:<40} SKIP (metric missing, allowed)")
            else:
                print(f"  {name:<40} MISSING (gate cannot run)")
                failures += 1
            continue
        ratio = cur / base if base > 0 else float("inf")
        verdict = "ok" if ratio <= threshold else "REGRESSION"
        if verdict != "ok":
            failures += 1
        values = f"base {base * 1e3:9.3f} ms  now {cur * 1e3:9.3f} ms"
        print(f"  {name:<40} {values}  ({ratio:5.2f}x)  {verdict}")
    if failures:
        print(
            f"FAIL: {failures} metric(s) regressed past "
            f"{threshold:.2f}x the committed baseline or went missing"
        )
        return 1
    print("PASS: no gated metric regressed past the threshold")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", required=True, metavar="JSON",
        help="fresh bench_timing.py output to check",
    )
    parser.add_argument(
        "--baseline", default=str(DEFAULT_BASELINE), metavar="JSON",
        help=f"committed baseline (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.5, metavar="X",
        help="fail when current > X * baseline (default: 2.5)",
    )
    parser.add_argument(
        "--allow-missing", action="store_true",
        help="downgrade missing gated metrics from failure to SKIP "
        "(escape hatch while a new baseline lands)",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error("threshold must be > 1.0")
    baseline = json.loads(Path(args.baseline).read_text())
    current = json.loads(Path(args.current).read_text())
    return check(
        baseline, current, args.threshold, allow_missing=args.allow_missing
    )


if __name__ == "__main__":
    sys.exit(main())

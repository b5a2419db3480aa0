#!/usr/bin/env python3
"""Diff every answer the timing engines give between two revisions.

Usage (from the root of a checkout)::

    python scripts/answer_diff.py --base REV
    python scripts/answer_diff.py --base REV --circuits c17,c432s
    python scripts/answer_diff.py --base REV --markdown --expect moves.txt

``REV`` is extracted with ``git archive`` into a temporary directory.
One fixed probe set then runs once per side, each side in its own
interpreter with ``PYTHONPATH`` at that side's ``src`` (this checkout's
for the change side), on public APIs only.  Both sides run on this
host, so no digest or value is ever committed: NumPy's SIMD paths and
libm may differ between hosts.

The probe set covers each selected packaged circuit under the VShape,
PinToPin and NonCtrlAware models:

* ``windows`` / ``windows_per_gate`` — every line's windows from the
  compiled pass and from the per-gate walk;
* ``required`` / ``required_per_gate`` — every line's required times,
  compiled and per gate;
* ``corners`` — the fast/typ/slow/slow_derated corner columns and their
  envelope (``merged``);
* ``mc16`` / ``mc32`` — ``run_mc`` with 16 and 32 samples (17 and 33
  columns), every output's latest and earliest arrival per sample;
* ``trials`` / ``commit`` — a K = 8 what-if batch (resizes, same-slot
  and slot-changing swaps), every line of every column, then the
  windows after committing one column;
* ``paths`` — every output direction's latest and earliest path, each
  stage's arrival, line and pin;
* ``itr`` — ITR refinements along a seeded primary-input decision
  sequence, every line's windows after each decision.

Per quantity, circuit and model it prints the values compared, the
values whose bits moved, the largest move in ps (time values only) and
in ULPs, and the first moved lines.  ``--markdown`` prints the table as
Markdown (one row per quantity, then every moved row).

``--expect FILE`` lists the moves a change declares, one
``quantity/circuit/model`` pattern per line (shell wildcards, ``#``
comments).  Exit status: 0 when nothing moved outside the expected
set, 1 on any other move, 2 when a side cannot be probed.
"""

from __future__ import annotations

import argparse
import fnmatch
import io
import itertools
import os
import pickle
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CIRCUITS = (
    "c17", "c432s", "c499s", "c880s", "c1355s", "c1908s", "c2670s",
    "c3540s", "c5315s", "c7552s",
)
MODELS = ("vshape", "pin2pin", "nonctrl")
CORNERS = "fast,typ,slow,slow_derated"
WINDOW_FIELDS = ("a_s", "a_l", "t_s", "t_l", "state")
WINDOW_TIMED = (True, True, True, True, False)
DIRS = ("R", "F")
SEED = 20260


# ----------------------------------------------------------------------
# Probe side: runs under one revision's PYTHONPATH
# ----------------------------------------------------------------------
def _record(axes, data, timed):
    """A quantity's values: ``data`` indexed by the ``axes`` labels, the
    last axis a field axis whose ``timed`` entries are in seconds."""
    return {
        "axes": [list(map(str, a)) for a in axes],
        "data": np.asarray(data, dtype=float),
        "timed": list(timed),
    }


def _window_values(timing):
    return [
        [getattr(w, f) for f in WINDOW_FIELDS]
        for w in (timing.rise, timing.fall)
    ]


def _windows(lines, timings):
    return _record(
        (lines, DIRS, WINDOW_FIELDS),
        [_window_values(timings[line]) for line in lines], WINDOW_TIMED,
    )


def _required(lines, required):
    return _record(
        (lines, DIRS, ("q_s", "q_l")),
        [
            [[w.q_s, w.q_l] for w in (required[l].rise, required[l].fall)]
            for l in lines
        ],
        (True, True),
    )


def _trial_edits(circuit, rng):
    """Eight what-if edits: resizes, swaps inside the gate's slot (NAND
    <-> NOR, INV <-> BUF) and, where a 2-input gate exists, swaps to XOR
    (a slot change)."""
    gates = sorted(circuit.gates)
    rng.shuffle(gates)
    same = {"nand": "nor", "nor": "nand", "and": "or", "or": "and",
            "inv": "buf", "buf": "inv"}
    edits = []
    # Round the gates again when a small circuit runs out of them.
    for line in itertools.islice(itertools.cycle(gates), 8 * len(gates)):
        gate = circuit.gates[line]
        if len(edits) % 3 == 0:
            edits.append(("resize", line, rng.choice((0.5, 2.0, 4.0))))
        elif len(edits) % 3 == 1 and gate.kind in same:
            edits.append(("swap", line, same[gate.kind]))
        elif len(edits) % 3 == 2 and gate.n_inputs == 2 and gate.kind != "xor":
            edits.append(("swap", line, "xor"))
        if len(edits) == 8:
            break
    return edits


def _paths(analyzer, result, circuit):
    from repro.sta import TimingReporter

    reporter = TimingReporter(analyzer, result)
    rows = {line: i for i, line in enumerate(circuit.lines)}
    ends, paths = [], []
    for po in circuit.outputs:
        for rising, tag in zip((True, False), DIRS):
            for kind in ("max", "min"):
                window = result.line(po).window(rising)
                if not window.is_active:
                    continue
                path = reporter.trace(po, rising, kind)
                ends.append(f"{po}.{tag}.{kind}")
                paths.append([
                    (s.arrival, rows[s.line],
                     -1 if s.pin is None else s.pin)
                    for s in path.stages
                ])
    depth = max((len(p) for p in paths), default=0)
    data = np.full((len(paths), depth, 3), np.nan)
    for i, path in enumerate(paths):
        data[i, :len(path)] = path
    return _record(
        (ends, [f"stage{i}" for i in range(depth)],
         ("arrival", "line", "pin")),
        data, (True, False, False),
    )


def _itr(circuit, library, model, rng):
    from repro.itr import Conflict, ItrEngine, TwoFrame

    engine = ItrEngine(circuit, library, model)
    result = engine.refine(engine.initial_values())
    lines = list(circuit.lines)
    steps, data = ["initial"], [[_window_values(result.line(l))
                                 for l in lines]]
    pis = list(circuit.inputs)
    rng.shuffle(pis)
    for pi in pis[:3]:
        literal = rng.choice(("01", "10", "00", "11"))
        try:
            result = engine.refine_assign(result, pi, TwoFrame.parse(literal))
        except Conflict:
            break
        steps.append(f"{pi}={literal}")
        data.append([_window_values(result.line(l)) for l in lines])
    return _record((steps, lines, DIRS, WINDOW_FIELDS), data, WINDOW_TIMED)


def probe(circuits, models):
    """Every quantity of the probe set: ``{(quantity, circuit, model):
    record}``."""
    from repro.characterize import CellLibrary
    from repro.circuit import load_packaged_bench
    from repro.pvt import CornerAnalyzer, CornerLibrary, parse_corner_list
    from repro.sta import TimingAnalyzer
    from repro.sta.incremental import IncrementalAnalyzer, TrialEdit
    from repro.stat import run_mc
    from repro.stat.runner import MC_MODELS

    library = CellLibrary.load_default()
    corners, corner_libs = CornerLibrary.derived(
        library, parse_corner_list(CORNERS)
    ).ordered()
    out = {}
    for name in circuits:
        for model_name in models:
            print(f"probe {name} {model_name}", file=sys.stderr, flush=True)
            rng = random.Random(f"{SEED}/{name}/{model_name}")
            circuit = load_packaged_bench(name)
            lines = list(circuit.lines)
            model = MC_MODELS[model_name]()
            analyzer = TimingAnalyzer(circuit, library, model)
            result = analyzer.analyze()
            walked = analyzer.analyze_per_gate()

            def put(quantity, make):
                # A probe that raises (say, the path tracer finding the
                # pass and the scalar search apart) is a reported
                # difference, not a crash of the whole diff.
                try:
                    record = make()
                except Exception as exc:  # noqa: BLE001 — reported
                    record = {"error": f"{type(exc).__name__}: {exc}"}
                out[quantity, name, model_name] = record

            put("windows", lambda: _windows(lines, result.timings))
            put("windows_per_gate", lambda: _windows(lines, walked.timings))
            put("required", lambda: _required(
                lines, analyzer.compute_required(result)))
            put("required_per_gate", lambda: _required(
                lines, analyzer.compute_required_per_gate(walked)))
            batch = CornerAnalyzer(
                circuit, corners, corner_libs, MC_MODELS[model_name]()
            ).analyze()
            columns = [*batch.results, batch.merged]
            put("corners", lambda: _record(
                ([c.name for c in corners] + ["merged"], lines, DIRS,
                 WINDOW_FIELDS),
                [[_window_values(r.line(l)) for l in lines]
                 for r in columns],
                WINDOW_TIMED,
            ))
            for samples in (16, 32):
                mc = run_mc(circuit, library, model=model_name,
                            samples=samples, seed=samples + 1)
                put(f"mc{samples}", lambda: _record(
                    (mc.outputs, range(samples), ("po_max", "po_min")),
                    np.stack([mc.po_max, mc.po_min], axis=-1), (True, True),
                ))
            put("paths", lambda: _paths(analyzer, result, circuit))
            put("itr", lambda: _itr(
                circuit, library, MC_MODELS[model_name](), rng))
            # Last: a commit edits the circuit.
            incr = IncrementalAnalyzer(
                TimingAnalyzer(circuit, library, MC_MODELS[model_name]())
            )
            incr.analyze()
            edits = [TrialEdit(*e) for e in _trial_edits(circuit, rng)]
            trial = incr.try_edits(edits)
            put("trials", lambda: _record(
                ([f"{e.op} {e.line} {e.value}" for e in edits], lines,
                 DIRS, WINDOW_FIELDS),
                [[_window_values(trial.line_timing(l, column=k))
                  for l in lines] for k in range(len(edits))],
                WINDOW_TIMED,
            ))
            committed = incr.commit(trial, len(edits) - 1)
            put("commit", lambda: _windows(lines, committed.timings))
    return out


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def _ordered(bits: np.ndarray) -> np.ndarray:
    """Float64 bit patterns as integers ordered like the floats."""
    return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)


def compare(base: dict, head: dict) -> list:
    """One row per quantity, circuit and model present on either side."""
    rows = []
    for key in sorted(set(base) | set(head)):
        a, b = base.get(key), head.get(key)
        row = {"key": key, "compared": 0, "moved": 0, "ps": 0.0,
               "ulps": 0, "lines": []}
        rows.append(row)
        errors = [f"{side} side raised {r['error']}"
                  for side, r in (("base", a), ("change", b))
                  if r is not None and "error" in r]
        if a is None or b is None:
            side = "base" if a is None else "change"
            errors.append(f"missing on the {side} side")
        elif not errors and (a["data"].shape != b["data"].shape
                             or a["axes"][:-1] != b["axes"][:-1]):
            errors.append("the axes differ (lines, stages or columns)")
        if errors:
            # Both sides raising alike is no move.
            if not (a is not None and "error" in a and a == b):
                row.update(moved=-1, lines=errors)
            continue
        da, db = a["data"], b["data"]
        ia, ib = da.view(np.int64), db.view(np.int64)
        moved = ia != ib
        row["compared"] = int(da.size)
        row["moved"] = int(moved.sum())
        if not row["moved"]:
            continue
        timed = np.broadcast_to(np.array(a["timed"]), da.shape)
        with np.errstate(invalid="ignore"):
            delta = np.abs(da - db)
        delta = np.where(np.isnan(delta), np.inf, delta)
        hit = moved & timed
        row["ps"] = float(delta[hit].max() * 1e12) if hit.any() else None
        oa, ob = _ordered(ia[moved]), _ordered(ib[moved])
        row["ulps"] = max(abs(int(x) - int(y)) for x, y in zip(oa, ob))
        for idx in np.argwhere(moved)[:5]:
            label = ".".join(a["axes"][d][i] for d, i in enumerate(idx))
            row["lines"].append(
                f"{label}: {da[tuple(idx)]!r} -> {db[tuple(idx)]!r}"
            )
    return rows


def _fmt_ps(row) -> str:
    if row["moved"] <= 0:
        return "-"
    return "n/a" if row["ps"] is None else f"{row['ps']:.3g}"


def print_table(rows, markdown: bool) -> None:
    if not markdown:
        print(f"{'quantity':<18} {'circuit':<7} {'model':<8} "
              f"{'compared':>9} {'moved':>7} {'max ps':>9} {'max ulp':>8}")
        for row in rows:
            q, c, m = row["key"]
            moved = "?" if row["moved"] < 0 else row["moved"]
            print(f"{q:<18} {c:<7} {m:<8} {row['compared']:>9} "
                  f"{moved:>7} {_fmt_ps(row):>9} "
                  f"{row['ulps'] if row['moved'] > 0 else '-':>8}")
            for line in row["lines"]:
                print(f"    {line}")
        return
    print("| quantity | circuits x models | values compared | values moved "
          "| max move (ps) | max move (ULP) |")
    print("|---|---|---|---|---|---|")
    by_q = {}
    for row in rows:
        by_q.setdefault(row["key"][0], []).append(row)
    for q, group in by_q.items():
        moved = [r for r in group if r["moved"]]
        ps = [r["ps"] for r in moved if r["moved"] > 0 and r["ps"]]
        print(f"| {q} | {len(group)} | {sum(r['compared'] for r in group)} "
              f"| {sum(max(r['moved'], 0) for r in group)} "
              f"| {max(ps) if ps else '-'} "
              f"| {max((r['ulps'] for r in moved), default='-')} |")
    moved = [r for r in rows if r["moved"]]
    if moved:
        print("\n| quantity | circuit | model | moved | first moved lines |")
        print("|---|---|---|---|---|")
        for row in moved:
            q, c, m = row["key"]
            lines = "<br>".join(row["lines"][:3])
            print(f"| {q} | {c} | {m} | {row['moved']} | {lines} |")


def _expected(path) -> list:
    if path is None:
        return []
    patterns = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            patterns.append(line)
    return patterns


def _run_side(src: Path, args, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           str(out), "--circuits", ",".join(args.circuits)]
    subprocess.run(cmd, env=env, cwd=str(src.parent), check=True)


def _extract(rev: str, dest: Path) -> Path:
    """``src/`` of ``rev`` under ``dest``, by ``git archive``."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return dest / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="git revision to diff against")
    parser.add_argument("--circuits", default=",".join(CIRCUITS),
                        help="comma-separated packaged circuits "
                             "(default: all ten)")
    parser.add_argument("--expect", help="file of declared moves, one "
                        "quantity/circuit/model pattern per line")
    parser.add_argument("--markdown", action="store_true",
                        help="print the table as Markdown")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.circuits = [c for c in args.circuits.split(",") if c]
    unknown = sorted(set(args.circuits) - set(CIRCUITS))
    if unknown:
        parser.error(f"unknown circuit(s): {', '.join(unknown)}")
    if args.probe is None and args.base is None:
        parser.error("--base is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe is not None:
        with open(args.probe, "wb") as fh:
            pickle.dump(probe(args.circuits, MODELS), fh)
        return 0
    patterns = _expected(args.expect)
    with tempfile.TemporaryDirectory(prefix="answer-diff-") as tmp:
        tmp = Path(tmp)
        try:
            base_src = _extract(args.base, tmp / "base")
            sides = {}
            for side, src in (("base", base_src), ("change", ROOT / "src")):
                print(f"== {side}: {src}", file=sys.stderr, flush=True)
                _run_side(src, args, tmp / f"{side}.pkl")
                with open(tmp / f"{side}.pkl", "rb") as fh:
                    sides[side] = pickle.load(fh)
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rows = compare(sides["base"], sides["change"])
    print_table(rows, args.markdown)
    unexpected = [
        "/".join(r["key"]) for r in rows if r["moved"]
        and not any(fnmatch.fnmatchcase("/".join(r["key"]), p)
                    for p in patterns)
    ]
    if unexpected:
        print(f"\n{len(unexpected)} quantity/circuit/model row(s) moved "
              f"outside --expect: {', '.join(unexpected[:10])}",
              file=sys.stderr)
        return 1
    print(f"\nnothing moved outside --expect "
          f"({sum(r['compared'] for r in rows)} values compared)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

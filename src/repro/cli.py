"""Command-line interface: ``repro-sta`` (or ``python -m repro.cli``).

Subcommands:

* ``sta``   — run static timing analysis on a ``.bench`` netlist and
  print per-output timing windows under the proposed and the pin-to-pin
  delay models;
* ``mc``    — variation-aware Monte Carlo STA: delay distribution,
  slack quantiles, and a per-output criticality histogram;
* ``sim``   — timing-simulate one two-pattern vector;
* ``atpg``  — run the crosstalk-delay-fault ATPG over a random fault
  list, with or without ITR pruning;
* ``characterize`` — build a characterized cell library (parallel,
  cached transistor-level sweeps);
* ``fuzz`` — differential fuzzing of the optimized timing paths against
  their reference implementations, with failure shrinking and replay;
* ``obs``  — inspect, diff, and export metrics traces written with
  ``--trace-json`` (Chrome/Perfetto export, self-time profile,
  Prometheus text exposition, run-provenance manifest);
* ``serve`` — run the timing daemon: warm per-circuit sessions behind
  an asyncio HTTP/JSON API (see :mod:`repro.server`);
* ``client`` — query a running ``serve`` daemon;
* ``bench`` — list the benchmark circuits shipped with the package.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import re
import sys
import time
from pathlib import Path

from .atpg import AtpgConfig, CrosstalkAtpg, generate_fault_list, spice_check
from .characterize import (
    CellLibrary,
    CharacterizationConfig,
    DEFAULT_CELLS,
    DEFAULT_LIBRARY,
    SweepCache,
    characterize_library,
)
from .circuit import (
    ISCAS_PROFILES,
    UnknownCellError,
    load_bench,
    load_packaged_bench,
)
from .fuzz import (
    DEFAULT_ARTIFACT_DIR,
    FuzzConfig,
    ORACLES,
    replay_artifact,
    run_fuzz,
)
from .spice import GateCell
from .tech import GENERIC_05UM
from .models import PinToPinModel, VShapeModel
from .obs import (
    MetricsRegistry,
    current_manifest,
    format_profile,
    format_summary,
    get_registry,
    manifest_from_trace,
    read_trace,
    self_time_profile,
    set_registry,
    set_run_context,
    snapshot_from_trace,
    snapshot_to_prom,
    write_chrome_trace,
    write_trace,
)
from .obs.manifest import MANIFEST_FIELDS, attach_manifest
from .sta import (
    PiStimulus,
    TimingAnalyzer,
    TimingReporter,
    TimingSimulator,
)
from .sta.compile import resolve_cells
from .stat import DEFAULT_BLOCK, MC_MODELS, VariationModel, run_mc

NS = 1e-9

logger = logging.getLogger(__name__)


def _load_circuit(spec: str, corner_set=None):
    """A ``.bench`` path or packaged circuit name as a checked circuit.

    Every subcommand that takes a circuit loads it here, inside the
    ``try`` that turns a bad input into ``error: ...`` and exit status 2.
    A spec that names no existing file is a packaged circuit name,
    unless it has a ``.bench`` suffix or a directory part: then it was
    meant as a file.

    Raises:
        OSError: A missing or unreadable file, or no packaged circuit
            of that name.
        ValueError: Malformed ``.bench`` text, a netlist that reads an
            undriven line or has a combinational cycle, or a gate whose
            cell a library the subcommand runs on lacks
            (:class:`UnknownCellError`, say a 9-input NAND): those of
            ``corner_set`` (see :func:`_corner_set`) when given, the
            packaged library otherwise.  These checks run here, not
            midway through an analysis.
    """
    path = Path(spec)
    if path.exists():
        circuit = load_bench(path)
    elif path.suffix == ".bench" or path.name != spec:
        raise FileNotFoundError(f"no such circuit file: {spec}")
    else:
        circuit = load_packaged_bench(spec)
    circuit.topological_order()
    libraries = (
        corner_set[1] if corner_set is not None
        else [CellLibrary.load_default()]
    )
    for library in libraries:
        resolve_cells(circuit, library)
    return circuit


def _check_positive(flag: str, value) -> None:
    """Reject a clock, period, period fraction, row, fault, gate or
    worker count that is not finite and > 0 before any analysis runs on
    it (the configs check the times and counts again)."""
    if value is not None and not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be finite and > 0, got {value!r}")


def _check_non_negative(flag: str, value) -> None:
    """Reject a sigma, a backtrack limit or a pass or step count that is
    not finite and >= 0 before any analysis runs on it
    (:class:`VariationModel`, :class:`AtpgConfig` and
    :class:`~repro.sta.optimize.SizingConfig` check them again)."""
    if value is not None and not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{flag} must be finite and >= 0, got {value!r}")


def _corner_set(args: argparse.Namespace, library):
    """``(corners, libraries)`` selected by --corners/--corner-library.

    Returns None when neither flag was given (single-corner run).  With
    ``--corner-library`` the names in ``--corners`` select a subset of
    the characterized file; without it, corner libraries are derived
    analytically from ``library`` by the exact time-rescale.
    """
    spec = getattr(args, "corners", None)
    lib_path = getattr(args, "corner_library", None)
    if spec is None and lib_path is None:
        return None
    from .pvt import CornerLibrary, parse_corner_list

    if lib_path is not None:
        corner_lib = CornerLibrary.load(lib_path)
        names = None
        if spec:
            names = [tok.strip() for tok in spec.split(",") if tok.strip()]
        return corner_lib.ordered(names)
    return CornerLibrary.derived(library, parse_corner_list(spec)).ordered()


def _sta_corners(circuit, corner_set, max_outputs: int) -> int:
    """Multi-corner ``sta``: per-corner table plus the merged envelope."""
    from .pvt import CornerAnalyzer

    corners, libraries = corner_set
    result = CornerAnalyzer(circuit, corners, libraries).analyze()
    print(f"{circuit!r}")
    print(f"\nper-corner summary ({len(corners)} corners, one batched "
          "pass; ns):")
    print("  corner          scale    early/late    min-delay  max-delay")
    for corner, res in zip(corners, result.results):
        print(
            f"  {corner.name:<14} {corner.delay_scale():6.3f}  "
            f"{corner.derate_early:5.2f}/{corner.derate_late:<5.2f}  "
            f"{res.output_min_arrival() / NS:9.4f}  "
            f"{res.output_max_arrival() / NS:9.4f}"
        )
    print("\nmerged envelope windows (ns):")
    for po in circuit.outputs[:max_outputs]:
        timing = result.merged.line(po)
        for name, window in (("rise", timing.rise), ("fall", timing.fall)):
            if not window.is_active:
                continue
            print(
                f"  {po:>10} {name}: A=[{window.a_s / NS:7.3f},"
                f" {window.a_l / NS:7.3f}] T=[{window.t_s / NS:6.3f},"
                f" {window.t_l / NS:6.3f}]"
            )
    print("\nmerged summary (ns):")
    print(f"  hold bound (min-delay) : {result.hold_arrival() / NS:.4f}")
    print(f"  setup bound (max-delay): {result.setup_arrival() / NS:.4f}")
    return 0


def _cmd_sta(args: argparse.Namespace) -> int:
    library = CellLibrary.load_default()
    try:
        _check_positive("--max-outputs", args.max_outputs)
        corner_set = _corner_set(args, library)
        circuit = _load_circuit(args.circuit, corner_set)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if corner_set is not None:
        return _sta_corners(circuit, corner_set, args.max_outputs)
    print(f"{circuit!r}")
    rows = []
    for label, model in (("proposed", VShapeModel()),
                         ("pin2pin", PinToPinModel())):
        result = TimingAnalyzer(circuit, library, model).analyze()
        rows.append((label, result))
        print(f"\n[{label}] per-output windows (ns):")
        for po in circuit.outputs[: args.max_outputs]:
            timing = result.line(po)
            for name, window in (("rise", timing.rise), ("fall", timing.fall)):
                if not window.is_active:
                    continue
                print(
                    f"  {po:>10} {name}: A=[{window.a_s / NS:7.3f},"
                    f" {window.a_l / NS:7.3f}] T=[{window.t_s / NS:6.3f},"
                    f" {window.t_l / NS:6.3f}]"
                )
    proposed, pin2pin = rows[0][1], rows[1][1]
    print("\nsummary (ns):")
    print(f"  min-delay proposed : {proposed.output_min_arrival() / NS:.4f}")
    print(f"  min-delay pin2pin  : {pin2pin.output_min_arrival() / NS:.4f}")
    # A primary output wired straight to a primary input has a min
    # delay of 0 under both models; the ratio is undefined there.
    floor = proposed.output_min_arrival()
    ratio = (
        f"{pin2pin.output_min_arrival() / floor:.3f}" if floor else "n/a"
    )
    print(f"  ratio              : {ratio}")
    print(f"  max-delay (both)   : {proposed.output_max_arrival() / NS:.4f}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .sta.optimize import SizingConfig, optimize_sizing

    library = CellLibrary.load_default()
    try:
        _check_non_negative("--passes", args.passes)
        _check_positive("--gates-per-pass", args.gates_per_pass)
        _check_non_negative("--anneal", args.anneal)
        corner_set = _corner_set(args, library)
        circuit = _load_circuit(args.circuit, corner_set)
        sizes = tuple(
            float(tok) for tok in args.sizes.split(",") if tok.strip()
        )
        config = SizingConfig(
            sizes=sizes,
            max_passes=args.passes,
            gates_per_pass=args.gates_per_pass,
            clock=args.clock * NS if args.clock is not None else None,
            cost=args.cost,
            anneal_steps=args.anneal,
            seed=args.seed,
            mc_samples=args.mc_samples,
        )
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sizing_library = library
    if corner_set is not None:
        # Size against the slowest corner — the one that sets WNS — and
        # report the sized netlist across the whole set afterwards.
        corners, corner_libraries = corner_set
        worst = max(
            range(len(corners)), key=lambda i: corners[i].delay_scale()
        )
        sizing_library = corner_libraries[worst]
        print(
            f"sizing at worst corner {corners[worst].name!r} "
            f"(delay scale {corners[worst].delay_scale():.3f})"
        )
    result = optimize_sizing(circuit, sizing_library, config=config)
    print(result.format())
    if corner_set is not None:
        from .pvt import CornerAnalyzer

        signoff = CornerAnalyzer(circuit, corners, corner_libraries).analyze()
        print("post-sizing per-corner bounds (ns):")
        for corner, res in zip(corners, signoff.results):
            print(
                f"  {corner.name:<14} min {res.output_min_arrival() / NS:8.4f}"
                f"   max {res.output_max_arrival() / NS:8.4f}"
            )
    trial_s = get_registry().histogram("sta.incr.trial_s")
    trials = get_registry().counter("sta.incr.trials").value
    if trials and trial_s.count:
        print(
            f"  trial cost    : {trial_s.total / trials * 1e3:.2f} ms/edit "
            f"({trials} trials in {trial_s.count} batches)"
        )
    if args.json:
        Path(args.json).write_text(
            json.dumps(result.to_dict(), indent=2) + "\n"
        )
        print(f"wrote {args.json}")
    # Degrading WNS is a bug (greedy only commits improvements and SA
    # restores the best state); surface it as a failure for CI.
    return 0 if result.final_wns >= result.initial_wns else 1


def _parse_quantiles(spec: str) -> tuple:
    qs = tuple(float(tok) for tok in spec.split(",") if tok.strip())
    if not qs or any(not 0.0 < q < 1.0 for q in qs):
        raise ValueError(f"quantiles must lie in (0, 1): {spec!r}")
    return tuple(sorted(qs))


def _mc_corners(circuit, corner_set, variation, qs, args) -> int:
    """Monte Carlo at every corner: one row per corner, worst last."""
    corners, libraries = corner_set
    period = args.period * NS if args.period is not None else None
    print(f"{circuit!r}")
    print(
        f"monte carlo [{args.model}] x {len(corners)} corners: "
        f"{args.samples} samples, seed={args.seed}, "
        f"sigma=({variation.sigma_corr:g} corr, "
        f"{variation.sigma_ind:g} ind)"
    )
    header = "  corner          nominal     mean" + "".join(
        f"   q{q:<6g}" for q in qs
    )
    print(header + "   (ns)")
    summaries = {}
    for corner, lib in zip(corners, libraries):
        result = run_mc(
            circuit,
            library=lib,
            model=args.model,
            variation=variation,
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
            block=args.block,
            derate=corner.derates,
        )
        summary = result.summary(qs, period)
        summaries[corner.name] = summary
        cells = "".join(
            f"  {summary['quantiles_s'][str(q)] / NS:7.4f}" for q in qs
        )
        print(
            f"  {corner.name:<14} {result.nominal_max / NS:7.4f}  "
            f"{result.delay.mean() / NS:7.4f}{cells}"
        )
    if args.json:
        document = {"corners": summaries}
        attach_manifest(
            document,
            current_manifest(
                seeds=[args.seed], circuit=circuit.name, jobs=args.jobs
            ),
        )
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    try:
        corner_set = (
            _corner_set(args, CellLibrary.load_default())
            if args.corners or args.corner_library else None
        )
        circuit = _load_circuit(args.circuit, corner_set)
        qs = _parse_quantiles(args.quantiles)
        _check_positive("--period", args.period)
        _check_positive("--max-outputs", args.max_outputs)
        _check_positive("--jobs", args.jobs)
        _check_non_negative("--sigma", args.sigma)
        _check_non_negative("--sigma-corr", args.sigma_corr)
        _check_non_negative("--sigma-ind", args.sigma_ind)
        variation = VariationModel(
            sigma_corr=(
                args.sigma_corr if args.sigma_corr is not None
                else args.sigma
            ),
            sigma_ind=(
                args.sigma_ind if args.sigma_ind is not None else args.sigma
            ),
        )
        if corner_set is not None:
            return _mc_corners(circuit, corner_set, variation, qs, args)
        result = run_mc(
            circuit,
            model=args.model,
            variation=variation,
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
            block=args.block,
        )
        period = args.period * NS if args.period is not None else None
        summary = result.summary(qs, period)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    delay = result.delay
    print(f"{circuit!r}")
    print(
        f"monte carlo [{args.model}]: {args.samples} samples, "
        f"seed={args.seed}, block={args.block}, "
        f"sigma=({variation.sigma_corr:g} corr, "
        f"{variation.sigma_ind:g} ind)"
    )
    print(f"  nominal max-delay : {result.nominal_max / NS:8.4f} ns")
    print(
        f"  sampled max-delay : {delay.mean() / NS:8.4f} ns mean, "
        f"{delay.std() / NS:.4f} ns std, "
        f"[{delay.min() / NS:.4f}, {delay.max() / NS:.4f}] range"
    )
    for q in qs:
        print(
            f"  q{q:<5g}: delay {summary['quantiles_s'][str(q)] / NS:8.4f}"
            f" ns   slack {summary['slack_quantiles_s'][str(q)] / NS:+8.4f}"
            f" ns"
        )
    print(f"  period            : {summary['period_s'] / NS:8.4f} ns")
    print("  criticality (top endpoints):")
    ranked = sorted(
        result.criticality().items(), key=lambda kv: -kv[1]
    )
    for name, frac in ranked[: args.max_outputs]:
        if frac == 0.0:
            break
        print(f"    {name:>12}: {100 * frac:6.2f}%")
    if args.json:
        attach_manifest(
            summary,
            current_manifest(
                seeds=[args.seed],
                circuit=circuit.name,
                jobs=args.jobs,
            ),
        )
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    try:
        circuit = _load_circuit(args.circuit)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    library = CellLibrary.load_default()
    v1, v2 = args.v1, args.v2
    if len(v1) != len(circuit.inputs) or len(v2) != len(circuit.inputs):
        print(
            f"error: vectors must have {len(circuit.inputs)} bits "
            f"(inputs: {', '.join(circuit.inputs)})",
            file=sys.stderr,
        )
        return 2
    try:
        stimuli = {
            pi: PiStimulus(int(a), int(b))
            for pi, a, b in zip(circuit.inputs, v1, v2)
        }
    except ValueError:
        print(f"error: vectors must be strings of 0 and 1 bits, got "
              f"{v1!r} and {v2!r}", file=sys.stderr)
        return 2
    result = TimingSimulator(circuit, library).run(stimuli)
    print("line          v1 v2  arrival(ns)  trans(ns)")
    for line in circuit.inputs + circuit.topological_order():
        event = result.events[line]
        mark = "*" if line in circuit.outputs else " "
        if event is None:
            print(f"{line:>12}{mark} {result.values1[line]}  "
                  f"{result.values2[line]}   (static)")
        else:
            print(
                f"{line:>12}{mark} {result.values1[line]}  "
                f"{result.values2[line]}   {event.arrival / NS:9.4f}   "
                f"{event.trans / NS:7.4f}"
            )
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    try:
        circuit = _load_circuit(args.circuit)
        _check_positive("--period-fraction", args.period_fraction)
        _check_positive("--faults", args.faults)
        _check_positive("--jobs", args.jobs)
        _check_non_negative("--backtrack-limit", args.backtrack_limit)
        faults = generate_fault_list(
            circuit, args.faults, seed=args.seed,
            delta=args.delta * NS, window=args.window * NS,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    library = CellLibrary.load_default()
    probe = CrosstalkAtpg(circuit, library, config=AtpgConfig())
    period = probe._sta.output_max_arrival() * args.period_fraction
    try:
        configs = [
            AtpgConfig(
                use_itr=use_itr,
                backtrack_limit=args.backtrack_limit,
                period=period,
            )
            for use_itr in ((True, False) if args.compare else (args.itr,))
        ]
    except ValueError as exc:
        print(f"error: --period-fraction {args.period_fraction}: {exc}",
              file=sys.stderr)
        return 2
    for config in configs:
        atpg = CrosstalkAtpg(circuit, library, config=config)
        summary = atpg.run_all(faults, jobs=args.jobs)
        label = "with ITR" if config.use_itr else "no ITR  "
        print(
            f"{label}: detected={summary.count('detected'):3d} "
            f"untestable={summary.count('untestable'):3d} "
            f"aborted={summary.count('aborted'):3d} "
            f"efficiency={100 * summary.efficiency:6.2f}%"
        )
        stats = summary.stats
        logger.info(
            "    effort: decisions=%d backtracks=%d itr_prunes=%d",
            stats.decisions, stats.backtracks, stats.itr_prunes,
        )
        if args.spice_check and config.use_itr:
            _spice_check_vectors(atpg, summary, args.spice_check)
    return 0


def _spice_check_vectors(atpg, summary, limit: int) -> None:
    """Cross-check up to ``limit`` detected vectors at transistor level."""
    checked = 0
    for res in summary.results:
        if res.vector is None:
            continue
        sim = TimingSimulator(
            atpg.circuit, atpg.library, atpg.model, atpg.sta_config
        ).run(res.vector)
        check = spice_check(
            atpg.circuit, sim, res.fault.victim,
            load_cap=atpg.engine.analyzer.load(res.fault.victim),
        )
        if check is None:
            continue
        print(
            f"  spice check {check.victim} ({check.cell}): "
            f"model {check.model_arrival / NS:.4f} ns, "
            f"spice {check.spice_arrival / NS:.4f} ns, "
            f"err {check.error / NS:+.4f} ns "
            f"({100 * check.rel_error:.1f}%)"
        )
        checked += 1
        if checked >= limit:
            break
    if not checked:
        print("  spice check: no detected vector applicable")


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        _check_positive("--worst", args.worst)
        circuit = _load_circuit(args.circuit)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    library = CellLibrary.load_default()
    analyzer = TimingAnalyzer(circuit, library, VShapeModel())
    result = analyzer.analyze()
    reporter = TimingReporter(analyzer, result)
    print(reporter.critical_path().format())
    print()
    print(reporter.shortest_path().format())
    required = analyzer.compute_required(result)
    print("\nworst setup endpoints (ns):")
    for line, direction, a_l, q_l, slack in reporter.slack_table(
        required, worst=args.worst
    ):
        print(
            f"  {line:>12} {direction}  arrival {a_l / NS:8.4f}  "
            f"required {q_l / NS:8.4f}  slack {slack / NS:+8.4f}"
        )
    return 0


def _packaged_library_path() -> Path:
    """Where the library shipped inside the package lives."""
    return Path(__file__).resolve().parent / "data" / DEFAULT_LIBRARY


def _parse_cells(spec: str) -> tuple:
    """Parse ``inv,nand2,nor3`` into ((kind, n_inputs), ...).

    A spec without a fan-in digit gets the cell family's natural one
    (1 for inv/buf, 2 otherwise).  Raises ValueError on unknown kinds
    or unsupported fan-ins (via GateCell validation).
    """
    cells = []
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        match = re.fullmatch(r"([a-z]+?)(\d+)?", token)
        if match is None:
            raise ValueError(f"malformed cell spec {token!r}")
        kind = match.group(1)
        if match.group(2) is not None:
            n_inputs = int(match.group(2))
        else:
            n_inputs = 1 if kind in ("inv", "buf") else 2
        GateCell(kind, n_inputs)  # validates kind and fan-in
        cells.append((kind, n_inputs))
    if not cells:
        raise ValueError("empty cell list")
    return tuple(cells)


def _parse_grid_ns(spec: str) -> tuple:
    """Parse a comma-separated list of transition times in ns to seconds."""
    values = tuple(float(tok) * NS for tok in spec.split(",") if tok.strip())
    if not values:
        raise ValueError("empty grid")
    return values


def _cmd_characterize(args: argparse.Namespace) -> int:
    try:
        cells = _parse_cells(args.cells) if args.cells else DEFAULT_CELLS
        config = CharacterizationConfig()
        overrides = {}
        if args.t_grid:
            overrides["t_grid"] = _parse_grid_ns(args.t_grid)
        if args.pair_t_grid:
            overrides["pair_t_grid"] = _parse_grid_ns(args.pair_t_grid)
        if args.skews_per_side is not None:
            overrides["skews_per_side"] = args.skews_per_side
        if overrides:
            config = dataclasses.replace(config, **overrides)
        corners = None
        if args.corners:
            from .pvt import parse_corner_list

            corners = parse_corner_list(args.corners)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None
    if args.cache:
        cache = SweepCache(args.cache_dir) if args.cache_dir else SweepCache()
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if corners is not None:
        from .pvt import characterize_corners

        out_path = Path(args.out) if args.out else Path("corner_library.json")
        started = time.perf_counter()
        corner_lib = characterize_corners(
            corners, GENERIC_05UM, cells, config, verbose=True,
            jobs=jobs, cache=cache, force=args.force,
        )
        corner_lib.save(out_path)
        n_cells = len(corner_lib.library(corner_lib.default_corner).cells)
        print(
            f"wrote {out_path} ({len(corners)} corners x {n_cells} cells, "
            f"{round(time.perf_counter() - started, 1)} s, jobs={jobs}"
            + (f", cache={cache.root}" if cache is not None else "")
            + ")"
        )
        return 0
    out_path = Path(args.out) if args.out else _packaged_library_path()
    started = time.perf_counter()
    library = characterize_library(
        GENERIC_05UM, cells, config, verbose=True,
        jobs=jobs, cache=cache, force=args.force,
    )
    library.meta["build_seconds"] = round(time.perf_counter() - started, 1)
    library.save(out_path)
    print(
        f"wrote {out_path} ({len(library.cells)} cells, "
        f"{library.meta['build_seconds']} s, jobs={jobs}"
        + (f", cache={cache.root}" if cache is not None else "")
        + ")"
    )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.list_oracles:
        print("registered differential oracles:")
        for name, oracle in ORACLES.items():
            cap = (
                f" (max {oracle.max_cases}/run)"
                if oracle.max_cases is not None else ""
            )
            print(f"  {name:<10} {oracle.description}{cap}")
        return 0
    if args.replay:
        try:
            case, result = replay_artifact(Path(args.replay))
        except (KeyError, ValueError) as exc:
            # An unreadable file or a non-artifact (ArtifactError is a
            # ValueError), or a case this build cannot run: an
            # unregistered oracle or an unknown case field.
            print(f"error: {exc.args[0] if exc.args else exc}",
                  file=sys.stderr)
            return 2
        status = "ok" if result.ok else "STILL FAILING"
        print(f"replay {case.describe()}: {status}")
        if result.detail:
            print(f"  {result.detail}")
        return 0 if result.ok else 1
    oracles = None
    if args.oracles:
        oracles = tuple(
            tok.strip() for tok in args.oracles.split(",") if tok.strip()
        )
    cases = args.cases
    if cases is None and args.time_budget is None:
        cases = 50
    try:
        _check_positive("--jobs", args.jobs)
        config = FuzzConfig(
            oracles=oracles,
            cases=cases,
            seed=args.seed,
            time_budget=args.time_budget,
            jobs=args.jobs,
            artifact_dir=Path(args.artifact_dir),
            shrink=args.shrink,
        )
        report = run_fuzz(config)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.format_summary())
    return 0 if report.ok else 1


def _format_snapshot(snapshot: dict) -> str:
    """Fixed-width rendering of a trace's metric snapshot."""
    lines = ["== metrics =="]
    for kind in ("counters", "gauges"):
        table = snapshot.get(kind) or {}
        if table:
            lines.append(f"{kind}:")
            width = max(len(name) for name in table)
            for name, value in sorted(table.items()):
                lines.append(f"  {name:<{width}}  {value}")
    histograms = snapshot.get("histograms") or {}
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name, digest in sorted(histograms.items()):
            extra = (
                f"  overflow={digest['overflow']}"
                if digest.get("overflow") else ""
            )
            lines.append(
                f"  {name:<{width}}  n={digest['count']}"
                f"  mean={digest['mean']:.6g}  p50={digest['p50']:.6g}"
                f"  p90={digest['p90']:.6g}  max={digest['max']:.6g}"
                f"  total={digest['total']:.6g}{extra}"
            )
    if len(lines) == 1:
        lines.append("(no metrics recorded)")
    return "\n".join(lines)


def _format_manifest(manifest) -> str:
    if not manifest:
        return "run manifest: (absent — version-1 trace)"
    lines = ["run manifest:"]
    width = max(len(field) for field in MANIFEST_FIELDS)
    for field in MANIFEST_FIELDS:
        value = manifest.get(field)
        if field == "args" and value is not None:
            value = " ".join(value)
        lines.append(f"  {field:<{width}}  {value}")
    return "\n".join(lines)


def _obs_show(args: argparse.Namespace, events: list) -> int:
    print(_format_manifest(manifest_from_trace(events)))
    print()
    print(_format_snapshot(snapshot_from_trace(events)))
    profile = self_time_profile(events, top_k=args.top)
    print()
    print(f"self-time profile (top {args.top} by exclusive time):")
    print(format_profile(profile))
    return 0


def _obs_diff(args: argparse.Namespace, events: list) -> int:
    if args.other is None:
        print("error: obs diff needs two trace files", file=sys.stderr)
        return 2
    try:
        other_events = read_trace(Path(args.other))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.other}: {exc}",
              file=sys.stderr)
        return 2
    old = snapshot_from_trace(events)
    new = snapshot_from_trace(other_events)
    printed = False
    for kind, describe in (
        ("counters", lambda v: v),
        ("gauges", lambda v: v),
        ("histograms", lambda v: (v or {}).get("count", 0)),
    ):
        a, b = old.get(kind) or {}, new.get(kind) or {}
        rows = []
        for name in sorted(set(a) | set(b)):
            va, vb = describe(a.get(name)), describe(b.get(name))
            if va != vb:
                delta = ""
                if isinstance(va, (int, float)) and isinstance(
                    vb, (int, float)
                ):
                    delta = f"  ({vb - va:+g})"
                rows.append(f"  {name}: {va} -> {vb}{delta}")
        if rows:
            label = (
                f"{kind} (by count)" if kind == "histograms" else kind
            )
            print(f"{label}:")
            print("\n".join(rows))
            printed = True
    man_a = manifest_from_trace(events) or {}
    man_b = manifest_from_trace(other_events) or {}
    man_rows = [
        f"  {field}: {man_a.get(field)} -> {man_b.get(field)}"
        for field in MANIFEST_FIELDS
        if field not in ("wall_s", "started_unix")
        and man_a.get(field) != man_b.get(field)
    ]
    if man_rows:
        print("manifest:")
        print("\n".join(man_rows))
        printed = True
    if not printed:
        print("traces are metric-identical")
    return 0


def _obs_export_chrome(args: argparse.Namespace, events: list) -> int:
    out = (
        Path(args.out)
        if args.out
        else Path(args.trace).with_suffix(".chrome.json")
    )
    write_chrome_trace(events, out, manifest=manifest_from_trace(events))
    lanes = sorted({e.get("lane", 0) for e in events
                    if e.get("type") == "span"})
    print(
        f"wrote {out} ({len(lanes)} lane"
        f"{'s' if len(lanes) != 1 else ''}; load it at "
        "https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    try:
        events = read_trace(Path(args.trace))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    if args.action == "show":
        return _obs_show(args, events)
    if args.action == "diff":
        return _obs_diff(args, events)
    if args.action == "export-chrome":
        return _obs_export_chrome(args, events)
    print(snapshot_to_prom(snapshot_from_trace(events)), end="")
    return 0


def _cmd_bench(_args: argparse.Namespace) -> int:
    print("packaged benchmark circuits:")
    print("  c17      (real ISCAS85 netlist)")
    for name, profile in ISCAS_PROFILES.items():
        print(
            f"  {name:<8} (synthetic: {profile['inputs']} PIs, "
            f"{profile['outputs']} POs, {profile['gates']} gates)"
        )
    return 0


def _global_flags() -> argparse.ArgumentParser:
    """Flags accepted both before and after the subcommand.

    ``argparse.SUPPRESS`` defaults let the same flag live on the main
    parser and on every subparser: whichever parser actually sees the
    flag sets the attribute, and nobody overwrites it with a default.
    ``main`` reads the attributes with ``getattr(..., fallback)``.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--stats", action="store_true", default=argparse.SUPPRESS,
        help="print an instrumentation summary after the command",
    )
    common.add_argument(
        "--trace-json", metavar="PATH", default=argparse.SUPPRESS,
        help="write a JSON-lines metrics trace to PATH",
    )
    common.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help="increase diagnostic verbosity (-v info, -vv debug)",
    )
    return common


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import ServerConfig, run_server

    try:
        circuits = {}
        for spec in args.circuits:
            circuit = _load_circuit(spec)
            circuits[circuit.name] = circuit
        config = ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_limit=args.queue_limit,
            request_timeout=args.timeout,
            max_batch=args.max_batch,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # /metrics needs a live registry whether or not --stats was given;
    # keep an outer --stats registry if main() installed one.
    if not get_registry().enabled:
        set_registry(MetricsRegistry())
    return run_server(circuits, config)


def _cmd_client(args: argparse.Namespace) -> int:
    from .server.client import ServerClient

    client = ServerClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.method == "healthz":
            print(json.dumps(client.healthz(), indent=2, sort_keys=True))
            return 0
        if args.method == "metrics":
            print(client.metrics(), end="")
            return 0
        if args.method == "shutdown":
            print(json.dumps(client.shutdown(), indent=2, sort_keys=True))
            return 0
        if args.circuit is None:
            print(
                f"error: {args.method} needs a circuit argument",
                file=sys.stderr,
            )
            return 2
        try:
            params = json.loads(args.params) if args.params else {}
        except json.JSONDecodeError as exc:
            print(
                f"error: --params is not valid JSON: {exc}", file=sys.stderr
            )
            return 2
        response = client.query(
            args.circuit, args.method, params,
            timeout_s=args.request_timeout,
        )
        response.pop("_status", None)
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 1
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    finally:
        client.close()


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="repro-sta",
        description=(
            "Simultaneous-switching delay model toolkit "
            "(DAC 2001 reproduction)"
        ),
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sta = sub.add_parser("sta", help="static timing analysis",
                         parents=[common])
    sta.add_argument("circuit", help=".bench path or packaged name (c17...)")
    sta.add_argument("--max-outputs", type=int, default=8)
    sta.add_argument("--corners", default=None, metavar="SPEC,...",
                     help="PVT corners to analyze in one batched pass "
                     "(standard names like typ,fast,slow, or inline "
                     "name:vdd=3.0:temp=125:late=1.05 specs; with "
                     "--corner-library, a name subset of the file)")
    sta.add_argument("--corner-library", default=None, metavar="PATH",
                     help="characterized multi-corner library JSON "
                     "(default: corners derived analytically from the "
                     "packaged library)")
    sta.set_defaults(func=_cmd_sta)

    opt = sub.add_parser(
        "optimize",
        help="timing-driven gate sizing over the incremental engine",
        parents=[common],
    )
    opt.add_argument("circuit", help=".bench path or packaged name (c17...)")
    opt.add_argument("--sizes", default="0.5,0.7,1.0,1.4,2.0,2.8,4.0,5.7",
                     metavar="X,...", help="candidate drive strengths")
    opt.add_argument("--passes", type=int, default=8,
                     help="greedy critical-path passes (default: 8)")
    opt.add_argument("--gates-per-pass", type=int, default=8, metavar="N",
                     help="critical-path gates examined per pass")
    opt.add_argument("--clock", type=float, default=None, metavar="NS",
                     help="required time, ns (default: the initial max "
                          "arrival, so WNS starts at zero)")
    opt.add_argument("--cost", choices=("wns", "tns", "mc_q95"),
                     default="wns", help="objective (default: wns)")
    opt.add_argument("--anneal", type=int, default=0, metavar="STEPS",
                     help="simulated-annealing refinement steps "
                          "(default: 0, disabled)")
    opt.add_argument("--seed", type=int, default=0,
                     help="RNG seed for the annealing proposals")
    opt.add_argument("--mc-samples", type=int, default=96, metavar="N",
                     help="Monte Carlo samples for --cost mc_q95")
    opt.add_argument("--corners", default=None, metavar="SPEC,...",
                     help="size at the slowest of these PVT corners and "
                     "report the sized netlist across all of them")
    opt.add_argument("--corner-library", default=None, metavar="PATH",
                     help="characterized multi-corner library JSON")
    opt.add_argument("--json", default=None, metavar="PATH",
                     help="write the JSON summary to PATH")
    opt.set_defaults(func=_cmd_optimize)

    mc = sub.add_parser(
        "mc",
        help="variation-aware Monte Carlo STA",
        parents=[common],
    )
    mc.add_argument("circuit", help=".bench path or packaged name (c17...)")
    mc.add_argument("--samples", type=int, default=256, metavar="N",
                    help="Monte Carlo samples (default: 256)")
    mc.add_argument("--seed", type=int, default=0,
                    help="master RNG seed; with --block it fully "
                         "determines every draw")
    mc.add_argument("--sigma", type=float, default=0.05,
                    help="relative sigma applied to both variation "
                         "components (default: 0.05)")
    mc.add_argument("--sigma-corr", type=float, default=None,
                    metavar="S", help="override the per-cell-type "
                    "correlated sigma")
    mc.add_argument("--sigma-ind", type=float, default=None,
                    metavar="S", help="override the per-gate "
                    "independent sigma")
    mc.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes over sample blocks "
                         "(results are bit-identical at any value)")
    mc.add_argument("--block", type=int, default=DEFAULT_BLOCK,
                    metavar="B", help="sample-block size; part of the "
                    "draw identity alongside --seed "
                    f"(default: {DEFAULT_BLOCK})")
    mc.add_argument("--quantiles", default="0.5,0.95,0.99",
                    metavar="Q,...", help="delay/slack quantiles to "
                    "report (default: 0.5,0.95,0.99)")
    mc.add_argument("--model", choices=sorted(MC_MODELS),
                    default="vshape", help="delay model (default: vshape)")
    mc.add_argument("--period", type=float, default=None, metavar="NS",
                    help="clock period for slack, ns (default: the "
                         "nominal STA max arrival)")
    mc.add_argument("--max-outputs", type=int, default=8,
                    help="criticality table rows to print")
    mc.add_argument("--corners", default=None, metavar="SPEC,...",
                    help="run the Monte Carlo at each of these PVT "
                    "corners (per-corner library and derates)")
    mc.add_argument("--corner-library", default=None, metavar="PATH",
                    help="characterized multi-corner library JSON")
    mc.add_argument("--json", default=None, metavar="PATH",
                    help="write the JSON summary to PATH")
    mc.set_defaults(func=_cmd_mc)

    sim = sub.add_parser("sim", help="two-pattern timing simulation",
                         parents=[common])
    sim.add_argument("circuit")
    sim.add_argument("v1", help="first-frame input bits, PI order")
    sim.add_argument("v2", help="second-frame input bits")
    sim.set_defaults(func=_cmd_sim)

    atpg = sub.add_parser("atpg", help="crosstalk delay-fault ATPG",
                          parents=[common])
    atpg.add_argument("circuit")
    atpg.add_argument("--faults", type=int, default=20)
    atpg.add_argument("--seed", type=int, default=1)
    atpg.add_argument("--delta", type=float, default=0.4,
                      help="crosstalk extra delay, ns")
    atpg.add_argument("--window", type=float, default=0.12,
                      help="alignment window, ns (tight enough that ITR "
                           "has timing-infeasible branches to prune)")
    atpg.add_argument("--period-fraction", type=float, default=0.85,
                      help="clock period as a fraction of STA max delay")
    atpg.add_argument("--backtrack-limit", type=int, default=48)
    atpg.add_argument("--itr", action="store_true", default=True)
    atpg.add_argument("--no-itr", dest="itr", action="store_false")
    atpg.add_argument("--compare", action="store_true",
                      help="run both with and without ITR")
    atpg.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the fault list "
                           "(1 = serial; results are identical either way)")
    atpg.add_argument("--spice-check", type=int, default=3, metavar="N",
                      help="cross-check up to N detected vectors at "
                           "transistor level (0 disables)")
    atpg.add_argument("--no-spice-check", dest="spice_check",
                      action="store_const", const=0)
    atpg.set_defaults(func=_cmd_atpg)

    char = sub.add_parser(
        "characterize",
        help="build a characterized cell library (parallel, cached sweeps)",
        parents=[common],
    )
    char.add_argument(
        "-o", "--out", default=None, metavar="PATH",
        help="output library JSON (default: the packaged "
             f"src/repro/data/{DEFAULT_LIBRARY})",
    )
    char.add_argument(
        "--cells", default=None, metavar="SPEC,...",
        help="comma-separated cells, e.g. inv,nand2,nor3 "
             "(default: the full library set)",
    )
    char.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweeps "
             "(default: all CPUs; 1 = serial)",
    )
    char.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep cache location (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-char)",
    )
    char.add_argument(
        "--no-cache", dest="cache", action="store_false", default=True,
        help="disable the on-disk sweep cache",
    )
    char.add_argument(
        "--force", action="store_true",
        help="re-run sweeps even when cached (fresh results are "
             "written back)",
    )
    char.add_argument(
        "--t-grid", default=None, metavar="NS,...",
        help="override the pin-to-pin transition-time grid, in ns",
    )
    char.add_argument(
        "--pair-t-grid", default=None, metavar="NS,...",
        help="override the simultaneous-pair transition-time grid, in ns",
    )
    char.add_argument(
        "--skews-per-side", type=int, default=None, metavar="K",
        help="override the skew samples per side of zero",
    )
    char.add_argument(
        "--corners", default=None, metavar="SPEC,...",
        help="characterize one K-coefficient set per PVT corner and "
             "write a multi-corner library (default output: "
             "corner_library.json)",
    )
    char.set_defaults(func=_cmd_characterize)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of fast paths against references",
        parents=[common],
    )
    fuzz.add_argument(
        "--oracles", default=None, metavar="NAME,...",
        help="comma-separated oracle names (default: all registered; "
             "see --list-oracles)",
    )
    fuzz.add_argument(
        "--cases", type=int, default=None, metavar="N",
        help="total cases to schedule (default: 50, or unbounded when "
             "--time-budget is set)",
    )
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; fully determines every case")
    fuzz.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop scheduling new cases after this much wall-clock time",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = serial; the schedule is identical)",
    )
    fuzz.add_argument(
        "--artifact-dir", default=str(DEFAULT_ARTIFACT_DIR), metavar="DIR",
        help="where failure artifacts are written "
             f"(default: {DEFAULT_ARTIFACT_DIR})",
    )
    fuzz.add_argument(
        "--no-shrink", dest="shrink", action="store_false", default=True,
        help="write failing cases as-is, without minimization",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="PATH",
        help="re-run one failure artifact instead of fuzzing",
    )
    fuzz.add_argument(
        "--list-oracles", action="store_true",
        help="list the registered differential oracles and exit",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    obs = sub.add_parser(
        "obs",
        help="inspect, diff, and export --trace-json metric traces",
        parents=[common],
    )
    obs.add_argument(
        "action", choices=("show", "diff", "export-chrome", "prom"),
        help="show: manifest + metrics + self-time profile; "
             "diff: metric deltas between two traces; "
             "export-chrome: Perfetto-loadable trace-event JSON; "
             "prom: Prometheus text exposition",
    )
    obs.add_argument("trace", help="JSON-lines trace from --trace-json")
    obs.add_argument("other", nargs="?", default=None,
                     help="second trace (diff only)")
    obs.add_argument("-o", "--out", default=None, metavar="PATH",
                     help="export-chrome output path "
                          "(default: TRACE with .chrome.json suffix)")
    obs.add_argument("--top", type=int, default=10, metavar="K",
                     help="self-time profile rows (default: 10)")
    obs.set_defaults(func=_cmd_obs)

    serve = sub.add_parser(
        "serve",
        help="timing-as-a-service daemon: warm sessions over HTTP/JSON",
        parents=[common],
    )
    serve.add_argument(
        "circuits", nargs="+", metavar="CIRCUIT",
        help=".bench paths or packaged names to load and keep warm",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8173,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8173)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="shard worker processes; circuits are "
                            "assigned to shards deterministically "
                            "(default: 0 — in-process sessions)")
    serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                       help="pending requests per circuit before the "
                            "daemon answers 'overloaded' (default: 64)")
    serve.add_argument("--timeout", type=float, default=30.0, metavar="S",
                       help="server-side cap on any request's wait "
                            "(default: 30)")
    serve.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="cap on /v1/batch size and what-if edits "
                            "per request (default: 32)")
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="query a running serve daemon",
        parents=[common],
    )
    client.add_argument(
        "method",
        choices=("windows", "slack", "path", "mc", "whatif", "corners",
                 "healthz", "metrics", "shutdown"),
        help="query method, or a daemon endpoint "
             "(healthz/metrics/shutdown)",
    )
    client.add_argument("circuit", nargs="?", default=None,
                        help="circuit name (query methods only)")
    client.add_argument("--params", default=None, metavar="JSON",
                        help="method params as a JSON object")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8173)
    client.add_argument("--timeout", type=float, default=60.0, metavar="S",
                        help="socket timeout (default: 60)")
    client.add_argument("--request-timeout", type=float, default=None,
                        metavar="S", dest="request_timeout",
                        help="server-side per-request timeout to ask for")
    client.set_defaults(func=_cmd_client)

    report = sub.add_parser("report", help="critical/shortest path report",
                            parents=[common])
    report.add_argument("circuit")
    report.add_argument("--worst", type=int, default=10)
    report.set_defaults(func=_cmd_report)

    bench = sub.add_parser("bench", help="list packaged benchmarks",
                           parents=[common])
    bench.set_defaults(func=_cmd_bench)
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run one subcommand.  :func:`_load_circuit` checks the circuit's
    cells against the libraries the subcommand runs on; a missing cell
    that surfaces later anyway is an input error too."""
    try:
        return args.func(args)
    except UnknownCellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    set_run_context(
        command=f"repro-sta {args.command}",
        args=list(argv) if argv is not None else sys.argv[1:],
    )
    verbosity = min(getattr(args, "verbose", 0), 2)
    logging.basicConfig(
        level=(logging.WARNING, logging.INFO, logging.DEBUG)[verbosity],
        format="%(message)s",
        force=True,
    )
    stats = getattr(args, "stats", False)
    trace_path = getattr(args, "trace_json", None)
    if not stats and trace_path is None:
        return _run(args)
    registry = MetricsRegistry()
    previous = get_registry()
    set_registry(registry)
    try:
        with registry.span(f"cli.{args.command}"):
            status = _run(args)
    finally:
        set_registry(previous)
        if trace_path is not None:
            write_trace(
                registry,
                trace_path,
                manifest=current_manifest(
                    seeds=(
                        [args.seed]
                        if getattr(args, "seed", None) is not None
                        else None
                    ),
                    circuit=getattr(args, "circuit", None),
                    jobs=getattr(args, "jobs", None),
                ),
            )
        if stats:
            print()
            print(format_summary(registry))
    return status


if __name__ == "__main__":
    raise SystemExit(main())

"""Differential oracles: each pairs a fast path with its reference.

An oracle is a named check over one :class:`~repro.fuzz.case.FuzzCase`.
The registered set covers every optimization the perf PRs introduced,
plus a physical ground-truth check.  The references are the scalar
walks of :class:`~repro.sta.analysis.TimingAnalyzer`:
``analyze_per_gate`` (plain, with per-gate variation factors, or with
corner derates) and ``compute_required_per_gate``.

* ``level``     — the level-compiled structure-of-arrays pass
  (``TimingAnalyzer.analyze``) vs. the scalar per-gate walk, and its
  backward pass (``compute_required``, at the default and a
  setup+hold clock) vs. the per-gate backward walk, bit for bit; every
  output's latest and earliest path then traces on the compiled result;
* ``incremental`` — cone-limited re-timing, ``try_edits`` trial
  batches and ``commit`` of a trial column vs. a fresh scalar analysis
  after every edit of a random mutation sequence (cone replay on the
  compiled sweep, over a patched compile or through a recompile), bit
  for bit;
* ``itr``       — cone-limited incremental refinement under a random
  decision sequence vs. a full refinement of the same assignment, and
  the all-unspecified refinement vs. the scalar walk, bit for bit;
* ``atpg-jobs`` — fault-parallel ATPG (``jobs=2``) vs. the serial path:
  statuses, vectors, backtrack counts, and merged stats;
* ``char-jobs`` — pooled characterization (``jobs=2``) vs. serial,
  comparing every fitted coefficient of the produced library;
* ``mc``        — Monte Carlo STA: pooled sample blocks (``jobs=2``)
  vs. serial, bit for bit; every column of the first sample block vs.
  the scalar walk with that column's drawn factors, and a zero-sigma
  single sample (and the engine's nominal pass) vs. the plain scalar
  walk, every window bit for bit;
* ``serve``     — the timing daemon: a concurrent query mix (windows,
  slack, paths, Monte Carlo, what-if batches, planted duplicates)
  against an in-process server vs. fresh scalar references formatted
  through the shared serializers, bit for bit;
* ``corners``   — multi-corner STA: the columns of a batched N-corner
  pass and N separate single-corner compiles vs. the scalar walk with
  each corner's derates on its library, bit for bit, plus the merged
  envelope's conservative containment of every corner;
* ``spice``     — the V-shape model vs. a fresh transistor-level
  simulation on a small gate, within a stated tolerance.

Oracles are registered in :data:`ORACLES`; ``repro-sta fuzz --oracles``
selects among them by name.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Tuple

from ..atpg import AtpgConfig, CrosstalkAtpg
from ..characterize import (
    CellLibrary,
    CharacterizationConfig,
    characterize_library,
)
from ..itr import Conflict, ItrEngine, TwoFrame
from ..models import InputEvent, VShapeModel
from ..sta.analysis import StaResult, TimingAnalyzer
from ..sta.report import TimingReporter
from ..stat import (
    MC_MODELS,
    MonteCarloEngine,
    VariationModel,
    plan_blocks,
    run_mc,
)
from ..tech import GENERIC_05UM
from . import generate as gen
from .case import FuzzCase

NS = 1e-9

#: Model-vs-SPICE tolerance of the ``spice`` oracle: the paper reports
#: a few percent typical error; the oracle flags gross breakage, not
#: model drift, so the band is wide enough for characterization-fit
#: error at off-grid transition times yet far below the 2x-scale errors
#: a genuinely broken path produces.
SPICE_ABS_TOL = 0.08 * NS
SPICE_REL_TOL = 0.20


@dataclasses.dataclass
class OracleResult:
    """Outcome of one oracle check."""

    ok: bool
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class Oracle:
    """A registered differential check.

    Args:
        name: Registry key (CLI ``--oracles`` token).
        description: One-line summary for ``--list-oracles``.
        generate: Case generator (rng -> FuzzCase skeleton).
        check: The differential check itself.
        max_cases: Per-run case cap for heavy oracles (None = uncapped).
        supports_pi_windows: Whether the check honors per-PI window
            overrides (lets the shrinker preserve a deleted cone's
            windows when promoting its root to a primary input).
    """

    name: str
    description: str
    generate: Callable[[random.Random], FuzzCase]
    check: Callable[[FuzzCase], OracleResult]
    max_cases: Optional[int] = None
    supports_pi_windows: bool = False


ORACLES: Dict[str, Oracle] = {}


def register_oracle(oracle: Oracle) -> Oracle:
    if oracle.name in ORACLES:
        raise ValueError(f"oracle {oracle.name!r} already registered")
    ORACLES[oracle.name] = oracle
    return oracle


def get_oracle(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; registered: {sorted(ORACLES)}"
        ) from None


def select_oracles(names: Optional[List[str]] = None) -> List[Oracle]:
    """Resolve a name list (None = all) to registered oracles, in order."""
    if names is None:
        return [ORACLES[k] for k in ORACLES]
    return [get_oracle(n) for n in names]


def run_oracle(case: FuzzCase) -> OracleResult:
    """Dispatch a case to its oracle's check."""
    return get_oracle(case.oracle).check(case)


# ----------------------------------------------------------------------
# Window comparison
# ----------------------------------------------------------------------
def _window_mismatches(circuit, base, fast, limit: int = 4) -> List[str]:
    """Describe lines whose windows differ bit-wise between two results."""
    problems: List[str] = []
    for line in circuit.lines:
        a, b = base.line(line), fast.line(line)
        for direction in ("rise", "fall"):
            wa, wb = getattr(a, direction), getattr(b, direction)
            if wa.state != wb.state:
                problems.append(
                    f"{line}.{direction}: state {wa.state} != {wb.state}"
                )
            elif wa.is_active and (
                wa.a_s != wb.a_s or wa.a_l != wb.a_l
                or wa.t_s != wb.t_s or wa.t_l != wb.t_l
            ):
                problems.append(
                    f"{line}.{direction}: "
                    f"A=[{wa.a_s!r},{wa.a_l!r}] T=[{wa.t_s!r},{wa.t_l!r}] != "
                    f"A=[{wb.a_s!r},{wb.a_l!r}] T=[{wb.t_s!r},{wb.t_l!r}]"
                )
            if len(problems) >= limit:
                return problems
    return problems


def _required_mismatches(
    circuit, base_analyzer, base, fast_analyzer, fast, limit: int = 4
) -> List[str]:
    """Compiled vs. per-gate required windows, bit for bit.

    Checked at the default clock (zero setup slack, no hold bound) and
    at a setup+hold clock derived from the pass itself (0.9x the latest
    output arrival, the earliest as hold bound), so no generator draw
    is spent on it.
    """
    try:
        late = base.output_max_arrival()
        early = base.output_min_arrival()
    except ValueError:  # no active output transition: nothing to time
        return []
    problems: List[str] = []
    clocks = (
        ("default clock", {}),
        ("setup+hold clock", {"setup_time": 0.9 * late, "hold_time": early}),
    )
    for label, clock in clocks:
        want = base_analyzer.compute_required_per_gate(base, **clock)
        got = fast_analyzer.compute_required(fast, **clock)
        for line in circuit.lines:
            for direction in ("rise", "fall"):
                w = getattr(want[line], direction)
                g = getattr(got[line], direction)
                if w.q_s != g.q_s or w.q_l != g.q_l:
                    problems.append(
                        f"{label} {line}.{direction}: "
                        f"Q=[{g.q_s!r},{g.q_l!r}] != [{w.q_s!r},{w.q_l!r}]"
                    )
                    if len(problems) >= limit:
                        return problems
    return problems


# ----------------------------------------------------------------------
# level: level-compiled SoA pass vs. scalar corner search
# ----------------------------------------------------------------------
def _gen_level(rng: random.Random) -> FuzzCase:
    return FuzzCase(
        oracle="level",
        circuit=gen.random_circuit_dict(rng),
        sta=gen.random_sta_dict(rng),
        models=gen.random_models(rng),
    )


def _trace_failures(circuit, analyzer, result) -> List[str]:
    """Every active output direction's latest and earliest path must
    trace back to a primary input (:class:`TimingReporter`)."""
    reporter = TimingReporter(analyzer, result)
    for po in circuit.outputs:
        for rising in (True, False):
            for kind in ("max", "min"):
                if result.line(po).window(rising).is_active:
                    try:
                        reporter.trace(po, rising, kind)
                    except ValueError as exc:
                        direction = "R" if rising else "F"
                        return [f"{kind} path to {po}.{direction}: {exc}"]
    return []


def _check_level(case: FuzzCase) -> OracleResult:
    """The scalar per-gate walk vs. the level-compiled pass
    (:meth:`TimingAnalyzer.analyze`) and its backward pass
    (:meth:`TimingAnalyzer.compute_required`) over the case's models,
    then the path traces of every output on the compiled result.
    """
    circuit = case.build_circuit()
    config = case.build_sta_config()
    overrides = case.build_pi_overrides()
    library = CellLibrary.load_default()
    for name, model in case.build_models():
        base_analyzer = TimingAnalyzer(circuit, library, model, config)
        base = base_analyzer.analyze_per_gate(pi_overrides=overrides)
        fast_analyzer = TimingAnalyzer(circuit, library, model, config)
        fast = fast_analyzer.analyze(pi_overrides=overrides)
        problems = _window_mismatches(circuit, base, fast)
        if not problems:
            problems = _required_mismatches(
                circuit, base_analyzer, base, fast_analyzer, fast
            )
        if not problems:
            problems = _trace_failures(circuit, fast_analyzer, fast)
        if problems:
            return OracleResult(
                False, f"model={name}: " + "; ".join(problems)
            )
    return OracleResult(True)


register_oracle(Oracle(
    name="level",
    description="level-compiled structure-of-arrays pass vs. scalar "
                "corner search (bit-identical STA windows and "
                "required times; every output's paths trace)",
    generate=_gen_level,
    check=_check_level,
    supports_pi_windows=True,
))


# ----------------------------------------------------------------------
# incremental: cone-limited re-timing vs. fresh scalar analysis
# ----------------------------------------------------------------------
def _gen_incremental(rng: random.Random) -> FuzzCase:
    circuit = gen.random_circuit_dict(rng, min_gates=5, max_gates=40)
    return FuzzCase(
        oracle="incremental",
        circuit=circuit,
        sta=gen.random_sta_dict(rng),
        models=gen.random_models(rng, k=1),
        edits=gen.random_edit_sequence(rng, circuit),
    )


def _apply_edit(circuit, edit) -> None:
    op, line, value, pin = edit
    if op == "resize":
        circuit.resize_gate(line, value)
    elif op == "swap":
        circuit.swap_cell(line, value)
    else:
        circuit.rewire_input(line, pin, value)


def _check_incremental(case: FuzzCase) -> OracleResult:
    """Incremental state == fresh scalar analysis, after every edit.

    Covers every edit kind (including no-ops, and rewires and
    shape-changing swaps that recompile).  Every edit that replaced
    the compile is also checked by a full pass on the wrapped
    analyzer, which leaves the incremental window state alone, so later
    edits keep replaying over the state carried through the recompile.
    Halfway through the sequence and after its last edit, a
    ``try_edits`` trial batch (resizes of four gates drawn from the
    case's seed, one of them the driver of another's input, and one
    cell swap) is checked column by column, plus a master-untouched
    check.  Then one column,
    drawn from the case's seed and index, is committed through
    ``commit``: the committed edit joins the sequence, the master is
    diffed against a fresh analysis, and the remaining edits continue
    from there.  Before the edits a plain level-compiled engine is
    built over the same circuit and library, on the shared compile;
    after them its pass must repeat its first bit for bit, so a patch
    that reached a shared compile fails the case.
    """
    from ..sta.compile import LevelCompiledAnalyzer
    from ..sta.incremental import IncrementalAnalyzer, TrialEdit
    from ..sta.windows import timings_equal

    def bits(windows) -> List[bytes]:
        return [
            a.tobytes() for a in (
                windows.a_s, windows.a_l, windows.t_s, windows.t_l,
                windows.states,
            )
        ]

    library = CellLibrary.load_default()
    config = case.build_sta_config()
    edits = case.edits or []
    for name, model in case.build_models():
        tag = f"model={name}"
        circuit = case.build_circuit()
        plain = LevelCompiledAnalyzer(circuit, library, model, config)
        first = bits(plain.propagate())
        incr = IncrementalAnalyzer(
            TimingAnalyzer(circuit, library, model, config)
        )
        incr.analyze()
        replayed: List[list] = []
        rng = random.Random(f"{case.seed}:{case.index}:{name}")

        def reference(extra: Optional[list] = None) -> StaResult:
            ref_circuit = case.build_circuit()
            for edit in replayed + ([extra] if extra else []):
                _apply_edit(ref_circuit, edit)
            return TimingAnalyzer(
                ref_circuit, library, model, config
            ).analyze_per_gate()

        seen = incr._compiled()

        def check_master(label: str, result: StaResult) -> Optional[str]:
            nonlocal seen
            checks = [("retime", result)]
            if incr._compiled() is not seen:
                # The edit dropped the compile: check a full pass on
                # its successor too.
                checks.append(("analyze", incr.analyzer.analyze()))
                seen = incr._compiled()
            expected = reference()
            for how, res in checks:
                problems = _window_mismatches(circuit, expected, res)
                if problems:
                    return f"{tag} {label} ({how}): " + "; ".join(problems)
            return None

        def trial_and_commit(label: str) -> Optional[str]:
            # Two resize candidates for each of (up to) four gates and
            # one swap, each column vs. a fresh scalar analysis of that
            # single-edit variant.  The gates are drawn from the case's
            # rng: a gate with the driver of one of its inputs (so the
            # driver is resized in one column and re-loaded in another),
            # then others.
            gates = sorted(circuit.gates)
            pairs = [
                (line, src) for line in gates
                for src in dict.fromkeys(circuit.gates[line].inputs)
                if src in circuit.gates
            ]
            targets = list(rng.choice(pairs)) if pairs else []
            rest = [line for line in gates if line not in targets]
            targets += rng.sample(rest, min(4 - len(targets), len(rest)))
            trial_edits = [
                TrialEdit("resize", line, size)
                for line in targets
                for size in (0.5, 2.0)
            ]
            gate = circuit.gates[rng.choice(targets)]
            kinds = [
                kind for kind in gen._SWAP_KINDS.get(gate.n_inputs, ())
                if kind != gate.kind
            ]
            if kinds:
                trial_edits.append(
                    TrialEdit("swap", gate.output, rng.choice(kinds))
                )
            trial = incr.try_edits(trial_edits)
            for k, t_edit in enumerate(trial_edits):
                ref = reference([t_edit.op, t_edit.line, t_edit.value, None])
                for line in circuit.lines:
                    if not timings_equal(
                        trial.line_timing(line, k), ref.line(line)
                    ):
                        return (
                            f"{tag} {label} trial k={k} {t_edit.op} "
                            f"{t_edit.line}->{t_edit.value} differs on "
                            f"{line}"
                        )
            # Trials must leave the master state untouched.
            problems = _window_mismatches(circuit, reference(), incr.result())
            if problems:
                return (
                    f"{tag} {label} master drifted after trials: "
                    + "; ".join(problems)
                )
            k = rng.randrange(len(trial_edits))
            t_edit = trial_edits[k]
            result = incr.commit(trial, k)
            replayed.append([t_edit.op, t_edit.line, t_edit.value, None])
            return check_master(
                f"{label} commit k={k} {t_edit.op} {t_edit.line}->"
                f"{t_edit.value}",
                result,
            )

        for step, edit in enumerate(edits):
            if step == len(edits) // 2:
                failure = trial_and_commit(f"step={step}")
                if failure:
                    return OracleResult(False, failure)
            _apply_edit(circuit, edit)
            replayed.append(edit)
            failure = check_master(
                f"step={step} {edit[0]} {edit[1]}", incr.retime()
            )
            if failure:
                return OracleResult(False, failure)
        failure = trial_and_commit("end")
        if failure:
            return OracleResult(False, failure)
        if bits(plain.propagate()) != first:
            return OracleResult(
                False,
                f"{tag} the edits reached the shared compile: a plain "
                "engine built before them no longer repeats its pass",
            )
    return OracleResult(True)


register_oracle(Oracle(
    name="incremental",
    description="cone-limited incremental re-timing, trial batches and "
                "their commits vs. fresh scalar analysis after every "
                "circuit edit",
    generate=_gen_incremental,
    check=_check_incremental,
))


# ----------------------------------------------------------------------
# itr: cone-limited incremental refinement vs. a full refinement
# ----------------------------------------------------------------------
def _gen_itr(rng: random.Random) -> FuzzCase:
    circuit = gen.random_circuit_dict(rng, min_gates=6, max_gates=40)
    return FuzzCase(
        oracle="itr",
        circuit=circuit,
        sta=gen.random_sta_dict(rng),
        decisions=gen.random_decisions(rng, circuit),
    )


def _check_itr(case: FuzzCase) -> OracleResult:
    circuit = case.build_circuit()
    config = case.build_sta_config()
    library = CellLibrary.load_default()
    engine = ItrEngine(circuit, library, config=config)
    # STA is the special case of ITR with every line unspecified.
    result = engine.refine(engine.initial_values())
    sta = TimingAnalyzer(circuit, library, config=config).analyze_per_gate()
    problems = _window_mismatches(circuit, sta, result.sta)
    if problems:
        return OracleResult(
            False, "initial refine vs. STA: " + "; ".join(problems)
        )
    for step, (line, literal) in enumerate(case.decisions or ()):
        try:
            result = engine.refine_assign(
                result, line, TwoFrame.parse(literal)
            )
        except Conflict:
            break
        full = engine.refine(result.values)
        problems = _window_mismatches(circuit, full.sta, result.sta)
        if problems:
            return OracleResult(
                False,
                f"decision {step} ({line}={literal}): "
                + "; ".join(problems),
            )
    return OracleResult(True)


register_oracle(Oracle(
    name="itr",
    description="cone-limited incremental timing refinement under "
                "random decision sequences vs. full refinement",
    generate=_gen_itr,
    check=_check_itr,
))


# ----------------------------------------------------------------------
# atpg-jobs: fault-parallel ATPG vs. the serial path
# ----------------------------------------------------------------------
def _gen_atpg(rng: random.Random) -> FuzzCase:
    circuit = gen.random_circuit_dict(rng, min_gates=10, max_gates=40)
    return FuzzCase(
        oracle="atpg-jobs",
        circuit=circuit,
        sta=gen.random_sta_dict(rng),
        faults=gen.random_faults_dicts(rng, circuit),
        atpg={
            "backtrack_limit": rng.choice([8, 16, 32]),
            "period_fraction": rng.uniform(0.7, 0.95),
            "jobs": 2,
        },
    )


def _build_atpg(case: FuzzCase, library) -> CrosstalkAtpg:
    circuit = case.build_circuit()
    sta_config = case.build_sta_config()
    knobs = case.atpg or {}
    period = (
        TimingAnalyzer(circuit, library, VShapeModel(), sta_config)
        .analyze()
        .output_max_arrival()
        * knobs.get("period_fraction", 0.85)
    )
    return CrosstalkAtpg(
        circuit,
        library,
        sta_config=sta_config,
        config=AtpgConfig(
            use_itr=True,
            backtrack_limit=knobs.get("backtrack_limit", 16),
            period=period,
        ),
    )


def _check_atpg_jobs(case: FuzzCase) -> OracleResult:
    faults = case.build_faults()
    if not faults:
        return OracleResult(True, "no applicable faults")
    library = CellLibrary.load_default()
    jobs = (case.atpg or {}).get("jobs", 2)
    serial = _build_atpg(case, library).run_all(faults, jobs=1)
    par = _build_atpg(case, library).run_all(faults, jobs=jobs)
    if len(serial.results) != len(par.results):
        return OracleResult(
            False,
            f"result count {len(serial.results)} != {len(par.results)}",
        )
    for i, (a, b) in enumerate(zip(serial.results, par.results)):
        for field in ("status", "vector", "backtracks", "reason"):
            va, vb = getattr(a, field), getattr(b, field)
            if va != vb:
                return OracleResult(
                    False,
                    f"fault {i} ({a.fault.describe()}): {field} "
                    f"{va!r} != {vb!r}",
                )
    if serial.stats != par.stats:
        return OracleResult(
            False, f"stats {serial.stats} != {par.stats}"
        )
    return OracleResult(True)


register_oracle(Oracle(
    name="atpg-jobs",
    description="fault-parallel ATPG (jobs=2) vs. serial: statuses, "
                "vectors, backtracks, merged stats",
    generate=_gen_atpg,
    check=_check_atpg_jobs,
    max_cases=4,
))


# ----------------------------------------------------------------------
# char-jobs: pooled characterization vs. serial
# ----------------------------------------------------------------------
def _gen_char(rng: random.Random) -> FuzzCase:
    return FuzzCase(oracle="char-jobs", char=gen.random_char_dict(rng))


def _check_char_jobs(case: FuzzCase) -> OracleResult:
    spec = case.char or {}
    config = CharacterizationConfig(
        t_grid=tuple(spec["t_grid"]),
        pair_t_grid=tuple(spec["pair_t_grid"]),
        skews_per_side=spec["skews_per_side"],
    )
    cells = tuple((kind, n) for kind, n in spec["cells"])
    serial = characterize_library(GENERIC_05UM, cells, config, jobs=1)
    pooled = characterize_library(
        GENERIC_05UM, cells, config, jobs=spec.get("jobs", 2)
    )
    a, b = serial.to_dict(), pooled.to_dict()
    a.pop("meta", None)
    b.pop("meta", None)
    if a != b:
        diff = [
            name for name in a.get("cells", {})
            if a["cells"].get(name) != b["cells"].get(name)
        ]
        return OracleResult(
            False, f"library coefficients differ for cells {diff}"
        )
    return OracleResult(True)


register_oracle(Oracle(
    name="char-jobs",
    description="pooled characterization (jobs=2) vs. serial: every "
                "fitted coefficient of the produced library",
    generate=_gen_char,
    check=_check_char_jobs,
    max_cases=1,
))


# ----------------------------------------------------------------------
# mc: Monte Carlo STA — pooled vs. serial, and sigma-0 vs. deterministic
# ----------------------------------------------------------------------
def _gen_mc(rng: random.Random) -> FuzzCase:
    return FuzzCase(
        oracle="mc",
        circuit=gen.random_circuit_dict(rng, min_gates=4, max_gates=24),
        sta=gen.random_sta_dict(rng),
        models=gen.random_models(rng, k=1),
        mc={
            "samples": rng.choice([5, 8, 13]),
            "sigma_corr": rng.choice([0.0, 0.03, 0.08, 0.15]),
            "sigma_ind": rng.choice([0.0, 0.02, 0.1]),
            "seed": rng.randrange(2 ** 16),
            "jobs": 2,
            # Small blocks force several RNG streams and a real fan-out.
            "block": rng.choice([2, 3, 4]),
        },
    )


def _check_mc(case: FuzzCase) -> OracleResult:
    import numpy as np

    circuit = case.build_circuit()
    config = case.build_sta_config()
    library = CellLibrary.load_default()
    spec = case.mc or {}
    model_name = (case.models or ["vshape"])[0]
    kwargs = dict(
        model=model_name,
        config=config,
        variation=VariationModel(
            sigma_corr=spec.get("sigma_corr", 0.05),
            sigma_ind=spec.get("sigma_ind", 0.03),
        ),
        samples=spec.get("samples", 8),
        seed=spec.get("seed", 0),
        block=spec.get("block", 2),
    )
    serial = run_mc(circuit, library, jobs=1, **kwargs)
    pooled = run_mc(circuit, library, jobs=spec.get("jobs", 2), **kwargs)
    if not (
        np.array_equal(serial.po_max, pooled.po_max)
        and np.array_equal(serial.po_min, pooled.po_min)
    ):
        bad = int(
            np.sum(serial.po_max != pooled.po_max)
            + np.sum(serial.po_min != pooled.po_min)
        )
        return OracleResult(
            False,
            f"jobs={spec.get('jobs', 2)} diverges from serial on "
            f"{bad} per-output sample values",
        )
    # Every column of the first block, with the factors run_mc drew
    # for it, must reproduce the scalar walk under those factors; a
    # single zero-sigma sample, and the engine's nominal pass, the
    # plain walk — bit for bit, on every line and direction.
    engine = MonteCarloEngine(
        circuit, library, MC_MODELS[model_name](), config
    )
    analyzer = TimingAnalyzer(
        circuit, library, MC_MODELS[model_name](), config
    )
    _, size = plan_blocks(kwargs["samples"], kwargs["block"])[0]
    factors = kwargs["variation"].factors_for_block(
        kwargs["seed"], 0, engine.cell_index, len(engine.cell_names), size
    )
    reference = analyzer.analyze_per_gate()
    checks = [
        (f"sample {k}", result, analyzer.analyze_per_gate(factors=column))
        for k, (result, column) in enumerate(
            zip(_columns(circuit, engine, factors), factors.T)
        )
    ]
    (sigma0,) = _columns(circuit, engine, np.ones((engine.n_gates, 1)))
    checks.append(("sigma=0", sigma0, reference))
    checks.append(("nominal", engine.nominal, reference))
    for label, result, want in checks:
        problems = _window_mismatches(circuit, want, result)
        if problems:
            return OracleResult(
                False,
                f"{label} vs the scalar walk (model={model_name}): "
                + "; ".join(problems),
            )
    return OracleResult(True)


def _columns(circuit, engine, factors) -> List[StaResult]:
    """Every column of one compiled Monte Carlo block."""
    windows = engine.propagate(factors)
    return [
        StaResult(circuit, {
            line: windows.line_timing(line, k) for line in circuit.lines
        })
        for k in range(factors.shape[1])
    ]


register_oracle(Oracle(
    name="mc",
    description="Monte Carlo STA: pooled blocks (jobs=2) vs. serial bit "
                "for bit; sample columns vs. factored scalar walks",
    generate=_gen_mc,
    check=_check_mc,
    max_cases=3,
))


# ----------------------------------------------------------------------
# serve: timing daemon vs. fresh scalar references
# ----------------------------------------------------------------------
def _gen_serve(rng: random.Random) -> FuzzCase:
    circuit = gen.random_circuit_dict(rng, min_gates=4, max_gates=24)
    return FuzzCase(
        oracle="serve",
        circuit=circuit,
        queries=gen.random_query_mix(rng, circuit),
    )


def _check_serve(case: FuzzCase) -> OracleResult:
    """Daemon responses == fresh scalar references, query by query.

    Replays the case's query mix concurrently (``asyncio.gather`` over
    one in-process :class:`ServerApp`, exercising the per-circuit
    queue, drainer batching, what-if coalescing, and the dedup/memo
    path via the planted duplicate), then rebuilds every answer cold —
    scalar per-gate walks (forward, and backward for ``slack``),
    serial ``run_mc``, one fresh analysis per what-if edit — formatted
    through the shared :mod:`repro.server.session` serializers, so any
    diff is engine output, not formatting.
    """
    import asyncio

    import numpy as np

    from ..server import session as srv
    from ..server.app import ServerApp, ServerConfig
    from ..server.protocol import validate_request

    circuit = case.build_circuit()
    library = CellLibrary.load_default()
    payloads = [
        {"circuit": circuit.name, "method": q["method"],
         "params": q["params"]}
        for q in (case.queries or [])
    ]
    app = ServerApp(
        {circuit.name: circuit},
        ServerConfig(workers=0, queue_limit=max(64, len(payloads))),
        library=library,
    )

    async def drive():
        await app.startup()
        try:
            return await asyncio.gather(*[
                app.handle_request_payload(p) for p in payloads
            ])
        finally:
            await app.aclose()

    responses = asyncio.run(drive())

    base: Dict[str, tuple] = {}

    def scalar(model: str):
        if model not in base:
            analyzer = TimingAnalyzer(
                case.build_circuit(), library, MC_MODELS[model]()
            )
            base[model] = (analyzer, analyzer.analyze_per_gate())
        return base[model]

    def reference(request) -> dict:
        params = request.params
        model = params["model"]
        if request.method == "windows":
            _, result = scalar(model)
            lines = params["lines"]
            if lines is None:
                lines = list(circuit.outputs)
            return srv.windows_payload(result, lines)
        if request.method == "slack":
            analyzer, result = scalar(model)
            clock_ns = params["clock_ns"]
            clock_s = clock_ns * 1e-9 if clock_ns is not None else None
            required = analyzer.compute_required_per_gate(
                result, setup_time=clock_s
            )
            return srv.slack_payload(
                analyzer, result, required, clock_s, params["worst"]
            )
        if request.method == "path":
            analyzer, result = scalar(model)
            return srv.path_payload(analyzer, result, params["kind"])
        if request.method == "mc":
            period = (
                params["period_ns"] * 1e-9
                if params["period_ns"] is not None else None
            )
            return run_mc(
                case.build_circuit(), library, model=model,
                variation=VariationModel(
                    sigma_corr=params["sigma_corr"],
                    sigma_ind=params["sigma_ind"],
                ),
                samples=params["samples"], seed=params["seed"],
                jobs=1, block=params["block"],
            ).summary(tuple(params["quantiles"]), period)
        # whatif: each edit vs. a fresh scalar analysis of its variant.
        arrivals = []
        for edit in params["edits"]:
            variant = case.build_circuit()
            if edit["op"] == "resize":
                variant.resize_gate(edit["line"], edit["value"])
            else:
                variant.swap_cell(edit["line"], edit["value"])
            arrivals.append(TimingAnalyzer(
                variant, library, MC_MODELS[model]()
            ).analyze_per_gate().output_max_arrival())
        _, base_result = scalar(model)
        return srv.whatif_payload(
            params["edits"], np.asarray(arrivals),
            base_result.output_max_arrival(), params["clock_ns"],
        )

    for i, (payload, (status, body)) in enumerate(zip(payloads, responses)):
        tag = f"query {i} ({payload['method']})"
        if status != 200 or not body.get("ok"):
            error = body.get("error", {})
            return OracleResult(
                False,
                f"{tag}: daemon returned {status} "
                f"{error.get('code')}: {error.get('message')}",
            )
        if body["result"] != reference(validate_request(payload)):
            return OracleResult(
                False,
                f"{tag}: daemon result differs from the fresh scalar "
                "reference",
            )
    return OracleResult(True)


register_oracle(Oracle(
    name="serve",
    description="timing daemon (concurrent query mix, coalescing, memo) "
                "vs. fresh scalar references, bit for bit",
    generate=_gen_serve,
    check=_check_serve,
    max_cases=4,
))


# ----------------------------------------------------------------------
# corners: batched multi-corner pass vs. separate single-corner runs
# ----------------------------------------------------------------------
def _gen_corners(rng: random.Random) -> FuzzCase:
    return FuzzCase(
        oracle="corners",
        circuit=gen.random_circuit_dict(rng, min_gates=3, max_gates=24),
        sta=gen.random_sta_dict(rng),
        models=gen.random_models(rng, k=1),
        corners=gen.random_corners(rng),
    )


def _check_corners(case: FuzzCase) -> OracleResult:
    """Batched N-corner pass == N scalar walks, bit for bit.

    The references are scalar walks, one per corner, each on the
    corner's library with its derates
    (:meth:`CornerAnalyzer.analyze_per_gate`).  They are diffed against
    the corner columns of one corner-batched level pass and against
    per-corner single-library compiles with scalar derates.  The merged
    envelope (a column reduction of the batched pass) must equal the
    walks' per-line merge bit for bit, and contain every per-corner
    window (conservative by construction).
    """
    from ..pvt import CornerAnalyzer, scaled_library
    from ..sta.compile import LevelCompiledAnalyzer

    circuit = case.build_circuit()
    config = case.build_sta_config()
    corners = case.build_corners()
    for name, model in case.build_models():
        libraries = [
            scaled_library(CellLibrary.load_default(), corner) for corner in corners
        ]
        analyzer = CornerAnalyzer(circuit, corners, libraries, model, config)
        batched = analyzer.analyze()
        walked = analyzer.analyze_per_gate()
        problems = _window_mismatches(circuit, walked.merged, batched.merged)
        if problems:
            return OracleResult(
                False, f"model={name} merged: " + "; ".join(problems)
            )
        for i, (corner, library) in enumerate(zip(corners, libraries)):
            reference = walked.results[i]
            single = LevelCompiledAnalyzer(
                circuit, library, model, config
            ).analyze_corners(derates=corner.derates)[0]
            for engine, result in (
                ("batched", batched.results[i]),
                ("single", single),
            ):
                problems = _window_mismatches(circuit, reference, result)
                if problems:
                    return OracleResult(
                        False,
                        f"model={name} corner={corner.name} "
                        f"engine={engine}: " + "; ".join(problems),
                    )
            for line in circuit.lines:
                merged = batched.merged.line(line)
                single = reference.line(line)
                for direction in ("rise", "fall"):
                    wm = getattr(merged, direction)
                    ws = getattr(single, direction)
                    if ws.is_active and not wm.contains_window(ws, tol=0.0):
                        return OracleResult(
                            False,
                            f"model={name} corner={corner.name}: merged "
                            f"envelope does not contain {line}.{direction}",
                        )
    return OracleResult(True)


register_oracle(Oracle(
    name="corners",
    description="corner-batched and single-corner compiled STA vs. "
                "derated scalar walks per corner, bit for bit",
    generate=_gen_corners,
    check=_check_corners,
    supports_pi_windows=False,
))


# ----------------------------------------------------------------------
# spice: V-shape model vs. transistor-level simulation
# ----------------------------------------------------------------------
def _gen_spice(rng: random.Random) -> FuzzCase:
    return FuzzCase(oracle="spice", gate=gen.random_gate_dict(rng))


def _spice_pair(case: FuzzCase) -> Tuple[float, float]:
    """(model delay, simulated delay) for the case's gate scenario."""
    from ..spice import GateCell, RampStimulus, simulate_gate

    spec = case.gate or {}
    kind, n_inputs = spec["kind"], spec["n_inputs"]
    t_p, t_q, skew = spec["t_p"], spec["t_q"], spec["skew"]
    arrival = 2 * NS
    cell = GateCell(kind, n_inputs, GENERIC_05UM)
    timing = CellLibrary.load_default().cell(cell.name)
    in_rising = cell.controlling_value == 1
    stimuli = [
        RampStimulus.transition(in_rising, arrival, t_p, GENERIC_05UM.vdd),
        RampStimulus.transition(
            in_rising, arrival + skew, t_q, GENERIC_05UM.vdd
        ),
    ]
    stimuli += [
        RampStimulus.steady(1 - cell.controlling_value, GENERIC_05UM.vdd)
        for _ in range(n_inputs - 2)
    ]
    sim = simulate_gate(cell, stimuli)
    events = [
        InputEvent(0, arrival, t_p, in_rising),
        InputEvent(1, arrival + skew, t_q, in_rising),
    ]
    predicted, _ = VShapeModel().controlling_response(
        timing, events, timing.ref_load
    )
    return predicted, sim.delay_from_earliest()


def _check_spice(case: FuzzCase) -> OracleResult:
    predicted, measured = _spice_pair(case)
    tolerance = max(SPICE_ABS_TOL, SPICE_REL_TOL * abs(measured))
    error = predicted - measured
    if abs(error) > tolerance:
        return OracleResult(
            False,
            f"model {predicted / NS:.4f} ns vs spice "
            f"{measured / NS:.4f} ns (err {error / NS:+.4f} ns, "
            f"tol {tolerance / NS:.4f} ns)",
        )
    return OracleResult(True)


register_oracle(Oracle(
    name="spice",
    description="V-shape model delay vs. fresh transistor-level "
                "simulation on a small gate, within tolerance",
    generate=_gen_spice,
    check=_check_spice,
    max_cases=10,
))

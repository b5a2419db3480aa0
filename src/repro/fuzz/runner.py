"""The fuzz campaign runner: schedule, execute, shrink, persist.

A run is parameterized by a master seed, an oracle selection, and either
a case count or a wall-clock budget (or both).  Cases are identified by
``(seed, oracle, index)`` coordinates and scheduled round-robin across
the selected oracles (heavy oracles carry per-run caps), so:

* a fixed seed and case count reproduce the exact same campaign;
* ``--jobs N`` fans cases over a process pool with no change in what is
  run — workers rebuild cases from coordinates, and failures are
  shrunk and persisted by the parent;
* any failing case is minimized (:mod:`repro.fuzz.shrink`) and written
  as a replayable artifact (:mod:`repro.fuzz.artifacts`).

Instrumentation lands under ``fuzz.*`` in the active metrics registry
(cases, failures, per-oracle counters, shrink effort, total seconds).
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from ..obs import get_registry
from ..obs.merge import capture_and_reset, init_worker_obs, merge_payloads
from .artifacts import DEFAULT_ARTIFACT_DIR, write_artifact
from .case import FuzzCase
from .generate import generate_case
from .oracles import Oracle, OracleResult, run_oracle, select_oracles
from .shrink import shrink_case

#: Shrink budgets (oracle checks) per oracle; heavy oracles get fewer.
SHRINK_BUDGETS: Dict[str, int] = {
    "itr": 200,
    "atpg-jobs": 60,
    "char-jobs": 0,
    # Query mixes are only valid against the circuit they were drawn
    # from; gate deletion invalidates them, so serve cases replay as-is.
    "serve": 0,
    "spice": 0,
}
DEFAULT_SHRINK_BUDGET = 200


@dataclasses.dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzz campaign.

    Args:
        oracles: Oracle names to run (None = every registered oracle).
        cases: Total cases to schedule (None = unbounded; requires a
            time budget).
        seed: Master seed; fully determines every generated case.
        time_budget: Wall-clock budget in seconds (None = unlimited).
        jobs: Worker processes (1 = in-process serial execution).
        artifact_dir: Where failure artifacts are written.
        shrink: Minimize failing cases before writing artifacts.
    """

    oracles: Optional[Tuple[str, ...]] = None
    cases: Optional[int] = 50
    seed: int = 0
    time_budget: Optional[float] = None
    jobs: int = 1
    artifact_dir: Path = DEFAULT_ARTIFACT_DIR
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.cases is None and self.time_budget is None:
            raise ValueError("need a case count or a time budget")
        if self.cases is not None and self.cases < 1:
            raise ValueError("cases must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")


@dataclasses.dataclass
class CaseOutcome:
    """Result of one executed case."""

    oracle: str
    index: int
    ok: bool
    detail: str = ""
    seconds: float = 0.0
    artifact: Optional[str] = None
    shrunk_gates: Optional[int] = None


@dataclasses.dataclass
class FuzzReport:
    """Aggregate outcome of a campaign."""

    seed: int
    outcomes: List[CaseOutcome]
    elapsed: float

    @property
    def cases_run(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> List[CaseOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def by_oracle(self) -> Dict[str, Tuple[int, int]]:
        """{oracle: (cases, failures)} in execution order."""
        table: Dict[str, Tuple[int, int]] = {}
        for outcome in self.outcomes:
            ran, bad = table.get(outcome.oracle, (0, 0))
            table[outcome.oracle] = (ran + 1, bad + (0 if outcome.ok else 1))
        return table

    def format_summary(self) -> str:
        lines = [
            f"fuzz: {self.cases_run} cases, {len(self.failures)} "
            f"failure{'s' if len(self.failures) != 1 else ''} "
            f"in {self.elapsed:.1f} s (seed {self.seed})"
        ]
        for oracle, (ran, bad) in sorted(self.by_oracle().items()):
            status = "ok" if not bad else f"{bad} FAILED"
            lines.append(f"  {oracle:<10} {ran:4d} cases  {status}")
        for failure in self.failures:
            lines.append(
                f"  FAILURE {failure.oracle} case {failure.index}: "
                f"{failure.detail}"
            )
            if failure.artifact:
                lines.append(f"    artifact: {failure.artifact}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Worker-process entry points (top level: must pickle)
# ----------------------------------------------------------------------
def _pool_init(obs_enabled: bool = False) -> None:
    """Install a worker registry (real or null) once per process.

    With the parent instrumented, each case's metric deltas ride back
    with its result and merge into the parent registry — the same
    discipline as the characterize/ATPG/MC pools — so ``--jobs N``
    counter totals match ``--jobs 1``.  Otherwise the null registry
    keeps workers zero-overhead.
    """
    init_worker_obs(obs_enabled)


def _check_coordinates(
    oracle: str, seed: int, index: int
) -> Tuple[str, int, bool, str, float]:
    """Regenerate and check one case from its coordinates."""
    start = time.perf_counter()
    case = generate_case(oracle, seed, index)
    result = run_oracle(case)
    return oracle, index, result.ok, result.detail, (
        time.perf_counter() - start
    )


def _run_coordinates(
    oracle: str, seed: int, index: int
) -> Tuple[str, int, bool, str, float, Optional[dict]]:
    """Worker-side case check: result plus the case's metric deltas.

    Only ever runs in pool workers; ``capture_and_reset`` on the
    worker registry yields per-case deltas for the parent to merge
    (None when instrumentation is off).
    """
    out = _check_coordinates(oracle, seed, index)
    return (*out, capture_and_reset(get_registry()))


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class FuzzRunner:
    """Executes one campaign described by a :class:`FuzzConfig`."""

    def __init__(self, config: FuzzConfig) -> None:
        self.config = config
        self.oracles: List[Oracle] = select_oracles(
            list(config.oracles) if config.oracles else None
        )
        if not self.oracles:
            raise ValueError("no oracles selected")
        obs = get_registry()
        self._obs = obs
        self._m_cases = obs.counter("fuzz.cases")
        self._m_failures = obs.counter("fuzz.failures")
        self._m_artifacts = obs.counter("fuzz.artifacts_written")

    # ------------------------------------------------------------------
    def run(self) -> FuzzReport:
        started = time.perf_counter()
        with self._obs.timer("fuzz.run_s"):
            if self.config.jobs > 1:
                outcomes = self._run_parallel(started)
            else:
                outcomes = self._run_serial(started)
        outcomes.sort(key=lambda o: (self._oracle_rank(o.oracle), o.index))
        return FuzzReport(
            seed=self.config.seed,
            outcomes=outcomes,
            elapsed=time.perf_counter() - started,
        )

    def _oracle_rank(self, name: str) -> int:
        for i, oracle in enumerate(self.oracles):
            if oracle.name == name:
                return i
        return len(self.oracles)

    # ------------------------------------------------------------------
    def _schedule(self) -> Iterator[Tuple[str, int]]:
        """Round-robin coordinates across oracles, honoring caps."""
        counts = {oracle.name: 0 for oracle in self.oracles}
        total = 0
        limit = self.config.cases
        while True:
            progressed = False
            for oracle in self.oracles:
                if limit is not None and total >= limit:
                    return
                if (
                    oracle.max_cases is not None
                    and counts[oracle.name] >= oracle.max_cases
                ):
                    continue
                yield oracle.name, counts[oracle.name]
                counts[oracle.name] += 1
                total += 1
                progressed = True
            if not progressed:
                return

    def _out_of_time(self, started: float) -> bool:
        budget = self.config.time_budget
        return budget is not None and time.perf_counter() - started >= budget

    # ------------------------------------------------------------------
    def _run_serial(self, started: float) -> List[CaseOutcome]:
        outcomes: List[CaseOutcome] = []
        for oracle, index in self._schedule():
            if self._out_of_time(started):
                break
            _, _, ok, detail, seconds = _check_coordinates(
                oracle, self.config.seed, index
            )
            outcomes.append(self._record(oracle, index, ok, detail, seconds))
        return outcomes

    def _run_parallel(self, started: float) -> List[CaseOutcome]:
        outcomes: List[CaseOutcome] = []
        payloads: Dict[Tuple[int, int], Optional[dict]] = {}
        schedule = self._schedule()
        max_workers = self.config.jobs
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_pool_init,
            initargs=(self._obs.enabled,),
        ) as pool:
            pending = set()
            exhausted = False
            while pending or not exhausted:
                while (
                    not exhausted
                    and len(pending) < 2 * max_workers
                    and not self._out_of_time(started)
                ):
                    try:
                        oracle, index = next(schedule)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.add(pool.submit(
                        _run_coordinates, oracle, self.config.seed, index
                    ))
                if self._out_of_time(started):
                    exhausted = True
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    oracle, index, ok, detail, seconds, payload = (
                        future.result()
                    )
                    payloads[(self._oracle_rank(oracle), index)] = payload
                    outcomes.append(
                        self._record(oracle, index, ok, detail, seconds)
                    )
        # Fold per-case worker metrics back in, ordered by (oracle,
        # index) so the merge is deterministic at any completion order
        # and --jobs N counter totals equal --jobs 1.
        merge_payloads(
            self._obs, [payloads[key] for key in sorted(payloads)]
        )
        return outcomes

    # ------------------------------------------------------------------
    def _record(
        self, oracle: str, index: int, ok: bool, detail: str, seconds: float
    ) -> CaseOutcome:
        self._m_cases.inc()
        self._obs.counter(f"fuzz.{oracle}.cases").inc()
        outcome = CaseOutcome(oracle, index, ok, detail, seconds)
        if ok:
            return outcome
        self._m_failures.inc()
        self._obs.counter(f"fuzz.{oracle}.failures").inc()
        case = generate_case(oracle, self.config.seed, index)
        shrunk: Optional[FuzzCase] = None
        note = ""
        if self.config.shrink:
            budget = SHRINK_BUDGETS.get(oracle, DEFAULT_SHRINK_BUDGET)
            if budget > 0:
                result = shrink_case(case, max_checks=budget)
                if result.reduced:
                    shrunk = result.case
                    note = result.summary()
        target = shrunk if shrunk is not None else case
        if target.circuit is not None:
            outcome.shrunk_gates = len(target.circuit["gates"])
        path = write_artifact(
            case,
            detail,
            directory=self.config.artifact_dir,
            shrunk=shrunk,
            shrink_note=note,
        )
        self._m_artifacts.inc()
        outcome.artifact = str(path)
        return outcome


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Convenience wrapper: run one campaign."""
    return FuzzRunner(config).run()


__all__ = [
    "CaseOutcome",
    "FuzzConfig",
    "FuzzReport",
    "FuzzRunner",
    "OracleResult",
    "run_fuzz",
]

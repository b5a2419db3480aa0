"""Greedy case minimization: keep the failure, shed everything else.

Given a failing :class:`~repro.fuzz.case.FuzzCase` and its oracle, the
shrinker repeatedly proposes structurally smaller candidates and keeps
any candidate on which the oracle *still fails*.  Reduction passes, in
order of leverage:

1. delay-model list -> a single model;
2. primary outputs -> a single output (fan-in-cone pruning);
3. gate deletion — each gate's output line is promoted to a fresh
   primary input, cutting its whole exclusive fan-in cone;
4. decision sequences and fault lists -> delta-debugging style drops;
5. boundary windows -> collapsed to points, loads -> defaults.

Passes loop to a fixpoint under a check budget, so a planted bug in a
wide-gate kernel typically lands on a one-to-three-gate reproduction.
Everything is deterministic: candidate order depends only on the case.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional

from ..obs import get_registry
from .case import (
    FuzzCase,
    case_size,
    delete_gate_from_dict,
    faults_valid_for,
    prune_circuit_dict,
)

DEFAULT_LOAD = 7e-15


@dataclasses.dataclass
class ShrinkResult:
    """Outcome of a shrink run."""

    case: FuzzCase
    checks: int
    rounds: int
    reduced: bool

    def summary(self) -> str:
        return (
            f"{self.case.describe()} after {self.rounds} round"
            f"{'s' if self.rounds != 1 else ''}, {self.checks} checks"
        )


class Shrinker:
    """Budgeted greedy minimizer over one oracle's failure predicate.

    Args:
        check: Predicate returning the oracle result for a case; a
            candidate is accepted when ``check(candidate).ok`` is False
            (the failure is preserved).
        max_checks: Total oracle invocations allowed across all passes.
    """

    def __init__(
        self,
        check: Optional[Callable[[FuzzCase], object]] = None,
        max_checks: int = 240,
    ) -> None:
        if check is None:
            from .oracles import run_oracle
            check = run_oracle
        self._check = check
        self.max_checks = max_checks
        self.checks = 0
        self._windows_cache: Optional[tuple] = None
        self._m_checks = get_registry().counter("fuzz.shrink.checks")
        self._m_accepted = get_registry().counter("fuzz.shrink.accepted")

    # ------------------------------------------------------------------
    def shrink(self, case: FuzzCase) -> ShrinkResult:
        """Minimize ``case`` while its oracle keeps failing."""
        current = case
        rounds = 0
        reduced = False
        while self.checks < self.max_checks:
            rounds += 1
            progressed = False
            for candidate in self._candidates(current):
                if self.checks >= self.max_checks:
                    break
                if case_size(candidate) >= case_size(current):
                    continue
                if self._still_fails(candidate):
                    current = candidate
                    progressed = True
                    reduced = True
            if not progressed:
                break
        return ShrinkResult(current, self.checks, rounds, reduced)

    # ------------------------------------------------------------------
    def _still_fails(self, candidate: FuzzCase) -> bool:
        self.checks += 1
        self._m_checks.inc()
        try:
            result = self._check(candidate)
        except Exception:
            # A reduction that crashes the oracle is not a faithful
            # reproduction of the original failure; reject it.
            return False
        if not result.ok:
            self._m_accepted.inc()
            return True
        return False

    # ------------------------------------------------------------------
    # Candidate proposal passes
    # ------------------------------------------------------------------
    def _candidates(self, case: FuzzCase) -> Iterator[FuzzCase]:
        yield from self._reduce_models(case)
        yield from self._reduce_outputs(case)
        yield from self._reduce_gates(case)
        yield from self._reduce_decisions(case)
        yield from self._reduce_faults(case)
        yield from self._reduce_windows(case)

    def _reduce_models(self, case: FuzzCase) -> Iterator[FuzzCase]:
        if case.models and len(case.models) > 1:
            for name in case.models:
                yield case.clone(models=[name])

    def _reduce_outputs(self, case: FuzzCase) -> Iterator[FuzzCase]:
        """Single out one observed line and prune to its fan-in cone.

        Tries the existing primary outputs first, then — since the
        oracles compare *every* line, not just the POs — each internal
        gate line; retargeting the outputs at an interior mismatch
        collapses the circuit to that line's cone in one step.
        """
        circ = case.circuit
        if circ is None:
            return
        candidates: List[str] = []
        if len(circ["outputs"]) > 1:
            candidates.extend(circ["outputs"])
        candidates.extend(
            out for out, _, _ in circ["gates"] if out not in circ["outputs"]
        )
        for line in candidates:
            yield self._with_circuit(case, prune_circuit_dict(circ, [line]))

    def _reduce_gates(self, case: FuzzCase) -> Iterator[FuzzCase]:
        if case.circuit is None:
            return
        windows = self._reference_windows(case)
        # Reverse creation order: cutting late gates first peels the
        # circuit back toward the (usually shallow) failing cone.
        for out, _, _ in reversed(case.circuit["gates"]):
            candidate = delete_gate_from_dict(case.circuit, out)
            if candidate is None or not candidate["gates"]:
                continue
            reduced = self._with_circuit(case, candidate)
            if windows is not None and out in candidate["inputs"]:
                # Pin the promoted PI to the windows its cone produced,
                # so the downstream mismatch survives the cut.
                spec = windows.get(out)
                if spec is not None:
                    pi_windows = dict(reduced.pi_windows or {})
                    pi_windows[out] = spec
                    reduced = reduced.clone(pi_windows=pi_windows)
            yield reduced

    def _reference_windows(self, case: FuzzCase) -> Optional[dict]:
        """Scalar-reference windows per line of the case's circuit.

        Only computed for oracles that honor ``pi_windows`` overrides;
        cached per shrink run and invalidated whenever the accepted case
        changes (windows depend on the whole upstream circuit).
        """
        from ..characterize import CellLibrary
        from .oracles import get_oracle

        try:
            oracle = get_oracle(case.oracle)
        except KeyError:
            return None
        if not oracle.supports_pi_windows or case.circuit is None:
            return None
        key = case.to_dict()
        cached = self._windows_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        from ..sta.analysis import TimingAnalyzer
        from .case import window_to_list

        circuit = case.build_circuit()
        model = case.build_models()[0][1]
        result = TimingAnalyzer(
            circuit,
            CellLibrary.load_default(),
            model,
            case.build_sta_config(),
        ).analyze(pi_overrides=case.build_pi_overrides())
        windows = {
            line: {
                "rise": window_to_list(result.line(line).rise),
                "fall": window_to_list(result.line(line).fall),
            }
            for line in circuit.lines
        }
        self._windows_cache = (key, windows)
        return windows

    def _reduce_decisions(self, case: FuzzCase) -> Iterator[FuzzCase]:
        decisions = case.decisions
        if not decisions:
            return
        n = len(decisions)
        if n > 2:
            yield case.clone(decisions=decisions[: n // 2])
            yield case.clone(decisions=decisions[n // 2:])
        for i in range(n):
            yield case.clone(decisions=decisions[:i] + decisions[i + 1:])

    def _reduce_faults(self, case: FuzzCase) -> Iterator[FuzzCase]:
        faults = case.faults
        if not faults or len(faults) <= 1:
            return
        for i in range(len(faults)):
            yield case.clone(faults=faults[:i] + faults[i + 1:])

    def _reduce_windows(self, case: FuzzCase) -> Iterator[FuzzCase]:
        sta = case.sta
        if not sta:
            return
        a_s, a_l = sta["pi_arrival"]
        t_s, t_l = sta["pi_trans"]
        if a_l > a_s:
            yield case.clone(sta={**sta, "pi_arrival": [a_s, a_s]})
            yield case.clone(sta={**sta, "pi_arrival": [a_l, a_l]})
        if t_l > t_s:
            yield case.clone(sta={**sta, "pi_trans": [t_s, t_s]})
            yield case.clone(sta={**sta, "pi_trans": [t_l, t_l]})

    # ------------------------------------------------------------------
    @staticmethod
    def _with_circuit(case: FuzzCase, circuit: dict) -> FuzzCase:
        """Rebuild a case around a reduced circuit, dropping dangling refs."""
        overrides: dict = {"circuit": circuit}
        if case.faults is not None:
            overrides["faults"] = faults_valid_for(circuit, case.faults)
        if case.decisions is not None:
            inputs = set(circuit["inputs"])
            overrides["decisions"] = [
                [line, literal]
                for line, literal in case.decisions
                if line in inputs
            ]
        if case.pi_windows is not None:
            inputs = set(circuit["inputs"])
            overrides["pi_windows"] = {
                line: spec
                for line, spec in case.pi_windows.items()
                if line in inputs
            }
        return case.clone(**overrides)


def shrink_case(
    case: FuzzCase,
    check: Optional[Callable[[FuzzCase], object]] = None,
    max_checks: int = 240,
) -> ShrinkResult:
    """Convenience wrapper: minimize one failing case."""
    return Shrinker(check, max_checks).shrink(case)

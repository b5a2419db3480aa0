"""Timing-driven gate sizing over the incremental STA engine.

The paper's Section 7 frames the delay model's payoff as *applications*
— min-delay STA, ATPG — that interrogate a circuit thousands of times
under small perturbations.  This module is the canonical such client: a
gate-sizing optimizer that walks the critical path, tries a ladder of
drive strengths per gate, and commits whichever resize improves the
worst slack, refining with an optional simulated-annealing sweep.

Every candidate is costed through
:meth:`~repro.sta.incremental.IncrementalAnalyzer.try_edits`: one
batched cone sweep evaluates the whole size ladder of a gate as columns,
bitwise-identical to analyzing each variant from scratch, at a small
fraction of a full pass.  A commit adopts the winning trial column as
the engine's master state
(:meth:`~repro.sta.incremental.IncrementalAnalyzer.commit`), so it
re-times nothing, and an entire optimization run never pays a full
analysis beyond the initial baseline.  Only the MC cost's reverts and
the annealer's final restore of its best state re-time their cones.

Costs are deterministic WNS/TNS against a required time, or — for
variation-aware sizing — the q-quantile of the Monte Carlo max-delay
distribution from :mod:`repro.stat` (candidates are still *ranked*
deterministically; the expensive MC cost only gates commits).

Metrics are published under ``sta.opt.*``; the per-trial cost shows up
in the ``sta.incr.*`` counters that :class:`IncrementalAnalyzer` owns.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..obs import get_registry
from .analysis import StaConfig, TimingAnalyzer
from .incremental import IncrementalAnalyzer, TrialEdit
from .report import TimingReporter

NS = 1e-9

#: Geometric drive-strength ladder (≈sqrt(2) steps around unit size).
DEFAULT_SIZES: Tuple[float, ...] = (0.5, 0.7, 1.0, 1.4, 2.0, 2.8, 4.0, 5.7)


@dataclasses.dataclass(frozen=True)
class SizingConfig:
    """Knobs of the greedy + annealing sizing loop.

    Attributes:
        sizes: Candidate drive strengths (the trial ladder).
        max_passes: Greedy passes; each pass re-traces the critical path.
        gates_per_pass: Critical-path gates examined per pass, from the
            endpoint backwards (endpoint-side gates have the smallest
            fanout cones, so their trials are the cheapest).
        min_gain: Required cost improvement (seconds) to commit a resize.
        clock: Required time in seconds (None: the initial max arrival,
            so the initial WNS is zero and improvements read directly as
            picked-up slack).
        cost: ``"wns"`` (minimize worst arrival), ``"tns"`` (minimize
            total negative slack over outputs), or ``"mc_q95"`` (commits
            gated by the MC 95%-quantile max delay).
        anneal_steps: Simulated-annealing refinement steps (0 disables).
        anneal_batch: Random (gate, size) proposals tried per SA step —
            one ``try_edits`` batch.
        anneal_temp: Initial SA temperature in seconds (None: 1% of the
            initial max arrival).
        anneal_decay: Multiplicative temperature decay per step.
        seed: RNG seed for the SA proposal stream.
        mc_samples: Monte Carlo samples for the ``mc_q95`` cost.
        mc_quantile: Quantile of the MC max-delay distribution.
    """

    sizes: Tuple[float, ...] = DEFAULT_SIZES
    max_passes: int = 8
    gates_per_pass: int = 8
    min_gain: float = 1e-15
    clock: Optional[float] = None
    cost: str = "wns"
    anneal_steps: int = 0
    anneal_batch: int = 16
    anneal_temp: Optional[float] = None
    anneal_decay: float = 0.85
    seed: int = 0
    mc_samples: int = 96
    mc_quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.cost not in ("wns", "tns", "mc_q95"):
            raise ValueError(f"unknown cost mode {self.cost!r}")
        if not self.sizes:
            raise ValueError("need at least one candidate size")
        for size in self.sizes:
            if not (math.isfinite(size) and size > 0.0):
                raise ValueError(
                    f"candidate size must be finite and > 0, got {size!r}"
                )
        if self.clock is not None and not (
            math.isfinite(self.clock) and self.clock > 0.0
        ):
            raise ValueError(
                f"clock must be finite and > 0, got {self.clock!r}"
            )
        for name, low in (("max_passes", 0), ("anneal_steps", 0),
                          ("gates_per_pass", 1), ("anneal_batch", 1)):
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be >= {low}, got {getattr(self, name)!r}"
                )
        if not math.isfinite(self.min_gain):
            raise ValueError(f"min_gain must be finite, got {self.min_gain!r}")
        for name in ("anneal_temp", "anneal_decay"):
            value = getattr(self, name)
            if value is not None and not (
                math.isfinite(value) and value > 0.0
            ):
                raise ValueError(
                    f"{name} must be finite and > 0, got {value!r}"
                )
        if self.mc_samples <= 0:
            raise ValueError(
                f"mc_samples must be > 0, got {self.mc_samples!r}"
            )
        if not 0.0 < self.mc_quantile < 1.0:
            raise ValueError(
                f"mc_quantile must lie in (0, 1), got {self.mc_quantile!r}"
            )


@dataclasses.dataclass
class SizingResult:
    """Outcome of one optimization run.

    ``initial_wns``/``final_wns`` are against the required time (WNS =
    required - worst arrival; bigger is better).  ``resizes`` maps each
    changed gate to its (initial, final) size — the net diff, not the
    trial history.
    """

    circuit_name: str
    cost_mode: str
    required: float
    initial_cost: float
    final_cost: float
    initial_wns: float
    final_wns: float
    resizes: Dict[str, Tuple[float, float]]
    passes_run: int
    trials: int
    commits: int
    anneal_accepts: int

    @property
    def improved(self) -> bool:
        return self.final_cost < self.initial_cost

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit_name,
            "cost_mode": self.cost_mode,
            "required_ns": self.required / NS,
            "initial_cost_ns": self.initial_cost / NS,
            "final_cost_ns": self.final_cost / NS,
            "initial_wns_ns": self.initial_wns / NS,
            "final_wns_ns": self.final_wns / NS,
            "resizes": {
                line: {"from": old, "to": new}
                for line, (old, new) in sorted(self.resizes.items())
            },
            "passes_run": self.passes_run,
            "trials": self.trials,
            "commits": self.commits,
            "anneal_accepts": self.anneal_accepts,
        }

    def format(self) -> str:
        lines = [
            f"sizing [{self.cost_mode}] on {self.circuit_name}: "
            f"{self.trials} trials, {self.commits} commits, "
            f"{self.passes_run} passes",
            f"  required time : {self.required / NS:8.4f} ns",
            f"  WNS           : {self.initial_wns / NS:8.4f} -> "
            f"{self.final_wns / NS:8.4f} ns",
            f"  cost          : {self.initial_cost / NS:8.4f} -> "
            f"{self.final_cost / NS:8.4f} ns",
        ]
        if self.anneal_accepts:
            lines.append(f"  SA accepts    : {self.anneal_accepts}")
        if self.resizes:
            lines.append(f"  resized gates : {len(self.resizes)}")
            for line, (old, new) in sorted(self.resizes.items()):
                lines.append(f"    {line:>12}: x{old:g} -> x{new:g}")
        else:
            lines.append("  resized gates : none")
        return "\n".join(lines)


class GateSizer:
    """Greedy critical-path resizing with optional SA refinement.

    Args:
        incremental: The engine trials and commits run through.  Its
            circuit is mutated in place by committed resizes.
        config: Loop knobs.
    """

    def __init__(
        self,
        incremental: IncrementalAnalyzer,
        config: Optional[SizingConfig] = None,
    ) -> None:
        self.incr = incremental
        self.circuit: Circuit = incremental.circuit
        self.config = config or SizingConfig()
        obs = get_registry()
        self._obs = obs
        self._m_trials = obs.counter("sta.opt.trials")
        self._m_commits = obs.counter("sta.opt.commits")
        self._m_reverts = obs.counter("sta.opt.reverts")
        self._m_passes = obs.counter("sta.opt.passes")
        self._m_sa_accepts = obs.counter("sta.opt.anneal_accepts")
        self._trials = 0
        self._commits = 0
        self._sa_accepts = 0

    # ------------------------------------------------------------------
    # Cost functions
    # ------------------------------------------------------------------
    def _det_cost_columns(self, arrivals: np.ndarray) -> np.ndarray:
        """Per-column deterministic cost from (n_outputs, K) arrivals."""
        if self.config.cost == "tns":
            viol = np.maximum(arrivals - self._required, 0.0)
            return viol.sum(axis=0)
        # wns / mc_q95 ranking: worst arrival past the required time.
        return arrivals.max(axis=0) - self._required

    def _current_arrivals(self) -> np.ndarray:
        result = self.incr.result()
        out = []
        for po in self.circuit.outputs:
            timing = result.line(po)
            vals = [
                w.a_l for w in (timing.rise, timing.fall) if w.is_active
            ]
            out.append(max(vals) if vals else -np.inf)
        return np.array(out)

    def _det_cost_now(self) -> float:
        return float(self._det_cost_columns(self._current_arrivals()[:, None])[0])

    def _mc_cost(self) -> float:
        """q-quantile of the MC max-delay distribution, minus required."""
        from ..stat import run_mc

        result = run_mc(
            self.circuit,
            self.incr.library,
            samples=self.config.mc_samples,
            seed=self.config.seed,
        )
        q = result.quantiles((self.config.mc_quantile,))
        return q[self.config.mc_quantile] - self._required

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SizingResult:
        """Optimize and return the outcome (the circuit keeps the best
        sizes found; every commit went through the incremental engine)."""
        cfg = self.config
        self.incr.result()  # ensure a baseline exists
        initial_sizes = {
            line: g.size for line, g in self.circuit.gates.items()
        }
        arrivals = self._current_arrivals()
        worst = float(arrivals.max())
        self._required = cfg.clock if cfg.clock is not None else worst
        initial_wns = self._required - worst

        use_mc = cfg.cost == "mc_q95"
        cur_cost = self._mc_cost() if use_mc else self._det_cost_now()
        initial_cost = cur_cost

        passes_run = 0
        with self._obs.timer("sta.opt.wall_s"):
            for _ in range(cfg.max_passes):
                passes_run += 1
                self._m_passes.inc()
                improved, cur_cost = self._greedy_pass(cur_cost, use_mc)
                if not improved:
                    break
            if cfg.anneal_steps > 0:
                cur_cost = self._anneal(cur_cost, use_mc)

        final_wns = self._required - float(self._current_arrivals().max())
        resizes = {
            line: (initial_sizes[line], g.size)
            for line, g in self.circuit.gates.items()
            if g.size != initial_sizes[line]
        }
        return SizingResult(
            circuit_name=self.circuit.name,
            cost_mode=cfg.cost,
            required=self._required,
            initial_cost=initial_cost,
            final_cost=cur_cost,
            initial_wns=initial_wns,
            final_wns=final_wns,
            resizes=resizes,
            passes_run=passes_run,
            trials=self._trials,
            commits=self._commits,
            anneal_accepts=self._sa_accepts,
        )

    def _critical_gates(self) -> List[str]:
        """Critical-path gates, endpoint first (smallest cones first)."""
        reporter = TimingReporter(self.incr.analyzer, self.incr.result())
        path = reporter.critical_path()
        gates = [
            stage.line
            for stage in reversed(path.stages)
            if stage.line in self.circuit.gates
        ]
        return gates[: self.config.gates_per_pass]

    def _ladder(self, line: str) -> List[TrialEdit]:
        cur = self.circuit.gates[line].size
        return [
            TrialEdit("resize", line, s)
            for s in self.config.sizes
            if s != cur
        ]

    def _greedy_pass(
        self, cur_cost: float, use_mc: bool
    ) -> Tuple[bool, float]:
        """One walk along the critical path; commits every improving
        resize it finds.  Returns (any commit made, updated cost)."""
        cfg = self.config
        improved = False
        for line in self._critical_gates():
            edits = self._ladder(line)
            if not edits:
                continue
            trial = self.incr.try_edits(edits)
            self._trials += len(edits)
            self._m_trials.inc(len(edits))
            costs = self._det_cost_columns(trial.output_arrivals())
            best = int(np.argmin(costs))
            det_ref = self._det_cost_now() if use_mc else cur_cost
            if det_ref - costs[best] <= cfg.min_gain:
                continue
            old_size = self.circuit.gates[line].size
            self.incr.commit(trial, best)
            if use_mc:
                # Deterministic ranking proposed it; the MC quantile has
                # the final say on the commit.
                mc_cost = self._mc_cost()
                if cur_cost - mc_cost <= cfg.min_gain:
                    self.incr.resize_gate(line, old_size)
                    self._m_reverts.inc()
                    continue
                cur_cost = mc_cost
            else:
                # Trial columns are bitwise-exact, so the committed cost
                # is exactly the trial's.
                cur_cost = float(costs[best])
            improved = True
            self._commits += 1
            self._m_commits.inc()
        return improved, cur_cost

    def _anneal(self, cur_cost: float, use_mc: bool) -> float:
        """Batched simulated annealing over random (gate, size) moves.

        Each step costs one ``try_edits`` batch; the best proposal of
        the batch is accepted greedily or by Metropolis.  The best state
        seen is restored at the end, so refinement can only help.
        """
        cfg = self.config
        rng = random.Random(cfg.seed)
        gates = list(self.circuit.gates)
        temp = (
            cfg.anneal_temp
            if cfg.anneal_temp is not None
            else 0.01 * max(abs(self._required), NS)
        )
        best_cost = cur_cost
        best_sizes = {l: g.size for l, g in self.circuit.gates.items()}
        for _ in range(cfg.anneal_steps):
            edits = []
            seen = set()
            while len(edits) < cfg.anneal_batch:
                line = rng.choice(gates)
                size = rng.choice(cfg.sizes)
                if size == self.circuit.gates[line].size:
                    continue
                if (line, size) in seen:
                    continue
                seen.add((line, size))
                edits.append(TrialEdit("resize", line, size))
            trial = self.incr.try_edits(edits)
            self._trials += len(edits)
            self._m_trials.inc(len(edits))
            costs = self._det_cost_columns(trial.output_arrivals())
            best = int(np.argmin(costs))
            det_now = self._det_cost_now() if use_mc else cur_cost
            delta = float(costs[best]) - det_now
            accept = delta < 0 or (
                temp > 0.0 and rng.random() < np.exp(-delta / temp)
            )
            if accept:
                self.incr.commit(trial, best)
                if use_mc:
                    cur_cost = self._mc_cost()
                else:
                    cur_cost = float(costs[best])
                self._sa_accepts += 1
                self._m_sa_accepts.inc()
                if cur_cost < best_cost:
                    best_cost = cur_cost
                    best_sizes = {
                        l: g.size for l, g in self.circuit.gates.items()
                    }
            temp *= cfg.anneal_decay
        # Restore the best state seen (SA may end uphill): every changed
        # gate at once, then one replay of their union cone.
        restored = False
        for line, size in best_sizes.items():
            if self.circuit.gates[line].size != size:
                self.circuit.resize_gate(line, size)
                restored = True
        if restored:
            self.incr.retime()
        return best_cost


def optimize_sizing(
    circuit: Circuit,
    library=None,
    model=None,
    config: Optional[SizingConfig] = None,
    sta_config: Optional[StaConfig] = None,
) -> SizingResult:
    """One-call sizing: build the incremental engine and run the sizer.

    The circuit is mutated in place to the best sizes found.
    """
    from ..characterize import CellLibrary

    if library is None:
        library = CellLibrary.load_default()
    analyzer = TimingAnalyzer(circuit, library, model, sta_config)
    sizer = GateSizer(IncrementalAnalyzer(analyzer), config)
    return sizer.run()

"""Variation-aware Monte Carlo STA (statistical timing).

The deterministic analyzer answers "what is the delay with the fitted
coefficients"; this package answers "what is the delay *distribution*
when those coefficients drift with process".  It perturbs the
characterized V-shape quantities with a seeded Gaussian variation model
(:mod:`repro.stat.variation`), propagates all samples of a block through
one level-compiled pass whose batch axis is the sample axis
(:mod:`repro.stat.engine`), fans blocks out over a process pool with
bit-identical reassembly (:mod:`repro.stat.runner`), and aggregates
delay / slack / criticality statistics (:mod:`repro.stat.aggregate`).
"""

from .aggregate import DEFAULT_QUANTILES, McResult
from .engine import MonteCarloEngine
from .runner import DEFAULT_BLOCK, MC_MODELS, plan_blocks, run_mc
from .variation import VariationModel

__all__ = [
    "DEFAULT_BLOCK",
    "DEFAULT_QUANTILES",
    "MC_MODELS",
    "McResult",
    "MonteCarloEngine",
    "VariationModel",
    "plan_blocks",
    "run_mc",
]

"""Extension experiment: variation-aware Monte Carlo STA.

The paper's applications (Sections 5-7) run deterministic worst-case
STA with the fitted V-shape coefficients.  This experiment extends that
to process variation: the characterized coefficients are perturbed by a
seeded Gaussian model (correlated per cell type, independent per gate)
and the resulting delay distribution of a benchmark circuit is
tabulated — the quantile margins a variation-aware flow would sign off
against instead of the single nominal number.

Three structural guarantees are recorded as findings because the rest
of the reproduction leans on them: a zero-sigma run reproduces the
scalar per-gate analyzer bit-for-bit, the pooled sampler is
bit-identical to the serial one, and every level-compiled sample column
is bit-identical to the scalar walk run with that sample's factors —
sampling depth, worker count, and forward-pass engine are all pure
execution strategy.
"""

from __future__ import annotations

import numpy as np

from ..characterize import CellLibrary
from ..circuit import load_packaged_bench
from ..sta import TimingAnalyzer
from ..stat import (
    DEFAULT_BLOCK,
    MonteCarloEngine,
    VariationModel,
    plan_blocks,
    run_mc,
)
from .common import ExperimentResult, NS

QUANTILES = (0.5, 0.9, 0.95, 0.99)


def run(
    bench: str = "c432s",
    samples: int = 256,
    seed: int = 7,
    sigma_corr: float = 0.05,
    sigma_ind: float = 0.03,
) -> ExperimentResult:
    circuit = load_packaged_bench(bench)
    library = CellLibrary.load_default()
    variation = VariationModel(sigma_corr=sigma_corr, sigma_ind=sigma_ind)
    result = run_mc(
        circuit, library, variation=variation, samples=samples, seed=seed
    )

    quantiles = result.quantiles(QUANTILES)
    slack = result.slack_quantiles(QUANTILES)
    rows = [
        [f"q{q:g}", quantiles[q] / NS, slack[q] / NS]
        for q in QUANTILES
    ]

    # Structural guarantees: sigma-zero reproduces deterministic STA
    # exactly, and neither the process pool nor the compiled pass ever
    # changes a single bit.
    nominal_run = run_mc(
        circuit, library, samples=1, seed=seed,
        variation=VariationModel(sigma_corr=0.0, sigma_ind=0.0),
    )
    deterministic = TimingAnalyzer(circuit, library).analyze_per_gate()
    pooled = run_mc(
        circuit, library, variation=variation, samples=samples, seed=seed,
        jobs=2,
    )
    # Every sample again through the scalar walk, with the factors
    # run_mc drew for it: per-output latest and earliest arrivals.
    engine = MonteCarloEngine(circuit, library)
    analyzer = TimingAnalyzer(circuit, library)
    late, early = [], []
    for start, size in plan_blocks(samples, DEFAULT_BLOCK):
        factors = variation.factors_for_block(
            seed, start, engine.cell_index, len(engine.cell_names), size
        )
        for column in factors.T:
            walk = analyzer.analyze_per_gate(factors=column)
            outputs = [walk.line(po) for po in circuit.outputs]
            late.append([t.latest_arrival() for t in outputs])
            early.append([t.earliest_arrival() for t in outputs])
    top_output, top_share = max(
        result.criticality().items(), key=lambda item: item[1]
    )
    delay = result.delay
    return ExperimentResult(
        experiment="extension-mc-sta",
        title=(
            f"Monte Carlo STA under K-coefficient variation "
            f"({bench}, {samples} samples, "
            f"sigma {sigma_corr:g}/{sigma_ind:g})"
        ),
        headers=["quantile", "delay (ns)", "slack vs nominal (ns)"],
        rows=rows,
        findings={
            "nominal_ns": result.nominal_max / NS,
            "mean_ns": float(delay.mean()) / NS,
            "std_ns": float(delay.std()) / NS,
            "q99_margin_ns": (quantiles[0.99] - result.nominal_max) / NS,
            "top_critical_output": top_output,
            "top_critical_share": top_share,
            "sigma0_matches_deterministic": (
                float(nominal_run.delay[0])
                == deterministic.output_max_arrival()
            ),
            "jobs_bit_identical": bool(
                np.array_equal(result.po_max, pooled.po_max)
                and np.array_equal(result.po_min, pooled.po_min)
            ),
            "level_engine_bit_identical": bool(
                np.array_equal(result.po_max, np.array(late).T)
                and np.array_equal(result.po_min, np.array(early).T)
            ),
        },
        paper_reference=(
            "beyond the paper: its applications (Sections 5-7) sign off "
            "on a single deterministic worst case; this extension reports "
            "the delay distribution when the Section 3 coefficients drift "
            "with process variation"
        ),
    )

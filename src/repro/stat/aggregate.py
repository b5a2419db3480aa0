"""Aggregation of Monte Carlo timing samples.

Turns the raw per-output arrival arrays into the statistics the paper's
applications care about: the circuit max/min-delay distributions, slack
quantiles against a clock period, and a criticality histogram — how
often each primary output is the sample's critical (latest) endpoint,
which is the statistical analogue of "the critical path" and the
quantity a variation-aware optimizer would attack first.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from .variation import VariationModel

#: Default quantile set reported by the CLI and the benchmarks.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


@dataclasses.dataclass
class McResult:
    """Aggregated Monte Carlo STA result.

    Attributes:
        circuit_name: Name of the analyzed circuit.
        outputs: Primary outputs, in circuit order (criticality indices
            refer to this list).
        samples: Number of Monte Carlo samples.
        seed: Master RNG seed.
        block: Sample-block size the draws were keyed by.
        model: Delay-model name.
        variation: The perturbation model used.
        nominal_max: Deterministic STA max arrival (the sigma-zero
            reference and the default clock period for slack).
        nominal_min: Deterministic STA min arrival.
        po_max: Latest arrival per output per sample,
            shape ``(n_outputs, samples)``.
        po_min: Earliest arrival per output per sample.
    """

    circuit_name: str
    outputs: List[str]
    samples: int
    seed: int
    block: int
    model: str
    variation: VariationModel
    nominal_max: float
    nominal_min: float
    po_max: np.ndarray
    po_min: np.ndarray

    # ------------------------------------------------------------------
    # Distributions
    # ------------------------------------------------------------------
    @property
    def delay(self) -> np.ndarray:
        """Circuit max-delay per sample (setup-critical quantity)."""
        return self.po_max.max(axis=0)

    @property
    def min_delay(self) -> np.ndarray:
        """Circuit min-delay per sample (hold-critical quantity)."""
        return self.po_min.min(axis=0)

    def quantiles(
        self, qs: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[float, float]:
        delay = self.delay
        return {float(q): float(np.quantile(delay, q)) for q in qs}

    def slack(self, period: Optional[float] = None) -> np.ndarray:
        """Per-sample setup slack against ``period``.

        Defaults to the deterministic max arrival, so nominal slack is
        zero and the distribution directly reads as "margin lost to
        variation".

        Raises:
            ValueError: If ``period`` is given and not finite and > 0.
        """
        if period is None:
            period = self.nominal_max
        elif not (math.isfinite(period) and period > 0.0):
            raise ValueError(
                f"period must be finite and > 0, got {period!r}"
            )
        return period - self.delay

    def slack_quantiles(
        self,
        qs: Sequence[float] = DEFAULT_QUANTILES,
        period: Optional[float] = None,
    ) -> Dict[float, float]:
        """Slack at 1-q per delay quantile q (q=0.99 -> 1%-worst slack)."""
        slack = self.slack(period)
        return {float(q): float(np.quantile(slack, 1.0 - q)) for q in qs}

    # ------------------------------------------------------------------
    # Criticality
    # ------------------------------------------------------------------
    def critical_indices(self) -> np.ndarray:
        """Index into ``outputs`` of each sample's latest endpoint.

        Ties break to the first output in circuit order (``argmax``
        semantics), which is deterministic and jobs-independent.
        """
        return np.argmax(self.po_max, axis=0)

    def criticality(self) -> Dict[str, float]:
        """Fraction of samples in which each output is the critical one."""
        counts = np.bincount(
            self.critical_indices(), minlength=len(self.outputs)
        )
        return {
            name: float(count) / self.samples
            for name, count in zip(self.outputs, counts)
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def summary(
        self,
        qs: Sequence[float] = DEFAULT_QUANTILES,
        period: Optional[float] = None,
    ) -> dict:
        """JSON-able summary (used by ``repro-sta mc --json`` and CI)."""
        delay = self.delay
        return {
            "circuit": self.circuit_name,
            "model": self.model,
            "samples": self.samples,
            "seed": self.seed,
            "block": self.block,
            "variation": self.variation.to_dict(),
            "nominal_max_s": self.nominal_max,
            "nominal_min_s": self.nominal_min,
            "period_s": float(
                period if period is not None else self.nominal_max
            ),
            "mean_s": float(delay.mean()),
            "std_s": float(delay.std()),
            "min_s": float(delay.min()),
            "max_s": float(delay.max()),
            "quantiles_s": {
                str(q): v for q, v in self.quantiles(qs).items()
            },
            "slack_quantiles_s": {
                str(q): v
                for q, v in self.slack_quantiles(qs, period).items()
            },
            "criticality": self.criticality(),
        }

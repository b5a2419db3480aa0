"""Process-variation model for the Monte Carlo STA engine.

The paper's V-shape coefficients (DR arcs, D0R / SR surfaces, the
transition-time vertex) are fitted from one deterministic
characterization, but those are exactly the quantities that drift with
process.  :class:`VariationModel` perturbs them with the standard
two-component decomposition used by statistical gate delay models:

* a **correlated** Gaussian term shared by every instance of the same
  cell type (die-to-die / systematic drift of the cell's drive), and
* an **independent** Gaussian term per gate instance (random local
  mismatch).

Each sample draws one multiplicative factor per gate,

    ``F = 1 + sigma_corr * Z_cell + sigma_ind * Z_gate``

(clipped to a positive floor), and every *time-valued* characterized
quantity of that gate — arc delay and transition polynomial values, D0,
the saturation skews S+/S-, the transition vertex — is scaled by ``F``.
Because every fitted surface is linear in its K-coefficients, scaling
the evaluated values is exactly equivalent to scaling the coefficients
themselves, so the engine can apply ``F`` at the anchor level without
re-fitting anything.

Determinism contract
--------------------
Draws are keyed by ``(seed, block_start)`` through a
``numpy.random.SeedSequence``, never by worker identity: sample block
``[start, start+n)`` always sees the same factors no matter how many
processes compute it, which is what makes ``--jobs N`` bit-identical to
a serial run.  At ``sigma_corr == sigma_ind == 0`` the factors are the
exact float ``1.0``, and multiplying an IEEE double by ``1.0`` is the
identity — so a zero-sigma Monte Carlo run reproduces the deterministic
STA bit-for-bit, which the ``mc`` fuzz oracle enforces.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


@dataclasses.dataclass(frozen=True)
class VariationModel:
    """Gaussian perturbation of the characterized timing coefficients.

    Args:
        sigma_corr: Relative sigma of the per-cell-type correlated term
            (shared by all instances of the same cell).
        sigma_ind: Relative sigma of the per-gate independent term.
        floor: Lower clip on the multiplicative factor; keeps extreme
            tail draws from producing zero or negative delays.

    Raises:
        ValueError: If a sigma is not finite and >= 0, or ``floor`` is
            outside (0, 1].
    """

    sigma_corr: float = 0.05
    sigma_ind: float = 0.03
    floor: float = 0.05

    def __post_init__(self) -> None:
        for name in ("sigma_corr", "sigma_ind"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0.0):
                raise ValueError(
                    f"variation {name} must be finite and >= 0, "
                    f"got {sigma!r}"
                )
        if not 0.0 < self.floor <= 1.0:
            raise ValueError("variation floor must be in (0, 1]")

    @property
    def is_nominal(self) -> bool:
        """True when every drawn factor is exactly 1.0."""
        return self.sigma_corr == 0.0 and self.sigma_ind == 0.0

    def factors_for_block(
        self,
        seed: int,
        start: int,
        cell_index: np.ndarray,
        n_cells: int,
        n_samples: int,
    ) -> np.ndarray:
        """Per-gate factors of sample block ``[start, start+n_samples)``.

        Args:
            seed: Master Monte Carlo seed.
            start: Global index of the block's first sample.  The RNG is
                seeded from ``(seed, start)``, so a block's draws do not
                depend on which worker computes it or on ``jobs``.
            cell_index: For each gate (topological order), the index of
                its cell type in the sorted cell-name list.
            n_cells: Number of distinct cell types in the circuit.
            n_samples: Block size.

        Returns:
            Array of shape ``(len(cell_index), n_samples)``: the
            multiplicative factor of each gate for each sample.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(start)])
        )
        # Both families are always drawn (even at sigma 0) so the stream
        # layout — and therefore every factor — depends only on the
        # circuit and (seed, start), not on which sigmas are active.
        corr = rng.standard_normal((n_cells, n_samples))
        ind = rng.standard_normal((len(cell_index), n_samples))
        factors = (
            1.0
            + self.sigma_corr * corr[cell_index]
            + self.sigma_ind * ind
        )
        return np.maximum(factors, self.floor)

    def to_dict(self) -> dict:
        return {
            "sigma_corr": self.sigma_corr,
            "sigma_ind": self.sigma_ind,
            "floor": self.floor,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "VariationModel":
        return cls(**payload)

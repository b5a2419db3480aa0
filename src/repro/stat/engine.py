"""Sample-axis vectorized Monte Carlo window propagation.

A naive Monte Carlo re-times the circuit N times.  This engine instead
gives every numeric window field a trailing *sample axis* and pushes
all N coefficient draws of a block through **one** forward pass: the
level-compiled engine of :mod:`repro.sta.compile`, whose trailing batch
axis is the sample axis.  The deterministic nominal answer rides the
first block as one extra factor-1.0 column (:meth:`MonteCarloEngine
.block_extremes`), so a run pays for one compile, one pass per block and
no separate nominal pass.

Two ingredients are specific to Monte Carlo:

* the per-gate variation factor ``F`` (see
  :class:`repro.stat.variation.VariationModel`) multiplies every
  time-valued characterized quantity at the anchor level, which is
  exactly equivalent to scaling the fitted K-coefficients because each
  surface is linear in them;
* the window *states* (DEFINITE / POTENTIAL / IMPOSSIBLE) are
  structural — they depend on the circuit and the library's arc table,
  never on numeric window values — so they are computed once and shared
  by every sample.

Exactness contract: every sample column performs bit-for-bit the float
operations of the scalar reference walk
(:meth:`repro.sta.analysis.TimingAnalyzer.analyze_per_gate`) run with
that column's factors (``factors=``) and the engine's derates
(``derates=``); with ``F == 1.0`` that is the plain walk, since
multiplying an IEEE double by 1.0 is the identity.  The ``mc`` fuzz
oracle, the ``test_sta_compile`` parity suite and the sigma-zero tests
enforce this.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..characterize.library import CellLibrary
from ..circuit.netlist import Circuit
from ..models.base import DelayModel
from ..models.vshape import VShapeModel
from ..sta.analysis import StaConfig, StaResult, TimingAnalyzer
from ..sta.compile import CompiledWindows, check_derates
from ..sta.windows import IMPOSSIBLE


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class MonteCarloEngine:
    """Propagates N perturbed timing samples per pass over the circuit.

    Args:
        circuit: Gate-level circuit under analysis.
        library: Characterized cell library.
        model: Delay model (defaults to the proposed V-shape model).
        config: STA boundary conditions.
        derate: Optional ``(early, late)`` timing-derate pair (see
            :mod:`repro.pvt`): min-side responses multiply by the early
            derate and max-side responses by the late derate, after the
            per-gate variation factor.  ``None`` applies no derate
            multiplies at all (not even by 1.0), matching the compiled
            engine's ``derates=None``.

    Raises:
        ValueError: If ``derate`` breaks
            :func:`repro.sta.compile.check_derates`.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: CellLibrary,
        model: Optional[DelayModel] = None,
        config: Optional[StaConfig] = None,
        derate: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.circuit = circuit
        self.library = library
        self.model = model if model is not None else VShapeModel()
        self.config = config or StaConfig()
        self.derate = (
            None if derate is None
            else (float(derate[0]), float(derate[1]))
        )
        if self.derate is not None:
            check_derates(self.derate)
        self.analyzer = TimingAnalyzer(
            circuit, library, self.model, self.config
        )
        self._nominal: Optional[StaResult] = None
        self._level = self.analyzer.level_engine()
        outputs = [self._level.compiled.line_index[o] for o in circuit.outputs]
        #: SoA rows of the primary outputs: every rise row, then every
        #: fall row.
        self._po_rows = np.array(
            outputs + [i + self._level.compiled.n_lines for i in outputs],
            dtype=np.intp,
        )
        #: Gate output lines in propagation order; row ``i`` of a factor
        #: matrix perturbs ``gate_order[i]``.
        self.gate_order: List[str] = circuit.topological_order()
        gate_cells = self._level.compiled.layout.gate_cells
        self.cell_names: List[str] = sorted(set(gate_cells))
        pos = {name: i for i, name in enumerate(self.cell_names)}
        self.cell_index = np.array(
            [pos[name] for name in gate_cells], dtype=np.intp
        )

    @property
    def n_gates(self) -> int:
        return len(self.gate_order)

    @property
    def nominal(self) -> StaResult:
        """Deterministic pass (no variation, no derate) from the compile
        the sample blocks run on, computed on first use.

        Only the references need it as a full :class:`StaResult` (the
        ``mc`` oracle diffs it); Monte Carlo runs read the nominal
        extremes from the extra column of the first block instead.
        """
        if self._nominal is None:
            self._nominal = self.analyzer.analyze()
        return self._nominal

    # ------------------------------------------------------------------
    # Forward propagation
    # ------------------------------------------------------------------
    def propagate(self, factors: np.ndarray) -> CompiledWindows:
        """One compiled pass: all samples of a block, every line.

        Args:
            factors: Per-gate variation factors, shape
                ``(n_gates, n_samples)`` aligned with ``gate_order``
                (the compiled pass's factor rows use the same order).

        Returns:
            The pass's SoA windows, one column per sample: read a
            sample through ``line_timing(line, k)`` or a
            :class:`~repro.sta.compile.ColumnTimings` view.
        """
        return self._level.propagate(factors, derates=self.derate)

    def block_extremes(
        self, factors: np.ndarray, nominal: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[float, float]]]:
        """One compiled pass, reduced to per-output extremes.

        Reads the primary-output rows straight from the SoA block: per
        output, the latest ``a_l`` and the earliest ``a_s`` over its
        active directions (an inactive direction contributes
        ``-inf`` / ``+inf``).

        Args:
            factors: Per-gate variation factors ``(n_gates, n_samples)``.
            nominal: Append one factor-1.0 column (derate 1.0 in that
                column when the engine is derated — multiplying by 1.0
                is exact) and report its extremes: the deterministic
                answer, bit for bit, without a pass of its own.

        Returns:
            ``(po_max, po_min, nominal_extremes)``: the samples'
            ``(n_outputs, n_samples)`` latest / earliest arrivals and,
            with ``nominal``, the deterministic ``(max, min)`` over the
            outputs (else ``None``).
        """
        derates = self.derate
        if nominal:
            factors = np.concatenate(
                [factors, np.ones((factors.shape[0], 1))], axis=1
            )
            if derates is not None:
                derates = tuple(
                    np.append(np.full(factors.shape[1] - 1, d), 1.0)
                    for d in derates
                )
        compiled = self._level.propagate(factors, derates=derates)
        rows = self._po_rows
        active = (compiled.states[rows] != IMPOSSIBLE)[:, None]
        if not active.any():
            raise ValueError("no active output transitions")
        late = np.where(active, compiled.a_l[rows], -np.inf)
        early = np.where(active, compiled.a_s[rows], np.inf)
        half = len(self.circuit.outputs)
        po_max = np.maximum(late[:half], late[half:])
        po_min = np.minimum(early[:half], early[half:])
        if not nominal:
            return po_max, po_min, None
        extremes = (float(po_max[:, -1].max()), float(po_min[:, -1].min()))
        return po_max[:, :-1], po_min[:, :-1], extremes

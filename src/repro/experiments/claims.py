"""Section 3.5 validation: Claims 1 and 2 of the paper.

Claim 1: the minimal delay of d_R(T_X, T_Y, skew) sits at zero skew for
every (T_X, T_Y).

Claim 2: the V-shape approximation accurately captures the shape of the
skew-delay curve for all fixed transition times.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..characterize import CellLibrary
from ..models import VShapeModel
from ..spice import GateCell, RampStimulus, simulate_gate
from ..tech import GENERIC_05UM as TECH
from .common import ExperimentResult, NS

ARRIVAL = 2 * NS


def run(
    t_grid=(0.25 * NS, 0.6 * NS, 1.2 * NS),
    n_skews: int = 7,
) -> ExperimentResult:
    cell = GateCell("nand", 2, TECH)
    nand2 = CellLibrary.load_default().cell("NAND2")
    model = VShapeModel()
    skews = np.linspace(-0.45 * NS, 0.45 * NS, n_skews)
    zero_index = int(np.argmin(np.abs(skews)))

    rows = []
    claim1_holds = True
    worst_rel_error = 0.0
    for t_x in t_grid:
        for t_y in t_grid:
            measured: List[float] = []
            for skew in skews:
                sim = simulate_gate(cell, [
                    RampStimulus.transition(False, ARRIVAL, t_x, TECH.vdd),
                    RampStimulus.transition(False, ARRIVAL + skew, t_y,
                                            TECH.vdd),
                ])
                measured.append(sim.delay_from_earliest())
            min_index = int(np.argmin(measured))
            at_zero = min_index == zero_index
            claim1_holds = claim1_holds and at_zero
            shape = model.vshape(nand2, 0, 1, t_x, t_y, nand2.ref_load)
            errors = [
                abs(shape.delay(float(s)) - m)
                for s, m in zip(skews, measured)
            ]
            rel = max(errors) / max(measured)
            worst_rel_error = max(worst_rel_error, rel)
            rows.append([
                t_x / NS, t_y / NS,
                "yes" if at_zero else "NO",
                max(errors) / NS,
                100.0 * rel,
            ])
    return ExperimentResult(
        experiment="claims-3.5",
        title="Claim 1 (min at zero skew) and Claim 2 (V-shape fidelity)",
        headers=["T_X (ns)", "T_Y (ns)", "min at skew 0?",
                 "max err (ns)", "rel err (%)"],
        rows=rows,
        findings={
            "claim1_minimum_at_zero_skew": claim1_holds,
            "claim2_worst_relative_error_pct": 100.0 * worst_rel_error,
        },
        paper_reference=(
            "Claim 1: minimal delay always at zero skew; Claim 2: the "
            "V-shape captures the curve for all fixed transition times"
        ),
    )

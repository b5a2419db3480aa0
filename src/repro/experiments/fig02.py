"""Figure 2: gate delay as a function of input skew, and its V-shape fit.

Sweeps the skew between two falling NAND2 inputs, overlays the fitted
piecewise-linear approximation through (S0R, D0R), (SR, DR), (SYR, DYR),
and reports the approximation error.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..characterize import CellLibrary
from ..models import VShapeModel
from ..spice import GateCell, RampStimulus, simulate_gate
from ..tech import GENERIC_05UM as TECH
from .common import ExperimentResult, NS, max_abs_error

ARRIVAL = 2 * NS


def run(
    t_x: float = 0.5 * NS,
    t_y: float = 0.5 * NS,
    n_skews: int = 13,
) -> ExperimentResult:
    cell = GateCell("nand", 2, TECH)
    library = CellLibrary.load_default()
    nand2 = library.cell("NAND2")
    shape = VShapeModel().vshape(nand2, 0, 1, t_x, t_y, nand2.ref_load)

    skews = np.linspace(-0.6 * NS, 0.6 * NS, n_skews)
    measured: List[float] = []
    approximated: List[float] = []
    rows = []
    for skew in skews:
        sim = simulate_gate(cell, [
            RampStimulus.transition(False, ARRIVAL, t_x, TECH.vdd),
            RampStimulus.transition(False, ARRIVAL + skew, t_y, TECH.vdd),
        ])
        d_sim = sim.delay_from_earliest()
        d_fit = shape.delay(float(skew))
        measured.append(d_sim)
        approximated.append(d_fit)
        rows.append([skew / NS, d_sim / NS, d_fit / NS])

    zero_index = int(np.argmin(np.abs(skews)))
    return ExperimentResult(
        experiment="figure-2",
        title="NAND2 rising delay vs skew with V-shape approximation",
        headers=["skew (ns)", "simulated (ns)", "V-shape (ns)"],
        rows=rows,
        findings={
            "min_delay_at_zero_skew": bool(
                np.argmin(measured) == zero_index
            ),
            "anchor_D0R_ns": shape.vertex / NS,
            "anchor_DR_ns": shape.tail_pos / NS,
            "anchor_DYR_ns": shape.tail_neg / NS,
            "anchor_SR_ns": shape.s_pos / NS,
            "anchor_SYR_ns": shape.s_neg / NS,
            "max_abs_error_ns": max_abs_error(measured, approximated) / NS,
            "tail_error_ns": abs(measured[-1] - approximated[-1]) / NS,
        },
        paper_reference=(
            "delay vs skew forms a V with flat pin-to-pin tails; the "
            "three-point linear approximation captures the curve shape"
        ),
    )

"""Figure 12: skew sweep of the simultaneous-switching delay, all models.

Fixed transition times on both NAND2 inputs; the skew varies across the
interaction window.  The proposed V-shape matches the simulator over the
whole range, Jun's collapse fails at large skews, and Nabavi's is the
least accurate overall — the paper's headline comparison.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..characterize import CellLibrary
from ..models import InputEvent, JunModel, NabaviModel, VShapeModel
from ..spice import GateCell, RampStimulus, simulate_gate
from ..tech import GENERIC_05UM as TECH
from .common import ExperimentResult, NS, max_abs_error

ARRIVAL = 2 * NS


def run(
    t_x: float = 0.5 * NS,
    t_y: float = 0.5 * NS,
    n_skews: int = 11,
) -> ExperimentResult:
    cell = GateCell("nand", 2, TECH)
    nand2 = CellLibrary.load_default().cell("NAND2")
    models = {
        "proposed": VShapeModel(),
        "jun": JunModel(),
        "nabavi": NabaviModel(),
    }
    skews = np.linspace(-0.6 * NS, 0.6 * NS, n_skews)

    measured: List[float] = []
    predictions: Dict[str, List[float]] = {name: [] for name in models}
    rows = []
    for skew in skews:
        sim = simulate_gate(cell, [
            RampStimulus.transition(False, ARRIVAL, t_x, TECH.vdd),
            RampStimulus.transition(False, ARRIVAL + skew, t_y, TECH.vdd),
        ])
        d_sim = sim.delay_from_earliest()
        measured.append(d_sim)
        events = [
            InputEvent(0, ARRIVAL, t_x, False),
            InputEvent(1, ARRIVAL + float(skew), t_y, False),
        ]
        row = [skew / NS, d_sim / NS]
        for name, model in models.items():
            delay, _ = model.controlling_response(
                nand2, events, nand2.ref_load
            )
            predictions[name].append(delay)
            row.append(delay / NS)
        rows.append(row)

    errors = {
        name: max_abs_error(measured, series) / NS
        for name, series in predictions.items()
    }
    # Error at the largest skews only (where Jun's model breaks down).
    tails = [0, len(measured) - 1]
    tail_errors = {
        name: max(abs(measured[i] - series[i]) for i in tails) / NS
        for name, series in predictions.items()
    }
    return ExperimentResult(
        experiment="figure-12",
        title="NAND2 simultaneous switch, skew sweep, all models",
        headers=["skew (ns)", "spice", "proposed", "jun", "nabavi"],
        rows=rows,
        findings={
            **{f"{name}_max_err_ns": err for name, err in errors.items()},
            "proposed_tail_err_ns": tail_errors["proposed"],
            "jun_tail_err_ns": tail_errors["jun"],
            "proposed_best_overall": (
                errors["proposed"] <= min(errors["jun"], errors["nabavi"])
            ),
            "jun_fails_at_large_skew": (
                tail_errors["jun"] > 3 * tail_errors["proposed"]
            ),
        },
        paper_reference=(
            "our approach matches HSPICE; Jun's fails to capture the "
            "delay for large skew; Nabavi's is the least accurate"
        ),
    )

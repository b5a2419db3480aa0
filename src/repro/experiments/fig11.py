"""Figure 11: simultaneous switching with unequal transition times.

Both NAND2 inputs fall at zero skew with T_X fixed at 0.5 ns while T_Y
sweeps.  The proposed model and Jun's collapse track the simulator; the
Nabavi-style start-time-aligned collapse is accurate only where the two
transition times are close.
"""

from __future__ import annotations

from typing import Dict, List

from ..characterize import CellLibrary
from ..models import InputEvent, JunModel, NabaviModel, VShapeModel
from ..spice import GateCell, RampStimulus, simulate_gate
from ..tech import GENERIC_05UM as TECH
from .common import ExperimentResult, NS, max_abs_error

ARRIVAL = 2 * NS


def run(t_x: float = 0.5 * NS) -> ExperimentResult:
    cell = GateCell("nand", 2, TECH)
    nand2 = CellLibrary.load_default().cell("NAND2")
    models = {
        "proposed": VShapeModel(),
        "jun": JunModel(),
        "nabavi": NabaviModel(),
    }
    t_grid = [0.1 * NS, 0.3 * NS, 0.5 * NS, 0.8 * NS, 1.2 * NS]

    measured: List[float] = []
    predictions: Dict[str, List[float]] = {name: [] for name in models}
    rows = []
    for t_y in t_grid:
        sim = simulate_gate(cell, [
            RampStimulus.transition(False, ARRIVAL, t_x, TECH.vdd),
            RampStimulus.transition(False, ARRIVAL, t_y, TECH.vdd),
        ])
        d_sim = sim.delay_from_earliest()
        measured.append(d_sim)
        events = [
            InputEvent(0, ARRIVAL, t_x, False),
            InputEvent(1, ARRIVAL, t_y, False),
        ]
        row = [t_y / NS, d_sim / NS]
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
    return ExperimentResult(
        experiment="figure-11",
        title="NAND2 simultaneous switch, zero skew, T_Y sweep",
        headers=["T_Y (ns)", "spice", "proposed", "jun", "nabavi"],
        rows=rows,
        findings={
            **{f"{name}_max_err_ns": err for name, err in errors.items()},
            "proposed_beats_nabavi": errors["proposed"] < errors["nabavi"],
            "jun_close_at_zero_skew": errors["jun"] < errors["nabavi"],
        },
        paper_reference=(
            "Jun's and our methods perform well; Nabavi's performs well "
            "only when the two input transition times are close"
        ),
    )

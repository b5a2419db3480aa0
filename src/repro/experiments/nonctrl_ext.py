"""Extension experiment: simultaneous to-non-controlling switching.

The paper's Section 3.6 lists this model as work in progress ("we are
currently developing a delay model for simultaneous to-non-controlling
transitions ... considering the effect of pre-initialization").  This
experiment shows the phenomenon on our substrate and the accuracy of
the implemented Λ-shape extension:

* the SDF max rule *underestimates* the delay near zero skew (a setup
  hazard the pin-to-pin model cannot see);
* the Λ-shape tracks the measured peak;
* pre-initialization (leading outer input) produces the slight
  undershoot on one side, which the extension conservatively rounds up.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..characterize import CellLibrary
from ..models import InputEvent, NonCtrlAwareModel, VShapeModel
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
    if nand2.nonctrl is None:
        raise RuntimeError(
            "packaged library lacks nonctrl data; run "
            "scripts/extend_library_nonctrl.py"
        )
    extended = NonCtrlAwareModel()
    sdf = VShapeModel()  # its nonctrl response is the SDF max rule

    skews = np.linspace(-0.5 * NS, 0.5 * NS, n_skews)
    measured: List[float] = []
    lam: List[float] = []
    base: List[float] = []
    rows = []
    for skew in skews:
        sim = simulate_gate(cell, [
            RampStimulus.transition(True, ARRIVAL, t_x, TECH.vdd),
            RampStimulus.transition(True, ARRIVAL + skew, t_y, TECH.vdd),
        ])
        d_sim = sim.delay_from_latest()
        events = [
            InputEvent(0, ARRIVAL, t_x, True),
            InputEvent(1, ARRIVAL + float(skew), t_y, True),
        ]
        d_ext, _ = extended.noncontrolling_response(
            nand2, events, nand2.ref_load
        )
        d_sdf, _ = sdf.noncontrolling_response(nand2, events, nand2.ref_load)
        measured.append(d_sim)
        lam.append(d_ext)
        base.append(d_sdf)
        rows.append([skew / NS, d_sim / NS, d_ext / NS, d_sdf / NS])

    zero = n_skews // 2
    return ExperimentResult(
        experiment="extension-nonctrl",
        title="Simultaneous to-non-controlling switching (NAND2, both rise)",
        headers=["skew (ns)", "spice", "lambda-model", "sdf max-rule"],
        rows=rows,
        findings={
            "sdf_underestimates_at_zero_pct": 100.0 * (
                measured[zero] - base[zero]
            ) / measured[zero],
            "lambda_max_err_ns": max_abs_error(measured, lam) / NS,
            "sdf_max_err_ns": max_abs_error(measured, base) / NS,
            "lambda_beats_sdf": (
                max_abs_error(measured, lam) < max_abs_error(measured, base)
            ),
            "lambda_conservative_at_peak": lam[zero] >= measured[zero] - 5e-12,
        },
        paper_reference=(
            "listed as ongoing work in Section 3.6: a to-non-controlling "
            "model accounting for pre-initialization, based on the "
            "simplified model of [19]"
        ),
    )

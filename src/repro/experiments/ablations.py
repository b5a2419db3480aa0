"""Ablations of the extended model's design choices (DESIGN.md).

Quantifies what each ingredient of the model buys, against fresh
transistor-level simulations:

* bi-tonic T* handling — the STA latest-arrival corner can sit at the
  interior peak of the pin-to-pin quadratic, which endpoint-only corner
  enumeration misses (paper Figure 9);
* input-position awareness — per-position pin arcs vs using the
  position-0 arc everywhere (what inverter-collapsing does);
* k > 2 simultaneous scaling — the characterized multi-input speed-up
  factor vs treating every simultaneous group as a pair;
* pair scaling — the per-pair D0 factor vs reusing the (0,1) surface.
"""

from __future__ import annotations

from ..characterize import CellLibrary
from ..models import InputEvent, VShapeModel
from ..spice import GateCell, RampStimulus, simulate_gate
from ..tech import GENERIC_05UM as TECH
from .common import ExperimentResult, NS

ARRIVAL = 2 * NS


def _bitonic_ablation(library) -> list:
    """Interior-peak vs endpoint-only max-delay corners."""
    best = None
    for cell in library.cells.values():
        for arc in cell.arcs.values():
            peak = arc.delay.peak_location()
            if peak is None or not arc.t_lo < peak < arc.t_hi:
                continue
            lo = max(arc.t_lo, peak - 0.4 * NS)
            hi = min(arc.t_hi, peak + 0.4 * NS)
            _, with_peak = arc.delay.max_over(lo, hi)
            endpoint_only = max(arc.delay(lo), arc.delay(hi))
            gain = with_peak - endpoint_only
            if best is None or gain > best[-1]:
                best = (cell.name, arc.key, with_peak, endpoint_only, gain)
    if best is None:
        return ["bi-tonic T* corner", "n/a", "no interior peak in library", 0.0]
    name, key, with_peak, endpoint_only, gain = best
    return [
        "bi-tonic T* corner",
        f"{name} arc {key}",
        f"peak {with_peak / NS:.4f} vs endpoints {endpoint_only / NS:.4f} ns",
        gain / NS,
    ]


def _position_ablation(library) -> list:
    """Per-position arcs vs position-0 everywhere, on NAND5."""
    cell = GateCell("nand", 5, TECH)
    nand5 = library.cell("NAND5")
    stimuli = [RampStimulus.steady(1, TECH.vdd)] * 5
    stimuli[4] = RampStimulus.transition(False, ARRIVAL, 0.5 * NS, TECH.vdd)
    measured = simulate_gate(cell, stimuli).delay_from_pin(ARRIVAL)
    aware = nand5.ctrl_arc(4).delay(0.5 * NS)
    blind = nand5.ctrl_arc(0).delay(0.5 * NS)
    return [
        "position-aware pins",
        "NAND5 position 4, T=0.5ns",
        f"aware err {abs(aware - measured) / NS:.4f} ns vs "
        f"blind err {abs(blind - measured) / NS:.4f} ns",
        (abs(blind - measured) - abs(aware - measured)) / NS,
    ]


def _multi_input_ablation(library) -> list:
    """k=3 simultaneous switching: with vs without the multi-scale factor."""
    cell = GateCell("nand", 3, TECH)
    nand3 = library.cell("NAND3")
    model = VShapeModel()
    stimuli = [
        RampStimulus.transition(False, ARRIVAL, 0.4 * NS, TECH.vdd)
        for _ in range(3)
    ]
    measured = simulate_gate(cell, stimuli).delay_from_earliest()
    events = [InputEvent(p, ARRIVAL, 0.4 * NS, False) for p in range(3)]
    with_scale, _ = model.controlling_response(nand3, events, nand3.ref_load)
    # Pairwise only: evaluate the best pair's V at zero skew.
    pair_shape = model.vshape(nand3, 0, 1, 0.4 * NS, 0.4 * NS, nand3.ref_load)
    without_scale = pair_shape.vertex
    return [
        "k>2 multi-input scale",
        "NAND3, 3 simultaneous, T=0.4ns",
        f"scaled err {abs(with_scale - measured) / NS:.4f} ns vs "
        f"pairwise err {abs(without_scale - measured) / NS:.4f} ns",
        (abs(without_scale - measured) - abs(with_scale - measured)) / NS,
    ]


def _pair_scale_ablation(library) -> list:
    """D0 for the (1, 2) pair: scaled vs reused-(0,1) surface, on NAND3."""
    cell = GateCell("nand", 3, TECH)
    nand3 = library.cell("NAND3")
    model = VShapeModel()
    stimuli = [RampStimulus.steady(1, TECH.vdd)] * 3
    stimuli[1] = RampStimulus.transition(False, ARRIVAL, 0.4 * NS, TECH.vdd)
    stimuli[2] = RampStimulus.transition(False, ARRIVAL, 0.4 * NS, TECH.vdd)
    measured = simulate_gate(cell, stimuli).delay_from_earliest()
    scaled = model.vshape(
        nand3, 1, 2, 0.4 * NS, 0.4 * NS, nand3.ref_load
    ).vertex
    unscaled = model.vshape(
        nand3, 0, 1, 0.4 * NS, 0.4 * NS, nand3.ref_load
    ).vertex
    return [
        "per-pair D0 scaling",
        "NAND3 pair (1,2), T=0.4ns",
        f"scaled err {abs(scaled - measured) / NS:.4f} ns vs "
        f"base-pair err {abs(unscaled - measured) / NS:.4f} ns",
        (abs(unscaled - measured) - abs(scaled - measured)) / NS,
    ]


def run() -> ExperimentResult:
    library = CellLibrary.load_default()
    rows = [
        _bitonic_ablation(library),
        _position_ablation(library),
        _multi_input_ablation(library),
        _pair_scale_ablation(library),
    ]
    return ExperimentResult(
        experiment="ablations",
        title="Value of each extended-model ingredient",
        headers=["ingredient", "scenario", "effect", "gain (ns)"],
        rows=rows,
        findings={
            "all_ingredients_non_negative": all(
                row[-1] >= -1e-4 for row in rows
            ),
            "position_gain_ns": rows[1][-1],
            "multi_input_gain_ns": rows[2][-1],
        },
        paper_reference=(
            "the extended model handles input positions, more than two "
            "simultaneous transitions, and bi-tonic delay curves "
            "(Sections 3.3/3.6, Figure 9)"
        ),
    )

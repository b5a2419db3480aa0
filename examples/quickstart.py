#!/usr/bin/env python3
"""Quickstart: the simultaneous-switching delay model in five minutes.

1. Load the packaged characterized library (built once against the
   in-tree transistor-level simulator — the paper's Section 3.7
   "one-time effort").
2. Evaluate the V-shape delay model of a NAND2 over input skew.
3. Compare the prediction against a fresh transistor-level simulation
   and against the pin-to-pin baseline (the paper's Figure 2 story).

Run:  python examples/quickstart.py
"""

from repro.characterize import CellLibrary
from repro.models import InputEvent, PinToPinModel, VShapeModel
from repro.spice import GateCell, RampStimulus, simulate_gate
from repro.tech import GENERIC_05UM as TECH

NS = 1e-9
T_X = 0.5 * NS  # input X transition time
T_Y = 0.5 * NS  # input Y transition time
ARRIVAL = 2 * NS


def main() -> None:
    library = CellLibrary.load_default()
    nand2 = library.cell("NAND2")
    proposed = VShapeModel()
    pin2pin = PinToPinModel()

    # The V-shape itself: anchors of the piecewise-linear skew curve.
    shape = proposed.vshape(nand2, 0, 1, T_X, T_Y, nand2.ref_load)
    print("V-shape anchors for NAND2 (T_X = T_Y = 0.5 ns):")
    print(f"  D0  (zero-skew delay)     = {shape.vertex / NS:.4f} ns")
    print(f"  DR  (pin-to-pin, X side)  = {shape.tail_pos / NS:.4f} ns")
    print(f"  DYR (pin-to-pin, Y side)  = {shape.tail_neg / NS:.4f} ns")
    print(f"  SR  (saturation skew, +)  = {shape.s_pos / NS:.4f} ns")
    print(f"  SYR (saturation skew, -)  = {shape.s_neg / NS:.4f} ns")

    cell = GateCell("nand", 2, TECH)
    print("\nskew(ns) | simulated | proposed | pin-to-pin   (delays in ns)")
    for skew_ns in (-0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5):
        skew = skew_ns * NS
        sim = simulate_gate(cell, [
            RampStimulus.transition(False, ARRIVAL, T_X, TECH.vdd),
            RampStimulus.transition(False, ARRIVAL + skew, T_Y, TECH.vdd),
        ])
        events = [
            InputEvent(0, ARRIVAL, T_X, False),
            InputEvent(1, ARRIVAL + skew, T_Y, False),
        ]
        ours, _ = proposed.controlling_response(nand2, events, nand2.ref_load)
        base, _ = pin2pin.controlling_response(nand2, events, nand2.ref_load)
        print(
            f"  {skew_ns:+5.2f}  |  {sim.delay_from_earliest() / NS:7.4f}  "
            f"|  {ours / NS:6.4f}  |  {base / NS:6.4f}"
        )

    print(
        "\nThe proposed model follows the simulated V; the pin-to-pin"
        "\nbaseline is blind to the simultaneous-switching speed-up"
        "\n(compare the rows near zero skew)."
    )


if __name__ == "__main__":
    main()

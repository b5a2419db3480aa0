"""Seeded random generators for fuzz cases.

Everything here is driven by a :class:`random.Random` derived from
``(master seed, oracle name, case index)`` — see :func:`case_rng` — so a
fuzz run is fully reproducible from its seed, and any single case can be
regenerated in isolation (the parallel runner exploits this: workers
rebuild cases from coordinates instead of shipping them over the wire).

The distributions deliberately over-sample the regimes the paper's
V-shape model makes delicate: windows collapsed to points, skews that
straddle the saturation skew ``SR``, wide-fan-in NAND/NOR stacks where
the multi-input ratio rule and the pair merges engage, and fault
alignment windows close to the excitation boundary.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..atpg import generate_fault_list
from ..circuit import GeneratorConfig, generate_circuit
from .case import MODEL_FACTORIES, FuzzCase

NS = 1e-9


def case_rng(seed: int, oracle: str, index: int) -> random.Random:
    """Deterministic per-case RNG, independent of PYTHONHASHSEED.

    ``random.Random`` seeds strings through SHA-512, so the stream
    depends only on the textual coordinates — identical across
    processes, platforms, and Python versions.
    """
    return random.Random(f"repro-fuzz/{seed}/{oracle}/{index}")


# ----------------------------------------------------------------------
# Circuits
# ----------------------------------------------------------------------
def random_circuit_dict(
    rng: random.Random,
    min_gates: int = 4,
    max_gates: int = 48,
    name: str = "fuzz",
) -> dict:
    """A small random DAG over the characterized cell library.

    Biased toward wide gates (fan-in >= 3) so the batched-kernel path and
    the multi-input merge rules get exercised on most cases, with the
    occasional inverter-heavy or shallow circuit mixed in.
    """
    n_gates = rng.randint(min_gates, max_gates)
    n_inputs = rng.randint(3, max(3, min(12, n_gates)))
    n_outputs = rng.randint(1, 4)
    profile = rng.random()
    if profile < 0.6:
        # Wide-gate heavy: stress pair combos and the multi-input rule.
        kind_weights = {"nand": 0.38, "nor": 0.22, "and": 0.12,
                        "or": 0.08, "inv": 0.12, "buf": 0.02, "xor": 0.06}
        fanin_weights = {2: 0.25, 3: 0.35, 4: 0.25, 5: 0.15}
    elif profile < 0.85:
        # Default ISCAS-like mix.
        kind_weights = {"nand": 0.30, "nor": 0.14, "and": 0.16,
                        "or": 0.10, "inv": 0.18, "buf": 0.04, "xor": 0.08}
        fanin_weights = {2: 0.55, 3: 0.27, 4: 0.13, 5: 0.05}
    else:
        # Chain-like: deep single-pin propagation.
        kind_weights = {"nand": 0.20, "nor": 0.10, "and": 0.05,
                        "or": 0.05, "inv": 0.40, "buf": 0.15, "xor": 0.05}
        fanin_weights = {2: 0.8, 3: 0.2}
    config = GeneratorConfig(
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        n_gates=n_gates,
        seed=rng.randrange(2**31),
        kind_weights=kind_weights,
        fanin_weights=fanin_weights,
        locality=rng.uniform(0.2, 0.8),
        window=rng.choice([8, 20, 50]),
    )
    return generate_circuit(name, config).to_dict()


# ----------------------------------------------------------------------
# Boundary conditions
# ----------------------------------------------------------------------
def random_sta_dict(rng: random.Random) -> dict:
    """Random PI windows, over-sampling degenerate shapes.

    Roughly a quarter of the arrival windows collapse to a point and a
    quarter of the transition windows do; spreads otherwise reach a full
    nanosecond so pair skews sweep across both V-shape slopes and the
    saturation plateaus.
    """
    a_s = rng.uniform(0.0, 0.5) * NS
    shape = rng.random()
    if shape < 0.25:
        a_l = a_s  # point window
    elif shape < 0.4:
        a_l = a_s + rng.uniform(0.0, 0.02) * NS  # near-point
    else:
        a_l = a_s + rng.uniform(0.0, 1.0) * NS
    t_s = rng.uniform(0.05, 0.6) * NS
    shape = rng.random()
    if shape < 0.25:
        t_l = t_s
    else:
        t_l = t_s + rng.uniform(0.0, 0.6) * NS
    return {
        "pi_arrival": [a_s, a_l],
        "pi_trans": [t_s, t_l],
        "po_load": 7e-15 * rng.uniform(0.3, 3.0),
        "dangling_load": 7e-15 * rng.uniform(0.3, 3.0),
    }


def random_models(rng: random.Random, k: Optional[int] = None) -> List[str]:
    names = sorted(MODEL_FACTORIES)
    if k is None:
        k = rng.randint(1, len(names))
    return rng.sample(names, k)


# ----------------------------------------------------------------------
# Circuit edit sequences
# ----------------------------------------------------------------------
#: Gate kinds the characterized library can implement per fan-in count.
_SWAP_KINDS = {
    1: ["inv", "buf"],
    2: ["nand", "nor", "and", "or", "xor"],
    3: ["nand", "nor", "and", "or"],
    4: ["nand", "nor", "and", "or"],
    5: ["nand", "nor"],
}

_EDIT_SIZES = [0.25, 0.5, 0.7, 1.0, 1.4, 2.0, 3.3, 4.0, 8.0]


def random_edit_sequence(
    rng: random.Random, circuit: dict, max_edits: int = 10
) -> List[list]:
    """A valid mutation sequence as ``[op, line, value, pin]`` entries.

    Edits are applied to a live copy while generating, so rewires are
    validated against the circuit *as mutated so far* (a rewire that was
    legal on the seed netlist may cycle after an earlier rewire).
    Roughly half the edits are resizes, a third cell swaps, the rest
    rewires; resizes to the current size (incremental no-ops that must
    still re-time cleanly) are deliberately left in.
    """
    from ..circuit import Circuit, CircuitError

    live = Circuit.from_dict(circuit)
    gates = list(live.gates)
    edits: List[list] = []
    for _ in range(rng.randint(1, max_edits)):
        line = rng.choice(gates)
        gate = live.gates[line]
        roll = rng.random()
        if roll < 0.5:
            size = rng.choice(_EDIT_SIZES)
            live.resize_gate(line, size)
            edits.append(["resize", line, size, None])
        elif roll < 0.85:
            kinds = _SWAP_KINDS.get(gate.n_inputs)
            if not kinds:
                continue
            kind = rng.choice(kinds)
            live.swap_cell(line, kind)
            edits.append(["swap", line, kind, None])
        else:
            pin = rng.randrange(gate.n_inputs)
            source = rng.choice(live.lines)
            try:
                live.rewire_input(line, pin, source)
            except CircuitError:
                continue  # duplicate pin or would cycle; skip
            edits.append(["rewire", line, source, pin])
    return edits


# ----------------------------------------------------------------------
# Daemon query mixes
# ----------------------------------------------------------------------
def random_query_mix(
    rng: random.Random, circuit: dict, max_queries: int = 7
) -> List[dict]:
    """A concurrent query mix for the serve oracle.

    Draws from every daemon method — windows over random line subsets,
    slack tables with and without a clock, max/min path traces, small
    Monte Carlo runs, and what-if resize/swap batches — then appends an
    exact duplicate of one query so the dedup/memo path is exercised on
    every case.
    """
    from .case import _deep_copy_jsonish

    gate_lines = [out for out, _, _ in circuit["gates"]]
    fanin = {out: len(pins) for out, _, pins in circuit["gates"]}
    all_lines = list(circuit["inputs"]) + gate_lines
    models = sorted(MODEL_FACTORIES)

    def one_query() -> dict:
        method = rng.choice(["windows", "slack", "path", "mc", "whatif"])
        params: dict = {"model": rng.choice(models)}
        if method == "windows":
            if rng.random() < 0.2:
                params["lines"] = None  # default: the primary outputs
            else:
                k = rng.randint(1, min(4, len(all_lines)))
                params["lines"] = rng.sample(all_lines, k)
        elif method == "slack":
            params["worst"] = rng.randint(1, 8)
            if rng.random() < 0.6:
                params["clock_ns"] = round(rng.uniform(0.5, 3.0), 3)
        elif method == "path":
            params["kind"] = rng.choice(["max", "min"])
        elif method == "mc":
            params.update(
                samples=rng.choice([4, 6, 9]),
                seed=rng.randrange(2 ** 16),
                sigma_corr=rng.choice([0.0, 0.05]),
                sigma_ind=rng.choice([0.0, 0.04]),
                block=rng.choice([2, 3, 4]),
                quantiles=[0.5, 0.9],
            )
            if rng.random() < 0.4:
                params["period_ns"] = round(rng.uniform(0.5, 3.0), 3)
        else:
            edits = []
            for _ in range(rng.randint(1, 3)):
                line = rng.choice(gate_lines)
                kinds = _SWAP_KINDS.get(fanin[line])
                if kinds and rng.random() < 0.3:
                    edits.append({"op": "swap", "line": line,
                                  "value": rng.choice(kinds)})
                else:
                    edits.append({"op": "resize", "line": line,
                                  "value": rng.choice(_EDIT_SIZES)})
            params["edits"] = edits
            if rng.random() < 0.5:
                params["clock_ns"] = round(rng.uniform(0.5, 3.0), 3)
        return {"method": method, "params": params}

    queries = [one_query() for _ in range(rng.randint(3, max_queries))]
    queries.append(_deep_copy_jsonish(rng.choice(queries)))
    return queries


# ----------------------------------------------------------------------
# ITR decisions
# ----------------------------------------------------------------------
def random_decisions(
    rng: random.Random, circuit: dict, max_decisions: int = 8
) -> List[List[str]]:
    """A random primary-input decision sequence for the ITR oracle."""
    pis = list(circuit["inputs"])
    rng.shuffle(pis)
    count = rng.randint(1, min(max_decisions, len(pis)))
    literals = ["01", "10", "00", "11"]
    return [[pi, rng.choice(literals)] for pi in pis[:count]]


# ----------------------------------------------------------------------
# Fault lists
# ----------------------------------------------------------------------
def random_faults_dicts(
    rng: random.Random, circuit: dict, max_faults: int = 4
) -> List[dict]:
    """Explicit crosstalk fault sites on a materialized circuit.

    Uses the production fault-list generator (level-proximity adjacency)
    and then serializes the concrete sites, so the shrinker can drop
    entries without re-running generation.
    """
    from ..circuit import Circuit

    count = rng.randint(1, max_faults)
    faults = generate_fault_list(
        Circuit.from_dict(circuit),
        count,
        seed=rng.randrange(2**31),
        delta=rng.uniform(0.1, 0.6) * NS,
        window=rng.uniform(0.05, 0.45) * NS,
    )
    return [
        {
            "aggressor": f.aggressor,
            "victim": f.victim,
            "aggressor_rising": f.aggressor_rising,
            "victim_rising": f.victim_rising,
            "delta": f.delta,
            "window": f.window,
        }
        for f in faults
    ]


# ----------------------------------------------------------------------
# Single-gate SPICE scenarios
# ----------------------------------------------------------------------
def random_gate_dict(rng: random.Random) -> dict:
    """A simultaneous-pair scenario on one small characterized gate.

    Transition times stay inside the characterized pair grid; the skew
    sweeps past the saturation point on both sides so the comparison
    covers the V's floor, both slopes, and both plateaus.
    """
    kind, n_inputs = rng.choice(
        [("nand", 2), ("nand", 3), ("nor", 2), ("nor", 3)]
    )
    t_p = rng.uniform(0.2, 1.0) * NS
    t_q = rng.uniform(0.2, 1.0) * NS
    skew = rng.uniform(-1.0, 1.0) * 0.75 * (t_p + t_q)
    return {
        "kind": kind,
        "n_inputs": n_inputs,
        "t_p": t_p,
        "t_q": t_q,
        "skew": skew,
    }


# ----------------------------------------------------------------------
# Characterization requests
# ----------------------------------------------------------------------
def random_char_dict(rng: random.Random) -> dict:
    """A tiny characterization request for the jobs-parity oracle.

    Kept deliberately small (two cells, smoke-sized grids): the oracle
    runs the full serial and pooled pipelines, which costs seconds even
    at this size.
    """
    second = rng.choice([["nand", 2], ["nor", 2]])
    return {
        "cells": [["inv", 1], second],
        "t_grid": [0.15 * NS, 0.4 * NS, 0.9 * NS],
        "pair_t_grid": [0.2 * NS, 0.5 * NS, 1.0 * NS],
        "skews_per_side": 3,
        "jobs": 2,
    }


# ----------------------------------------------------------------------
# PVT corner sets
# ----------------------------------------------------------------------
def random_corners(rng: random.Random) -> List[dict]:
    """A random 2-4 corner set as ``Corner.to_dict()`` payloads.

    Ranges stay inside the device model's validity (the supply always
    clears the temperature-shifted thresholds) while straddling the
    standard fast/slow corners; about a third of the corners carry unit
    derates so the no-derate multiply path is exercised too.
    """
    corners = []
    for k in range(rng.randint(2, 4)):
        if rng.random() < 0.35:
            early, late = 1.0, 1.0
        else:
            early = rng.uniform(0.9, 1.0)
            late = rng.uniform(1.0, 1.1)
        corners.append({
            "name": f"c{k}",
            "process": rng.uniform(0.7, 1.3),
            "vdd": rng.uniform(2.8, 3.8),
            "temp_c": rng.uniform(-40.0, 125.0),
            "derate_early": early,
            "derate_late": late,
        })
    return corners


# ----------------------------------------------------------------------
# Per-oracle case assembly
# ----------------------------------------------------------------------
def generate_case(oracle: str, seed: int, index: int) -> FuzzCase:
    """Build the case with coordinates ``(seed, oracle, index)``.

    Dispatches on the oracle's registered case kind; raising KeyError on
    unknown oracles keeps typos loud.
    """
    from .oracles import get_oracle

    rng = case_rng(seed, oracle, index)
    case = get_oracle(oracle).generate(rng)
    case.oracle = oracle
    case.seed = seed
    case.index = index
    return case

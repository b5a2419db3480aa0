"""The fuzz case: one self-contained, JSON-serializable test input.

A :class:`FuzzCase` captures everything a differential oracle needs to
run — a circuit, STA boundary conditions, delay-model selection, an ITR
decision sequence, an explicit fault list, a single-gate SPICE scenario,
or a characterization request — as plain JSON-able data.  Cases are
produced by :mod:`repro.fuzz.generate`, consumed by
:mod:`repro.fuzz.oracles`, reduced by :mod:`repro.fuzz.shrink`, and
persisted by :mod:`repro.fuzz.artifacts`; every stage works on the same
structure, so a minimized failure replays from its JSON form alone.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..atpg import CrosstalkFault
from ..circuit import Circuit
from ..models import NonCtrlAwareModel, PinToPinModel, VShapeModel
from ..sta.analysis import StaConfig

#: Delay models the circuit-level oracles may differentially exercise.
MODEL_FACTORIES = {
    "vshape": VShapeModel,
    "pin2pin": PinToPinModel,
    "nonctrl": NonCtrlAwareModel,
}


@dataclasses.dataclass
class FuzzCase:
    """One generated scenario, with only the fields its oracle uses.

    Args:
        oracle: Name of the oracle this case targets.
        seed: Master fuzz seed the case was derived from.
        index: Per-oracle case index under that seed.
        circuit: ``Circuit.to_dict()`` payload (circuit-level oracles).
        sta: STA boundary conditions (``pi_arrival``, ``pi_trans``,
            ``po_load``, ``dangling_load``), seconds/farads.
        models: Delay-model names to check (keys of MODEL_FACTORIES).
        decisions: ITR decision sequence as ``[line, literal]`` pairs.
        faults: Explicit crosstalk fault list as dicts.
        atpg: ATPG knobs (``backtrack_limit``, ``period_fraction``,
            ``jobs``).
        gate: Single-gate SPICE scenario (``kind``, ``n_inputs``,
            ``t_p``, ``t_q``, ``skew`` — times in seconds).
        char: Characterization request (``cells``, ``t_grid``,
            ``pair_t_grid``, ``skews_per_side``, ``jobs``).
        mc: Monte Carlo scenario (``samples``, ``sigma_corr``,
            ``sigma_ind``, ``seed``, ``jobs``, ``block``).
        edits: Circuit-mutation sequence as ``[op, line, value, pin]``
            entries (``op`` in resize/swap/rewire; ``pin`` is null
            except for rewires) — the incremental oracle replays these
            one at a time.
        pi_windows: Per-PI window overrides,
            ``{line: {"rise"/"fall": [a_s, a_l, t_s, t_l, state]}}``.
            The shrinker uses these to preserve a deleted fan-in cone's
            computed windows when promoting its root to a primary input.
        queries: Daemon query mix for the serve oracle, as
            ``{"method": ..., "params": {...}}`` entries replayed
            concurrently against an in-process server.
        corners: PVT corner set for the corners oracle, as
            ``repro.pvt.Corner.to_dict()`` payloads — the batched
            N-corner pass is diffed against N single-corner runs.
    """

    oracle: str
    seed: int = 0
    index: int = 0
    circuit: Optional[dict] = None
    sta: Optional[dict] = None
    models: Optional[List[str]] = None
    decisions: Optional[List[List[str]]] = None
    faults: Optional[List[dict]] = None
    atpg: Optional[dict] = None
    gate: Optional[dict] = None
    char: Optional[dict] = None
    mc: Optional[dict] = None
    edits: Optional[List[list]] = None
    pi_windows: Optional[Dict[str, dict]] = None
    queries: Optional[List[dict]] = None
    corners: Optional[List[dict]] = None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {"oracle": self.oracle, "seed": self.seed,
                   "index": self.index}
        for field in dataclasses.fields(self):
            if field.name in payload:
                continue
            value = getattr(self, field.name)
            if value is not None:
                payload[field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzCase":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fuzz-case fields: {sorted(unknown)}")
        return cls(**payload)

    def clone(self, **overrides) -> "FuzzCase":
        """Deep-ish copy with replacements (lists/dicts re-materialized)."""
        payload = _deep_copy_jsonish(self.to_dict())
        payload.update(overrides)
        return FuzzCase.from_dict(payload)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def build_circuit(self) -> Circuit:
        if self.circuit is None:
            raise ValueError(f"case for {self.oracle!r} carries no circuit")
        return Circuit.from_dict(self.circuit)

    def build_sta_config(self) -> StaConfig:
        if self.sta is None:
            return StaConfig()
        return StaConfig(
            pi_arrival=tuple(self.sta["pi_arrival"]),
            pi_trans=tuple(self.sta["pi_trans"]),
            po_load=self.sta.get("po_load", StaConfig.po_load),
            dangling_load=self.sta.get(
                "dangling_load", StaConfig.dangling_load
            ),
        )

    def build_pi_overrides(self):
        """Per-PI :class:`LineTiming` overrides, or None when unset."""
        if not self.pi_windows:
            return None
        from ..sta.windows import LineTiming

        return {
            line: LineTiming(
                rise=window_from_list(spec["rise"]),
                fall=window_from_list(spec["fall"]),
            )
            for line, spec in self.pi_windows.items()
        }

    def build_models(self):
        """Instantiate the delay models named by the case."""
        names = self.models or ["vshape"]
        return [(name, MODEL_FACTORIES[name]()) for name in names]

    def build_corners(self):
        """The case's :class:`repro.pvt.Corner` list."""
        from ..pvt import Corner

        if not self.corners:
            raise ValueError(f"case for {self.oracle!r} carries no corners")
        return [Corner.from_dict(spec) for spec in self.corners]

    def build_faults(self) -> List[CrosstalkFault]:
        if not self.faults:
            return []
        return [
            CrosstalkFault(
                aggressor=f["aggressor"],
                victim=f["victim"],
                aggressor_rising=f["aggressor_rising"],
                victim_rising=f["victim_rising"],
                delta=f["delta"],
                window=f["window"],
            )
            for f in self.faults
        ]

    def describe(self) -> str:
        """Short human-readable summary for logs and reports."""
        bits = [self.oracle, f"seed={self.seed}", f"case={self.index}"]
        if self.circuit is not None:
            bits.append(
                f"{len(self.circuit['gates'])} gates/"
                f"{len(self.circuit['inputs'])} PIs"
            )
        if self.gate is not None:
            bits.append(f"{self.gate['kind']}{self.gate['n_inputs']}")
        if self.faults is not None:
            bits.append(f"{len(self.faults)} faults")
        if self.decisions is not None:
            bits.append(f"{len(self.decisions)} decisions")
        if self.edits is not None:
            bits.append(f"{len(self.edits)} edits")
        if self.queries is not None:
            bits.append(f"{len(self.queries)} queries")
        return " ".join(bits)


def _deep_copy_jsonish(value):
    """Copy nested dict/list JSON-style data without the copy module."""
    if isinstance(value, dict):
        return {k: _deep_copy_jsonish(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_deep_copy_jsonish(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Window (de)serialization
# ----------------------------------------------------------------------
def window_to_list(window) -> list:
    """``DirWindow`` -> JSON list (impossible windows carry zeros)."""
    if not window.is_active:
        return [0.0, 0.0, 0.0, 0.0, -1]
    return [window.a_s, window.a_l, window.t_s, window.t_l, window.state]


def window_from_list(raw: list):
    """JSON list -> ``DirWindow`` (exact float round-trip)."""
    from ..sta.windows import DirWindow

    a_s, a_l, t_s, t_l, state = raw
    if state == -1:
        return DirWindow.impossible()
    return DirWindow(a_s=a_s, a_l=a_l, t_s=t_s, t_l=t_l, state=state)


# ----------------------------------------------------------------------
# Circuit-dict surgery shared by the shrinker and generators
# ----------------------------------------------------------------------
def prune_circuit_dict(circ: dict, outputs: List[str]) -> dict:
    """Restrict a circuit payload to the fan-in cones of ``outputs``.

    Gates outside the cones are dropped; primary inputs that no surviving
    gate reads (and that are not outputs themselves) are dropped too.
    The relative order of inputs and gates is preserved, which keeps the
    payload deterministic for artifact diffing.
    """
    by_output = {out: (kind, pins) for out, kind, pins in circ["gates"]}
    keep: set = set()
    stack = list(outputs)
    while stack:
        line = stack.pop()
        if line in keep:
            continue
        keep.add(line)
        entry = by_output.get(line)
        if entry is not None:
            stack.extend(entry[1])
    gates = [
        [out, kind, list(pins)]
        for out, kind, pins in circ["gates"]
        if out in keep
    ]
    read = {pin for _, _, pins in gates for pin in pins}
    inputs = [
        pi for pi in circ["inputs"] if pi in read or pi in outputs
    ]
    return {
        "name": circ["name"],
        "inputs": inputs,
        "outputs": list(outputs),
        "gates": gates,
    }


def delete_gate_from_dict(circ: dict, target: str) -> Optional[dict]:
    """Remove gate ``target``, promoting its output line to a new PI.

    Readers of the line keep reading it (it just becomes a free input),
    so the reduction preserves downstream structure while cutting the
    target's whole exclusive fan-in cone.  Returns None when the target
    is not a gate of the circuit.
    """
    if target not in {out for out, _, _ in circ["gates"]}:
        return None
    gates = [
        [out, kind, list(pins)]
        for out, kind, pins in circ["gates"]
        if out != target
    ]
    inputs = list(circ["inputs"]) + [target]
    candidate = {
        "name": circ["name"],
        "inputs": inputs,
        "outputs": list(circ["outputs"]),
        "gates": gates,
    }
    return prune_circuit_dict(candidate, candidate["outputs"])


def faults_valid_for(circ: dict, faults: List[dict]) -> List[dict]:
    """Faults whose aggressor and victim lines still exist in ``circ``."""
    lines = set(circ["inputs"]) | {out for out, _, _ in circ["gates"]}
    return [
        f for f in faults
        if f["aggressor"] in lines and f["victim"] in lines
        and f["aggressor"] != f["victim"]
    ]


def line_count(circ: dict) -> int:
    return len(circ["inputs"]) + len(circ["gates"])


def case_size(case: FuzzCase) -> tuple:
    """Lexicographic size used to accept shrinking steps (smaller wins)."""
    circ_gates = len(case.circuit["gates"]) if case.circuit else 0
    circ_lines = line_count(case.circuit) if case.circuit else 0
    return (
        circ_gates,
        circ_lines,
        len(case.faults or ()),
        len(case.decisions or ()),
        len(case.models or ()),
        _window_spread(case.sta),
    )


def _window_spread(sta: Optional[Dict]) -> float:
    if not sta:
        return 0.0
    a = sta.get("pi_arrival", (0.0, 0.0))
    t = sta.get("pi_trans", (0.0, 0.0))
    return (a[1] - a[0]) + (t[1] - t[0])

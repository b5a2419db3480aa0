"""Gate-level netlist: the combinational circuits STA/ITR/ATPG run on.

A :class:`Circuit` is a DAG of named lines.  Primary inputs are lines with
no driver; every other line is driven by exactly one :class:`Gate`.
Fan-out is implicit (a line may feed any number of gate inputs).  The
structure mirrors the ISCAS85 ``.bench`` view of a circuit.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .logic import GATE_KINDS, evaluate_gate


class CircuitError(ValueError):
    """Raised for structurally invalid circuits."""


class UnknownCellError(CircuitError, KeyError):
    """A gate names a cell its library lacks.

    A :class:`CircuitError` (so a ``ValueError``) and, like the lookup
    :meth:`~repro.characterize.CellLibrary.cell` it replaces, a
    ``KeyError``; its message reads as plain text.
    """

    __str__ = ValueError.__str__


def _validate_size(size: float) -> float:
    try:
        value = float(size)
    except (TypeError, ValueError):
        raise CircuitError(f"gate size must be a number, got {size!r}") from None
    if not math.isfinite(value) or value <= 0.0:
        raise CircuitError(f"gate size must be finite and > 0, got {size!r}")
    return value


@dataclasses.dataclass
class Gate:
    """One gate instance driving the line ``output``.

    ``size`` is a drive-strength multiplier relative to the characterized
    unit cell: delays and output transitions scale by ``1/size``, input
    pin capacitances by ``size`` (see
    :meth:`repro.characterize.CellLibrary.cell` which materializes sized
    variants on demand from :meth:`cell_name`).
    """

    output: str
    kind: str
    inputs: List[str]
    size: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if self.kind in ("inv", "buf") and len(self.inputs) != 1:
            raise CircuitError(f"{self.kind} gate needs exactly one input")
        if self.kind not in ("inv", "buf") and len(self.inputs) < 2:
            raise CircuitError(f"{self.kind} gate needs at least two inputs")
        self.size = _validate_size(self.size)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def base_cell_name(self) -> str:
        """Characterized (unit-size) library cell name for this gate."""
        if self.kind in ("inv", "buf"):
            return self.kind.upper()
        return f"{self.kind.upper()}{self.n_inputs}"

    def cell_name(self) -> str:
        """Library cell name implementing this gate.

        Unit-size gates name the characterized cell directly; other sizes
        name a derived variant (``NAND2@X2.0``).  ``repr`` of the size is
        used so distinct float sizes can never collide on one name.
        """
        base = self.base_cell_name()
        if self.size == 1.0:
            return base
        return f"{base}@X{self.size!r}"


@dataclasses.dataclass(frozen=True)
class CircuitEdit:
    """One applied mutation, as recorded in :attr:`Circuit.edit_log`.

    ``op`` is ``"resize"``, ``"swap"``, or ``"rewire"``.  ``line`` is the
    edited gate's output line.  For rewires ``pin`` is the input position
    and ``old``/``new`` are source line names; for resizes they are sizes;
    for swaps they are gate kinds.
    """

    epoch: int
    op: str
    line: str
    old: object
    new: object
    pin: Optional[int] = None


class Circuit:
    """A combinational gate-level circuit.

    Args:
        name: Circuit identifier (e.g. "c17").
        inputs: Primary input line names, in declaration order.
        outputs: Primary output line names.
        gates: Gate instances; outputs must be unique and must not collide
            with primary inputs.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        gates: Iterable[Gate],
    ) -> None:
        self.name = name
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.gates: Dict[str, Gate] = {}
        for gate in gates:
            if gate.output in self.gates:
                raise CircuitError(f"line {gate.output} driven twice")
            if gate.output in self.inputs:
                raise CircuitError(
                    f"line {gate.output} is a primary input and gate output"
                )
            self.gates[gate.output] = gate
        self._validate()
        self._input_set = set(self.inputs)
        self._order: Optional[List[str]] = None
        self._levels: Optional[Dict[str, int]] = None
        self._fanouts: Optional[Dict[str, List[Gate]]] = None
        #: Bumped once per applied mutation; analyzers use it to detect
        #: that cached per-circuit state (loads, memo entries, compiled
        #: form) may be stale.
        self.edit_epoch: int = 0
        #: Applied mutations in order; incremental analyzers consume the
        #: suffix they have not seen yet.
        self.edit_log: List[CircuitEdit] = []

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        known: Set[str] = set(self.inputs) | set(self.gates)
        for gate in self.gates.values():
            for line in gate.inputs:
                if line not in known:
                    raise CircuitError(
                        f"gate {gate.output} reads undriven line {line!r}"
                    )
        for line in self.outputs:
            if line not in known:
                raise CircuitError(f"primary output {line!r} is undriven")
        if len(set(self.inputs)) != len(self.inputs):
            raise CircuitError("duplicate primary input names")

    @property
    def lines(self) -> List[str]:
        """All line names: primary inputs first, then gate outputs."""
        return self.inputs + list(self.gates)

    def driver(self, line: str) -> Optional[Gate]:
        """The gate driving ``line`` (None for a primary input)."""
        return self.gates.get(line)

    def fanouts(self, line: str) -> List[Gate]:
        """Gates that read ``line``."""
        if self._fanouts is None:
            table: Dict[str, List[Gate]] = {name: [] for name in self.lines}
            for gate in self.gates.values():
                for inp in gate.inputs:
                    table[inp].append(gate)
            self._fanouts = table
        return self._fanouts[line]

    def is_primary_input(self, line: str) -> bool:
        return line in self._input_set

    def topological_order(self) -> List[str]:
        """Gate-output lines in topological (input-to-output) order.

        Raises:
            CircuitError: If the netlist contains a combinational cycle.
        """
        if self._order is not None:
            return self._order
        state: Dict[str, int] = {}
        order: List[str] = []

        def visit(line: str) -> None:
            # Iterative DFS to survive deep circuits.
            stack = [(line, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    state[node] = 2
                    if node in self.gates:
                        order.append(node)
                    continue
                mark = state.get(node, 0)
                if mark == 2:
                    continue
                if mark == 1:
                    raise CircuitError(f"combinational cycle through {node}")
                state[node] = 1
                stack.append((node, True))
                gate = self.gates.get(node)
                if gate is not None:
                    for inp in gate.inputs:
                        if state.get(inp, 0) == 0:
                            stack.append((inp, False))
                        elif state.get(inp) == 1:
                            raise CircuitError(
                                f"combinational cycle through {inp}"
                            )

        for line in list(self.gates) + self.outputs:
            if state.get(line, 0) == 0:
                visit(line)
        self._order = order
        return order

    def levelize(self) -> Dict[str, int]:
        """Logic level per line (primary inputs are level 0)."""
        if self._levels is None:
            levels = {line: 0 for line in self.inputs}
            for out in self.topological_order():
                gate = self.gates[out]
                levels[out] = 1 + max(levels[inp] for inp in gate.inputs)
            self._levels = levels
        return dict(self._levels)

    def depth(self) -> int:
        """Maximum logic level over all lines."""
        levels = self.levelize()
        return max(levels.values()) if levels else 0

    def stats(self) -> Dict[str, int]:
        """Size summary used by the benchmark tables."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": len(self.gates),
            "depth": self.depth(),
        }

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _require_gate(self, line: str) -> Gate:
        gate = self.gates.get(line)
        if gate is None:
            raise CircuitError(f"line {line!r} is not a gate output")
        return gate

    def _record_edit(self, op: str, line: str, old, new, pin=None) -> CircuitEdit:
        self.edit_epoch += 1
        edit = CircuitEdit(self.edit_epoch, op, line, old, new, pin)
        self.edit_log.append(edit)
        return edit

    def resize_gate(self, line: str, size: float) -> CircuitEdit:
        """Set the drive strength of the gate driving ``line``.

        Structure (topology, levels, fan-out) is unchanged; only the
        implementing cell's coefficients and input capacitances move.

        Raises:
            CircuitError: If ``line`` is not a gate output or ``size`` is
                not a finite positive number.
        """
        gate = self._require_gate(line)
        new_size = _validate_size(size)
        old_size = gate.size
        gate.size = new_size
        return self._record_edit("resize", line, old_size, new_size)

    def swap_cell(self, line: str, kind: str) -> CircuitEdit:
        """Replace the gate function driving ``line`` with ``kind``.

        The new kind must accept the gate's existing fan-in (``inv``/
        ``buf`` take exactly one input, all other kinds at least two), so
        the netlist structure is untouched.

        Raises:
            CircuitError: If ``line`` is not a gate output, ``kind`` is
                unknown, or the fan-in is incompatible with ``kind``.
        """
        gate = self._require_gate(line)
        if kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {kind!r}")
        unary = kind in ("inv", "buf")
        if unary and gate.n_inputs != 1:
            raise CircuitError(
                f"cannot swap {gate.output} to {kind}: needs exactly one "
                f"input, gate has {gate.n_inputs}"
            )
        if not unary and gate.n_inputs < 2:
            raise CircuitError(
                f"cannot swap {gate.output} to {kind}: needs at least two "
                f"inputs, gate has {gate.n_inputs}"
            )
        old_kind = gate.kind
        gate.kind = kind
        return self._record_edit("swap", line, old_kind, kind)

    def rewire_input(self, line: str, pin: int, new_source: str) -> CircuitEdit:
        """Reconnect input ``pin`` of the gate driving ``line``.

        Raises:
            CircuitError: If ``line`` is not a gate output, ``pin`` is out
                of range, ``new_source`` is not a known line, the gate
                already reads ``new_source`` on another pin, or the edit
                would create a combinational cycle (``new_source`` is in
                the fan-out cone of ``line``).
        """
        gate = self._require_gate(line)
        if not 0 <= pin < gate.n_inputs:
            raise CircuitError(
                f"pin {pin} out of range for gate {line} "
                f"({gate.n_inputs} inputs)"
            )
        if new_source not in self._input_set and new_source not in self.gates:
            raise CircuitError(f"unknown source line {new_source!r}")
        old_source = gate.inputs[pin]
        if new_source == old_source:
            return self._record_edit("rewire", line, old_source, new_source, pin)
        if new_source in gate.inputs:
            raise CircuitError(
                f"gate {line} already reads {new_source!r} on another pin"
            )
        if self._reaches(line, new_source):
            raise CircuitError(
                f"rewiring {line}[{pin}] to {new_source!r} would create a "
                "combinational cycle"
            )
        gate.inputs[pin] = new_source
        self._order = None
        self._levels = None
        self._fanouts = None
        return self._record_edit("rewire", line, old_source, new_source, pin)

    def _reaches(self, src: str, target: str) -> bool:
        """True when ``target`` lies in the transitive fan-out of ``src``."""
        if src == target:
            return True
        seen = {src}
        stack = [src]
        while stack:
            line = stack.pop()
            for gate in self.fanouts(line):
                out = gate.output
                if out == target:
                    return True
                if out not in seen:
                    seen.add(out)
                    stack.append(out)
        return False

    # ------------------------------------------------------------------
    # Functional simulation
    # ------------------------------------------------------------------
    def evaluate(self, input_values: Dict[str, Optional[int]]) -> Dict[str, Optional[int]]:
        """Three-valued functional simulation.

        Args:
            input_values: Value (0, 1, or None for X) per primary input.

        Returns:
            Value per line, including the inputs.
        """
        missing = [i for i in self.inputs if i not in input_values]
        if missing:
            raise CircuitError(f"missing values for inputs: {missing}")
        values: Dict[str, Optional[int]] = {
            line: input_values[line] for line in self.inputs
        }
        for out in self.topological_order():
            gate = self.gates[out]
            values[out] = evaluate_gate(
                gate.kind, [values[inp] for inp in gate.inputs]
            )
        return values

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable structural description of the circuit.

        Used by the fuzzing subsystem to persist failing cases as
        reproducible artifacts; :meth:`from_dict` round-trips exactly
        (names, order, gate pin order, and gate sizes are all preserved).
        Unit-size gates keep the legacy three-element entry so payloads
        from older artifacts stay byte-identical.
        """
        return {
            "name": self.name,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "gates": [
                [gate.output, gate.kind, list(gate.inputs)]
                if gate.size == 1.0
                else [gate.output, gate.kind, list(gate.inputs), gate.size]
                for gate in self.gates.values()
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Circuit":
        """Rebuild a circuit from :meth:`to_dict` output.

        Raises:
            CircuitError: If the payload is malformed or describes a
                structurally invalid circuit.
        """
        try:
            name = payload["name"]
            inputs = payload["inputs"]
            outputs = payload["outputs"]
            raw_gates = payload["gates"]
        except (TypeError, KeyError) as exc:
            raise CircuitError(f"malformed circuit payload: {exc}") from None
        gates = []
        try:
            for entry in raw_gates:
                if len(entry) == 3:
                    output, kind, pins = entry
                    size = 1.0
                elif len(entry) == 4:
                    output, kind, pins, size = entry
                else:
                    raise CircuitError(
                        f"malformed gate entry (expected 3 or 4 fields): "
                        f"{entry!r}"
                    )
                gates.append(Gate(output, kind, list(pins), size=size))
        except TypeError as exc:
            raise CircuitError(f"malformed circuit payload: {exc}") from None
        return cls(name, inputs, outputs, gates)

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, {len(self.inputs)} PIs, "
            f"{len(self.outputs)} POs, {len(self.gates)} gates)"
        )

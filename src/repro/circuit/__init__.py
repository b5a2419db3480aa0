"""Gate-level circuit substrate: netlists, ISCAS85 bench I/O, generators."""

from .bench import (
    BenchParseError,
    load_bench,
    load_packaged_bench,
    packaged_bench_path,
    parse_bench,
    save_bench,
    write_bench,
)
from .generate import (
    C17_BENCH,
    GeneratorConfig,
    ISCAS_PROFILES,
    generate_circuit,
    generate_iscas_like,
)
from .logic import (
    CONTROLLING_VALUE,
    GATE_KINDS,
    INVERTING,
    controlled_output,
    evaluate_gate,
    noncontrolled_output,
)
from .netlist import Circuit, CircuitEdit, CircuitError, Gate, UnknownCellError

__all__ = [
    "BenchParseError",
    "C17_BENCH",
    "CONTROLLING_VALUE",
    "Circuit",
    "CircuitEdit",
    "CircuitError",
    "GATE_KINDS",
    "Gate",
    "GeneratorConfig",
    "INVERTING",
    "ISCAS_PROFILES",
    "UnknownCellError",
    "controlled_output",
    "evaluate_gate",
    "generate_circuit",
    "generate_iscas_like",
    "load_bench",
    "load_packaged_bench",
    "noncontrolled_output",
    "packaged_bench_path",
    "parse_bench",
    "save_bench",
    "write_bench",
]

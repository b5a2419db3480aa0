"""Differential fuzzing: machine-generated scenarios, shrinking oracles.

The subsystem pairs every optimized path in the timing core with its
reference implementation and hammers the pair with seeded random
scenarios:

* :mod:`repro.fuzz.generate` — seeded generators for circuits, boundary
  windows, ITR decision sequences, fault lists, and gate scenarios;
* :mod:`repro.fuzz.oracles`  — the differential oracle registry
  (level-compiled passes, incremental re-timing, incremental ITR,
  fault-parallel ATPG, pooled characterization, Monte Carlo, the timing
  daemon, PVT corners, model-vs-SPICE);
* :mod:`repro.fuzz.shrink`   — greedy minimization of failing cases;
* :mod:`repro.fuzz.artifacts` — replayable JSON failure records under
  ``fuzz-failures/``;
* :mod:`repro.fuzz.runner`   — the campaign runner behind
  ``repro-sta fuzz``.

Every case is reproducible from ``(seed, oracle, index)`` coordinates;
see ``repro-sta fuzz --help`` for the command-line surface.
"""

from .artifacts import (
    ArtifactError,
    DEFAULT_ARTIFACT_DIR,
    artifact_case,
    load_artifact,
    replay_artifact,
    write_artifact,
)
from .case import MODEL_FACTORIES, FuzzCase, case_size, prune_circuit_dict
from .generate import case_rng, generate_case
from .oracles import (
    ORACLES,
    Oracle,
    OracleResult,
    get_oracle,
    register_oracle,
    run_oracle,
    select_oracles,
)
from .runner import (
    CaseOutcome,
    FuzzConfig,
    FuzzReport,
    FuzzRunner,
    run_fuzz,
)
from .shrink import ShrinkResult, Shrinker, shrink_case

__all__ = [
    "ArtifactError",
    "CaseOutcome",
    "DEFAULT_ARTIFACT_DIR",
    "FuzzCase",
    "FuzzConfig",
    "FuzzReport",
    "FuzzRunner",
    "MODEL_FACTORIES",
    "ORACLES",
    "Oracle",
    "OracleResult",
    "ShrinkResult",
    "Shrinker",
    "artifact_case",
    "case_rng",
    "case_size",
    "generate_case",
    "get_oracle",
    "load_artifact",
    "prune_circuit_dict",
    "register_oracle",
    "replay_artifact",
    "run_fuzz",
    "run_oracle",
    "select_oracles",
    "shrink_case",
    "write_artifact",
]

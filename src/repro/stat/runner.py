"""Monte Carlo driver: block decomposition, pool fan-out, reassembly.

The sample space is cut into fixed-size blocks ``[0, B), [B, 2B), ...``
**before** any parallelism decision: each block's variation draws are
keyed by ``(seed, block_start)`` and its windows are one vectorized
:meth:`MonteCarloEngine.propagate` pass.  Workers receive block
coordinates, never RNG state, and the parent reassembles per-output
arrays by block start — so the result is bit-identical at any ``jobs``
(the same idiom as the characterization pool and fault-parallel ATPG,
enforced here by the ``mc`` fuzz oracle).

Changing ``block`` changes which samples share an RNG stream and
therefore the drawn factors; it is part of the experiment's identity
alongside ``seed``, while ``jobs`` is pure execution strategy.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..characterize.library import CellLibrary
from ..circuit.netlist import Circuit
from ..models import NonCtrlAwareModel, PinToPinModel, VShapeModel
from ..obs import get_registry
from ..obs.merge import capture_and_reset, init_worker_obs, merge_payloads
from ..sta.analysis import StaConfig
from ..sta.compile import check_derates
from .aggregate import McResult
from .engine import MonteCarloEngine
from .variation import VariationModel

#: Delay models the MC subcommand / fuzz oracle can name.
MC_MODELS = {
    "vshape": VShapeModel,
    "pin2pin": PinToPinModel,
    "nonctrl": NonCtrlAwareModel,
}

#: Default sample-block size.  Large enough that NumPy amortizes the
#: per-gate dispatch, small enough that a few blocks exist to fan out.
DEFAULT_BLOCK = 128


def plan_blocks(samples: int, block: int) -> List[Tuple[int, int]]:
    """``(start, size)`` of each sample block, in sample order."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    if block <= 0:
        raise ValueError("block size must be positive")
    return [
        (start, min(block, samples - start))
        for start in range(0, samples, block)
    ]


#: (po_max, po_min) per block start.
Pieces = Dict[int, Tuple[np.ndarray, np.ndarray]]


def _run_block(
    engine: MonteCarloEngine,
    variation: VariationModel,
    seed: int,
    start: int,
    size: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[float, float]]]:
    """One block's per-output extremes; block 0 also carries the
    nominal column and returns its ``(max, min)`` (see
    :meth:`MonteCarloEngine.block_extremes`)."""
    factors = variation.factors_for_block(
        seed, start, engine.cell_index, len(engine.cell_names), size
    )
    return engine.block_extremes(factors, nominal=start == 0)


def _assemble(pieces: Pieces) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output arrays in sample order, whatever order blocks ran in."""
    starts = sorted(pieces)
    return (
        np.concatenate([pieces[s][0] for s in starts], axis=1),
        np.concatenate([pieces[s][1] for s in starts], axis=1),
    )


def run_blocks(
    engine: MonteCarloEngine,
    variation: VariationModel,
    seed: int,
    blocks: List[Tuple[int, int]],
    block_hist=None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[float, float]]:
    """The serial block loop of :func:`run_mc` (and the timing daemon).

    Returns ``(po_max, po_min, (nominal_max, nominal_min))``; each
    block's wall time goes to ``block_hist`` when given.
    """
    pieces: Pieces = {}
    nominal = None
    for start, size in blocks:
        t0 = time.perf_counter()
        po_max, po_min, extremes = _run_block(
            engine, variation, seed, start, size
        )
        pieces[start] = (po_max, po_min)
        if extremes is not None:
            nominal = extremes
        if block_hist is not None:
            block_hist.observe(time.perf_counter() - t0)
    return (*_assemble(pieces), nominal)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_WORKER: Optional[Dict] = None


def _pool_init(
    circuit_dict: dict,
    library_dict: Optional[dict],
    model_name: str,
    sta_fields: tuple,
    variation_fields: dict,
    seed: int,
    obs_enabled: bool = False,
    derate: Optional[Tuple[float, float]] = None,
) -> None:
    """Build one engine per worker process (per-block work reuses it).

    With the parent instrumented the worker runs a real registry whose
    per-block deltas ride back with each result; construction-time
    metrics (the engine's compile, which the parent already performed
    once, as serial does) are captured and discarded so ``--jobs N``
    counter totals equal ``--jobs 1``.  Otherwise the null registry
    keeps the worker zero-overhead.
    """
    registry = init_worker_obs(obs_enabled)
    global _WORKER
    circuit = Circuit.from_dict(circuit_dict)
    library = (
        CellLibrary.from_dict(library_dict)
        if library_dict is not None
        else CellLibrary.load_default()
    )
    pi_arrival, pi_trans, po_load, dangling_load = sta_fields
    config = StaConfig(
        pi_arrival=tuple(pi_arrival),
        pi_trans=tuple(pi_trans),
        po_load=po_load,
        dangling_load=dangling_load,
    )
    _WORKER = {
        "engine": MonteCarloEngine(
            circuit, library, MC_MODELS[model_name](), config,
            derate=derate,
        ),
        "variation": VariationModel.from_dict(variation_fields),
        "seed": seed,
    }
    capture_and_reset(registry)


def _pool_block(start: int, size: int):
    registry = get_registry()
    t0 = time.perf_counter()
    with registry.span("mc.block"):
        po_max, po_min, nominal = _run_block(
            _WORKER["engine"], _WORKER["variation"], _WORKER["seed"],
            start, size,
        )
    elapsed = time.perf_counter() - t0
    return (
        start, po_max, po_min, nominal, elapsed, capture_and_reset(registry)
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_mc(
    circuit: Circuit,
    library: Optional[CellLibrary] = None,
    model: str = "vshape",
    config: Optional[StaConfig] = None,
    variation: Optional[VariationModel] = None,
    samples: int = 256,
    seed: int = 0,
    jobs: int = 1,
    block: int = DEFAULT_BLOCK,
    derate: Optional[Tuple[float, float]] = None,
) -> McResult:
    """Variation-aware Monte Carlo STA over ``samples`` draws.

    Args:
        circuit: Circuit under analysis.
        library: Characterized library (packaged default when None).
        model: Delay-model name (key of :data:`MC_MODELS`).
        config: STA boundary conditions.
        variation: Perturbation sigmas (defaults to
            :class:`VariationModel`'s defaults).
        samples: Number of Monte Carlo samples.
        seed: Master RNG seed.
        jobs: Worker processes; results are bit-identical at any value.
        block: Sample-block size (part of the result's identity — see
            the module docstring).
        derate: Optional ``(early, late)`` timing-derate pair applied
            to every sample's windows (PVT corner margins; see
            :class:`MonteCarloEngine`).

    Returns:
        Aggregated per-output delay distributions.

    Raises:
        ValueError: On an unknown model, or a ``derate`` that breaks
            :func:`repro.sta.compile.check_derates`.
    """
    if model not in MC_MODELS:
        raise ValueError(f"unknown delay model {model!r}")
    if derate is not None:
        check_derates(derate)
    shipped_library = library
    if library is None:
        library = CellLibrary.load_default()
    variation = variation or VariationModel()
    config = config or StaConfig()
    blocks = plan_blocks(samples, block)
    obs = get_registry()
    obs.counter("stat.mc.samples").inc(samples)
    obs.counter("stat.mc.blocks").inc(len(blocks))
    block_hist = obs.histogram("stat.mc.block_s")

    mc_engine = MonteCarloEngine(
        circuit, library, MC_MODELS[model](), config, derate=derate,
    )
    with obs.timer("stat.mc.wall_s"):
        if jobs <= 1 or len(blocks) == 1:
            po_max, po_min, nominal = run_blocks(
                mc_engine, variation, seed, blocks, block_hist
            )
        else:
            initargs = (
                circuit.to_dict(),
                shipped_library.to_dict()
                if shipped_library is not None
                else None,
                model,
                (
                    config.pi_arrival,
                    config.pi_trans,
                    config.po_load,
                    config.dangling_load,
                ),
                variation.to_dict(),
                seed,
                obs.enabled,
                derate,
            )
            workers = min(jobs, len(blocks))
            pieces: Pieces = {}
            nominal = None
            payloads: Dict[int, Optional[dict]] = {}
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_pool_init,
                initargs=initargs,
            ) as pool:
                futures = [
                    pool.submit(_pool_block, start, size)
                    for start, size in blocks
                ]
                for future in as_completed(futures):
                    start, po_max, po_min, extremes, elapsed, payload = (
                        future.result()
                    )
                    pieces[start] = (po_max, po_min)
                    if extremes is not None:
                        nominal = extremes
                    payloads[start] = payload
                    block_hist.observe(elapsed)
            # Fold worker registries back in, ordered by block start so
            # the merge is deterministic at any completion order.
            merge_payloads(
                obs, [payloads[s] for s in sorted(payloads)]
            )
            po_max, po_min = _assemble(pieces)
    return McResult(
        circuit_name=circuit.name,
        outputs=list(circuit.outputs),
        samples=samples,
        seed=seed,
        block=block,
        model=model,
        variation=variation,
        nominal_max=nominal[0],
        nominal_min=nominal[1],
        po_max=po_max,
        po_min=po_min,
    )

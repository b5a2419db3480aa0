"""Benchmark-harness fixtures.

Each benchmark regenerates one of the paper's tables/figures via
:mod:`repro.experiments`, asserts its qualitative shape, and writes the
rendered report into ``benchmarks/results/`` for inspection (these files
are the raw material of EXPERIMENTS.md).
"""

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).resolve().parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def library_table():
    """A coarse NAND2 lookup table built from the simulator, plus the
    characterized NAND2 timing (for the lookup-model ablation)."""
    from repro.characterize import CellLibrary
    from repro.models import build_lookup_table
    from repro.spice import GateCell
    from repro.tech import GENERIC_05UM

    ns = 1e-9
    cell = GateCell("nand", 2, GENERIC_05UM)
    table = build_lookup_table(
        cell,
        t_grid=[0.2 * ns, 0.5 * ns, 1.0 * ns],
        skew_grid=[-0.5 * ns, -0.2 * ns, 0.0, 0.2 * ns, 0.5 * ns],
    )
    return table, CellLibrary.load_default().cell("NAND2")


def save_report(results_dir: Path, result) -> None:
    """Persist an experiment report next to the benchmarks."""
    (results_dir / f"{result.experiment}.txt").write_text(
        result.format_report() + "\n"
    )

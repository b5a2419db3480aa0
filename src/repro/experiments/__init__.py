"""Paper-reproduction experiments: one module per table/figure.

Each module's ``run()`` regenerates the corresponding result as an
:class:`~repro.experiments.common.ExperimentResult` (rows, findings,
and the paper's reference values).  The pytest-benchmark harness under
``benchmarks/`` asserts the qualitative shape of each result;
``scripts/run_experiments.py`` renders them all into EXPERIMENTS.md.
"""

from . import ablations, claims, fig01, fig02, fig05, fig10, fig11, fig12
from . import extension_pvt, mc_sta, nonctrl_ext, sec7, table2
from .common import ExperimentResult

#: All experiments in paper order (name -> module with a run() function).
ALL_EXPERIMENTS = {
    "figure-1": fig01,
    "figure-2": fig02,
    "figure-5": fig05,
    "figure-10": fig10,
    "figure-11": fig11,
    "figure-12": fig12,
    "table-2": table2,
    "section-7": sec7,
    "claims-3.5": claims,
    "ablations": ablations,
    "extension-nonctrl": nonctrl_ext,
    "extension-mc-sta": mc_sta,
    "extension-pvt": extension_pvt,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "ablations",
    "claims",
    "extension_pvt",
    "fig01",
    "fig02",
    "fig05",
    "fig10",
    "fig11",
    "fig12",
    "mc_sta",
    "nonctrl_ext",
    "sec7",
    "table2",
]

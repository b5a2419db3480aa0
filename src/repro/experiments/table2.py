"""Table 2: STA min-delay at the primary outputs of the benchmark suite.

Runs STA twice per circuit (pin-to-pin vs proposed model) and reports
the min-delay of the union of the primary outputs' timing ranges — the
quantity that decides potential hold-time violations.  The paper finds
the pin-to-pin model overestimates min-delay by 5-31% on six of nine
ISCAS85 circuits and that the two models always agree on max-delay.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..characterize import CellLibrary
from ..circuit import load_packaged_bench
from ..models import PinToPinModel, VShapeModel
from ..sta import TimingAnalyzer
from .common import ExperimentResult, NS

#: Circuits of the paper's Table 2 (c17 real, the rest synthetic).
TABLE2_CIRCUITS = (
    "c17", "c432s", "c499s", "c880s", "c1355s",
    "c1908s", "c2670s", "c3540s", "c7552s",
)


def run(circuits: Optional[Sequence[str]] = None) -> ExperimentResult:
    names = list(circuits) if circuits is not None else list(TABLE2_CIRCUITS)
    library = CellLibrary.load_default()
    rows = []
    ratios = {}
    max_delays_agree = True
    for name in names:
        circuit = load_packaged_bench(name)
        ours = TimingAnalyzer(circuit, library, VShapeModel()).analyze()
        base = TimingAnalyzer(circuit, library, PinToPinModel()).analyze()
        ratio = base.output_min_arrival() / ours.output_min_arrival()
        ratios[name] = ratio
        # The two models share the pin-to-pin max-delay rules; tiny float
        # drift can enter through the transition-time windows feeding
        # bi-tonic arcs, so "agree" means to within 0.01%.
        max_rel = abs(
            base.output_max_arrival() - ours.output_max_arrival()
        ) / base.output_max_arrival()
        if max_rel > 1e-4:
            max_delays_agree = False
        rows.append([
            name,
            len(circuit.gates),
            base.output_min_arrival() / NS,
            ours.output_min_arrival() / NS,
            ratio,
        ])
    improved = [name for name, r in ratios.items() if r >= 1.05]
    any_improved = [name for name, r in ratios.items() if r >= 1.002]
    return ExperimentResult(
        experiment="table-2",
        title="Min-delay at primary outputs: pin-to-pin vs proposed model",
        headers=["circuit", "gates", "pin-to-pin (ns)", "proposed (ns)",
                 "ratio"],
        rows=rows,
        findings={
            "circuits_with_5pct_error": len(improved),
            "circuits_with_any_improvement": len(any_improved),
            "improved_circuits": ", ".join(improved),
            "max_ratio": max(ratios.values()),
            "ours_never_larger": all(r >= 1.0 - 1e-9 for r in ratios.values()),
            "max_delays_agree": max_delays_agree,
        },
        paper_reference=(
            "pin-to-pin causes 5-31% min-delay error on 6 of 9 ISCAS85 "
            "benchmarks (c17 ratio 1.16, c880 1.05, c1355 1.16, c1908 "
            "1.31, c3540 1.21, c7552 1.12); max-delays identical"
        ),
    )

"""Shared infrastructure for the paper-reproduction experiments.

Every experiment module exposes ``run(...) -> ExperimentResult`` where the
result carries the regenerated rows/series plus the shape assertions the
paper's qualitative claims imply.  The pytest-benchmark harness under
``benchmarks/`` and the ``scripts/run_experiments.py`` report generator
both build on these.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

NS = 1e-9


@dataclasses.dataclass
class ExperimentResult:
    """The regenerated artifact of one paper table/figure.

    Attributes:
        experiment: Identifier, e.g. "figure-2".
        title: Human-readable description.
        headers: Column names of the regenerated table.
        rows: Table rows (stringifiable cells).
        findings: Key quantitative observations ("who wins, by how much").
        paper_reference: What the paper reports for the same experiment.
    """

    experiment: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    findings: Dict[str, object] = dataclasses.field(default_factory=dict)
    paper_reference: str = ""

    def format_table(self) -> str:
        """Render as a fixed-width text table."""
        cells = [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(self.headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def format_report(self) -> str:
        """Table plus findings and the paper's reference values."""
        parts = [f"== {self.experiment}: {self.title} ==", self.format_table()]
        if self.findings:
            parts.append("findings:")
            for key, value in self.findings.items():
                parts.append(f"  {key}: {_fmt(value)}")
        if self.paper_reference:
            parts.append(f"paper: {self.paper_reference}")
        return "\n".join(parts)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def max_abs_error(
    reference: Sequence[float], predicted: Sequence[float]
) -> float:
    """Largest absolute deviation between two series."""
    return max(abs(a - b) for a, b in zip(reference, predicted))


def rms_error(reference: Sequence[float], predicted: Sequence[float]) -> float:
    total = sum((a - b) ** 2 for a, b in zip(reference, predicted))
    return (total / len(reference)) ** 0.5

"""Aggregation helpers for evaluation results (Figs 11-17 style)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..serve.server import StreamResult


@dataclass(frozen=True)
class SchemeSummary:
    """One (benchmark, scheme) cell of the evaluation figures."""

    benchmark: str
    scheme: str
    normalized_energy_pct: float  # vs. baseline, in percent
    miss_rate_pct: float

    @property
    def energy_savings_pct(self) -> float:
        return 100.0 - self.normalized_energy_pct


def summarize(benchmark: str, result: StreamResult,
              baseline: StreamResult) -> SchemeSummary:
    """One (benchmark, scheme) cell, normalized to a baseline."""
    return SchemeSummary(
        benchmark=benchmark,
        scheme=result.scheme,
        normalized_energy_pct=result.normalized_energy(baseline) * 100.0,
        miss_rate_pct=result.miss_rate * 100.0,
    )


def average_summaries(summaries: Sequence[SchemeSummary],
                      scheme: str) -> SchemeSummary:
    """The figures' 'average' bar: arithmetic mean over benchmarks."""
    rows = [s for s in summaries if s.scheme == scheme]
    if not rows:
        raise ValueError(f"no summaries for scheme {scheme!r}")
    return SchemeSummary(
        benchmark="average",
        scheme=scheme,
        normalized_energy_pct=sum(
            s.normalized_energy_pct for s in rows) / len(rows),
        miss_rate_pct=sum(s.miss_rate_pct for s in rows) / len(rows),
    )


def format_table(summaries: Sequence[SchemeSummary]) -> str:
    """Render summaries as an aligned text table (benchmark x scheme)."""
    benchmarks: List[str] = []
    schemes: List[str] = []
    for s in summaries:
        if s.benchmark not in benchmarks:
            benchmarks.append(s.benchmark)
        if s.scheme not in schemes:
            schemes.append(s.scheme)
    cell: Dict[tuple, SchemeSummary] = {
        (s.benchmark, s.scheme): s for s in summaries
    }
    header = (["benchmark"]
              + [f"{sch}:energy%" for sch in schemes]
              + [f"{sch}:miss%" for sch in schemes])
    rows = [header]
    for bench in benchmarks:
        row = [bench]
        for sch in schemes:
            s = cell.get((bench, sch))
            row.append(f"{s.normalized_energy_pct:.1f}" if s else "-")
        for sch in schemes:
            s = cell.get((bench, sch))
            row.append(f"{s.miss_rate_pct:.2f}" if s else "-")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "  ".join(value.rjust(width) for value, width in zip(row, widths))
        for row in rows
    ]
    return "\n".join(lines)

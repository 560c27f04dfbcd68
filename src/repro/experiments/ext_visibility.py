"""Feature visibility predicts Fig 10: each design's share of cycles in
opaque serial stalls, next to its trained predictor's mean error."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..analysis.coverage import VisibilityReport, visibility_by_benchmark
from ..workloads import ALL_BENCHMARKS
from . import fig10_errors


def run(scale: Optional[float] = None
        ) -> Tuple[Dict[str, VisibilityReport], Dict[str, float]]:
    """Each design's visibility report, from four test jobs at scale 0.1
    whatever ``scale`` is, and its mean |error| % at ``scale``."""
    reports = visibility_by_benchmark(ALL_BENCHMARKS, scale=0.1, n_jobs=4)
    errors = fig10_errors.run(scale).reports
    return reports, {name: errors[name].mean_abs_pct
                     for name in ALL_BENCHMARKS}


def to_text(result: tuple) -> str:
    """One row per design: invisible share and mean |error|, in %."""
    reports, errors = result
    lines = ["bench     invisible%  mean|err|%"]
    for name in ALL_BENCHMARKS:
        invisible = reports[name].invisible_fraction * 100
        lines.append(f"{name:8s} {invisible:10.2f} {errors[name]:11.3f}")
    return "\n".join(lines)

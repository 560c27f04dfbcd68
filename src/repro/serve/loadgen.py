"""Latency reporting for the serving runtime.

A :class:`LoadReport` reduces one served stream to its headline
numbers: offered/achieved rates, exact decision-latency percentiles
(p50/p99/max over the recorded per-job wall-clock decisions), and
fallback/shed/miss rates.  ``repro serve`` prints one per stream or
fleet shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .server import StreamResult


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending sample.

    The inverted-CDF definition (``numpy.percentile(...,
    method="inverted_cdf")``): the smallest sample value ``v`` with
    ``CDF(v) >= q/100``, i.e. 1-based rank ``max(1, ceil(q/100 * n))``.
    Always an element of the sample — never interpolated — so p99 of a
    latency run is a latency that actually happened.  An empty sample
    reports 0.0 (numpy raises; a report over zero executed jobs should
    render, not crash).
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    n = len(sorted_values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return sorted_values[min(rank, n) - 1]


@dataclass(frozen=True)
class LoadReport:
    """One load-generation run, reduced to its headline numbers."""

    stream: str
    scheme: str
    mode: str                   # "open" | "closed"
    n_offered: int
    n_completed: int
    n_fallback: int
    n_shed: int
    n_missed: int
    offered_rate: float         # jobs/s offered (virtual clock)
    achieved_rate: float        # executed jobs/s (virtual clock)
    wall_rate: float            # executed jobs/s (wall clock)
    p50_decision_ms: float
    p99_decision_ms: float
    max_decision_ms: float
    fallback_rate: float
    shed_rate: float
    miss_rate: float
    wall_s: float

    def to_dict(self) -> Dict:
        """JSON-ready field dict; ``LoadReport(**d)`` round-trips."""
        return dict(self.__dict__)

    @classmethod
    def from_result(cls, result: StreamResult, mode: str,
                    offered_rate: Optional[float] = None) -> "LoadReport":
        executed = result.executed
        latencies = result.decision_latencies()
        makespan = result.makespan
        arrivals_span = (max(o.arrival for o in result.outcomes)
                         if result.outcomes else 0.0)
        if offered_rate is None:
            offered_rate = (result.n_offered / arrivals_span
                            if arrivals_span > 0 else 0.0)
        return cls(
            stream=result.stream, scheme=result.scheme, mode=mode,
            n_offered=result.n_offered,
            n_completed=result.n_completed,
            n_fallback=result.n_fallback,
            n_shed=result.n_shed,
            n_missed=result.miss_count,
            offered_rate=offered_rate,
            achieved_rate=(len(executed) / makespan
                           if makespan > 0 else 0.0),
            wall_rate=(len(executed) / result.wall_s
                       if result.wall_s > 0 else 0.0),
            p50_decision_ms=percentile(latencies, 50.0) * 1e3,
            p99_decision_ms=percentile(latencies, 99.0) * 1e3,
            max_decision_ms=(latencies[-1] * 1e3 if latencies else 0.0),
            fallback_rate=result.fallback_rate,
            shed_rate=result.shed_rate,
            miss_rate=result.miss_rate,
            wall_s=result.wall_s,
        )

    def describe(self) -> str:
        """One human line per run, for CLI footers."""
        return (f"{self.stream}/{self.scheme} [{self.mode}]: "
                f"{self.n_offered} offered at "
                f"{self.offered_rate:.0f}/s, "
                f"{self.n_completed} completed, "
                f"{self.n_fallback} fallback, {self.n_shed} shed; "
                f"decision p50/p99 {self.p50_decision_ms:.3f}/"
                f"{self.p99_decision_ms:.3f} ms; "
                f"{self.miss_rate * 100:.1f}% missed")


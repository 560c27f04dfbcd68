"""The benchmark's metric table: names, units, directions and bounds.

End-to-end metrics are what a user of repro sees.  Their timings
(``setup_s``, ``wall_s``, ``jobs_per_s``, ``decision_p50_us``) are
normalized to a reference host speed by :mod:`host`.  ``bound`` is the
relative worsening ``compare.py`` tolerates before calling a
regression; ``None`` marks a metric that is deterministic for a given
seed, which ``compare.py`` gates exactly (1e-6 relative or 1e-9
absolute).  ``ungated`` lists workloads where the metric is reported
but not gated, because two sets of runs of the same code moved it by
more than its bound.  Metrics reported on every workload are the ones
the driver line of ``run.py`` carries; the rest apply to the workloads
named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

WORKLOADS = ("offline_flow", "stream_poisson", "stream_periodic",
             "stream_slice", "fleet_mixed")

EXACT_REL = 1e-6
EXACT_ABS = 1e-9


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                       # "lower" | "higher"
    bound: Optional[float]            # relative; None = exact
    workloads: Tuple[str, ...] = WORKLOADS
    ungated: Tuple[str, ...] = ()


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.10),
    Metric("wall_s", "s", "lower", 0.10),
    Metric("jobs_per_s", "jobs/s", "higher", 0.10),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("deadline_met_pct", "%", "higher", None),
    Metric("served_pct", "%", "higher", None),
    Metric("energy_uj_per_job", "uJ", "lower", None),
    Metric("pred_error_pct", "%", "lower", None),
    Metric("decision_p50_us", "us", "lower", 0.10,
           ("stream_poisson", "fleet_mixed")),
    Metric("energy_savings_pct", "%", "higher", None, ("offline_flow",)),
)

#: Per-layer metrics of a traced run, ``(name, unit, better)``.  Times
#: are self times in the traced pass; counts are per pass.  They have
#: no bound: they explain a change in the end-to-end metrics.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generate_s", "s", "lower"),
    ("flow.bundle_s", "s", "lower"),
    ("flow.generate_s", "s", "lower"),
    ("rtl.synthesize_s", "s", "lower"),
    ("analysis.detect_s", "s", "lower"),
    ("rtl.compiled_clone_s", "s", "lower"),
    ("rtl.compiled_clone_calls", "count", "lower"),
    ("analysis.record_s", "s", "lower"),
    ("analysis.record_jobs", "count", "higher"),
    ("model.select_gamma_s", "s", "lower"),
    ("model.fit_s", "s", "lower"),
    ("slicing.slice_s", "s", "lower"),
    ("flow.test_records_s", "s", "lower"),
    ("flow.test_jobs", "count", "higher"),
    ("rtl.sim_cycles", "count", "lower"),
    ("rtl.host_ns_per_cycle", "ns/cycle", "lower"),
    ("experiments.compare_s", "s", "lower"),
    ("runtime.episode_s", "s", "lower"),
    ("runtime.episode_jobs", "count", "higher"),
    ("check.episode_s", "s", "lower"),
    ("check.stream_s", "s", "lower"),
    ("check.fleet_s", "s", "lower"),
    ("serve.stream_s", "s", "lower"),
    ("serve.drive_s", "s", "lower"),
    ("serve.offer_s", "s", "lower"),
    ("serve.drain_s", "s", "lower"),
    ("serve.predict_s", "s", "lower"),
    ("serve.predict_calls", "count", "lower"),
    ("serve.predict_calls_per_job", "calls/job", "lower"),
    ("serve.epoch_s", "s", "lower"),
    ("serve.epochs", "count", "lower"),
    ("serve.epoch_jobs", "count", "higher"),
    ("serve.epoch_mean_jobs", "jobs/epoch", "higher"),
    ("serve.epoch_commit_ratio", "ratio", "higher"),
    ("serve.epoch_declines", "count", "lower"),
    ("serve.batch_s", "s", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_mean_jobs", "jobs/batch", "higher"),
    ("serve.admit_s", "s", "lower"),
    ("serve.queue_wait_ms_mean", "ms", "lower"),
    ("dvfs.level_switches", "count", "lower"),
    ("serve.decision_p50_us", "us", "lower"),
    ("serve.decision_p99_us", "us", "lower"),
    ("serve.fleet.serve_s", "s", "lower"),
    ("serve.fleet.dispatch_s", "s", "lower"),
    ("serve.fleet.shed_rate_limit", "count", "lower"),
    ("serve.fleet.shed_admission", "count", "lower"),
    ("serve.fleet.shed_deadline", "count", "lower"),
    ("unattributed_pct", "%", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)


def end_to_end_for(workload: str) -> Tuple[Metric, ...]:
    """The end-to-end metrics reported on one workload."""
    return tuple(m for m in END_TO_END if workload in m.workloads)


def driver_metrics() -> Tuple[Metric, ...]:
    """The end-to-end metrics every workload reports."""
    return tuple(m for m in END_TO_END if m.workloads == WORKLOADS)

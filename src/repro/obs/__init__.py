"""Observability: spans, metrics, time series, SLOs, run artifacts.

The package's layers, importable à la carte:

* :mod:`~repro.obs.tracer` — nested wall-clock spans with labels and a
  zero-allocation no-op mode;
* :mod:`~repro.obs.metrics` — counters, gauges, and streaming
  (log-bucketed) histograms for p50/p95/p99 without sample storage,
  all mergeable across processes at bucket level;
* :mod:`~repro.obs.timeseries` — ring-buffered windowed aggregates on
  the serve runtime's virtual clock (rate/mean/quantiles per window);
* :mod:`~repro.obs.slo` — declarative windowed SLOs with error-budget
  burn-rate accounting over those windows;
* :mod:`~repro.obs.events` — a JSONL event sink and reader;
* :mod:`~repro.obs.merge` — the worker→parent telemetry wire protocol
  used by :mod:`repro.parallel.pool`;
* :mod:`~repro.obs.runctx` — the ambient :class:`Observer` installed
  by :func:`session`, plus the run-manifest/time-series writers.

Instrumented code uses two entry points only: ``with span("fit",
design=...):`` for timings and ``obs = get_observer()`` (``None`` when
disabled) for events/metrics — so the disabled hot path costs one
global read.  ``repro.obs.report`` (the run renderer, including the
windowed serve dashboard) and :mod:`repro.obs.export` (Chrome-trace
export) are imported lazily by the CLI.
"""

from .events import EventSink, read_events
from .metrics import MetricsRegistry, StreamingHistogram
from .runctx import (
    EVENTS_NAME,
    MANIFEST_NAME,
    Observer,
    get_observer,
    git_revision,
    session,
    span,
)
from .slo import SloSpec, SloTracker, parse_slo
from .timeseries import TIMESERIES_NAME, TimeSeriesRegistry, WindowCell
from .tracer import NULL_SPAN, SpanRecord, Tracer

__all__ = [
    "EVENTS_NAME", "EventSink", "MANIFEST_NAME", "MetricsRegistry",
    "NULL_SPAN", "Observer", "SloSpec", "SloTracker",
    "SpanRecord", "StreamingHistogram", "TIMESERIES_NAME",
    "TimeSeriesRegistry", "Tracer", "WindowCell", "get_observer",
    "git_revision", "parse_slo", "read_events", "session", "span",
]

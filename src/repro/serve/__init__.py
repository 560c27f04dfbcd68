"""Online serving runtime: job streams, admission, live prediction.

The paper's predictor is a per-job *online* mechanism; this package
runs it that way.  :mod:`~repro.serve.stream` turns the workload
generators into seeded arrival processes, :mod:`~repro.serve.server`
serves each accelerator stream through a bounded admission queue with
micro-batched slice prediction and graceful fallback, and
:mod:`~repro.serve.loadgen` reduces each served stream to a latency
report.  ``repro serve`` fronts the package from the CLI;
stream-level invariants live in :func:`repro.check.check_stream`.
"""

from .fleet import (
    DEADLINE,
    ENERGY_AWARE,
    LEAST_LOADED,
    POLICIES,
    ROUND_ROBIN,
    SHED_REASONS,
    FleetConfig,
    FleetDispatcher,
    FleetResult,
    FleetShed,
    RoutingDecision,
    ShardSpec,
    TenantSpec,
    TokenBucket,
    parse_tenants,
    serve_fleet,
    virtual_outcomes,
)
from .loadgen import LoadReport, percentile
from .server import (
    COMPLETED,
    FALLBACK,
    SHED,
    TERMINAL_STATES,
    AcceleratorStream,
    RecordPredictor,
    ServeConfig,
    SlicePredictor,
    StreamOutcome,
    StreamResult,
    serve_stream,
    serve_streams,
)
from .vector import EpochEngine, drive_stream_vectorized
from .stream import (
    ADVERSARIAL_MODES,
    DeadlineClass,
    FleetJob,
    StreamJob,
    adversarial_order,
    build_mixed_stream,
    build_stream_jobs,
    burst_arrivals,
    mixed_stream_jobs,
    poisson_arrivals,
    split_by_deadline,
    stream_from_records,
    vfr_arrivals,
)

__all__ = [
    "ADVERSARIAL_MODES",
    "COMPLETED", "DEADLINE", "ENERGY_AWARE", "FALLBACK",
    "LEAST_LOADED", "POLICIES", "ROUND_ROBIN", "SHED",
    "SHED_REASONS", "TERMINAL_STATES",
    "AcceleratorStream", "DeadlineClass", "EpochEngine", "FleetConfig",
    "FleetDispatcher", "FleetJob",
    "FleetResult", "FleetShed", "LoadReport", "RecordPredictor",
    "RoutingDecision", "ServeConfig", "ShardSpec", "SlicePredictor",
    "StreamJob", "StreamOutcome", "StreamResult", "TenantSpec",
    "TokenBucket", "adversarial_order", "build_mixed_stream",
    "build_stream_jobs",
    "burst_arrivals", "drive_stream_vectorized", "mixed_stream_jobs",
    "parse_tenants",
    "percentile", "poisson_arrivals", "serve_fleet", "serve_stream",
    "serve_streams",
    "split_by_deadline",
    "stream_from_records", "vfr_arrivals",
    "virtual_outcomes",
]

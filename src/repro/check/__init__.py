"""Correctness subsystem: invariants, golden traces, seeded bugs.

Three cooperating layers keep the reproduced figures trustworthy while
the runtime underneath them is refactored for speed:

* :mod:`~repro.check.invariants` — replays a finished episode or
  stream (a :class:`~repro.serve.server.StreamResult`) job-by-job and
  asserts the closed-form identities the runner must maintain
  (timeline chain, deadline epsilon, switch/slice capability rules,
  energy decomposition, planned runs).  Wired into
  ``run_episode(strict=True)`` and the ``REPRO_CHECK`` environment
  variable;
* :mod:`~repro.check.golden` — canonicalizes episodes into versioned
  JSON golden files under ``tests/golden/`` and diffs fresh runs
  (serial or parallel, warm or cold cache) against them with
  per-field tolerances;
* :mod:`~repro.check.mutations` — seeds known accounting bugs into a
  clean episode and asserts the checker catches each one, so the
  checker itself cannot silently go blind;
* :mod:`~repro.check.artifact` — audits captured ``--run-dir``
  artifacts (manifest vs events, per-job and per-episode accounting).

The ``repro check`` CLI subcommand fronts all four; violations feed
``check.*`` counters in the observability subsystem.
"""

from .artifact import check_run_dir
from .golden import (
    CANONICAL_SIG_DIGITS,
    DEFAULT_REL_TOL,
    FIELD_REL_TOL,
    GOLDEN_SCHEMA_VERSION,
    canonical_episode,
    diff_against_golden,
    diff_canonical,
    golden_path,
    load_golden,
    make_golden_payload,
    round_sig,
    save_golden,
)
from .invariants import (
    SCHEME_CAPS,
    InvariantError,
    InvariantViolation,
    SchemeCaps,
    capabilities_for,
    check_episode,
    check_epochs,
    check_fleet,
    check_stream,
)
from .mutations import (
    MUTATIONS,
    STREAM_MUTATIONS,
    apply_mutation,
    run_mutation_smoke,
    seed_double_counted_fallback_energy,
    seed_dropped_job_on_overflow,
    seed_spurious_miss,
    seed_timeline_gap,
    seed_uncharged_switch_energy,
)

__all__ = [
    "CANONICAL_SIG_DIGITS", "DEFAULT_REL_TOL", "FIELD_REL_TOL",
    "GOLDEN_SCHEMA_VERSION", "InvariantError", "InvariantViolation",
    "MUTATIONS", "SCHEME_CAPS", "STREAM_MUTATIONS", "SchemeCaps",
    "apply_mutation", "canonical_episode",
    "capabilities_for", "check_episode", "check_epochs", "check_fleet",
    "check_run_dir", "check_stream", "diff_against_golden",
    "diff_canonical",
    "golden_path", "load_golden", "make_golden_payload", "round_sig",
    "run_mutation_smoke", "save_golden",
    "seed_double_counted_fallback_energy",
    "seed_dropped_job_on_overflow", "seed_spurious_miss",
    "seed_timeline_gap", "seed_uncharged_switch_energy",
]

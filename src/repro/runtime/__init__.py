"""Runtime: jobs, episodes, and result aggregation."""

from .episode import (
    EpisodeResult,
    run_episode,
    strict_checks_enabled,
    switch_window_energy,
)
from .jobs import JobOutcome, JobRecord, Task
from .stats import SchemeSummary, average_summaries, format_table, summarize

__all__ = [
    "EpisodeResult", "JobOutcome", "JobRecord", "SchemeSummary", "Task",
    "average_summaries", "format_table", "run_episode",
    "strict_checks_enabled", "summarize", "switch_window_energy",
]

"""Runtime: jobs, episodes, and result aggregation."""

from .episode import run_episode
from .jobs import JobRecord, Task, strict_checks_enabled, switch_window_energy
from .stats import SchemeSummary, average_summaries, format_table, summarize

__all__ = [
    "JobRecord", "SchemeSummary", "Task",
    "average_summaries", "format_table", "run_episode",
    "strict_checks_enabled", "summarize", "switch_window_energy",
]

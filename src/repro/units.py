"""Unit helpers and shared physical constants.

All internal computation uses SI base units (seconds, hertz, joules,
watts, square metres are expressed as square micrometres for area since
that is the natural unit at chip scale).  These helpers exist so that
code reads ``16.7 * MS`` instead of ``0.0167`` and reviewers can match
values against the paper directly.
"""

from __future__ import annotations

# Time.
S = 1.0
MS = 1e-3
US = 1e-6
NS = 1e-9

# Frequency.
HZ = 1.0
KHZ = 1e3
MHZ = 1e6
GHZ = 1e9

# Energy / power.
J = 1.0
MJ = 1e-3
UJ = 1e-6
NJ = 1e-9
PJ = 1e-12
FJ = 1e-15
W = 1.0
MW = 1e-3
UW = 1e-6

# The 60 fps deadline used throughout the paper's evaluation (Sec. 4.2).
FRAME_DEADLINE_60FPS = 16.7 * MS

# DVFS switching time, conservatively set to 100 us in the paper.
DVFS_SWITCH_TIME = 100 * US

# Shared relative tolerance for wall-clock comparisons.  A job planned
# to fit its budget *exactly* (oracle at margin 0) can come out a few
# ULPs past the deadline after the divide/accumulate round trip
# (``t_exec = cycles / (cycles / budget)`` plus the running-clock sum);
# both the episode runner and the invariant checker treat overruns
# within this fraction of the deadline as on-time.
TIME_EPS_REL = 1e-9


def deadline_missed(finish: float, release: float, deadline: float,
                    rel_eps: float = TIME_EPS_REL) -> bool:
    """Whether ``finish`` overruns ``release + deadline`` beyond rounding.

    The single deadline predicate shared by :func:`repro.runtime.episode.
    run_episode` and the invariant checker, so the two can never disagree
    on what counts as a miss.
    """
    return finish - (release + deadline) > rel_eps * deadline


"""Feature-visibility diagnostics.

Prediction quality is bounded by how much of a job's execution time is
*visible* to the feature system: cycles spent in counter-backed wait
states (their durations are loaded values the model can read) versus
cycles in dynamic waits (opaque serial logic — invisible) versus plain
FSM stepping (counted by STC features).

``visibility_report`` classifies a design's simulated cycles into
those buckets.  A low visible fraction predicts a wide Fig 10 error
box before any training happens — djpeg's restart-marker cycles show
up here as its invisible share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from ..rtl.module import Module
from ..rtl.backend import make_simulation


@dataclass(frozen=True)
class VisibilityReport:
    """Cycle attribution for a set of jobs on one design."""

    total_cycles: int
    counter_wait_cycles: int   # waits backed by detectable counters
    dynamic_wait_cycles: int   # opaque serial stalls (invisible)
    step_cycles: int           # plain FSM stepping (STC-countable)

    @property
    def visible_fraction(self) -> float:
        """Share of time the feature system can in principle explain."""
        if self.total_cycles == 0:
            return 0.0
        return (self.counter_wait_cycles + self.step_cycles) \
            / self.total_cycles

    @property
    def invisible_fraction(self) -> float:
        return 1.0 - self.visible_fraction


def visibility_report(module: Module,
                      jobs: Iterable[Tuple[dict, dict]]) -> VisibilityReport:
    """Attribute every simulated cycle of ``jobs`` to a bucket.

    Attribution uses the *primary* FSM (the one with the most states —
    the job-control machine); concurrent helper FSMs idle in parallel
    and would double-count cycles.
    """
    main_fsm = max(module.fsms.values(), key=lambda f: len(f.states))
    wait_states = {
        (main_fsm.name, state) for state in main_fsm.wait_states
    }
    dynamic_states = {
        (main_fsm.name, state) for state in main_fsm.dynamic_waits
    }

    sim = make_simulation(module, track_state_cycles=True)
    total = counter_wait = dynamic_wait = 0
    for inputs, memories in jobs:
        result = sim.run_job(inputs, memories)
        total += result.cycles
        for key, cycles in result.state_cycles.items():
            if key in wait_states:
                counter_wait += cycles
            elif key in dynamic_states:
                dynamic_wait += cycles
    return VisibilityReport(
        total_cycles=total,
        counter_wait_cycles=counter_wait,
        dynamic_wait_cycles=dynamic_wait,
        step_cycles=max(total - counter_wait - dynamic_wait, 0),
    )


def visibility_by_benchmark(names: Sequence[str], scale: float = 0.1,
                            n_jobs: int = 5) -> Dict[str, VisibilityReport]:
    """Convenience sweep over benchmark designs."""
    from ..accelerators import get_design
    from ..workloads import workload_for

    out: Dict[str, VisibilityReport] = {}
    for name in names:
        design = get_design(name)
        workload = workload_for(name, scale=scale)
        jobs = [design.encode_job(item).as_pair()
                for item in workload.test[:n_jobs]]
        out[name] = visibility_report(design.build(), jobs)
    return out

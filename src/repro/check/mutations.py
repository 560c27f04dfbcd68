"""Seeded accounting bugs: the checker's own regression harness.

A checker that never fires is indistinguishable from a checker that
cannot fire.  Each mutation here re-introduces, surgically, one real
class of accounting bug into a *correct* :class:`EpisodeResult` — the
spurious float-boundary miss, the energy-free DVFS switch, the
timeline gap — and the mutation smoke test asserts the invariant
checker flags every one of them.  Run it whenever the checker's
tolerances or the runner's accounting change: a mutation that stops
being caught means the checker just went blind to that bug class.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional

from typing import TYPE_CHECKING

from ..dvfs.energy import EnergyModel
from ..dvfs.levels import LevelTable, OperatingPoint
from ..runtime.episode import EpisodeResult
from ..runtime.jobs import switch_window_energy
from ..units import DVFS_SWITCH_TIME
from .invariants import InvariantViolation, check_episode, check_stream

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..serve.server import StreamResult


def _rebuild(result: EpisodeResult, outcomes) -> EpisodeResult:
    return EpisodeResult(controller=result.controller, task=result.task,
                         outcomes=list(outcomes))


def seed_spurious_miss(result: EpisodeResult,
                       energy_model: Optional[EnergyModel] = None
                       ) -> EpisodeResult:
    """Flip the miss flag of the first on-time job.

    Models the float-boundary bug where an exact-fit job rounds a few
    ULPs past its deadline and gets flagged missed — the checker must
    report ``deadline.miss_flag``.
    """
    outcomes = list(result.outcomes)
    for i, o in enumerate(outcomes):
        if not o.missed:
            outcomes[i] = replace(o, missed=True)
            return _rebuild(result, outcomes)
    raise ValueError("no on-time job to mutate — every job missed")


def seed_uncharged_switch_energy(result: EpisodeResult,
                                 energy_model: Optional[EnergyModel] = None
                                 ) -> EpisodeResult:
    """Remove the switch-window leakage from the first switched job.

    Models the drift where switching costs wall time but no energy —
    the checker must report ``energy.recompute``.
    """
    if energy_model is None:
        raise ValueError("seeding the switch-energy bug needs the "
                         "episode's energy model")
    outcomes = list(result.outcomes)
    for i, o in enumerate(outcomes):
        if o.t_switch > 0.0:
            point = OperatingPoint(voltage=o.voltage,
                                   frequency=o.frequency,
                                   is_boost=o.boosted)
            stolen = switch_window_energy(energy_model, point, o.t_switch)
            outcomes[i] = replace(o, energy=o.energy - stolen)
            return _rebuild(result, outcomes)
    raise ValueError("no switched job to mutate — run a scheme that "
                     "changes levels")


def seed_timeline_gap(result: EpisodeResult,
                      energy_model: Optional[EnergyModel] = None
                      ) -> EpisodeResult:
    """Push one job's start 10% of a period past its legal start.

    Models a broken carry-over chain (idle gap the runner never
    inserts) — the checker must report ``timeline.start``.
    """
    if not result.outcomes:
        raise ValueError("cannot mutate an empty episode")
    outcomes = list(result.outcomes)
    i = len(outcomes) // 2
    o = outcomes[i]
    outcomes[i] = replace(o, start=o.start + 0.1 * result.task.deadline)
    return _rebuild(result, outcomes)


#: Registry of every seeded bug, keyed by a stable name.
MUTATIONS: Dict[str, Callable[..., EpisodeResult]] = {
    "spurious_miss": seed_spurious_miss,
    "uncharged_switch_energy": seed_uncharged_switch_energy,
    "timeline_gap": seed_timeline_gap,
}


def apply_mutation(name: str, result: EpisodeResult,
                   energy_model: Optional[EnergyModel] = None
                   ) -> EpisodeResult:
    """Apply one registered mutation by name."""
    try:
        mutate = MUTATIONS[name]
    except KeyError:
        raise KeyError(f"unknown mutation {name!r}; "
                       f"choose from {sorted(MUTATIONS)}")
    return mutate(result, energy_model)


def _rebuild_stream(result: "StreamResult", outcomes) -> "StreamResult":
    from ..serve.server import StreamResult
    return StreamResult(
        stream=result.stream, scheme=result.scheme,
        deadline=result.deadline, outcomes=list(outcomes),
        n_offered=result.n_offered, wall_s=result.wall_s,
    )


def seed_dropped_job_on_overflow(result: "StreamResult"
                                 ) -> "StreamResult":
    """Silently drop the first shed job from the outcome stream.

    Models the classic admission-control bug where an overflowing
    queue discards the job *and the bookkeeping*: the offered count
    says it happened, the outcomes say it never did.  The checker
    must report ``stream.conservation``.
    """
    from ..serve.server import SHED
    outcomes = list(result.outcomes)
    for i, o in enumerate(outcomes):
        if o.status == SHED:
            del outcomes[i]
            return _rebuild_stream(result, outcomes)
    raise ValueError("no shed job to drop — overload the stream first")


def seed_double_counted_fallback_energy(result: "StreamResult"
                                        ) -> "StreamResult":
    """Double the first fallback job's recorded energy.

    Models the degraded-path bug where the fallback dispatch charges
    the job *and* the abandoned prediction path bills it again.  The
    checker must report ``energy.recompute``.
    """
    from ..serve.server import FALLBACK
    outcomes = list(result.outcomes)
    for i, o in enumerate(outcomes):
        if o.status == FALLBACK:
            outcomes[i] = replace(o, energy=o.energy * 2.0)
            return _rebuild_stream(result, outcomes)
    raise ValueError("no fallback job to mutate — starve the "
                     "prediction budget first")


#: Serve-layer seeded bugs, applied to a clean StreamResult.
STREAM_MUTATIONS: Dict[str, Callable[..., "StreamResult"]] = {
    "dropped_job_on_overflow": seed_dropped_job_on_overflow,
    "double_counted_fallback_energy": seed_double_counted_fallback_energy,
}


def run_mutation_smoke(result: EpisodeResult,
                       energy_model: EnergyModel,
                       slice_energy_model: Optional[EnergyModel] = None,
                       levels: Optional[LevelTable] = None,
                       t_switch: float = DVFS_SWITCH_TIME,
                       stream: Optional["StreamResult"] = None
                       ) -> Dict[str, List[InvariantViolation]]:
    """Seed every registered bug into ``result`` and check each.

    Returns ``{mutation name: violations found}``.  A correct
    checker finds at least one violation per mutation; the smoke test
    (and ``repro check --smoke``) asserts exactly that.  ``result``
    itself must be clean and must contain at least one switched and
    one on-time job, so every mutation is applicable.

    ``stream`` additionally runs the serve-layer mutations
    (:data:`STREAM_MUTATIONS`) through :func:`check_stream`; the
    stream must be clean and contain at least one shed and one
    fallback job so both bugs are seedable.
    """
    report: Dict[str, List[InvariantViolation]] = {}
    for name in MUTATIONS:
        mutated = apply_mutation(name, result, energy_model)
        report[name] = check_episode(
            mutated,
            energy_model=energy_model,
            slice_energy_model=slice_energy_model,
            levels=levels,
            t_switch=t_switch,
        )
    if stream is not None:
        for name, mutate in STREAM_MUTATIONS.items():
            report[name] = check_stream(
                mutate(stream),
                energy_model=energy_model,
                slice_energy_model=slice_energy_model,
                levels=levels,
                t_switch=t_switch,
            )
    return report

"""Invariant checker: replay an episode or a stream and assert its
accounting.

The runners maintain a set of closed-form identities — the timeline
chain, the deadline predicate, switch/slice charging rules, and energy
decomposition.  The paper's headline numbers (near-oracle energy at
near-zero misses) are only as trustworthy as these identities, so this
module re-derives every one of them from the recorded outcomes and
reports each discrepancy as an :class:`InvariantViolation`.  Episodes
and streams share one per-job rule set; each adds its own release and
stream-level laws.

The checker is pure (no mutation, no I/O beyond ``check.*`` metrics)
and deliberately *independent* of the runners: it recomputes
expectations from first principles instead of calling back into
:func:`~repro.runtime.episode.run_episode` or the pricing kernel
:func:`~repro.runtime.jobs.charge_job`, so a bug in either cannot
hide itself.

Invariant catalog (codes as emitted):

* ``timeline.release`` — job *i* is released at ``i * deadline``;
* ``timeline.start`` — ``start == max(prev_finish, release)`` (budget
  carry-over: an overrunning job delays its successor, nothing else);
* ``time.exec`` — ``t_exec == actual_cycles / frequency``;
* ``time.slice`` — slice time equals ``slice_cycles / f_nominal``;
* ``time.negative`` — no time component is negative;
* ``deadline.miss_flag`` — ``missed`` agrees with the shared epsilon
  predicate :func:`repro.units.deadline_missed`;
* ``switch.charge`` — a switch is charged exactly when the level
  changed and the scheme charges overheads; its duration is exactly
  the configured ``t_switch``;
* ``caps.switch_free`` / ``caps.slice_free`` — overhead-free schemes
  (oracle, *_no_overhead) never pay switch or slice time;
* ``energy.recompute`` — the recorded energy equals execution energy
  plus switch-window leakage plus slice energy, re-derived from
  :class:`~repro.dvfs.energy.JobActivity` and the energy models;
* ``stream.fallback`` — a fallback job abandoned the prediction path:
  no slice time, dispatched at least as fast as nominal;
* ``stream.prediction`` — a completed job under a slice-using scheme
  was planned on a valid prediction
  (:func:`~repro.serve.server.valid_prediction`): an invalid one must
  have fallen back;
* ``stream.epoch.*`` — every block-planned run in the result's
  ``epoch_log`` ran in the uncoupled regime (see :func:`check_epochs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, List, Optional

from ..dvfs.energy import EnergyModel, JobActivity
from ..dvfs.levels import LevelTable, OperatingPoint
from ..obs import get_observer
from ..runtime.jobs import switch_window_energy
from ..serve.server import FALLBACK, SHED, TERMINAL_STATES, \
    StreamResult, valid_prediction
from ..units import DVFS_SWITCH_TIME, TIME_EPS_REL, deadline_missed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..serve.fleet import FleetResult


@dataclass(frozen=True)
class InvariantViolation:
    """One broken identity, pinned to a job (or the whole episode)."""

    code: str                 # catalog code, e.g. "timeline.start"
    job_index: Optional[int]  # positional index; None = episode-level
    message: str
    expected: object = None
    actual: object = None

    def __str__(self) -> str:
        """Render as ``code[job]: message (expected=…, actual=…)``."""
        where = f"[job {self.job_index}]" if self.job_index is not None \
            else "[episode]"
        detail = ""
        if self.expected is not None or self.actual is not None:
            detail = f" (expected={self.expected!r}, actual={self.actual!r})"
        return f"{self.code}{where}: {self.message}{detail}"


class InvariantError(AssertionError):
    """Raised by strict mode when an episode breaks its invariants."""

    def __init__(self, violations: List[InvariantViolation]):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations[:20])
        more = len(self.violations) - 20
        suffix = f"\n  … and {more} more" if more > 0 else ""
        super().__init__(
            f"{len(self.violations)} episode invariant violation(s):\n"
            f"  {lines}{suffix}"
        )


@dataclass(frozen=True)
class SchemeCaps:
    """What a scheme is entitled to charge: slice and/or overheads."""

    uses_slice: bool
    charge_overheads: bool


#: Capability rules per scheme name.  ``uses_slice`` mirrors the
#: controller attribute *after* construction (the overhead-free
#: predictive variants drop their slice), so the checker can infer
#: capabilities from a result's scheme name alone.
SCHEME_CAPS = {
    "baseline": SchemeCaps(False, True),
    "table": SchemeCaps(False, True),
    "pid": SchemeCaps(False, True),
    "history": SchemeCaps(False, True),
    "governor": SchemeCaps(False, True),
    "prediction": SchemeCaps(True, True),
    "prediction_boost": SchemeCaps(True, True),
    "prediction_no_overhead": SchemeCaps(False, False),
    "prediction_boost_no_overhead": SchemeCaps(False, False),
    "oracle": SchemeCaps(False, False),
}


def capabilities_for(controller_name: str) -> Optional[SchemeCaps]:
    """The capability rules for a scheme name, or ``None`` if unknown.

    Unknown names (ad-hoc test controllers) skip capability checks but
    still get the timeline, deadline, and energy identities.
    """
    return SCHEME_CAPS.get(controller_name)


def _report(violations: List[InvariantViolation], code: str,
            job: Optional[int], message: str, expected: object = None,
            actual: object = None) -> None:
    """Append one violation (each checker binds its list as ``bad``)."""
    violations.append(InvariantViolation(code, job, message, expected,
                                         actual))


def _times_equal(a: float, b: float, scale: float,
                 rel_eps: float) -> bool:
    # Wall-clock comparison at the deadline's magnitude: two times are
    # "the same instant" when they differ by rounding slop only.
    return abs(a - b) <= rel_eps * max(scale, abs(a), abs(b))


def _energies_equal(a: float, b: float, rel_eps: float) -> bool:
    return abs(a - b) <= rel_eps * max(abs(a), abs(b), 1e-30)


class _JobRules:
    """The per-job identities of :func:`check_episode` and
    :func:`check_stream`, over one run's constant context.

    :meth:`check` replays one executed job — fallback or prediction
    rule, start chain, time components, miss flag, switch and slice
    charging, energy decomposition — and advances the chain.  A
    fallback job's slice time is held to the fallback rule rather than
    to ``slice_cycles / f_nominal``.  Start gaps are reported
    as ``start_code``, naming ``timeline`` in the message.  Energy is
    re-derived from the models, never through the runners' pricing
    kernel, so a bug in that kernel cannot hide itself.
    """

    def __init__(self, scheme: str, deadline: float, start_code: str,
                 timeline: str, energy_model: Optional[EnergyModel],
                 slice_energy_model: Optional[EnergyModel],
                 levels: Optional[LevelTable], t_switch: float,
                 uses_slice: Optional[bool],
                 charge_overheads: Optional[bool], rel_eps: float,
                 energy_rel_eps: float) -> None:
        # Capability flags default to the scheme's SCHEME_CAPS entry.
        caps = capabilities_for(scheme)
        if uses_slice is None and caps is not None:
            uses_slice = caps.uses_slice
        if charge_overheads is None and caps is not None:
            charge_overheads = caps.charge_overheads
        self.deadline = deadline
        self.start_code = start_code
        self.timeline = timeline
        self.energy_model = energy_model
        self.slice_energy_model = slice_energy_model
        self.t_switch = t_switch
        self.uses_slice = uses_slice
        self.charge_overheads = charge_overheads
        self.rel_eps = rel_eps
        self.energy_rel_eps = energy_rel_eps
        self.nominal = levels.nominal if levels is not None else None
        self.violations: List[InvariantViolation] = []
        self.bad = partial(_report, self.violations)
        self.prev_finish = 0.0
        self.prev_point: Optional[OperatingPoint] = self.nominal

    def check(self, i: int, o) -> None:
        """Replay executed job ``o`` (reported as job ``i``)."""
        bad = self.bad
        deadline, rel_eps = self.deadline, self.rel_eps
        nominal, prev_point = self.nominal, self.prev_point
        uses_slice, t_switch = self.uses_slice, self.t_switch
        point = OperatingPoint(voltage=o.voltage, frequency=o.frequency,
                               is_boost=o.boosted)

        # -- fallback semantics, or a plan on a valid prediction -------
        fallback = o.status == FALLBACK
        if fallback:
            if o.t_slice != 0.0:
                bad("stream.fallback", i,
                    "fallback job charged slice time — degraded jobs "
                    "abandon the prediction path entirely",
                    expected=0.0, actual=o.t_slice)
            if nominal is not None and o.frequency < nominal.frequency:
                bad("stream.fallback", i,
                    "fallback job dispatched below nominal frequency",
                    expected=nominal.frequency, actual=o.frequency)
        elif uses_slice and not valid_prediction(o.job.predicted_cycles,
                                                 o.job.slice_cycles):
            bad("stream.prediction", i,
                "completed job was planned on an invalid prediction "
                "instead of falling back",
                expected="finite predicted_cycles >= 0, "
                         "slice_cycles >= 0",
                actual=(o.job.predicted_cycles, o.job.slice_cycles))

        # -- timeline chain --------------------------------------------
        start = max(self.prev_finish, o.release)
        if not _times_equal(o.start, start, deadline, rel_eps):
            bad(self.start_code, i,
                "start is not max(previous finish, release) — the "
                f"{self.timeline} has a gap or an overlap",
                expected=start, actual=o.start)

        # -- time components -------------------------------------------
        for field in ("t_slice", "t_switch", "t_exec"):
            if getattr(o, field) < 0.0:
                bad("time.negative", i, f"{field} is negative",
                    expected=0.0, actual=getattr(o, field))
        t_exec = o.job.actual_cycles / o.frequency
        if not _times_equal(o.t_exec, t_exec, deadline, rel_eps):
            bad("time.exec", i,
                "t_exec does not equal actual_cycles / frequency",
                expected=t_exec, actual=o.t_exec)

        # -- deadline flag (relative to the job's own release) ---------
        missed = deadline_missed(o.finish, o.release, deadline, rel_eps)
        if o.missed != missed:
            bad("deadline.miss_flag", i,
                "miss flag disagrees with the shared epsilon predicate",
                expected=missed, actual=o.missed)

        # -- switch charging -------------------------------------------
        changed = (prev_point is not None and point != prev_point)
        if self.charge_overheads is False and o.t_switch != 0.0:
            bad("caps.switch_free", i,
                "overhead-free scheme charged switch time",
                expected=0.0, actual=o.t_switch)
        elif self.charge_overheads and t_switch > 0.0:
            if prev_point is not None:
                expected_switch = t_switch if changed else 0.0
                if o.t_switch != expected_switch:
                    bad("switch.charge", i,
                        "switch time charged iff the level changed, "
                        "at exactly the configured switching time",
                        expected=expected_switch, actual=o.t_switch)
            elif o.t_switch not in (0.0, t_switch):
                bad("switch.charge", i,
                    "switch time is neither zero nor the configured "
                    "switching time",
                    expected=(0.0, t_switch), actual=o.t_switch)

        # -- slice charging --------------------------------------------
        if uses_slice is False and o.t_slice != 0.0:
            bad("caps.slice_free", i,
                "scheme without a prediction slice charged slice time",
                expected=0.0, actual=o.t_slice)
        if uses_slice and not fallback and nominal is not None:
            t_slice = o.job.slice_cycles / nominal.frequency
            if not _times_equal(o.t_slice, t_slice, deadline, rel_eps):
                bad("time.slice", i,
                    "slice time does not equal slice_cycles / f_nominal",
                    expected=t_slice, actual=o.t_slice)

        # -- energy decomposition --------------------------------------
        energy_model = self.energy_model
        if energy_model is not None:
            energy = energy_model.job_energy(o.job.activity, point,
                                             o.t_exec)
            energy += switch_window_energy(energy_model, point, o.t_switch)
            recomputable = True
            if o.t_slice > 0.0:
                slice_model = self.slice_energy_model
                if slice_model is not None and nominal is not None:
                    slice_activity = JobActivity(cycles=o.job.slice_cycles)
                    energy += slice_model.job_energy(
                        slice_activity, nominal, o.t_slice)
                else:
                    recomputable = False  # cannot price the slice
            if recomputable and not _energies_equal(o.energy, energy,
                                                    self.energy_rel_eps):
                bad("energy.recompute", i,
                    "recorded energy does not decompose into exec + "
                    "switch leakage + slice energy",
                    expected=energy, actual=o.energy)

        self.prev_finish = o.finish
        self.prev_point = point

    def tally(self, counter: str, n_jobs: int) -> List[InvariantViolation]:
        """Count the checked run under ``counter`` and return its
        violations."""
        observer = get_observer()
        if observer is not None:
            observer.metrics.inc(counter)
            observer.metrics.inc("check.jobs", n_jobs)
            if self.violations:
                observer.metrics.inc("check.violations",
                                     len(self.violations))
        return self.violations


def check_episode(result: StreamResult,
                  energy_model: Optional[EnergyModel] = None,
                  slice_energy_model: Optional[EnergyModel] = None,
                  levels: Optional[LevelTable] = None,
                  t_switch: float = DVFS_SWITCH_TIME,
                  uses_slice: Optional[bool] = None,
                  charge_overheads: Optional[bool] = None,
                  rel_eps: float = TIME_EPS_REL,
                  energy_rel_eps: float = 1e-9
                  ) -> List[InvariantViolation]:
    """Re-derive every accounting identity of ``result`` and diff.

    ``energy_model``/``slice_energy_model`` enable the energy
    recomputation check; ``levels`` enables the first-job switch check
    and the slice-time formula (both need the nominal point).
    Capability flags default to the :data:`SCHEME_CAPS` entry for the
    episode's scheme.  An episode is a stream that never sheds, so a
    job that fell back is held to the stream's fallback rule, and its
    planned runs to :func:`check_epochs`' rules.  Returns all
    violations found (empty list = episode is internally consistent).
    """
    deadline = result.deadline
    rules = _JobRules(result.scheme, deadline, "timeline.start",
                      "timeline", energy_model, slice_energy_model, levels,
                      t_switch, uses_slice, charge_overheads, rel_eps,
                      energy_rel_eps)
    for i, o in enumerate(result.outcomes):
        release = i * deadline
        if not _times_equal(o.release, release, deadline, rel_eps):
            rules.bad("timeline.release", i,
                      "job released off its period boundary",
                      expected=release, actual=o.release)
        rules.check(i, o)
    _audit_epochs(rules.bad, result, result.epoch_log, rel_eps)
    return rules.tally("check.episodes", len(result.outcomes))


def check_stream(result: StreamResult,
                 energy_model: Optional[EnergyModel] = None,
                 slice_energy_model: Optional[EnergyModel] = None,
                 levels: Optional[LevelTable] = None,
                 t_switch: float = DVFS_SWITCH_TIME,
                 uses_slice: Optional[bool] = None,
                 charge_overheads: Optional[bool] = None,
                 rel_eps: float = TIME_EPS_REL,
                 energy_rel_eps: float = 1e-9
                 ) -> List[InvariantViolation]:
    """Re-derive every identity of a served stream and diff.

    The per-job identities of :func:`check_episode`, fallback and
    prediction rules included, plus the laws of a stream that can shed:

    * ``stream.conservation`` — every offered job appears exactly once
      (dense unique indices, ``len(outcomes) == n_offered``) and ends
      in exactly one terminal state, so completed + fallback + shed
      adds back up to offered (``stream.terminal`` flags any unknown
      state);
    * ``stream.timeline`` — executed jobs chain on the virtual clock:
      ``release == arrival`` and ``start == max(prev_finish,
      release)`` in arrival order (shed jobs do not occupy the
      server);
    * ``stream.shed`` — a shed job never touched the accelerator:
      zero time, zero energy, no miss, no operating point;
    * ``stream.epoch.*`` — the result's block-planned runs
      (``epoch_log``) obey :func:`check_epochs`' rules.

    Fallback jobs participate in the switch-point chain (dispatching
    at nominal *is* a level change when the previous job ran slower)
    and in the energy decomposition.  Deadlines are relative to each
    job's own arrival (``release + deadline``).
    """
    deadline = result.deadline
    rules = _JobRules(result.scheme, deadline, "stream.timeline",
                      "stream timeline", energy_model, slice_energy_model,
                      levels, t_switch, uses_slice, charge_overheads,
                      rel_eps, energy_rel_eps)
    bad = rules.bad

    # -- conservation -------------------------------------------------
    if len(result.outcomes) != result.n_offered:
        bad("stream.conservation", None,
            "outcome count does not match offered count — a job was "
            "dropped or duplicated",
            expected=result.n_offered, actual=len(result.outcomes))
    indices = [o.index for o in result.outcomes]
    if len(set(indices)) != len(indices):
        bad("stream.conservation", None,
            "duplicate job indices — a job terminated twice",
            expected=len(indices), actual=len(set(indices)))
    all_terminal = True
    for o in result.outcomes:
        if o.status not in TERMINAL_STATES:
            all_terminal = False
            bad("stream.terminal", o.index,
                f"unknown terminal state {o.status!r}",
                expected=TERMINAL_STATES, actual=o.status)
    if (all_terminal
            and len(result.outcomes) == result.n_offered
            and (result.n_completed + result.n_fallback + result.n_shed
                 != result.n_offered)):
        bad("stream.conservation", None,
            "completed + fallback + shed does not add up to offered",
            expected=result.n_offered,
            actual=(result.n_completed + result.n_fallback
                    + result.n_shed))

    for o in result.outcomes:
        i = o.index

        # -- release pins to the arrival instant -----------------------
        if not _times_equal(o.release, o.arrival, deadline, rel_eps):
            bad("stream.timeline", i,
                "release is not the arrival instant",
                expected=o.arrival, actual=o.release)

        if o.status == SHED:
            # -- shed jobs never touched the accelerator ---------------
            for fname in ("t_slice", "t_switch", "t_exec", "energy",
                          "frequency", "voltage"):
                if getattr(o, fname) != 0.0:
                    bad("stream.shed", i,
                        f"shed job has nonzero {fname}",
                        expected=0.0, actual=getattr(o, fname))
            if o.missed:
                bad("stream.shed", i,
                    "shed job flagged as a deadline miss",
                    expected=False, actual=True)
            continue
        rules.check(i, o)
    _audit_epochs(bad, result, result.epoch_log, rel_eps)
    return rules.tally("check.streams", len(result.outcomes))


def check_fleet(result: "FleetResult",
                rel_eps: float = TIME_EPS_REL,
                energy_rel_eps: float = 1e-9
                ) -> List[InvariantViolation]:
    """Re-derive the fleet-wide accounting of a dispatched run.

    The fleet analogue of :func:`check_stream`.  Every shard is first
    replayed through :func:`check_stream` with its own spec's energy
    models, level table, and capability flags (the per-stream
    identities, planned runs included, must hold *inside* each shard),
    then the dispatcher tier's own laws are checked on top:

    * ``fleet.conservation`` — offered equals dispatcher sheds plus
      the sum of shard offers, and the fleet-wide index space
      ``0..n_offered-1`` partitions *exactly* between dispatcher sheds
      and shard outcomes (no job lost, duplicated, or invented);
    * ``fleet.routing`` — every shard outcome belongs to a job whose
      benchmark tag matches that shard's benchmark, and agrees with
      the dispatcher's recorded assignment;
    * ``fleet.shed`` — every dispatcher shed carries a known reason;
    * ``fleet.tenant`` — conservation holds *per tenant*: each
      tenant's offered count equals its completed + fallback + shed
      across dispatcher and shards.
    """
    violations: List[InvariantViolation] = []
    bad = partial(_report, violations)

    # -- per-shard stream identities ----------------------------------
    for shard_index, (spec, shard) in enumerate(
            zip(result.specs, result.shards)):
        violations.extend(check_stream(
            shard,
            energy_model=spec.energy_model,
            slice_energy_model=spec.slice_energy_model,
            levels=spec.controller.levels,
            t_switch=spec.config.t_switch,
            uses_slice=spec.controller.uses_slice,
            charge_overheads=spec.controller.charge_overheads,
            rel_eps=rel_eps,
            energy_rel_eps=energy_rel_eps,
        ))

        # -- routing: only matching-benchmark jobs on this shard -------
        for o in shard.outcomes:
            tagged = result.benchmarks.get(o.index)
            if tagged != spec.benchmark:
                bad("fleet.routing", o.index,
                    f"job tagged {tagged!r} landed on shard "
                    f"{spec.name!r} serving {spec.benchmark!r}",
                    expected=spec.benchmark, actual=tagged)
            assigned = result.assignments.get(o.index)
            if assigned != shard_index:
                bad("fleet.routing", o.index,
                    "outcome shard disagrees with the dispatcher's "
                    "recorded assignment",
                    expected=assigned, actual=shard_index)

    # -- dispatcher sheds ---------------------------------------------
    from ..serve.fleet import SHED_REASONS

    for shed in result.sheds:
        if shed.reason not in SHED_REASONS:
            bad("fleet.shed", shed.index,
                f"unknown dispatcher shed reason {shed.reason!r}",
                expected=SHED_REASONS, actual=shed.reason)

    # -- fleet-wide conservation --------------------------------------
    n_shard_offered = sum(r.n_offered for r in result.shards)
    if len(result.sheds) + n_shard_offered != result.n_offered:
        bad("fleet.conservation", None,
            "dispatcher sheds + shard offers do not add up to the "
            "fleet's offered count",
            expected=result.n_offered,
            actual=len(result.sheds) + n_shard_offered)
    seen = [shed.index for shed in result.sheds]
    for shard in result.shards:
        seen.extend(o.index for o in shard.outcomes)
    if len(set(seen)) != len(seen):
        bad("fleet.conservation", None,
            "a fleet index terminated more than once across "
            "dispatcher sheds and shard outcomes",
            expected=len(seen), actual=len(set(seen)))
    expected_indices = set(range(result.n_offered))
    if set(seen) != expected_indices:
        missing = sorted(expected_indices - set(seen))[:5]
        extra = sorted(set(seen) - expected_indices)[:5]
        bad("fleet.conservation", None,
            "fleet indices do not partition 0..n_offered-1 "
            f"(missing {missing}, unexpected {extra})",
            expected=result.n_offered, actual=len(set(seen)))

    # -- per-tenant conservation --------------------------------------
    for tenant, row in sorted(result.tenant_summary().items()):
        settled = row["completed"] + row["fallback"] + row["shed"]
        if settled != row["offered"]:
            bad("fleet.tenant", None,
                f"tenant {tenant!r}: completed + fallback + shed does "
                "not add up to offered",
                expected=row["offered"], actual=settled)

    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("check.fleets")
        if violations:
            observer.metrics.inc("check.violations", len(violations))

    return violations


def check_epochs(result: StreamResult,
                 epoch_log: List[tuple],
                 rel_eps: float = TIME_EPS_REL
                 ) -> List[InvariantViolation]:
    """Audit the planned-run conservation law of virtual serving.

    :func:`~repro.serve.vector.drive_stream_vectorized` may only commit
    a planned run over arrivals whose decisions are provably
    independent — which leaves a re-checkable footprint on the
    finished stream.
    For every run (an *epoch*) ``(first_index, n_jobs)`` it committed:

    * ``stream.epoch.shape`` — the epoch is non-empty and its first
      job exists in the result;
    * ``stream.epoch.overlap`` — epochs are ordered and disjoint: no
      job is decided in two epochs;
    * ``stream.epoch.regime`` — every epoch job ran in the uncoupled
      regime: executed (never shed), micro-batch of exactly one, and
      ``start == arrival`` (the server was idle at every admission);
    * ``stream.epoch.chain`` — within an epoch each job's virtual
      finish lies at or before its successor's arrival, which is
      precisely the independence condition that justified deciding
      them together.

    Together with ``stream.conservation`` (from :func:`check_stream`)
    this closes the loop: epoch jobs + scalar jobs + sheds account for
    every offered job exactly once.  :func:`check_stream` and
    :func:`check_episode` apply these rules to ``result.epoch_log``
    themselves; this entry point audits any log against any result.
    """
    violations: List[InvariantViolation] = []
    _audit_epochs(partial(_report, violations), result, epoch_log, rel_eps)
    observer = get_observer()
    if observer is not None and violations:
        observer.metrics.inc("check.violations", len(violations))
    return violations


def _audit_epochs(bad, result: StreamResult, epoch_log: List[tuple],
                  rel_eps: float) -> None:
    """Report every :func:`check_epochs` violation through ``bad``."""
    if not epoch_log:
        return
    deadline = result.deadline
    position = {o.index: k for k, o in enumerate(result.outcomes)}
    prev_end = 0
    prev_first = None
    for first_index, n_jobs in epoch_log:
        if n_jobs < 1:
            bad("stream.epoch.shape", first_index,
                "epoch committed no jobs", expected=">= 1",
                actual=n_jobs)
            continue
        p = position.get(first_index)
        if p is None:
            bad("stream.epoch.shape", first_index,
                "epoch's first job is missing from the result")
            continue
        if prev_first is not None and first_index <= prev_first:
            bad("stream.epoch.overlap", first_index,
                "epochs are out of order",
                expected=f"> {prev_first}", actual=first_index)
        if p < prev_end:
            bad("stream.epoch.overlap", first_index,
                "epoch overlaps its predecessor — a job was decided "
                "twice", expected=f">= position {prev_end}", actual=p)
        if p + n_jobs > len(result.outcomes):
            bad("stream.epoch.shape", first_index,
                "epoch extends past the end of the result",
                expected=len(result.outcomes), actual=p + n_jobs)
            prev_end = len(result.outcomes)
            prev_first = first_index
            continue
        epoch = result.outcomes[p:p + n_jobs]
        for k, o in enumerate(epoch):
            if o.status == SHED:
                bad("stream.epoch.regime", o.index,
                    "epoch contains a shed job — epochs only form "
                    "while admission cannot shed",
                    expected="executed", actual=o.status)
                continue
            if o.batch_size != 1:
                bad("stream.epoch.regime", o.index,
                    "epoch job ran in a micro-batch larger than one",
                    expected=1, actual=o.batch_size)
            if not _times_equal(o.start, o.arrival, deadline, rel_eps):
                bad("stream.epoch.regime", o.index,
                    "epoch job did not start at its arrival — the "
                    "server was not idle", expected=o.arrival,
                    actual=o.start)
            if k + 1 < n_jobs:
                succ = epoch[k + 1]
                if o.finish > succ.arrival + rel_eps * deadline:
                    bad("stream.epoch.chain", o.index,
                        "epoch job finishes after its successor's "
                        "arrival — the decisions were not independent",
                        expected=f"<= {succ.arrival}", actual=o.finish)
        prev_end = p + n_jobs
        prev_first = first_index

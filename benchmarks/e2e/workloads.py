"""The five benchmark workloads.

Each workload prepares its bundles once (untimed), builds its seeded
inputs in :meth:`Workload.setup` (timed as ``setup_s``), and runs one
timed pass per :meth:`Workload.run_pass`, returning the pass output and
the seconds of each timed step, read from :attr:`Workload.clock`.
Everything the harness derives from an output — invariant checks, the
canonical digest, outcome metrics — runs outside the timed steps.

The workloads call only public functions of ``repro``, and reach each
one through the module attribute a shim in :mod:`shims` replaces, so
a traced pass sees the same calls as a timed one.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.check import check_episode, check_epochs, check_fleet, \
    check_stream
from repro.experiments import fig11_schemes, make_controller, run_scheme, \
    tech_context
from repro.experiments import runner, schemes
from repro.runtime import summarize
from repro.serve import (
    FALLBACK,
    SHED_REASONS,
    AcceleratorStream,
    FleetConfig,
    RecordPredictor,
    ServeConfig,
    ShardSpec,
    SlicePredictor,
    TenantSpec,
    build_mixed_stream,
    build_stream_jobs,
    poisson_arrivals,
)
from repro.serve import fleet, server
from repro.workloads import ALL_BENCHMARKS

SCHEME = "prediction"
FULL_SCALE = 1.0
#: Smoke runs shrink the offline flow to Table 3 at 5% (the flow's
#: fixed costs dominate below that) and every stream to a few
#: thousand jobs.
SMOKE_SCALE = 0.05

Steps = Dict[str, float]


def _sha256(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _outcome_row(o) -> tuple:
    # The ``virtual_outcomes`` canonical form: every virtual-clock
    # field, without the measured ``decision_s`` and without the
    # record's features and activity (fixed per record).
    job = o.job
    return (o.index, o.status, o.arrival, o.release, o.start, o.t_slice,
            o.t_switch, o.t_exec, o.energy, o.missed, o.voltage,
            o.frequency, o.boosted, o.batch_size, job.index,
            job.actual_cycles, job.predicted_cycles, job.slice_cycles,
            job.coarse_param)


def _pred_error_pct(records) -> float:
    """Mean |predicted - actual| / actual over records, in percent."""
    errors = [abs(r.predicted_cycles - r.actual_cycles) / r.actual_cycles
              for r in records if r.predicted_cycles is not None]
    return 100.0 * sum(errors) / len(errors) if errors else 0.0


def _serve_config(ctx) -> ServeConfig:
    return ServeConfig(deadline=ctx.config.deadline,
                       t_switch=ctx.config.t_switch)


def _conservation(result, n_jobs: int) -> List[str]:
    """The identity completed + fallback + shed = offered = jobs sent,
    for a ``StreamResult`` or a ``FleetResult``."""
    total = result.n_completed + result.n_fallback + result.n_shed
    if total == result.n_offered == n_jobs:
        return []
    return [f"conservation: completed+fallback+shed={total}, "
            f"offered={result.n_offered}, jobs sent={n_jobs}"]


class Workload:
    """One named workload; subclasses fill in the hooks."""

    name = ""
    #: Fewest timed passes a full-size run makes, whatever ``--seconds``.
    min_passes = 3
    #: The clock timed steps read; the harness sets one that leaves
    #: out the host probes' time (:meth:`host.Sampler.clock`).
    clock: Callable[[], float] = staticmethod(time.perf_counter)

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.scale = SMOKE_SCALE if smoke else FULL_SCALE

    def timed(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), seconds)`` on :attr:`clock`."""
        t0 = self.clock()
        out = fn(*args, **kwargs)
        return out, self.clock() - t0

    def prepare(self) -> None:
        """Build what every set-up reuses (untimed, once per run)."""

    def setup(self, seed: int) -> None:
        """Build this run's seeded inputs (timed as ``setup_s``)."""

    def warm_up(self) -> None:
        """Fill caches and finish lazy set-up before the timed passes."""

    def run_pass(self) -> Tuple[object, Steps]:
        raise NotImplementedError

    def finish(self, output):
        """Untimed completion of a pass output (after any shims are
        removed); returns what the other hooks read."""
        return output

    def jobs_of(self, output) -> int:
        """Jobs one pass processed (the ``jobs_per_s`` numerator)."""
        raise NotImplementedError

    def failed(self, output) -> int:
        """Jobs that errored (fell back) in one pass."""
        return 0

    def decisions(self, output) -> List[float]:
        """Per-job decision wall seconds of the executed jobs."""
        return []

    def check(self, output) -> Tuple[List[str], Dict[str, float]]:
        """Violations found, and the checker seconds per checker."""
        raise NotImplementedError

    def digest(self, output) -> str:
        raise NotImplementedError

    def outcomes(self, output) -> Dict[str, float]:
        """Deterministic outcome metrics of one pass."""
        raise NotImplementedError


# -- offline flow ------------------------------------------------------


class OfflineFlow(Workload):
    """Cold offline flow on all seven accelerators, then fig11: the only
    workload where the Lasso path and RTL simulation dominate."""

    name = "offline_flow"
    # A pass takes 8-14 s, so a third one would cost more run time
    # than the benchmark's time budget leaves; on a 2-vCPU shared VM
    # two host-normalized passes kept ten runs' medians within a 2-5 %
    # spread.
    min_passes = 2

    # Smoke keeps the four cheapest flows; h264 and sha alone cost
    # more than the whole smoke budget allows.
    SMOKE_BENCHMARKS = ("cjpeg", "djpeg", "md", "stencil")

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        self.benchmarks = self.SMOKE_BENCHMARKS if smoke else ALL_BENCHMARKS

    def run_pass(self):
        # Users pay the cold flow on every CLI call, so every pass
        # starts from an empty bundle cache and nothing is warmed.
        runner.clear_bundle_cache()
        steps: Steps = {}
        bundles = {}
        for name in self.benchmarks:
            bundles[name], steps[name] = self.timed(
                runner.bundle_for, name, self.scale, workers=1)
        summaries, steps["fig11"] = self.timed(
            schemes.compare_schemes, fig11_schemes.SCHEMES, tech="asic",
            scale=self.scale, benchmarks=self.benchmarks)
        return (bundles, summaries), steps

    def finish(self, output):
        # Replays the episodes fig11 ran (deterministic in the
        # bundles) so they can be checked and digested; ``check``
        # proves the replay matches the pass's own summaries.
        bundles, summaries = output
        episodes = {}
        for name, bundle in bundles.items():
            ctx = tech_context(bundle, "asic")
            episodes[name] = {
                scheme: (ctx, run_scheme(ctx, scheme, strict=False))
                for scheme in fig11_schemes.SCHEMES}
        return bundles, summaries, episodes

    def jobs_of(self, output) -> int:
        return sum(len(b.workload.train) + len(b.workload.test)
                   for b in output[0].values())

    def check(self, output):
        bundles, summaries, episodes = output
        violations: List[str] = []
        t0 = self.clock()
        for name, runs in episodes.items():
            baseline = runs["baseline"][1]
            for scheme, (ctx, result) in runs.items():
                for v in check_episode(
                        result, energy_model=ctx.energy_model,
                        slice_energy_model=ctx.slice_energy_model,
                        levels=ctx.levels, t_switch=ctx.config.t_switch):
                    violations.append(f"{name}/{scheme}: {v}")
                replay = summarize(name, result, baseline)
                if replay not in summaries:
                    violations.append(
                        f"{name}/{scheme}: replayed episode {replay} "
                        "differs from the pass's summary")
        check_s = self.clock() - t0
        if not self.smoke:
            violations.extend(self._paper_bands(summaries))
        return violations, {"check.episode_s": check_s}

    @staticmethod
    def _paper_bands(summaries) -> List[str]:
        head = fig11_schemes.headline(summaries)
        saved = head["prediction_energy_savings_pct"]
        pred_miss = head["prediction_miss_pct"]
        pid_miss = head["pid_miss_pct"]
        out = []
        if not 31.7 <= saved <= 41.7:
            out.append(f"paper band: prediction saves {saved:.3f}% "
                       "energy, outside 36.7 +- 5")
        if pred_miss > 2.0:
            out.append(f"paper band: prediction misses {pred_miss:.3f}% "
                       "> 2%")
        if pid_miss < 5.0 * pred_miss:
            out.append(f"paper band: PID misses {pid_miss:.3f}% < 5x "
                       f"prediction's {pred_miss:.3f}%")
        return out

    def digest(self, output) -> str:
        bundles, summaries, episodes = output
        parts = []
        for name in sorted(bundles):
            b = bundles[name]
            p = b.package
            parts.append((
                name, float(p.gamma), tuple(p.predictor.feature_names),
                p.predictor.coeffs.tolist(), float(p.predictor.intercept),
                b.train_cycles,
                [(r.actual_cycles, r.predicted_cycles, r.slice_cycles,
                  r.coarse_param) for r in b.test_records]))
            for scheme, (_, result) in sorted(episodes[name].items()):
                parts.append((name, scheme, [
                    (o.job.index, o.voltage, o.frequency, o.boosted,
                     o.t_slice, o.t_switch, o.t_exec, o.energy, o.missed,
                     o.release, o.start) for o in result.outcomes]))
        parts.append([(s.benchmark, s.scheme, s.normalized_energy_pct,
                       s.miss_rate_pct) for s in summaries])
        return _sha256(parts)

    def outcomes(self, output) -> Dict[str, float]:
        bundles, summaries, episodes = output
        head = fig11_schemes.headline(summaries)
        runs = [episodes[name][SCHEME][1] for name in bundles]
        executed = [o for r in runs for o in r.outcomes]
        cycles = sum(
            sum(b.train_cycles)
            + sum(r.actual_cycles + r.slice_cycles for r in b.test_records)
            for b in bundles.values())
        return {
            "deadline_met_pct": 100.0 - head["prediction_miss_pct"],
            "served_pct": 100.0,
            "energy_uj_per_job": 1e6 * sum(o.energy for o in executed)
            / len(executed),
            "pred_error_pct": sum(_pred_error_pct(b.test_records)
                                  for b in bundles.values()) / len(bundles),
            "energy_savings_pct": head["prediction_energy_savings_pct"],
            "serve.queue_wait_ms_mean": 1e3 * sum(
                o.start - o.release for o in executed) / len(executed),
            "dvfs.level_switches": sum(r.switch_count for r in runs),
            "rtl.sim_cycles": cycles,
        }


# -- serving -----------------------------------------------------------


def chunk_seeds(seed: int, n: int) -> List[int]:
    """``n`` independent seeds derived from one run seed."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(n)]


class Serving(Workload):
    """A serving workload: each pass serves ``chunks`` independent
    seeded sub-streams, each timed as its own step.

    How much work a stream does depends on its arrival times (how long
    epochs run, how much speculation is thrown away), so one pass
    averages several sub-streams instead of timing one.
    """

    chunks = 4
    n_jobs = 0          # per sub-stream
    smoke_jobs = 0
    check_name = ""

    def build(self, seed: int, n: int) -> list:
        """One sub-stream's jobs."""
        raise NotImplementedError

    def serve(self, jobs) -> Tuple[object, float]:
        """Serve one sub-stream; ``(output, seconds)``."""
        raise NotImplementedError

    def result(self, out):
        """The ``StreamResult``/``FleetResult`` of one sub-stream."""
        raise NotImplementedError

    def check_one(self, out) -> list:
        raise NotImplementedError

    def rows(self, out) -> list:
        """Canonical digest rows of one sub-stream."""
        raise NotImplementedError

    def outcome_lists(self, out) -> list:
        """One sub-stream's outcomes, one list per shard."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        self.inputs = None  # free the previous set-up's inputs first
        n = self.smoke_jobs if self.smoke else self.n_jobs
        self.inputs = [self.build(s, n)
                       for s in chunk_seeds(seed, self.chunks)]

    def warm_up(self) -> None:
        # Caches are per bundle and predictor, not per job, so one
        # sub-stream fills them.
        self.serve(self.inputs[0])

    def run_pass(self):
        outputs, steps = [], {}
        for k, jobs in enumerate(self.inputs):
            out, steps[f"chunk{k}"] = self.serve(jobs)
            outputs.append(out)
        return outputs, steps

    def _executed(self, output) -> list:
        return [o for out in output for outcomes in self.outcome_lists(out)
                for o in outcomes if o.executed]

    def jobs_of(self, output) -> int:
        return sum(self.result(out).n_offered for out in output)

    def failed(self, output) -> int:
        return sum(self.result(out).n_fallback for out in output)

    def decisions(self, output) -> List[float]:
        return [o.decision_s for o in self._executed(output)]

    def check(self, output):
        violations: List[str] = []
        seconds = 0.0
        for out, jobs in zip(output, self.inputs):
            t0 = self.clock()
            found = self.check_one(out)
            seconds += self.clock() - t0
            violations.extend(str(v) for v in found)
            violations.extend(_conservation(self.result(out), len(jobs)))
        return violations, {self.check_name: seconds}

    def digest(self, output) -> str:
        return _sha256([self.rows(out) for out in output])

    def outcomes(self, output) -> Dict[str, float]:
        """Outcome metrics over every sub-stream.  A shed job counts as
        missing its deadline; only executed jobs use energy."""
        results = [self.result(out) for out in output]
        executed = self._executed(output)
        offered = sum(r.n_offered for r in results)
        shed = sum(r.n_shed for r in results)
        misses = sum(o.missed for o in executed)
        return {
            "deadline_met_pct": 100.0 * (offered - misses - shed) / offered,
            "served_pct": 100.0 * (offered - shed
                                   - sum(r.n_fallback for r in results))
            / offered,
            "energy_uj_per_job": 1e6 * sum(r.total_energy for r in results)
            / len(executed),
            "pred_error_pct": _pred_error_pct(
                [o.job for o in executed if o.status != FALLBACK]),
            "serve.queue_wait_ms_mean": 1e3 * sum(
                o.start - o.arrival for o in executed) / len(executed),
            "dvfs.level_switches": sum(1 for o in executed
                                       if o.t_switch > 0.0),
        }


class Stream(Serving):
    """One accelerator stream per sub-stream, on the virtual clock."""

    benchmark = "h264"
    live_slice = False
    check_name = "check.stream_s"

    def prepare(self) -> None:
        self.bundle = runner.bundle_for(self.benchmark, self.scale,
                                        workers=1)
        self.ctx = tech_context(self.bundle, "asic")
        self.predictor = (SlicePredictor(self.bundle.package)
                          if self.live_slice else RecordPredictor())

    def arrivals(self, seed: int, n: int) -> List[float]:
        raise NotImplementedError

    def build(self, seed, n):
        return build_stream_jobs(self.bundle, self.arrivals(seed, n),
                                 with_inputs=self.live_slice)

    def serve(self, jobs):
        stream = AcceleratorStream(
            self.benchmark, make_controller(self.ctx, SCHEME),
            self.ctx.energy_model, self.ctx.slice_energy_model,
            predictor=self.predictor, config=_serve_config(self.ctx))
        result, seconds = self.timed(server.serve_stream, stream, jobs)
        return (stream, result), seconds

    def result(self, out):
        return out[1]

    def check_one(self, out):
        stream, result = out
        found = list(check_stream(
            result, energy_model=stream.energy_model,
            slice_energy_model=stream.slice_energy_model,
            levels=stream.levels, t_switch=stream.config.t_switch,
            uses_slice=stream.controller.uses_slice,
            charge_overheads=stream.controller.charge_overheads))
        if stream.epoch_log:
            found.extend(check_epochs(result, stream.epoch_log))
        return found

    def rows(self, out):
        return [_outcome_row(o) for o in out[1].outcomes]

    def outcome_lists(self, out):
        return [out[1].outcomes]


class StreamPoisson(Stream):
    """h264 at Poisson 30 jobs/s: epochs of about 3 jobs, so the
    decision plane and per-job accounting dominate."""

    name = "stream_poisson"
    n_jobs = 10_000
    smoke_jobs = 1_000

    def arrivals(self, seed, n):
        return poisson_arrivals(30.0, n_jobs=n, seed=seed)


class StreamPeriodic(Stream):
    """h264 at the paper's 16.7 ms frame period: the same layers as
    ``stream_poisson``, in epochs of hundreds of jobs."""

    name = "stream_periodic"
    # The frame model has no randomness, so the seed does not change
    # the inputs and one sub-stream is enough.
    chunks = 1
    n_jobs = 50_000
    smoke_jobs = 5_000

    def arrivals(self, seed, n):
        deadline = self.ctx.config.deadline
        return [i * deadline for i in range(n)]


class StreamSlice(Stream):
    """cjpeg predicting with the live hardware slice: the only workload
    with RTL simulation on the serving path."""

    name = "stream_slice"
    benchmark = "cjpeg"
    # Speculative waste depends on the arrival gaps: between seeds the
    # slice cycles simulated per 1200 jobs vary by about 4 %, so a pass
    # averages eight sub-streams, and two passes fill the run.
    chunks = 8
    min_passes = 2
    n_jobs = 300
    smoke_jobs = 30
    live_slice = True

    def arrivals(self, seed, n):
        return poisson_arrivals(60.0, n_jobs=n, seed=seed)


TENANTS = (TenantSpec("a"), TenantSpec("b", rate=60.0, burst=20.0),
           TenantSpec("c", rate=40.0, burst=10.0))


class FleetMixed(Serving):
    """14 shards under mixed seven-accelerator Poisson traffic at 250
    jobs/s, three tenants of which two are rate-limited."""

    name = "fleet_mixed"
    n_jobs = 6_000
    smoke_jobs = 1_000
    shards_per_benchmark = 2
    check_name = "check.fleet_s"

    def prepare(self) -> None:
        self.bundles = {name: runner.bundle_for(name, self.scale,
                                                workers=1)
                        for name in ALL_BENCHMARKS}
        self.ctxs = {name: tech_context(b, "asic")
                     for name, b in self.bundles.items()}

    def build(self, seed, n):
        return build_mixed_stream(
            self.bundles, poisson_arrivals(250.0, n_jobs=n, seed=seed),
            seed=seed, tenants=tuple(t.name for t in TENANTS))

    def serve(self, jobs):
        # Fresh controllers per pass: reactive state must not leak.
        specs = [ShardSpec(
            name=f"{name}#{i}", benchmark=name,
            controller=make_controller(ctx, SCHEME),
            energy_model=ctx.energy_model,
            slice_energy_model=ctx.slice_energy_model,
            predictor=RecordPredictor(), config=_serve_config(ctx))
            for name, ctx in self.ctxs.items()
            for i in range(self.shards_per_benchmark)]
        return self.timed(fleet.serve_fleet, specs, jobs,
                          FleetConfig(policy="least_loaded"),
                          tenants=TENANTS, workers=1)

    def result(self, out):
        return out

    def check_one(self, out):
        return check_fleet(out)

    def rows(self, out):
        return ([[_outcome_row(o) for o in shard.outcomes]
                 for shard in out.shards],
                [(s.index, s.benchmark, s.tenant, s.arrival, s.reason)
                 for s in out.sheds],
                sorted(out.assignments.items()))

    def outcome_lists(self, out):
        return [shard.outcomes for shard in out.shards]

    def outcomes(self, output) -> Dict[str, float]:
        out = super().outcomes(output)
        reasons = [s.reason for result in output for s in result.sheds]
        for reason in SHED_REASONS:
            out[f"serve.fleet.shed_{reason}"] = reasons.count(reason)
        return out


WORKLOADS = {w.name: w for w in (OfflineFlow, StreamPoisson,
                                 StreamPeriodic, StreamSlice, FleetMixed)}

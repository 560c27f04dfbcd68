"""Differential conformance: prove the whole stack on sampled designs.

The harness behind ``repro conform``.  For every design drawn by
:func:`repro.gen.sampler.sample_design` it runs an ordered battery of
checks spanning every layer of the repository:

1. ``lint`` — :func:`repro.rtl.lint_module` reports no errors;
2. ``verilog`` — :func:`repro.rtl.to_verilog` emits a non-trivial
   netlist without crashing;
3. ``backends`` — :func:`compare_backends`: ``stepjit`` agrees with
   the ``interp`` oracle bit-for-bit on cycle count, fast-forward
   jumps, final state, per-state residency, final FSM states,
   ordered listener events and the feature vector a
   :class:`~repro.analysis.FeatureRecorder` records, with the
   outcome of the run that recorded it, fast-forward both on and
   off;
4. ``flow`` — the offline flow trains a predictor on a sampled
   workload and produces a prediction for every test job;
5. ``episode:asic`` / ``episode:fpga`` — predictive DVFS episodes on
   both technologies pass :func:`repro.check.check_episode` clean;
6. ``stream:*`` — served streams under adversarial scenario knobs
   (Poisson baseline, front-loaded bursts, variable-frame-rate
   arrivals with alternating sizes, mixed-deadline service classes)
   pass :func:`repro.check.check_stream` clean.

A failed check records its diagnostic and downstream checks that
depend on it are marked skipped, so one report still tells the whole
story for a bad seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis import FeatureRecorder, FeatureSet, discover_features
from ..check import check_episode, check_stream
from ..experiments.runner import (
    BenchmarkBundle,
    TechContext,
    make_controller,
    run_scheme,
    tech_context,
)
from ..flow import FlowConfig
from ..rtl import (
    Simulation,
    StepSimulation,
    errors_only,
    lint_module,
    synthesize,
    to_verilog,
)
from ..serve import (
    AcceleratorStream,
    DeadlineClass,
    RecordPredictor,
    ServeConfig,
    adversarial_order,
    burst_arrivals,
    poisson_arrivals,
    serve_streams,
    split_by_deadline,
    stream_from_records,
    vfr_arrivals,
)
from ..workloads import BenchmarkWorkload
from .sampler import GeneratedDesign, sample_design, sample_workload

#: Every check :func:`conform_design` runs, in execution order.
CHECKS = (
    "lint",
    "verilog",
    "backends",
    "flow",
    "episode:asic",
    "episode:fpga",
    "stream:poisson",
    "stream:burst",
    "stream:vfr",
    "stream:mixed_deadline",
)

#: Controller schemes exercised by the episode checks.
EPISODE_SCHEMES = ("prediction", "prediction_boost")

_SKIPPED = "skipped"


@dataclass
class ConformanceReport:
    """One sampled design's results across the whole check battery.

    ``checks`` maps each check name (in :data:`CHECKS` order) to
    ``None`` on success or a one-line diagnostic on failure; checks
    that could not run because a prerequisite failed carry a
    ``"skipped: ..."`` marker and count as failures.
    """

    design: str
    seed: int
    complexity: str
    checks: Dict[str, Optional[str]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every check ran and came back clean."""
        return bool(self.checks) and all(
            v is None for v in self.checks.values())

    @property
    def failures(self) -> Dict[str, str]:
        """The failing subset of ``checks`` (skips included)."""
        return {k: v for k, v in self.checks.items() if v is not None}

    def summary(self) -> str:
        """A compact one-design status line for CLI output."""
        status = "PASS" if self.passed else "FAIL"
        bad = ",".join(self.failures) or "-"
        return (f"{self.design:<12} seed={self.seed:<3} "
                f"{self.complexity:<6} {status}  "
                f"checks={len(self.checks)} failing={bad}")


class _EventRecorder(FeatureRecorder):
    """Ordered event capture plus the feature vector, from one run.

    It overrides the recorder's callbacks, so ``stepjit`` calls it
    back (the callbacks variant) as ``interp`` does.
    """

    def __init__(self, feature_set: FeatureSet) -> None:
        super().__init__(feature_set)
        self.transitions: List[Tuple[str, str, str]] = []
        self.loads: List[Tuple[str, int]] = []
        self.resets: List[Tuple[str, int]] = []

    def on_transition(self, fsm: str, src: str, dst: str) -> None:
        """Record one FSM arc firing."""
        self.transitions.append((fsm, src, dst))
        super().on_transition(fsm, src, dst)

    def on_counter_load(self, counter: str, value: int) -> None:
        """Record one down-counter load."""
        self.loads.append((counter, value))
        super().on_counter_load(counter, value)

    def on_counter_reset(self, counter: str, value: int) -> None:
        """Record one up-counter reset."""
        self.resets.append((counter, value))
        super().on_counter_reset(counter, value)


#: Job = (port inputs, memory contents), the pair ``record_jobs`` takes.
Job = Tuple[Dict[str, int], Dict[str, Sequence[int]]]

#: A run's outcome: what each backend's runs must match ``interp`` on.
OUTCOME_FIELDS = ("cycles", "ff_jumps", "state", "state_cycles",
                  "fsm_state")

#: Fields each backend must match ``interp`` on, per job: the outcome
#: and events of one run, the feature vector a recorder records, and
#: the outcome of the run that recorded it (``recorded.*``).
COMPARED_FIELDS = {
    "stepjit": OUTCOME_FIELDS + ("events", "features") + tuple(
        f"recorded.{name}" for name in OUTCOME_FIELDS),
}


def _outcome(sim: Simulation, prefix: str = "") -> Dict[str, object]:
    values = (sim.cycle, sim.ff_jumps, dict(sim.state),
              dict(sim.state_cycles), dict(sim._fsm_state))
    return {prefix + name: value
            for name, value in zip(OUTCOME_FIELDS, values)}


def _run_scalar(module, cls, job: Job, fast_forward: bool,
                max_cycles: int, feature_set: FeatureSet
                ) -> Dict[str, object]:
    # interp calls every listener back, so one run records the events
    # and the features.  stepjit compiles a stock recorder's slots into
    # the kernel instead, another variant, so it runs the job again.
    rec = _EventRecorder(feature_set)
    sim = cls(module, listener=rec, fast_forward=fast_forward)
    sim.run_job(*job, max_cycles)
    recorder, twin = rec, sim
    if cls is not Simulation:
        recorder = FeatureRecorder(feature_set)
        twin = cls(module, listener=recorder, fast_forward=fast_forward)
        twin.run_job(*job, max_cycles)
    return {**_outcome(sim),
            "events": (rec.transitions, rec.loads, rec.resets),
            "features": recorder.vector().tobytes(),
            **_outcome(twin, "recorded.")}


def backend_runs(module, jobs: Sequence[Job], fast_forward: bool,
                 max_cycles: int = 2_000_000
                 ) -> Dict[str, List[Dict[str, object]]]:
    """Every job on every backend: ``{backend: [per-job result]}``,
    each job on a fresh simulation.  ``features`` holds the bytes of
    the job's vector over the module's discovered features."""
    jobs = list(jobs)
    feature_set = discover_features(module, synthesize(module))
    return {
        backend: [_run_scalar(module, cls, job, fast_forward, max_cycles,
                              feature_set) for job in jobs]
        for backend, cls in (("interp", Simulation),
                             ("stepjit", StepSimulation))
    }


def compare_backends(module, jobs: Sequence[Job],
                     max_cycles: int = 2_000_000) -> None:
    """Assert every backend agrees with ``interp`` on every job.

    Runs with fast-forward on and off and raises
    :class:`AssertionError` naming the first divergent (job, backend,
    field); the fields compared per backend are :data:`COMPARED_FIELDS`.
    """
    for fast_forward in (True, False):
        runs = backend_runs(module, jobs, fast_forward, max_cycles)
        for backend, fields in COMPARED_FIELDS.items():
            for j, (got, want) in enumerate(zip(runs[backend],
                                                runs["interp"])):
                for f in fields:
                    if got[f] != want[f]:
                        raise AssertionError(
                            f"{module.name} job {j} ff={fast_forward}:"
                            f" {backend} disagrees with interp on {f}")


def check_backend_agreement(design: GeneratedDesign,
                            jobs: Sequence[List[int]],
                            max_cycles: int = 2_000_000) -> None:
    """Assert both backends agree bit-for-bit on every job.

    Encodes each sampled job and hands the list to
    :func:`compare_backends`.
    """
    compare_backends(design.build(),
                     [design.encode_job(items).as_pair()
                      for items in jobs],
                     max_cycles)


def build_generated_bundle(design: GeneratedDesign,
                           n_train: int = 24,
                           n_test: int = 12,
                           flow_config: FlowConfig = FlowConfig()
                           ) -> BenchmarkBundle:
    """Run the offline flow on a generated design, end to end.

    The registry-keyed :func:`~repro.experiments.runner.bundle_for`
    only knows the seven hand-built benchmarks; this is its generative
    twin — sampled train/test workloads, a freshly trained predictor
    and evaluated test records, packed into the same
    :class:`~repro.experiments.runner.BenchmarkBundle` shape every
    downstream experiment and serving helper consumes.
    """
    workload = BenchmarkWorkload(
        name=design.name,
        train=sample_workload(design, n_train, seed=1),
        test=sample_workload(design, n_test, seed=2),
        train_description=f"{n_train} sampled descriptor lists",
        test_description=f"{n_test} sampled descriptor lists",
    )
    return BenchmarkBundle.build(design, workload, flow_config)


def _mean_service_time(ctx: TechContext) -> float:
    records = ctx.bundle.test_records
    mean_cycles = (sum(r.actual_cycles for r in records)
                   / max(len(records), 1))
    return mean_cycles / ctx.bundle.design.nominal_frequency


def _serve_checked(ctx: TechContext, tagged_jobs, scenario: str
                   ) -> None:
    # tagged_jobs: [(deadline, jobs)] -> one stream per deadline class.
    streams = []
    for deadline, jobs in tagged_jobs:
        controller = make_controller(ctx, "prediction")
        # Checked below, once, whatever REPRO_CHECK says.
        config = ServeConfig(deadline=deadline,
                             t_switch=ctx.config.t_switch, strict=False)
        streams.append((AcceleratorStream(
            f"{ctx.name}:{scenario}", controller, ctx.energy_model,
            ctx.slice_energy_model, predictor=RecordPredictor(),
            config=config), jobs))
    results = serve_streams(streams)
    for result in results:
        violations = check_stream(
            result, ctx.energy_model, ctx.slice_energy_model,
            ctx.levels, t_switch=ctx.config.t_switch)
        if violations:
            raise AssertionError(
                f"{scenario}: {len(violations)} stream violation(s); "
                f"first: {violations[0]}")


def check_stream_scenarios(ctx: TechContext, seed: int,
                           n_jobs: int = 40) -> Dict[str, Optional[str]]:
    """Serve the bundle under every adversarial scenario, checked.

    Returns ``{scenario check name: None | diagnostic}`` for the four
    ``stream:*`` checks.  Arrival rates are scaled to the bundle's
    mean service time (≈60% utilization at nominal frequency) so every
    scenario exercises real queueing without degenerating into a
    single mass shed.
    """
    records = ctx.bundle.test_records
    mean_t = _mean_service_time(ctx)
    rate = 0.6 / mean_t
    deadline = 4.0 * mean_t
    out: Dict[str, Optional[str]] = {}

    def _attempt(name: str, fn) -> None:
        try:
            fn()
            out[name] = None
        except Exception as exc:  # noqa: BLE001 - report, don't die
            out[name] = f"{type(exc).__name__}: {exc}"

    _attempt("stream:poisson", lambda: _serve_checked(
        ctx,
        [(deadline, stream_from_records(
            records, poisson_arrivals(rate, n_jobs=n_jobs,
                                      seed=seed)))],
        "poisson"))
    _attempt("stream:burst", lambda: _serve_checked(
        ctx,
        [(deadline, stream_from_records(
            adversarial_order(records, "front_loaded", seed=seed),
            burst_arrivals(rate, duration=n_jobs / rate,
                           seed=seed)))],
        "burst"))
    _attempt("stream:vfr", lambda: _serve_checked(
        ctx,
        [(deadline, stream_from_records(
            adversarial_order(records, "alternating", seed=seed),
            vfr_arrivals(rate, n_jobs=n_jobs, seed=seed)))],
        "vfr"))

    def _mixed() -> None:
        classes = (DeadlineClass("tight", deadline * 0.5, weight=1.0),
                   DeadlineClass("loose", deadline * 2.0, weight=2.0))
        parts = split_by_deadline(
            adversarial_order(records, "ramp", seed=seed),
            classes, seed=seed)
        per_class = max(n_jobs // len(classes), 1)
        tagged = []
        for k, cls in enumerate(classes):
            arrivals = poisson_arrivals(rate / len(classes),
                                        n_jobs=per_class,
                                        seed=seed * 31 + k)
            tagged.append((cls.deadline, stream_from_records(
                parts[cls.name], arrivals)))
        _serve_checked(ctx, tagged, "mixed_deadline")

    _attempt("stream:mixed_deadline", _mixed)
    return out


def conform_design(design: GeneratedDesign,
                   n_train: int = 24, n_test: int = 12,
                   n_backend_jobs: int = 4) -> ConformanceReport:
    """Run the full conformance battery on one sampled design.

    Executes every check in :data:`CHECKS` order; a failure records
    its diagnostic and marks dependent checks skipped.  Never raises —
    the report carries the whole story.
    """
    report = ConformanceReport(design=design.name, seed=design.seed,
                               complexity=design.complexity)
    checks = report.checks

    try:
        findings = errors_only(lint_module(design.build()))
        checks["lint"] = (None if not findings
                          else f"{len(findings)} lint error(s); "
                               f"first: {findings[0]}")
    except Exception as exc:  # noqa: BLE001
        checks["lint"] = f"{type(exc).__name__}: {exc}"

    try:
        text = to_verilog(design.build())
        checks["verilog"] = (None if "module" in text
                             else "emitted text lacks a module header")
    except Exception as exc:  # noqa: BLE001
        checks["verilog"] = f"{type(exc).__name__}: {exc}"

    try:
        jobs = sample_workload(design, n_backend_jobs, seed=3)
        check_backend_agreement(design, jobs)
        checks["backends"] = None
    except Exception as exc:  # noqa: BLE001
        checks["backends"] = f"{type(exc).__name__}: {exc}"

    bundle = None
    try:
        bundle = build_generated_bundle(design, n_train, n_test)
        missing = [r.index for r in bundle.test_records
                   if r.predicted_cycles is None]
        checks["flow"] = (None if not missing
                          else f"records {missing} carry no prediction")
    except Exception as exc:  # noqa: BLE001
        checks["flow"] = f"{type(exc).__name__}: {exc}"

    contexts: Dict[str, TechContext] = {}
    for tech in ("asic", "fpga"):
        name = f"episode:{tech}"
        if bundle is None or checks["flow"] is not None:
            checks[name] = f"{_SKIPPED}: flow failed"
            continue
        try:
            ctx = tech_context(bundle, tech)
            contexts[tech] = ctx
            for scheme in EPISODE_SCHEMES:
                result = run_scheme(ctx, scheme, strict=False)
                violations = check_episode(
                    result, ctx.energy_model, ctx.slice_energy_model,
                    ctx.levels, t_switch=ctx.config.t_switch)
                if violations:
                    raise AssertionError(
                        f"{scheme}: {len(violations)} episode "
                        f"violation(s); first: {violations[0]}")
            checks[name] = None
        except Exception as exc:  # noqa: BLE001
            checks[name] = f"{type(exc).__name__}: {exc}"

    if "asic" not in contexts:
        for name in CHECKS:
            if name.startswith("stream:"):
                checks[name] = f"{_SKIPPED}: no ASIC context"
    else:
        checks.update(check_stream_scenarios(contexts["asic"],
                                             seed=design.seed))
    return report


def run_conformance(seeds: Union[int, Sequence[int]],
                    complexity: str = "medium",
                    n_train: int = 24, n_test: int = 12
                    ) -> List[ConformanceReport]:
    """Sweep the conformance battery over a set of seeds.

    ``seeds`` is either a count (run seeds ``0..n-1``) or an explicit
    seed sequence.  Returns one report per seed in order; callers
    gate on ``all(r.passed for r in reports)``.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    reports: List[ConformanceReport] = []
    for seed in seeds:
        design = sample_design(seed, complexity)
        reports.append(conform_design(design, n_train=n_train,
                                      n_test=n_test))
    return reports

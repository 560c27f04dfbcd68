"""Differential tests: block-planned virtual serving vs the scalar
reference machine.

Every test here serves the *same* jobs twice — through
:func:`repro.serve.serve_stream` (or :func:`repro.serve.serve_fleet`),
which commits block-planned runs wherever they are eligible, and
through the scalar state machine driven directly (``offer`` per job,
then ``drain``) — and demands bit-identity on the
:func:`repro.serve.virtual_outcomes` canonical form, not approximate
equality.  The whole contract of planning is that it is an
implementation detail invisible in the results.
"""

import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.check import check_epochs, check_fleet
from repro.dvfs import (
    AsicEnergyModel,
    ConstantFrequencyController,
    JobActivity,
    OracleController,
    PidController,
    PidGains,
    PredictiveController,
    TableBasedController,
)
from repro.experiments import make_controller, tech_context
from repro.obs import session
from repro.rtl import BACKENDS, set_default_backend
from repro.runtime import JobRecord
from repro.runtime.jobs import charge_job
from repro.serve import (
    COMPLETED,
    FALLBACK,
    SHED,
    AcceleratorStream,
    FleetConfig,
    FleetDispatcher,
    RecordPredictor,
    ServeConfig,
    SlicePredictor,
    TenantSpec,
    build_stream_jobs,
    mixed_stream_jobs,
    serve_fleet,
    serve_stream,
    serve_streams,
    virtual_outcomes,
)
from repro.serve import server, vector
from repro.serve.server import _check_result
from repro.serve.stream import (
    burst_arrivals,
    poisson_arrivals,
    stream_from_records,
)
from repro.serve.vector import BLOCK
from repro.units import DVFS_SWITCH_TIME, MS
from tests.conftest import FlatEnergyModel, job
from tests.serve.conftest import DEADLINE, stream_records
from tests.serve.test_fleet import make_pool


def spiky_records(levels, n=400, seed=0):
    """Random light/heavy mix with precomputed predictions."""
    rng = np.random.default_rng(seed)
    light = int(levels.nominal.frequency * 2 * MS)
    heavy = int(levels.nominal.frequency * 8 * MS)
    records = []
    for i in range(n):
        cycles = heavy if rng.random() < 0.2 else light
        records.append(replace(job(i, cycles),
                               predicted_cycles=float(cycles),
                               slice_cycles=100))
    return records


def controller_for(kind, levels, boost=False):
    if kind == "predictive":
        return PredictiveController(levels, DVFS_SWITCH_TIME,
                                    boost=boost)
    if kind == "oracle":
        return OracleController(levels)
    if kind == "constant":
        return ConstantFrequencyController(levels)
    if kind == "table":
        light = float(levels.nominal.frequency * 2 * MS)
        return TableBasedController(levels, DVFS_SWITCH_TIME,
                                    table={0: light})
    raise AssertionError(kind)


def serve_scalar(stream, jobs):
    """The reference: the scalar machine driven job by job, then held
    to the same strict-mode checks as a served stream."""
    for sjob in jobs:
        stream.offer(sjob)
    stream.drain()
    result = stream.result()
    _check_result(stream, result)
    return result


def run_stream(levels, kind, jobs, *, scalar=False, boost=False,
               energy_model=None, predictor="record", **config):
    """Serve ``jobs`` (epochs where eligible), or with ``scalar`` run
    the reference machine."""
    controller = controller_for(kind, levels, boost=boost)
    model = energy_model if energy_model is not None \
        else FlatEnergyModel()
    config.setdefault("deadline", DEADLINE)
    stream = AcceleratorStream(
        "diff", controller, model, slice_energy_model=model,
        predictor=(RecordPredictor() if predictor == "record"
                   else predictor),
        config=ServeConfig(**config))
    result = (serve_scalar(stream, jobs) if scalar
              else serve_stream(stream, jobs))
    return stream, result


def assert_engines_identical(levels, kind, jobs, **kwargs):
    s_stream, s_result = run_stream(levels, kind, jobs, scalar=True,
                                    **kwargs)
    v_stream, v_result = run_stream(levels, kind, jobs, **kwargs)
    assert s_stream.epoch_log == []
    assert virtual_outcomes(s_result) == virtual_outcomes(v_result)
    assert s_result.n_offered == v_result.n_offered
    return v_stream, v_result


@pytest.mark.parametrize("kind", ["predictive", "oracle", "constant",
                                  "table"])
@pytest.mark.parametrize("rate", [50.0, 200.0, 2000.0])
def test_vector_engine_bit_identical(asic_levels, kind, rate):
    """All four vectorizable controllers, under light load (pure
    epoch regime), moderate load, and heavy overload (mostly scalar
    fallback): identical canonical outcomes."""
    records = spiky_records(asic_levels, n=400, seed=3)
    jobs = stream_from_records(
        records, poisson_arrivals(rate, n_jobs=400, seed=11))
    stream, _ = assert_engines_identical(asic_levels, kind, jobs)
    if rate <= 200.0:
        # Light/moderate load must actually exercise the epoch path —
        # otherwise this test proves nothing about vectorization.
        assert stream.epoch_log


def test_vector_engine_boost_identical(asic_levels):
    records = spiky_records(asic_levels, n=300, seed=5)
    jobs = stream_from_records(
        records, poisson_arrivals(150.0, n_jobs=300, seed=7))
    stream, _ = assert_engines_identical(asic_levels, "predictive",
                                         jobs, boost=True)
    assert stream.epoch_log


def test_vector_engine_generic_energy_model(asic_levels):
    """The batched energy decomposition (per-level gathers + activity
    cache) against the scalar per-job calls, on a stock
    :class:`AsicEnergyModel` with block-level activity."""
    model = AsicEnergyModel(
        base_energy_per_cycle=1.3e-12,
        block_energy_per_cycle={"mul": 2.7e-12},
        leakage_power=0.8e-3)
    records = spiky_records(asic_levels, n=300, seed=9)
    jobs = stream_from_records(
        records, poisson_arrivals(120.0, n_jobs=300, seed=13))
    stream, _ = assert_engines_identical(
        asic_levels, "predictive", jobs, energy_model=model)
    assert stream.epoch_log


def test_planned_charges_key_on_every_kernel_input(asic_levels):
    """Records sharing one ``JobActivity`` but differing in
    ``actual_cycles``, ``slice_cycles`` and ``predicted_cycles`` take
    different times, levels, switch cases and energies.  Both engines
    price through one memo per stream, so a memo key that missed an
    input would corrupt them alike: strict mode judges the outcomes
    instead, with ``check_stream``'s ``time.exec`` and
    ``energy.recompute`` rules, which price every job afresh."""
    rng = np.random.default_rng(17)
    light = int(asic_levels.nominal.frequency * 2 * MS)
    shared = JobActivity(cycles=light)
    # Few values per field, drawn independently: a key missing any
    # one input collides on records that price differently.
    records = [
        JobRecord(index=i, actual_cycles=int(light * rng.choice([1, 2, 3])),
                  activity=shared,
                  predicted_cycles=float(light * rng.choice([1, 2, 3])),
                  slice_cycles=int(rng.choice([100, 400])))
        for i in range(300)]
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=300, seed=19))
    stream, result = assert_engines_identical(asic_levels, "predictive",
                                              jobs, strict=True)
    # Both paths priced jobs: planned runs, and coupled arrivals.
    assert stream.epoch_log
    assert any(o.start > o.arrival for o in result.outcomes)
    assert len({o.t_switch for o in result.outcomes}) == 2


def test_each_kernel_input_is_priced_once_per_stream(asic_levels,
                                                     monkeypatch):
    """A Poisson stream of cycled records, loaded so that the block
    plan and the scalar machine each serve at least a quarter of the
    jobs: ``charge_job`` runs exactly once per distinct kernel input
    among the executed outcomes.  So every priced job was committed
    (the planner prices no arrival the scalar machine serves), and no
    input is priced twice in a stream, on either path."""
    records = spiky_records(asic_levels, n=40, seed=23)
    jobs = stream_from_records(
        records, poisson_arrivals(90.0, n_jobs=1200, seed=29))
    priced = []

    def counted(*args):
        priced.append(args)
        return charge_job(*args)

    # Every call site of the kernel in the serving package.
    for module in (server, vector):
        monkeypatch.setattr(module, "charge_job", counted, raising=False)
    for scalar in (True, False):
        priced.clear()
        stream, result = run_stream(asic_levels, "predictive", jobs,
                                    scalar=scalar)
        executed = [o for o in result.outcomes if o.executed]
        keys = {(id(o.job.activity), o.job.actual_cycles,
                 o.job.slice_cycles, o.voltage, o.frequency, o.boosted,
                 o.t_slice, o.t_switch) for o in executed}
        assert len(priced) == len(keys), scalar
    planned = sum(n for _, n in stream.epoch_log)
    assert planned >= len(jobs) / 4
    assert len(executed) - planned >= len(jobs) / 4


def test_missing_predictions_fall_back_identically(asic_levels):
    """Records with no precomputed prediction take the per-job
    fallback path inside epochs exactly as the scalar engine does."""
    records = spiky_records(asic_levels, n=200, seed=1)
    records = [replace(r, predicted_cycles=None) if i % 5 == 0 else r
               for i, r in enumerate(records)]
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=200, seed=2))
    stream, result = assert_engines_identical(asic_levels,
                                              "predictive", jobs)
    assert result.n_fallback > 0
    assert stream.epoch_log


def test_declined_block_raises_the_scalar_diagnostic(asic_levels):
    """A sliceless scheme plans on the record itself; a record with no
    prediction makes ``plan_batch`` decline the block, and the scalar
    machine then raises the same diagnostic ``plan`` raises alone."""
    records = spiky_records(asic_levels, n=50, seed=1)
    records[7] = replace(records[7], predicted_cycles=None)
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=50, seed=2))
    model = FlatEnergyModel()
    for serve in (serve_scalar, serve_stream):
        stream = AcceleratorStream(
            "no-overhead", PredictiveController(
                asic_levels, DVFS_SWITCH_TIME, charge_overheads=False),
            model, slice_energy_model=model, predictor=RecordPredictor(),
            config=ServeConfig(deadline=DEADLINE))
        with pytest.raises(ValueError, match="job 7 carries no prediction"):
            serve(stream, jobs)
        assert stream.epoch_log == []


def test_no_predictor_is_all_fallback_identically(asic_levels):
    records = spiky_records(asic_levels, n=100, seed=4)
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=100, seed=6))
    _, result = assert_engines_identical(asic_levels, "predictive",
                                         jobs, predictor=None)
    assert result.n_fallback == result.n_admitted


def test_reactive_controller_never_vectorizes(asic_levels):
    """A PID controller couples every decision to the last outcome:
    the epoch engine must refuse it outright and defer to scalar."""
    records = spiky_records(asic_levels, n=120, seed=8)
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=120, seed=9))

    def make():
        controller = PidController(asic_levels, DVFS_SWITCH_TIME,
                                   gains=PidGains(0.4, 0.1, 0.05))
        model = FlatEnergyModel()
        return AcceleratorStream(
            "pid", controller, model, slice_energy_model=model,
            predictor=RecordPredictor(),
            config=ServeConfig(deadline=DEADLINE))

    s_result = serve_scalar(make(), jobs)
    v_stream = make()
    v_result = serve_stream(v_stream, jobs)
    assert v_stream.epoch_log == []
    assert virtual_outcomes(s_result) == virtual_outcomes(v_result)


def test_prediction_budget_disables_epochs(asic_levels, records):
    """A wall-clock prediction budget is per-measurement and cannot be
    replayed batch-equivalently: the engine must decline."""
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=len(records), seed=3))
    stream, _ = run_stream(asic_levels, "predictive", jobs,
                           prediction_budget=10.0)
    assert stream.epoch_log == []


def test_queue_depth_one_sheds_identically(asic_levels):
    """queue_depth=1 makes the job *after* an epoch sheddable — the
    reconstructed in-flight state must agree with scalar."""
    records = spiky_records(asic_levels, n=300, seed=12)
    jobs = stream_from_records(
        records, poisson_arrivals(400.0, n_jobs=300, seed=14))
    _, result = assert_engines_identical(asic_levels, "predictive",
                                         jobs, queue_depth=1)
    assert result.n_shed > 0


def test_epoch_log_conserves_and_checks_clean(asic_levels):
    """Epochs are disjoint, in order, cover only executed regime-A
    jobs, and pass the decision-epoch conservation checker."""
    records = spiky_records(asic_levels, n=500, seed=15)
    jobs = stream_from_records(
        records, poisson_arrivals(150.0, n_jobs=500, seed=16))
    stream, result = run_stream(asic_levels, "predictive", jobs)
    assert stream.epoch_log
    assert check_epochs(result, stream.epoch_log) == []
    covered = sum(n for _, n in stream.epoch_log)
    assert covered <= result.n_offered
    # Epoch jobs all executed in micro-batches of one at their arrival.
    by_index = {o.index: o for o in result.outcomes}
    for first, count in stream.epoch_log:
        for index in range(first, first + count):
            outcome = by_index[index]
            assert outcome.batch_size == 1
            assert outcome.start == outcome.arrival


@pytest.mark.parametrize("kind", ["predictive", "pid"])
def test_every_unplanned_arrival_is_offered(asic_levels, monkeypatch,
                                            kind):
    """The block-planned driver sends each arrival that no planned run
    commits through ``AcceleratorStream.offer``: one call per such
    arrival, on the planned and the reactive (never planned) path."""
    offered = []
    original = AcceleratorStream.offer

    def offer(stream, sjob):
        offered.append(sjob.index)
        original(stream, sjob)

    monkeypatch.setattr(AcceleratorStream, "offer", offer)
    records = spiky_records(asic_levels, n=400, seed=3)
    jobs = stream_from_records(
        records, poisson_arrivals(200.0, n_jobs=400, seed=11))
    controller = (controller_for(kind, asic_levels) if kind != "pid"
                  else PidController(asic_levels, DVFS_SWITCH_TIME))
    stream = AcceleratorStream(
        "offer", controller, FlatEnergyModel(),
        slice_energy_model=FlatEnergyModel(), predictor=RecordPredictor(),
        config=ServeConfig(deadline=DEADLINE))
    serve_stream(stream, jobs)
    planned = {first + k for first, n in stream.epoch_log
               for k in range(n)}
    assert bool(planned) == (kind == "predictive")
    assert offered == [sj.index for sj in jobs
                       if sj.index not in planned]


def test_outcomes_of_every_path_hold_no_instance_dict(asic_levels):
    """Planned, scalar and shed outcomes are all named tuples, with no
    instance ``__dict__``, and the result carries the stream's planned
    runs."""
    records = spiky_records(asic_levels, n=300, seed=12)
    jobs = stream_from_records(
        records, poisson_arrivals(400.0, n_jobs=300, seed=14))
    stream, result = run_stream(asic_levels, "predictive", jobs,
                                queue_depth=2)
    assert result.epoch_log is stream.epoch_log
    planned = {index for first, count in result.epoch_log
               for index in range(first, first + count)}
    paths = {"planned": [], "scalar": [], "shed": []}
    for o in result.outcomes:
        path = ("shed" if o.status == SHED
                else "planned" if o.index in planned else "scalar")
        paths[path].append(o)
    for path, outcomes in paths.items():
        assert outcomes, path
        assert not any(hasattr(o, "__dict__") for o in outcomes), path


class SlowPlanController(PredictiveController):
    """A predictive controller whose level selection takes at least
    ``PLAN_S`` of wall time per call, scalar or batched."""

    PLAN_S = 0.001

    def plan(self, job, budget):
        time.sleep(self.PLAN_S)
        return super().plan(job, budget)

    def plan_batch(self, jobs, budgets):
        time.sleep(self.PLAN_S)
        return super().plan_batch(jobs, budgets)


def test_epoch_decision_latency_amortized(asic_levels):
    """``decision_s`` is the wall time to predict a job and select its
    level.  Every planned job of a block carries the same value — the
    block's predict-and-plan time over its job count, a real
    measurement that includes the batched level selection; a scalar
    job's value includes its own ``plan`` call, which
    ``prediction_budget`` (bounding the predictor call alone) does not
    count."""
    n = BLOCK + 200
    records = spiky_records(asic_levels, n=n, seed=17)
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=n, seed=18))
    model = FlatEnergyModel()

    def stream_with(**config):
        return AcceleratorStream(
            "slow", SlowPlanController(asic_levels, DVFS_SWITCH_TIME),
            model, slice_energy_model=model, predictor=RecordPredictor(),
            config=ServeConfig(deadline=DEADLINE, **config))

    stream = stream_with()
    result = serve_stream(stream, jobs)
    assert stream.epoch_log
    by_index = {o.index: o for o in result.outcomes}
    # Each block starts at the first run past the previous block.
    blocks = {}
    block_end = -1
    for first, count in stream.epoch_log:
        if first >= block_end:
            block = blocks.setdefault(first, [])
            block_end = first + BLOCK
        assert first + count <= block_end
        block.extend(range(first, first + count))
    assert len(blocks) == 2
    for start, indices in blocks.items():
        latencies = {by_index[i].decision_s for i in indices}
        assert len(latencies) == 1
        size = min(BLOCK, n - start)
        assert latencies.pop() * size >= SlowPlanController.PLAN_S
    planned = {i for indices in blocks.values() for i in indices}
    scalar = [o for o in result.outcomes
              if o.executed and o.index not in planned]
    assert scalar
    assert all(o.decision_s >= SlowPlanController.PLAN_S
               for o in scalar)

    budgeted = stream_with(prediction_budget=SlowPlanController.PLAN_S)
    result = serve_stream(budgeted, jobs[:50])
    assert budgeted.epoch_log == []
    assert result.n_fallback == 0
    assert all(o.decision_s >= SlowPlanController.PLAN_S
               for o in result.outcomes)


def test_strict_mode_covers_vector_engine(asic_levels, monkeypatch):
    """REPRO_CHECK=strict replays vector-engine results through the
    stream checker *and* the epoch checker without violations."""
    monkeypatch.setenv("REPRO_CHECK", "strict")
    records = stream_records(asic_levels, n=200)
    jobs = stream_from_records(
        records, poisson_arrivals(150.0, n_jobs=200, seed=21))
    stream, result = run_stream(asic_levels, "predictive", jobs)
    assert stream.epoch_log
    assert result.n_offered == 200


# -- block edges, real bundles, fleets and telemetry ---------------------

def test_runs_across_and_on_block_boundaries(asic_levels):
    """A stream over two block boundaries: an uncoupled chain crossing
    the first (it commits as two runs, one per block), a run starting
    mid-block after a coupled job, and a run starting exactly on the
    second boundary after a coupled job.  Alternating light and
    medium jobs switch level on every job, so both switch cases are
    exercised."""
    f = asic_levels.nominal.frequency
    light, medium, long = (int(f * ms * MS) for ms in (2, 6, 20))
    n = 2 * BLOCK + 200
    # A 20 ms job overruns the next arrival 12 ms later, so that light
    # job is coupled, but not the arrival after.
    mid, edge = 600, 2 * BLOCK - 2
    records = []
    for i in range(n):
        cycles = (long if i in (mid, edge) else
                  light if i - 1 in (mid, edge) else (light, medium)[i % 2])
        records.append(replace(job(i, cycles),
                               predicted_cycles=float(cycles),
                               slice_cycles=100))
    jobs = stream_from_records(records, [i * 12 * MS for i in range(n)])
    stream, result = assert_engines_identical(
        asic_levels, "predictive", jobs, strict=True)
    starts = {first: count for first, count in stream.epoch_log}
    out = result.outcomes
    # Crossing the first boundary: one chain, cut by the block.
    assert any(first + count == BLOCK for first, count in starts.items())
    assert BLOCK in starts
    assert out[BLOCK - 1].finish <= out[BLOCK].arrival
    assert out[BLOCK].start == out[BLOCK].arrival
    # Mid-block and on the second boundary, right after a coupled job.
    for first in (mid + 2, 2 * BLOCK):
        assert first in starts
        assert out[first - 1].start > out[first - 1].arrival
    assert sum(1 for o in out if o.t_switch > 0.0) > n // 2


@pytest.mark.parametrize("tech,scheme", [
    ("fpga", "prediction"),
    ("fpga", "oracle"),
    ("asic", "prediction_boost"),
    ("asic", "prediction_no_overhead"),
    ("asic", "oracle"),
])
def test_real_bundle_schemes_identical(shared_bundle, tech, scheme):
    """Controllers built by ``make_controller`` on a real bundle, with
    its energy models and level table (FPGA included): the planned
    outcomes equal the scalar machine's, and strict checks are
    clean."""
    bundle = shared_bundle("cjpeg", 0.05)
    ctx = tech_context(bundle, tech=tech)
    jobs = build_stream_jobs(
        bundle, poisson_arrivals(60.0, n_jobs=BLOCK + 100, seed=5))

    def make():
        return AcceleratorStream(
            "cjpeg", make_controller(ctx, scheme), ctx.energy_model,
            ctx.slice_energy_model, predictor=RecordPredictor(),
            config=ServeConfig(deadline=ctx.config.deadline,
                               t_switch=ctx.config.t_switch,
                               strict=True))

    scalar = serve_scalar(make(), jobs)
    stream = make()
    result = serve_stream(stream, jobs)
    assert stream.epoch_log
    assert virtual_outcomes(result) == virtual_outcomes(scalar)


def test_fleet_shards_take_the_block_plan(asic_levels):
    """``serve_fleet`` serves every shard's routed sub-stream through
    ``drive_stream_vectorized``: against a reference that offers and drains
    each shard's routed jobs, shard outcomes, sheds and assignments
    are identical, and the fleet checker is clean."""
    records = {bench: spiky_records(asic_levels, n=50, seed=seed)
               for seed, bench in enumerate(("alpha", "beta"))}
    jobs = mixed_stream_jobs(
        records, poisson_arrivals(300.0, n_jobs=1500, seed=4), seed=4,
        tenants=("gold", "free"))
    tenants = (TenantSpec("gold"), TenantSpec("free", rate=60.0,
                                              burst=5.0))
    config = FleetConfig(policy="least_loaded", strict=True)
    with session() as obs:
        result = serve_fleet(make_pool(asic_levels, queue_depth=4), jobs,
                             config, tenants=tenants, workers=1)
    assert obs.metrics.counters["serve.epochs"] > 0

    dispatcher = FleetDispatcher(make_pool(asic_levels, queue_depth=4),
                                 config, tenants=tenants)
    routed = dispatcher.dispatch(jobs)
    reference = [serve_scalar(spec.make_stream(),
                              [job.job for job in shard_jobs])
                 for spec, shard_jobs in zip(dispatcher.specs, routed)]
    assert [virtual_outcomes(r) for r in result.shards] == \
        [virtual_outcomes(r) for r in reference]
    assert result.sheds == dispatcher.sheds
    assert any(s.reason == "rate_limit" for s in result.sheds)
    # Both paths ran inside the shards: some jobs queued behind others.
    assert any(o.start > o.arrival for r in result.shards
               for o in r.outcomes if o.executed)
    assert result.assignments == dispatcher.assignments
    assert check_fleet(result) == []


def test_planned_telemetry_matches_scalar(asic_levels):
    """Under an installed observer, a planned stream and the scalar
    machine count the same outcomes and write the same windowed
    series: equal per-window sample counts everywhere, and equal
    per-window totals for every virtual-clock series."""
    records = spiky_records(asic_levels, n=600, seed=19)
    records = [replace(r, predicted_cycles=None) if i % 7 == 0 else r
               for i, r in enumerate(records)]
    jobs = stream_from_records(
        records, poisson_arrivals(150.0, n_jobs=600, seed=20))

    def observed(scalar):
        with session() as obs:
            stream, _ = run_stream(asic_levels, "predictive", jobs,
                                   scalar=scalar, queue_depth=2)
        return stream, obs

    planned, p_obs = observed(False)
    _, s_obs = observed(True)
    assert planned.epoch_log
    counters = p_obs.metrics.counters
    assert counters["serve.epochs"] == len(planned.epoch_log)
    assert counters["serve.epoch_jobs"] == \
        sum(n for _, n in planned.epoch_log)
    for name in ("serve.offered", "serve.completed", "serve.fallback",
                 "serve.shed"):
        assert counters[name] == s_obs.metrics.counters[name], name
    for name in ("serve.decision_ms", "serve.batch_size"):
        assert p_obs.metrics.histograms[name].count == \
            s_obs.metrics.histograms[name].count
    p_ts, s_ts = p_obs.timeseries, s_obs.timeseries
    assert p_ts.series_names() == s_ts.series_names()
    for name in p_ts.series_names():
        p_cells, s_cells = p_ts.windows(name), s_ts.windows(name)
        assert [(i, c.count) for i, c in p_cells] == \
            [(i, c.count) for i, c in s_cells], name
        if name != "serve.decision_ms":
            assert [c.total for _, c in p_cells] == \
                [c.total for _, c in s_cells], name


# -- predictions: invalid results, and one run per job ------------------

class InvalidEveryFifth:
    """Replays each record's prediction, except that every fifth job
    gets NaN, inf or -5 cycles, or -3 slice cycles, in turn."""

    def predict(self, sjob):
        predicted = sjob.record.predicted_cycles
        slice_cycles = sjob.record.slice_cycles
        if sjob.index % 5:
            return predicted, slice_cycles
        return [(math.nan, slice_cycles), (math.inf, slice_cycles),
                (-5.0, slice_cycles), (predicted, -3)][sjob.index // 5 % 4]


class CountingPredictor:
    """Delegates to ``inner``, counting how often each job index
    reaches it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def predict(self, sjob):
        self.calls[sjob.index] += 1
        return self.inner.predict(sjob)


def assert_every_fifth_falls_back(result):
    for outcome in result.outcomes:
        expected = FALLBACK if outcome.index % 5 == 0 else COMPLETED
        assert outcome.status == expected, outcome.index


def test_invalid_predictions_fall_back_in_both_engines(asic_levels):
    """NaN, inf and negative predicted cycles, and negative slice
    cycles, are failed predictions: the job falls back in both
    engines instead of being planned on them, and strict mode is
    clean."""
    records = spiky_records(asic_levels, n=200, seed=2)
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=200, seed=4))
    stream, result = assert_engines_identical(
        asic_levels, "predictive", jobs, predictor=InvalidEveryFifth(),
        strict=True)
    # A predictor that has to run takes the scalar machine only.
    assert stream.epoch_log == []
    assert_every_fifth_falls_back(result)


def test_invalid_record_predictions_fall_back_in_both_engines(
        asic_levels):
    """The same rule on the record-replay path, whose epochs reuse the
    records without running the predictor."""
    records = spiky_records(asic_levels, n=200, seed=6)
    records = [replace(r, predicted_cycles=(math.nan, math.inf, -5.0)[
        i // 5 % 3]) if i % 5 == 0 else r for i, r in enumerate(records)]
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=200, seed=8))
    stream, result = assert_engines_identical(
        asic_levels, "predictive", jobs, strict=True)
    assert stream.epoch_log
    assert_every_fifth_falls_back(result)


@pytest.fixture
def cjpeg(shared_bundle):
    """The cjpeg bundle at scale 0.05 and its ASIC context."""
    bundle = shared_bundle("cjpeg", 0.05)
    return bundle, tech_context(bundle, tech="asic")


def slice_stream(cjpeg, predictor, **config):
    _, ctx = cjpeg
    return AcceleratorStream(
        "cjpeg", make_controller(ctx, "prediction"), ctx.energy_model,
        ctx.slice_energy_model, predictor=predictor,
        config=ServeConfig(deadline=ctx.config.deadline,
                           t_switch=ctx.config.t_switch, **config))


def serve_live(cjpeg, jobs, scalar=False, **config):
    """Serve ``jobs`` predicting with a counted live slice; ``scalar``
    runs the reference machine."""
    predictor = CountingPredictor(SlicePredictor(cjpeg[0].package))
    stream = slice_stream(cjpeg, predictor, **config)
    result = (serve_scalar(stream, jobs) if scalar
              else serve_stream(stream, jobs))
    return stream, result, predictor


@pytest.fixture(params=BACKENDS)
def slice_backend(request):
    set_default_backend(request.param)
    yield request.param
    set_default_backend(None)


def test_live_slice_epochs_predict_each_job_once(cjpeg, slice_backend):
    """A live slice has to run, so the stream takes the scalar machine
    only: no epoch runs, every offered job reaches the predictor
    exactly once, and the outcomes match the scalar engine bit for
    bit."""
    jobs = build_stream_jobs(
        cjpeg[0], poisson_arrivals(60.0, n_jobs=120, seed=3),
        with_inputs=True)
    _, scalar, _ = serve_live(cjpeg, jobs, scalar=True)
    stream, result, predictor = serve_live(cjpeg, jobs)
    assert stream.epoch_log == []
    assert virtual_outcomes(result) == virtual_outcomes(scalar)
    assert predictor.calls == Counter(range(len(jobs)))


def test_live_slice_speculation_into_shed_jobs(cjpeg):
    """Bursts against a queue of two: shed jobs never reach the live
    predictor, and every executed job reaches it exactly once."""
    jobs = build_stream_jobs(
        cjpeg[0], burst_arrivals(60.0, duration=3.0, seed=5),
        with_inputs=True)
    _, scalar, _ = serve_live(cjpeg, jobs, scalar=True, queue_depth=2)
    stream, result, predictor = serve_live(cjpeg, jobs, queue_depth=2)
    assert virtual_outcomes(result) == virtual_outcomes(scalar)
    assert stream.epoch_log == []
    shed = [o.index for o in result.outcomes if o.status == SHED]
    assert shed
    assert not any(predictor.calls[i] for i in shed)
    executed = [o.index for o in result.outcomes if o.executed]
    assert predictor.calls == Counter(executed)


def test_shared_slice_predictor_matches_fresh_per_stream(cjpeg):
    """One SlicePredictor serving two streams whose job indices both
    start at 0, over different records, gives each stream the
    outcomes a predictor of its own would."""
    bundle, _ = cjpeg
    records = bundle.test_records
    inputs = [bundle.design.encode_job(item)
              for item in bundle.workload.test][:len(records)]
    jobs_a = stream_from_records(
        records, poisson_arrivals(60.0, n_jobs=80, seed=7), inputs)
    jobs_b = stream_from_records(
        records[3:] + records[:3],
        poisson_arrivals(60.0, n_jobs=80, seed=9),
        inputs[3:] + inputs[:3])

    def serve_pair(shared):
        one = SlicePredictor(bundle.package)
        return serve_streams([
            (slice_stream(cjpeg,
                          one if shared else SlicePredictor(
                              bundle.package)), jobs)
            for jobs in (jobs_a, jobs_b)])

    shared = serve_pair(True)
    fresh = serve_pair(False)
    assert shared[0].outcomes[0].job.predicted_cycles != \
        shared[1].outcomes[0].job.predicted_cycles
    assert [virtual_outcomes(r) for r in shared] == \
        [virtual_outcomes(r) for r in fresh]

"""Differential tests: the vectorized decision plane vs the scalar
reference machine.

Every test here serves the *same* jobs twice — through
:func:`repro.serve.serve_stream`, which decides epochs wherever they
are eligible, and through the scalar state machine driven directly
(``offer`` per job, then ``drain``) — and demands bit-identity on the
:func:`repro.serve.virtual_outcomes` canonical form, not approximate
equality.  The epoch engine's whole contract is that vectorization is
an implementation detail invisible in the results.
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.check import check_epochs
from repro.dvfs import (
    AsicEnergyModel,
    ConstantFrequencyController,
    OracleController,
    PidController,
    PidGains,
    PredictiveController,
    TableBasedController,
)
from repro.experiments import make_controller, tech_context
from repro.rtl import BACKENDS, set_default_backend
from repro.serve import (
    COMPLETED,
    FALLBACK,
    SHED,
    AcceleratorStream,
    RecordPredictor,
    ServeConfig,
    SlicePredictor,
    build_stream_jobs,
    serve_stream,
    serve_streams,
    virtual_outcomes,
)
from repro.serve.server import _check_result
from repro.serve.stream import (
    burst_arrivals,
    poisson_arrivals,
    stream_from_records,
)
from repro.units import DVFS_SWITCH_TIME, MS
from tests.conftest import FlatEnergyModel, job
from tests.serve.conftest import DEADLINE, stream_records


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


def test_epoch_decision_latency_amortized(asic_levels):
    """Within one epoch every job carries the same amortized
    ``decision_s`` — the epoch's wall time divided by its size — and
    it is a real measurement, not zero."""
    records = spiky_records(asic_levels, n=200, seed=17)
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=200, seed=18))
    stream, result = run_stream(asic_levels, "predictive", jobs)
    assert stream.epoch_log
    by_index = {o.index: o for o in result.outcomes}
    for first, count in stream.epoch_log:
        latencies = {by_index[i].decision_s
                     for i in range(first, first + count)}
        assert len(latencies) == 1
        assert latencies.pop() > 0.0


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
    assert stream.epoch_log
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
    """With the live slice, epochs break often at 60 jobs/s; the jobs
    each epoch speculates past its committed prefix keep their
    predictions, so every offered job reaches the predictor exactly
    once, and the outcomes match the scalar engine bit for bit."""
    jobs = build_stream_jobs(
        cjpeg[0], poisson_arrivals(60.0, n_jobs=120, seed=3),
        with_inputs=True)
    _, scalar, _ = serve_live(cjpeg, jobs, scalar=True)
    stream, result, predictor = serve_live(cjpeg, jobs)
    assert len(stream.epoch_log) > 1
    assert sum(n for _, n in stream.epoch_log) < len(jobs)
    assert virtual_outcomes(result) == virtual_outcomes(scalar)
    assert predictor.calls == Counter(range(len(jobs)))
    assert stream._kept == {}


def test_live_slice_speculation_into_shed_jobs(cjpeg):
    """Bursts against a queue of two: epochs speculate into jobs that
    are shed later, whose kept predictions go with them."""
    jobs = build_stream_jobs(
        cjpeg[0], burst_arrivals(60.0, duration=3.0, seed=5),
        with_inputs=True)
    _, scalar, _ = serve_live(cjpeg, jobs, scalar=True, queue_depth=2)
    stream, result, predictor = serve_live(cjpeg, jobs, queue_depth=2)
    assert virtual_outcomes(result) == virtual_outcomes(scalar)
    shed = [o.index for o in result.outcomes if o.status == SHED]
    assert any(predictor.calls[i] for i in shed)
    assert max(predictor.calls.values()) == 1
    assert stream._kept == {}


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

"""The controller state machine: admission, batching, degradation."""

import math
from dataclasses import replace

import pytest

from repro.dvfs import ConstantFrequencyController
from repro.serve import (
    FALLBACK,
    SHED,
    AcceleratorStream,
    LoadReport,
    ServeConfig,
    SlicePredictor,
    build_stream_jobs,
    poisson_arrivals,
    serve_stream,
    serve_streams,
    stream_from_records,
    virtual_outcomes,
)
from repro.units import MS
from tests.conftest import FlatEnergyModel

from .conftest import DEADLINE, stream_records, violations_of


def spaced(records, gap):
    """One job every ``gap`` seconds, in record order."""
    return stream_from_records(records,
                               [i * gap for i in range(len(records))])


def test_underload_completes_everything(make_stream, records):
    stream = make_stream()
    result = serve_stream(stream, spaced(records, 20 * MS))
    assert result.n_offered == len(records)
    assert result.n_completed == len(records)
    assert result.n_fallback == result.n_shed == 0
    assert violations_of(stream, result) == []


def test_timeline_chains_on_virtual_clock(make_stream, records):
    stream = make_stream()
    result = serve_stream(stream, spaced(records, 1 * MS))
    prev_finish = 0.0
    for o in result.outcomes:
        assert o.release == o.arrival
        assert o.start == pytest.approx(max(prev_finish, o.release))
        prev_finish = o.finish
    assert violations_of(stream, result) == []


def test_overload_sheds_but_conserves(make_stream, asic_levels):
    records = stream_records(asic_levels, n=60)
    stream = make_stream(queue_depth=3)
    result = serve_stream(stream, spaced(records, 0.1 * MS))
    assert result.n_shed > 0
    assert (result.n_completed + result.n_fallback + result.n_shed
            == result.n_offered)
    for o in result.outcomes:
        if o.status == SHED:
            assert o.energy == o.t_exec == o.frequency == 0.0
    assert violations_of(stream, result) == []


def test_zero_budget_falls_back_everything(make_stream, records):
    stream = make_stream(prediction_budget=0.0)
    result = serve_stream(stream, spaced(records, 20 * MS))
    assert result.n_fallback == result.n_offered
    fastest = stream.levels.fastest()
    for o in result.outcomes:
        assert o.status == FALLBACK
        assert o.t_slice == 0.0
        assert o.frequency == fastest.frequency
        assert not o.boosted
    assert violations_of(stream, result) == []


def test_unpredictable_record_falls_back(make_stream, records):
    """A record with no precomputed prediction degrades, not crashes."""
    broken = [replace(r, predicted_cycles=None) if i == 2 else r
              for i, r in enumerate(records)]
    stream = make_stream()
    result = serve_stream(stream, spaced(broken, 20 * MS))
    assert result.outcomes[2].status == FALLBACK
    assert result.n_fallback == 1
    assert result.n_completed == len(records) - 1
    assert violations_of(stream, result) == []


def test_missing_predictor_falls_back(make_stream, records):
    stream = make_stream(predictor=None)
    result = serve_stream(stream, spaced(records, 20 * MS))
    assert result.n_fallback == result.n_offered
    assert violations_of(stream, result) == []


def test_baseline_scheme_never_falls_back(asic_levels):
    """A sliceless controller needs no predictor and no fallback."""
    records = stream_records(asic_levels, n=12)
    stream = AcceleratorStream(
        "base", ConstantFrequencyController(asic_levels),
        FlatEnergyModel(), predictor=None,
        config=ServeConfig(deadline=DEADLINE))
    result = serve_stream(stream, spaced(records, 20 * MS))
    assert result.n_completed == result.n_offered
    assert result.n_fallback == 0
    assert violations_of(stream, result) == []


def test_micro_batches_form_under_pressure(make_stream, asic_levels):
    records = stream_records(asic_levels, n=40)
    stream = make_stream(batch_max=4, queue_depth=64)
    result = serve_stream(stream, spaced(records, 0.5 * MS))
    sizes = [o.batch_size for o in result.executed]
    assert max(sizes) > 1          # batching actually happened
    assert max(sizes) <= 4         # and respected the cap
    assert violations_of(stream, result) == []


def test_serve_streams_returns_in_input_order(make_stream, records):
    a, b = make_stream(), make_stream()
    jobs_a = spaced(records, 20 * MS)
    jobs_b = spaced(records[:10], 15 * MS)
    results = serve_streams([(a, jobs_a), (b, jobs_b)])
    assert results[0].n_offered == len(jobs_a)
    assert results[1].n_offered == len(jobs_b)
    assert violations_of(a, results[0]) == []
    assert violations_of(b, results[1]) == []


def test_serve_streams_rejects_unsorted_arrivals(make_stream, records):
    jobs = spaced(records[:3], 10 * MS)
    with pytest.raises(ValueError, match="sorted"):
        serve_streams([(make_stream(), [jobs[1], jobs[0], jobs[2]])])


def test_strict_mode_passes_clean_stream(make_stream, records):
    stream = make_stream(strict=True)
    result = serve_stream(stream, spaced(records, 20 * MS))
    assert result.n_completed == result.n_offered


def test_realtime_smoke(make_stream, records):
    """Realtime pacing keeps the same accounting as virtual mode."""
    stream = make_stream()
    jobs = spaced(records[:12], 5 * MS)
    result = serve_stream(stream, jobs, realtime=True)
    assert result.n_completed == result.n_offered == 12
    assert result.wall_s > 0.0
    # Virtual accounting identical regardless of the driving mode.
    virtual = serve_stream(make_stream(), jobs)
    assert [o.status for o in result.outcomes] == \
        [o.status for o in virtual.outcomes]
    assert result.total_energy == pytest.approx(virtual.total_energy)
    assert violations_of(stream, result) == []
    report = LoadReport.from_result(result, mode="open")
    assert 0.0 < report.p50_decision_ms <= report.p99_decision_ms


def test_serve_config_validation():
    with pytest.raises(ValueError, match="deadline"):
        ServeConfig(deadline=0.0)
    with pytest.raises(ValueError, match="queue_depth"):
        ServeConfig(queue_depth=0)
    with pytest.raises(ValueError, match="batch_max"):
        ServeConfig(batch_max=0)


@pytest.mark.parametrize("field,value", [
    ("deadline", math.nan), ("deadline", math.inf),
    ("t_switch", math.nan), ("t_switch", math.inf), ("t_switch", -1e-3),
    ("prediction_budget", math.nan), ("prediction_budget", math.inf),
    ("prediction_budget", -1e-3),
    ("queue_depth", math.nan), ("queue_depth", 2.5),
    ("batch_max", math.nan), ("batch_max", 2.5),
])
def test_serve_config_rejects_values_that_corrupt_a_run(field, value):
    """A NaN deadline reported no misses, a negative budget forced
    every job to fall back, a negative switch time charged negative
    windows, a NaN queue depth never shed and a NaN batch size popped
    nothing, so serving never ended; each must fail at construction,
    naming the field."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ServeConfig(**{field: value})


def test_serve_config_accepts_zero_switch_and_budget():
    config = ServeConfig(t_switch=0.0, prediction_budget=0.0)
    assert config.t_switch == config.prediction_budget == 0.0


def test_result_rates(make_stream, asic_levels):
    records = stream_records(asic_levels, n=30)
    stream = make_stream(queue_depth=2)
    result = serve_stream(stream, spaced(records, 0.1 * MS))
    assert 0.0 < result.shed_rate < 1.0
    assert result.makespan > 0.0
    latencies = result.decision_latencies()
    assert len(latencies) == result.n_admitted
    assert latencies == sorted(latencies)


def test_online_slice_matches_offline_prediction(shared_bundle):
    """The streaming SlicePredictor reproduces the offline flow's
    prediction for every job — same slice, same feature vector, same
    linear model, just a persistent simulation."""
    from repro.experiments import make_controller, tech_context

    bundle = shared_bundle("cjpeg", 0.05)
    ctx = tech_context(bundle, tech="asic")
    stream = AcceleratorStream(
        "cjpeg", make_controller(ctx, "prediction"),
        ctx.energy_model, ctx.slice_energy_model,
        predictor=SlicePredictor(bundle.package),
        config=ServeConfig(deadline=ctx.config.deadline,
                           t_switch=ctx.config.t_switch))
    n = min(6, len(bundle.test_records))
    jobs = build_stream_jobs(bundle, [i * 50 * MS for i in range(n)],
                             with_inputs=True)
    result = serve_stream(stream, jobs)
    assert result.n_completed == n
    for outcome, record in zip(result.outcomes, bundle.test_records):
        assert outcome.job.predicted_cycles == record.predicted_cycles
        assert outcome.job.slice_cycles == record.slice_cycles
    assert violations_of(stream, result) == []


def test_served_outcomes_do_not_depend_on_backend(shared_bundle):
    """The backend is a speed knob only: a live-slice stream serves to
    the same outcomes under every backend, including the fallback of
    a job that cannot be predicted (no encoded input)."""
    from repro.experiments import make_controller, tech_context
    from repro.rtl import BACKENDS, set_default_backend

    bundle = shared_bundle("cjpeg", 0.05)
    ctx = tech_context(bundle, tech="asic")
    arrivals = poisson_arrivals(60.0, n_jobs=120, seed=3)
    served = {}
    for backend in BACKENDS:
        set_default_backend(backend)
        try:
            stream = AcceleratorStream(
                "cjpeg", make_controller(ctx, "prediction"),
                ctx.energy_model, ctx.slice_energy_model,
                predictor=SlicePredictor(bundle.package),
                config=ServeConfig(deadline=ctx.config.deadline,
                                   t_switch=ctx.config.t_switch))
            jobs = build_stream_jobs(bundle, arrivals, with_inputs=True)
            jobs[7] = replace(jobs[7], job_input=None)
            result = serve_stream(stream, jobs)
        finally:
            set_default_backend(None)
        assert result.outcomes[7].status == FALLBACK
        assert violations_of(stream, result) == []
        served[backend] = virtual_outcomes(result)
    for backend in BACKENDS:
        assert served[backend] == served["interp"], backend


class _RescanBacklogStream(AcceleratorStream):
    """Reference admission: recount in-flight work by rescanning every
    executed outcome per arrival — the O(n^2) definition the
    incremental counter in ``AcceleratorStream.backlog`` must match
    shed-for-shed."""

    def backlog(self, arrival):
        executing = sum(1 for o in self.outcomes
                        if o.executed and o.finish > arrival)
        return len(self._queue) + executing


def test_incremental_backlog_matches_rescan_on_10k_jobs(asic_levels):
    """Regression: the amortized-O(1) in-flight counter makes exactly
    the shed decisions a full outcome rescan would, over a 10k-job
    stream spanning under-, over-, and bursty load."""
    from repro.dvfs import PredictiveController
    from repro.serve import (
        RecordPredictor,
        burst_arrivals,
        poisson_arrivals,
    )
    from repro.units import DVFS_SWITCH_TIME

    records = stream_records(asic_levels, n=50)
    arrivals = sorted(
        poisson_arrivals(400.0, n_jobs=7_000, seed=11)
        + burst_arrivals(400.0, duration=10.0, seed=12))
    arrivals = arrivals[:10_000]
    assert len(arrivals) == 10_000

    def run(stream_cls):
        controller = PredictiveController(asic_levels,
                                          DVFS_SWITCH_TIME)
        stream = stream_cls(
            "synthetic", controller, FlatEnergyModel(),
            slice_energy_model=FlatEnergyModel(),
            predictor=RecordPredictor(),
            config=ServeConfig(deadline=DEADLINE, queue_depth=8))
        return serve_stream(stream,
                            stream_from_records(records, arrivals))

    fast = run(AcceleratorStream)
    reference = run(_RescanBacklogStream)
    assert fast.n_offered == reference.n_offered == 10_000
    assert fast.n_shed == reference.n_shed > 0
    assert [o.status for o in fast.outcomes] == \
        [o.status for o in reference.outcomes]

"""Differential tests: the vectorized decision plane vs the scalar
reference engine.

Every test here serves the *same* jobs through both engines and
demands bit-identity on the :func:`repro.serve.virtual_outcomes`
canonical form — not approximate equality.  The epoch engine's whole
contract is that vectorization is an implementation detail invisible
in the results.
"""

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
from repro.serve import (
    AcceleratorStream,
    FleetConfig,
    RecordPredictor,
    ServeConfig,
    serve_stream,
    virtual_outcomes,
)
from repro.serve.stream import poisson_arrivals, stream_from_records
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


def run_engine(levels, kind, engine, jobs, *, boost=False,
               energy_model=None, predictor="record", **config):
    controller = controller_for(kind, levels, boost=boost)
    model = energy_model if energy_model is not None \
        else FlatEnergyModel()
    config.setdefault("deadline", DEADLINE)
    stream = AcceleratorStream(
        "diff", controller, model, slice_energy_model=model,
        predictor=(RecordPredictor() if predictor == "record"
                   else predictor),
        config=ServeConfig(engine=engine, **config))
    result = serve_stream(stream, jobs)
    return stream, result


def assert_engines_identical(levels, kind, jobs, **kwargs):
    s_stream, s_result = run_engine(levels, kind, "scalar", jobs,
                                    **kwargs)
    v_stream, v_result = run_engine(levels, kind, "auto", jobs,
                                    **kwargs)
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

    def run(engine):
        controller = PidController(asic_levels, DVFS_SWITCH_TIME,
                                   gains=PidGains(0.4, 0.1, 0.05))
        model = FlatEnergyModel()
        stream = AcceleratorStream(
            "pid", controller, model, slice_energy_model=model,
            predictor=RecordPredictor(),
            config=ServeConfig(deadline=DEADLINE, engine=engine))
        return stream, serve_stream(stream, jobs)

    s_stream, s_result = run("scalar")
    v_stream, v_result = run("auto")
    assert v_stream.epoch_log == []
    assert virtual_outcomes(s_result) == virtual_outcomes(v_result)


def test_prediction_budget_disables_epochs(asic_levels, records):
    """A wall-clock prediction budget is per-measurement and cannot be
    replayed batch-equivalently: the engine must decline."""
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=len(records), seed=3))
    stream, _ = run_engine(asic_levels, "predictive", "auto", jobs,
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
    stream, result = run_engine(asic_levels, "predictive", "auto",
                                jobs)
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
    stream, result = run_engine(asic_levels, "predictive", "auto",
                                jobs)
    assert stream.epoch_log
    by_index = {o.index: o for o in result.outcomes}
    for first, count in stream.epoch_log:
        latencies = {by_index[i].decision_s
                     for i in range(first, first + count)}
        assert len(latencies) == 1
        assert latencies.pop() > 0.0


def test_default_engine_is_auto(asic_levels, records):
    jobs = stream_from_records(
        records, poisson_arrivals(100.0, n_jobs=len(records), seed=1))
    assert ServeConfig().engine == FleetConfig().engine == "auto"
    stream, _ = run_engine(asic_levels, "predictive", "scalar", jobs)
    assert stream.epoch_log == []
    stream, _ = run_engine(asic_levels, "predictive", "auto", jobs)
    assert stream.epoch_log


def test_bad_engine_config_rejected():
    for engine in ("simd", "vector"):
        with pytest.raises(ValueError):
            ServeConfig(engine=engine)
        with pytest.raises(ValueError):
            FleetConfig(engine=engine)


def test_strict_mode_covers_vector_engine(asic_levels, monkeypatch):
    """REPRO_CHECK=strict replays vector-engine results through the
    stream checker *and* the epoch checker without violations."""
    monkeypatch.setenv("REPRO_CHECK", "strict")
    records = stream_records(asic_levels, n=200)
    jobs = stream_from_records(
        records, poisson_arrivals(150.0, n_jobs=200, seed=21))
    stream, result = run_engine(asic_levels, "predictive", "auto",
                                jobs)
    assert stream.epoch_log
    assert result.n_offered == 200

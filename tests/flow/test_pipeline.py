"""End-to-end offline flow tests on the toy accelerator."""

import numpy as np
import pytest

from repro.flow import FlowConfig, build_job_records, generate_predictor
from repro.model import worst_case_error_pct
from tests.conftest import toy_workload


@pytest.fixture
def package(toy_package):
    return toy_package


def test_flow_produces_accurate_predictor(package):
    design, pkg = package
    jobs = toy_workload(30, seed=2)
    predictions = []
    actuals = []
    from repro.rtl import Simulation
    sim = Simulation(pkg.module, track_state_cycles=False)
    for items in jobs:
        job = design.encode_job(items)
        predicted, slice_cycles = pkg.run_slice(job)
        sim.reset()
        sim.load(*job.as_pair())
        actual = sim.run().cycles
        predictions.append(predicted)
        actuals.append(actual)
        assert slice_cycles < actual
    err = worst_case_error_pct(np.array(predictions), np.array(actuals))
    assert err < 2.0  # toy is fully feature-determined


def test_flow_selects_few_features(package):
    design, pkg = package
    assert 1 <= pkg.n_selected_features < pkg.n_candidate_features


def test_flow_slice_is_smaller(package):
    design, pkg = package
    assert pkg.slice_cost.area_fraction < 0.6
    assert pkg.slice_cost.asic_area_slice > 0


def test_auto_gamma_path(package):
    design, _ = package
    pkg = generate_predictor(design, toy_workload(60, seed=1),
                             FlowConfig(gamma=None))
    assert pkg.gamma > 0
    assert pkg.n_selected_features >= 1


def test_build_job_records(package):
    design, pkg = package
    items = toy_workload(8, seed=3)
    records = build_job_records(design, pkg, items)
    assert len(records) == 8
    for record in records:
        assert record.actual_cycles > 0
        assert record.predicted_cycles is not None
        assert record.slice_cycles > 0
        assert record.activity.cycles == record.actual_cycles
        # Datapath activity accounted per block.
        assert set(record.activity.block_cycles) == {"alu_a", "alu_b"}


def test_slice_prediction_matches_full_features(package):
    """Predicting from slice-recorded features equals predicting from
    full-run features — the core slicing correctness property."""
    design, pkg = package
    from repro.analysis import FeatureRecorder
    from repro.rtl import Simulation
    for items in toy_workload(5, seed=4):
        job = design.encode_job(items)
        recorder = FeatureRecorder(pkg.feature_set)
        sim = Simulation(pkg.module, listener=recorder,
                         track_state_cycles=False)
        sim.load(*job.as_pair())
        sim.run()
        from_full = pkg.predictor.predict_one(recorder.vector())
        from_slice, _ = pkg.run_slice(job)
        assert from_slice == pytest.approx(max(from_full, 0.0), rel=1e-12)


def _featureless_design():
    # One register incremented by a conditional update rule, no FSMs,
    # no counters — feature discovery finds zero candidate signals.
    from repro.accelerators.base import AcceleratorDesign, JobInput
    from repro.rtl import Module, Sig
    from repro.units import MHZ

    class Featureless(AcceleratorDesign):
        name = "featureless"
        description = "register-update-only design with no features"
        task_description = "count to n"
        nominal_frequency = 100.0 * MHZ

        def _build(self):
            m = Module(self.name)
            m.port("n", 16)
            m.reg("t", 16)
            m.update("t", Sig("t") + 1, cond=Sig("t") < Sig("n"))
            m.set_done(Sig("t") >= Sig("n"))
            return m.finalize()

        def encode_job(self, item):
            return JobInput(inputs={"n": int(item)}, memories={},
                            coarse_param=int(item) // 8,
                            meta={"n": int(item)})

    return Featureless()


def test_empty_feature_set_raises_named_diagnostic():
    """Regression: zero discovered features must fail fast and named.

    Generated designs with no data-dependent waits used to train
    silently to an intercept-only model; the flow now refuses them up
    front with the design's name and the empty-feature cause.
    """
    design = _featureless_design()
    with pytest.raises(ValueError,
                       match="featureless.*no candidate slice features"):
        generate_predictor(design, [4, 9, 17, 30],
                           FlowConfig(gamma=1.0))

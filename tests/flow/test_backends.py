"""Backend threading through the offline flow.

The flow must produce bit-identical artifacts under every simulation
backend, and the artifact-cache key for the recorded ``FeatureMatrix``
must not depend on the backend — a matrix recorded under ``interp``
is a warm hit for a ``stepjit`` rerun and vice versa.
"""

import numpy as np
import pytest

from repro.analysis import discover_features, record_jobs
from repro.flow import FlowConfig, build_job_records, generate_predictor
from repro.parallel import ArtifactCache, set_cache
from repro.rtl import BACKENDS, set_default_backend, synthesize
from tests.conftest import ToyDesign, toy_workload


@pytest.fixture(autouse=True)
def _clean_backend():
    set_default_backend(None)
    yield
    set_default_backend(None)


def _toy_record_parts():
    design = ToyDesign()
    module = design.build()
    feature_set = discover_features(module, synthesize(module))
    jobs = [design.encode_job(items).as_pair()
            for items in toy_workload(20, seed=3)]
    return module, feature_set, jobs


@pytest.mark.parametrize("backend", BACKENDS)
def test_record_jobs_is_backend_invariant(backend):
    module, feature_set, jobs = _toy_record_parts()
    baseline = record_jobs(module, feature_set, jobs, backend="interp")
    matrix = record_jobs(module, feature_set, jobs, backend=backend)
    assert np.array_equal(matrix.cycles, baseline.cycles)
    assert np.array_equal(matrix.x, baseline.x)


def test_flow_outputs_identical_across_backends():
    design = ToyDesign()
    items = toy_workload(25, seed=4)
    packages = {}
    for backend in BACKENDS:
        set_default_backend(backend)
        packages[backend] = generate_predictor(
            design, items, FlowConfig(gamma=1e-4))
    a = packages["interp"]
    for backend in BACKENDS:
        b = packages[backend]
        assert np.array_equal(a.train_matrix.cycles,
                              b.train_matrix.cycles)
        assert np.array_equal(a.train_matrix.x, b.train_matrix.x)
        assert a.gamma == b.gamma
        assert np.array_equal(a.predictor.coeffs, b.predictor.coeffs)
        assert a.predictor.intercept == b.predictor.intercept


def test_job_records_identical_across_backends():
    design = ToyDesign()
    items = toy_workload(25, seed=4)
    per_backend = {}
    for backend in BACKENDS:
        set_default_backend(backend)
        package = generate_predictor(design, items, FlowConfig(gamma=1e-4))
        per_backend[backend] = build_job_records(
            design, package, toy_workload(8, seed=5))
    for backend in BACKENDS:
        for rec_i, rec_s in zip(per_backend["interp"],
                                per_backend[backend]):
            assert rec_i.actual_cycles == rec_s.actual_cycles
            assert rec_i.slice_cycles == rec_s.slice_cycles
            assert rec_i.predicted_cycles == rec_s.predicted_cycles
            assert np.array_equal(rec_i.features, rec_s.features)
            assert rec_i.activity == rec_s.activity


def test_feature_matrix_cache_key_is_backend_invariant(tmp_path):
    """A matrix recorded under one backend warm-hits every other."""
    design = ToyDesign()
    items = toy_workload(25, seed=4)
    cache = ArtifactCache(tmp_path / "cache")
    set_cache(cache)
    try:
        set_default_backend("interp")
        generate_predictor(design, items, FlowConfig(gamma=1e-4))
        cold_puts = cache.stats.puts
        assert cold_puts >= 1
        set_default_backend("stepjit")
        generate_predictor(design, items, FlowConfig(gamma=1e-4))
        assert cache.stats.hits >= 1
        assert cache.stats.puts == cold_puts  # nothing re-recorded
    finally:
        set_cache(None)

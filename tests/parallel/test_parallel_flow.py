"""End-to-end tests: parallel flow bit-exactness and warm-cache reruns."""

import json

import numpy as np
import pytest

from repro.accelerators import get_design
from repro.analysis import discover_features, record_jobs
from repro.experiments import bundle_for, clear_bundle_cache
from repro.flow import FlowConfig, generate_predictor
from repro.model import lasso_path
from repro.obs import session
from repro.parallel import ArtifactCache, set_cache
from repro.rtl import synthesize
from repro.workloads import workload_for
from tests.conftest import ToyDesign, build_toy, toy_workload


def _toy_record_setup():
    design = ToyDesign()
    module = design.build()
    feature_set = discover_features(module, synthesize(module))
    jobs = [design.encode_job(items).as_pair()
            for items in toy_workload(24, seed=7)]
    return module, feature_set, jobs


def _design_record_setup(name, scale):
    design = get_design(name)
    module = design.build()
    feature_set = discover_features(module, synthesize(module))
    jobs = [design.encode_job(item).as_pair()
            for item in workload_for(name, scale=scale).train]
    return module, feature_set, jobs


def _assert_matrices_equal(a, b):
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.cycles, b.cycles)
    assert a.feature_set.names() == b.feature_set.names()


def test_record_jobs_parallel_is_bit_identical_toy():
    module, feature_set, jobs = _toy_record_setup()
    serial = record_jobs(module, feature_set, jobs, workers=1)
    parallel = record_jobs(module, feature_set, jobs, workers=4)
    _assert_matrices_equal(serial, parallel)


def test_record_jobs_parallel_is_bit_identical_real_design():
    module, feature_set, jobs = _design_record_setup("sha", 0.05)
    serial = record_jobs(module, feature_set, jobs, workers=1)
    parallel = record_jobs(module, feature_set, jobs, workers=4)
    _assert_matrices_equal(serial, parallel)


def test_record_jobs_error_names_job_and_inputs():
    module, feature_set, jobs = _toy_record_setup()
    with pytest.raises(RuntimeError,
                       match=r"job 0 did not finish within 2 cycles"):
        record_jobs(module, feature_set, jobs, max_cycles=2)
    # The message also summarizes the failing job's inputs.
    with pytest.raises(RuntimeError, match=r"n_items=\d+.*items\[\d+ words\]"):
        record_jobs(module, feature_set, jobs, max_cycles=2)


def test_lasso_path_parallel_matches_serial(shared_bundle):
    module, feature_set, jobs = _toy_record_setup()
    matrix = record_jobs(module, feature_set, jobs)
    assert lasso_path(matrix, workers=1) == lasso_path(matrix, workers=3)
    # A real matrix whose gamma points repeat selections, so the shared
    # refits fan out over the pool as well.
    real = shared_bundle("djpeg", 0.05).package.train_matrix
    assert lasso_path(real, workers=1) == lasso_path(real, workers=2)


def test_feature_matrix_cache_hit_is_identical(tmp_path):
    cache = set_cache(ArtifactCache(tmp_path))
    design = ToyDesign()
    train = toy_workload(24, seed=7)
    cold = generate_predictor(design, train, FlowConfig(gamma=1e-4))
    assert cache.stats.by_kind.get("feature_matrix.miss") == 1
    assert cache.stats.by_kind.get("feature_matrix.put") == 1
    with session(command="warm") as obs:
        warm = generate_predictor(design, train, FlowConfig(gamma=1e-4))
        counters = dict(obs.metrics.counters)
        stages = {s.name for s in obs.tracer.spans}
    assert cache.stats.by_kind.get("feature_matrix.hit") == 1
    assert counters.get("flow.record.cached") == 1
    assert "record" not in stages  # warm rerun skips simulation
    _assert_matrices_equal(cold.train_matrix, warm.train_matrix)
    assert warm.model.predictor.selected_indices == \
        cold.model.predictor.selected_indices


def test_feature_matrix_cache_invalidates_on_changes(tmp_path):
    cache = set_cache(ArtifactCache(tmp_path))
    design = ToyDesign()
    generate_predictor(design, toy_workload(24, seed=7),
                       FlowConfig(gamma=1e-4))
    # Different workload content -> different key -> miss, not a hit.
    generate_predictor(design, toy_workload(24, seed=8),
                       FlowConfig(gamma=1e-4))
    assert cache.stats.by_kind.get("feature_matrix.miss") == 2
    assert cache.stats.by_kind.get("feature_matrix.hit") is None
    # A different design structure also misses.
    other = ToyDesign()
    other._module = build_toy(with_datapath=False)
    generate_predictor(other, toy_workload(24, seed=7),
                       FlowConfig(gamma=1e-4))
    assert cache.stats.by_kind.get("feature_matrix.miss") == 3


def test_bundle_cache_keys_on_flow_config():
    # Regression: bundles used to be keyed (name, scale) only, so a
    # second call with a different FlowConfig silently reused the first
    # bundle.
    clear_bundle_cache()
    base = bundle_for("sha", 0.05, FlowConfig(gamma=1e-4))
    other = bundle_for("sha", 0.05, FlowConfig(gamma=1e-3))
    again = bundle_for("sha", 0.05, FlowConfig(gamma=1e-4))
    assert base is not other
    assert base is again
    assert base.package.gamma != other.package.gamma


def test_bundle_disk_cache_warm_process(tmp_path):
    cache = set_cache(ArtifactCache(tmp_path))
    clear_bundle_cache()
    cold = bundle_for("sha", 0.05, FlowConfig(gamma=1e-4))
    clear_bundle_cache()  # simulate a fresh process
    with session(command="warm") as obs:
        warm = bundle_for("sha", 0.05, FlowConfig(gamma=1e-4))
        counters = dict(obs.metrics.counters)
    assert warm is not cold
    assert counters.get("flow.bundle.cached") == 1
    assert cache.stats.by_kind.get("bundle.hit") == 1
    assert np.array_equal(warm.package.train_matrix.cycles,
                          cold.package.train_matrix.cycles)
    # The thawed bundle is fully usable (slice still simulates).
    job = warm.workload.test[0]
    predicted, cycles = warm.package.run_slice(
        warm.design.encode_job(job))
    assert cycles > 0


def test_cli_cold_then_warm_run(tmp_path, capsys):
    from repro.cli import main

    cache_dir = tmp_path / "cache"
    cold_dir = tmp_path / "cold"
    warm_dir = tmp_path / "warm"
    assert main(["experiment", "fig2", "--scale", "0.05",
                 "--jobs", "2", "--cache-dir", str(cache_dir),
                 "--run-dir", str(cold_dir)]) == 0
    clear_bundle_cache()  # the CLI process would normally exit here
    assert main(["experiment", "fig2", "--scale", "0.05",
                 "--jobs", "2", "--cache-dir", str(cache_dir),
                 "--run-dir", str(warm_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 hit(s)" in out
    cold = json.loads((cold_dir / "manifest.json").read_text())
    warm = json.loads((warm_dir / "manifest.json").read_text())
    cold_stages = {s["name"] for s in cold["stages"]}
    warm_stages = {s["name"] for s in warm["stages"]}
    assert "record" in cold_stages and "record.pmap" in cold_stages
    assert "record" not in warm_stages  # no simulation on the warm run
    assert warm["metrics"]["counters"]["cache.hit"] >= 1
    assert cold["metrics"]["counters"]["pool.tasks"] > 0

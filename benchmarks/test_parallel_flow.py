"""Serial-vs-parallel benches for the record stage of the offline flow.

Each design's training simulation runs once serially and once over a
4-worker pool.  Bit-exactness is asserted unconditionally — parallel
results must be indistinguishable from serial ones on any machine.
The >= 2x speedup acceptance check only runs on hosts with at least
four CPUs; on smaller machines (e.g. single-core CI runners) pool
overhead dominates and wall-clock comparisons are meaningless.
"""

import os
import time

import numpy as np
import pytest

from repro.accelerators import get_design
from repro.analysis import discover_features, record_jobs
from repro.rtl import synthesize
from repro.workloads import workload_for

#: Designs the parallel-speedup acceptance criterion is measured on.
SPEEDUP_DESIGNS = ("cjpeg", "aes")

#: Hard speedup assertions need real parallelism to be observable.
ENOUGH_CPUS = (os.cpu_count() or 1) >= 4


def _record_setup(name, scale):
    design = get_design(name)
    module = design.build()
    feature_set = discover_features(module, synthesize(module))
    jobs = [design.encode_job(item).as_pair()
            for item in workload_for(name, scale=scale).train]
    return module, feature_set, jobs


@pytest.mark.parametrize("name", SPEEDUP_DESIGNS)
def test_record_serial(benchmark, name):
    """Baseline: the record stage with workers=1."""
    module, feature_set, jobs = _record_setup(name, 0.25)
    matrix = benchmark.pedantic(
        lambda: record_jobs(module, feature_set, jobs, workers=1),
        rounds=1, iterations=1)
    assert matrix.n_jobs == len(jobs)


@pytest.mark.parametrize("name", SPEEDUP_DESIGNS)
def test_record_parallel_jobs4(benchmark, name):
    """The record stage over a 4-worker pool: exact and (on multi-core
    hosts) at least 2x faster than serial."""
    module, feature_set, jobs = _record_setup(name, 0.25)

    t0 = time.perf_counter()
    serial = record_jobs(module, feature_set, jobs, workers=1)
    serial_s = time.perf_counter() - t0

    parallel = benchmark.pedantic(
        lambda: record_jobs(module, feature_set, jobs, workers=4),
        rounds=1, iterations=1)

    assert np.array_equal(serial.x, parallel.x)
    assert np.array_equal(serial.cycles, parallel.cycles)
    if ENOUGH_CPUS:
        speedup = serial_s / benchmark.stats["mean"]
        assert speedup >= 2.0, (
            f"{name}: jobs=4 speedup {speedup:.2f}x < 2x "
            f"(serial {serial_s:.2f}s)")

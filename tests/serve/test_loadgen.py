"""The latency report and its nearest-rank percentile."""

import numpy as np
import pytest

from repro.serve import (
    LoadReport,
    percentile,
    poisson_arrivals,
    serve_stream,
    stream_from_records,
)

from .conftest import stream_records


def served_report(stream, records, rate, n_jobs, seed):
    """Serve a seeded Poisson stream and reduce it to its report."""
    arrivals = poisson_arrivals(rate, n_jobs=n_jobs, seed=seed)
    result = serve_stream(stream, stream_from_records(records, arrivals))
    return LoadReport.from_result(result, mode="open", offered_rate=rate)


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 100.0) == 5.0
    assert percentile([], 50.0) == 0.0
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError, match="percentile"):
        percentile(values, 101.0)
    with pytest.raises(ValueError, match="percentile"):
        percentile(values, -0.5)


@pytest.mark.parametrize("values", [
    [7.0],                          # single element
    [1.0, 2.0],                     # even n: the old round() midpoint bug
    [1.0, 2.0, 3.0, 4.0],           # n=4, q=50 used to return sorted[2]
    [5.0, 5.0, 5.0, 5.0, 5.0],      # all ties
    [1.0, 1.0, 2.0, 2.0, 3.0],      # partial ties
    list(map(float, range(1, 101))),
    [0.1, 0.2, 0.2, 0.2, 0.9, 1.5, 1.5, 2.0],
])
@pytest.mark.parametrize("q", [0.0, 1.0, 25.0, 50.0, 75.0, 90.0,
                               99.0, 99.9, 100.0])
def test_percentile_matches_numpy_inverted_cdf(values, q):
    """Lock the nearest-rank definition to numpy's inverted CDF."""
    expected = float(np.percentile(values, q, method="inverted_cdf"))
    assert percentile(sorted(values), q) == expected


def test_percentile_always_returns_a_sample():
    """Nearest-rank never interpolates: the result is in the sample."""
    rng = np.random.default_rng(3)
    values = sorted(rng.normal(size=37).tolist())
    for q in np.linspace(0.0, 100.0, 41):
        assert percentile(values, float(q)) in values


def test_open_loop_report_is_consistent(make_stream, asic_levels):
    records = stream_records(asic_levels, n=10)
    report = served_report(make_stream(), records, rate=40.0,
                           n_jobs=30, seed=4)
    assert report.mode == "open"
    assert report.offered_rate == 40.0
    assert report.n_offered == 30
    assert (report.n_completed + report.n_fallback + report.n_shed
            == report.n_offered)
    assert report.achieved_rate > 0.0
    assert report.wall_s > 0.0
    assert report.p50_decision_ms <= report.p99_decision_ms
    assert report.p99_decision_ms <= report.max_decision_ms


def test_open_loop_deterministic_in_seed(make_stream, asic_levels):
    records = stream_records(asic_levels, n=10)
    a = served_report(make_stream(), records, rate=50.0, n_jobs=20,
                      seed=6)
    b = served_report(make_stream(), records, rate=50.0, n_jobs=20,
                      seed=6)
    # Virtual-clock quantities are bit-identical; wall times are not.
    assert a.n_completed == b.n_completed
    assert a.n_shed == b.n_shed
    assert a.achieved_rate == b.achieved_rate


def test_report_round_trips_and_describes(make_stream, asic_levels):
    records = stream_records(asic_levels, n=6)
    report = served_report(make_stream(), records, rate=30.0,
                           n_jobs=12, seed=1)
    payload = report.to_dict()
    assert payload["stream"] == "synthetic"
    assert LoadReport(**payload) == report
    text = report.describe()
    assert "synthetic/prediction [open]" in text
    assert "12 offered" in text

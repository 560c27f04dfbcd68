"""Experiment-harness tests: every table/figure runs and the paper's
directional claims hold at a tiny workload scale."""

import pytest

from repro.experiments import (
    case_study,
    fig02_variation,
    fig03_pid,
    fig10_errors,
    fig11_schemes,
    fig12_overheads,
    fig13_oracle,
    fig14_boost,
    fig15_deadlines,
    fig16_fpga,
    table3,
    table4,
)
from repro.experiments import default_scale, fig18_hls
from repro.experiments.schemes import average_row
from repro.workloads import ALL_BENCHMARKS

SCALE = 0.12


@pytest.mark.parametrize("raw", ["0", "-2", "nan", "inf"])
def test_default_scale_rejects_a_bad_repro_scale(raw, monkeypatch):
    """``REPRO_SCALE=nan`` passed a bare ``<= 0`` test."""
    monkeypatch.setenv("REPRO_SCALE", raw)
    with pytest.raises(ValueError,
                       match="REPRO_SCALE.*scale must be finite and > 0"):
        default_scale()


def test_table3_rows():
    rows = table3.run(SCALE)
    assert [r.benchmark for r in rows] == list(ALL_BENCHMARKS)
    text = table3.to_text(rows)
    assert "Decode one frame" in text
    assert "various sizes" in text


def test_table4_shape():
    rows = table4.run(SCALE)
    assert len(rows) == 7
    for row in rows:
        assert row.area_um2 > 0
        assert row.min_ms <= row.avg_ms <= row.max_ms
        assert row.max_ms < 16.7  # baseline never misses at 1.0x
    text = table4.to_text(rows)
    assert "h264" in text and "[paper]" in text


def test_fig02_three_clips_with_variation():
    result = fig02_variation.run(SCALE, n_frames=20)
    assert set(result.clips) == {"coastguard", "foreman", "news"}
    for clip in result.clips:
        assert len(result.series_ms[clip]) == 20
        assert result.spread(clip) > 0.2  # visible per-frame variation
    # Clip separation as in Fig 2.
    avg = {c: sum(v) / len(v) for c, v in result.series_ms.items()}
    assert avg["coastguard"] > avg["news"]
    assert "Fig 2" in fig02_variation.to_text(result)


def test_fig03_pid_lags_spikes():
    result = fig03_pid.run(SCALE, window=30)
    assert result.n_jobs > 10
    assert result.lag_correlation() > 0.2  # errors chase last change
    assert "PID" in fig03_pid.to_text(result)


def test_fig10_prediction_errors_small():
    result = fig10_errors.run(SCALE)
    assert set(result.reports) == set(ALL_BENCHMARKS)
    for name, report in result.reports.items():
        limit = 12.0 if name == "djpeg" else 3.0
        assert report.mean_abs_pct < limit, name
    # djpeg is the hard one, as in the paper.
    assert (result.reports["djpeg"].mean_abs_pct
            > result.reports["cjpeg"].mean_abs_pct)
    assert "djpeg" in fig10_errors.to_text(result)


@pytest.fixture(scope="module")
def fig11():
    return fig11_schemes.run(SCALE)


def test_fig11_directional_claims(fig11):
    head = fig11_schemes.headline(fig11)
    # DVFS saves a lot of energy; the baseline never misses.
    assert 20 < head["prediction_energy_savings_pct"] < 65
    assert head["prediction_miss_pct"] < 2.0
    # PID misses far more than prediction.
    assert head["pid_miss_pct"] > 3.0
    assert head["pid_miss_pct"] > head["prediction_miss_pct"]
    baseline = average_row(fig11, "baseline")
    assert baseline.miss_rate_pct == 0.0
    assert baseline.normalized_energy_pct == pytest.approx(100.0)
    assert "headline" in fig11_schemes.to_text(fig11)


def test_fig13_oracle_ordering():
    summaries = fig13_oracle.run(SCALE)
    head = fig13_oracle.headline(summaries)
    # oracle <= no-overhead <= with-overhead energy.
    assert (head["oracle_energy_pct"]
            <= head["no_overhead_energy_pct"] + 1e-9)
    assert (head["no_overhead_energy_pct"]
            <= head["prediction_energy_pct"] + 1e-9)
    assert head["gap_to_oracle_pct"] < 5.0
    assert head["oracle_miss_pct"] == 0.0


def test_fig14_boost_removes_misses():
    summaries = fig14_boost.run(SCALE)
    head = fig14_boost.headline(summaries)
    assert head["boost_miss_pct"] <= head["prediction_miss_pct"]
    assert head["boost_miss_pct"] == pytest.approx(0.0)
    assert head["boost_energy_increase_pct"] < 2.0


def test_fig15_deadline_sensitivity():
    points = fig15_deadlines.run(SCALE, factors=(0.6, 1.0, 1.6))
    pred = fig15_deadlines.series(points, "prediction")
    # Longer deadlines -> monotonically less energy.
    energies = [e for _, e, _ in pred]
    assert energies[0] > energies[1] > energies[2]
    # Short deadlines cause misses even for the baseline.
    base = fig15_deadlines.series(points, "baseline")
    assert base[0][2] > 0.0   # 0.6x: baseline misses
    assert base[2][2] == 0.0  # 1.6x: none
    # At longer deadlines prediction stops missing.
    assert pred[2][2] == pytest.approx(0.0)
    assert "factor" in fig15_deadlines.to_text(points)


def test_fig16_fpga_savings():
    summaries = fig16_fpga.run(SCALE)
    head = fig16_fpga.headline(summaries)
    assert 20 < head["prediction_energy_savings_pct"] < 65
    assert head["prediction_miss_pct"] < 2.0


@pytest.mark.parametrize("tech", ["asic", "fpga"])
def test_fig12_17_overheads(tech):
    rows = fig12_overheads.run(SCALE, tech=tech)
    assert [r.benchmark for r in rows][-1] == "average"
    avg = rows[-1]
    assert 0 < avg.area_pct < 60
    assert 0 < avg.energy_pct < 10
    assert 0 < avg.time_pct < 10
    text = fig12_overheads.to_text(rows, tech=tech)
    assert ("Fig 12" if tech == "asic" else "Fig 17") in text


def test_fig18_19_hls_beats_rtl_slice():
    results = fig18_hls.run(SCALE)
    by_label = {r.label: r for r in results}
    assert set(by_label) == {"md-rtl", "md-hls", "stencil-rtl",
                             "stencil-hls"}
    for name in ("md", "stencil"):
        rtl = by_label[f"{name}-rtl"]
        hls = by_label[f"{name}-hls"]
        # HLS slice runs faster and misses at most as often.
        assert hls.time_pct < rtl.time_pct + 1e-9
        assert hls.miss_rate_pct <= rtl.miss_rate_pct
        # Accuracy comparable (both tiny).
        assert abs(hls.error_box.median) < 2.0
        assert abs(rtl.error_box.median) < 2.0
    assert "md-hls" in fig18_hls.to_text(results)


def test_case_study_shape():
    result = case_study.run(SCALE)
    assert 1 <= result.n_selected_features <= result.n_candidate_features
    assert result.worst_case_error_pct < 4.0  # paper: ~3%
    assert 0.01 < result.slice_area_fraction < 0.15  # paper: 5.7%
    assert result.slice_time_fraction_max < 0.25  # paper: 5-15%
    assert "case study" in case_study.to_text(result)


def test_ext_all_schemes_ranking():
    from repro.experiments import ext_all_schemes

    summaries = ext_all_schemes.run(SCALE)
    ranking = ext_all_schemes.ranking(summaries)
    schemes_in_order = [r[0] for r in ranking]
    # Oracle cheapest, baseline most expensive, prediction best real.
    assert schemes_in_order[0] == "oracle"
    assert schemes_in_order[-1] == "baseline"
    assert schemes_in_order[1] == "prediction"
    assert "ranking by average energy" in ext_all_schemes.to_text(summaries)


def test_ext_resolutions_shape():
    from repro.experiments import ext_resolutions

    result = ext_resolutions.run(SCALE)
    energy = result.normalized_energy_pct
    assert energy["baseline"] == pytest.approx(100.0)
    assert energy["table"] < 100.0
    assert energy["prediction"] < energy["table"]
    assert "mixed-resolution" in ext_resolutions.to_text(result)


def test_ext_taxonomy_profiles():
    from repro.experiments import ext_taxonomy

    rows = ext_taxonomy.run(SCALE)
    assert len(rows) == 7
    for row in rows:
        assert row.profile.cv > 0
        assert -1.0 <= row.profile.lag1_autocorr <= 1.0
        assert row.pid_miss_pct >= row.prediction_miss_pct - 1e-9
    assert "taxonomy" in ext_taxonomy.to_text(rows)

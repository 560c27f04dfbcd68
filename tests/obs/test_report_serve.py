"""Salvaged event parsing, sparklines and the windowed serve report
section."""

import pytest

from repro.obs import SloTracker, TimeSeriesRegistry, parse_slo, session
from repro.obs.report import (
    _salvage_events,
    render_run,
    sparkline,
    summarize_serve_windows,
)


# -- sparkline ----------------------------------------------------------

def test_sparkline_properties():
    assert sparkline([]) == ""
    assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
    line = sparkline([0, 1, 2, 3], width=4)
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"
    # Long series downsample to the requested width.
    assert len(sparkline(list(range(500)), width=40)) == 40


# -- _salvage_events ----------------------------------------------------

def test_salvage_torn_final_line(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"type": "job", "index": 0}\n'
                    '{"type": "job", "index": 1}\n'
                    '{"type": "job", "ind')  # crash mid-write
    events = _salvage_events(path)
    assert [e["index"] for e in events] == [0, 1]


def test_salvage_skips_blank_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('\n{"type": "job", "index": 0}\n\n   \n'
                    '{"type": "episode"}\n\n')
    events = _salvage_events(path)
    assert len(events) == 2
    assert events[1]["type"] == "episode"


def test_salvage_fully_corrupt_file_yields_nothing(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("not json at all\n<<binary garbage>>\n{broken\n")
    assert _salvage_events(path) == []


# -- the serve dashboard ------------------------------------------------

def _serve_fixture(tmp_path):
    """A deterministic serve run dir: 3 executed jobs over 2 windows
    of the default 100 ms, plus an exhausted-SLO summary."""
    run_dir = tmp_path / "run"
    with session(run_dir=run_dir, command="serve demo") as obs:
        ts = obs.timeseries
        for t, miss, energy in ((0.01, 0.0, 1e-5), (0.05, 1.0, 3e-5),
                                (0.12, 1.0, 2e-5)):
            ts.observe("serve.miss", t, miss)
            ts.observe("serve.energy_per_job", t, energy)
            ts.observe("serve.decision_ms", t, 0.5)
            ts.observe("serve.fallback", t, 0.0)
        ts.observe("serve.shed", 0.01, 0.0)
        obs.slo = SloTracker([parse_slo("miss_rate<0.7")])
        obs.slo.finalize(ts)
    return run_dir


def test_render_run_serve_section_golden(tmp_path):
    text = render_run(_serve_fixture(tmp_path))
    assert "serve (windows of 100 ms, virtual clock):" in text
    assert "miss%" in text and "energy/job" in text
    rows = [line.strip() for line in text.splitlines()]
    # Window 0: jobs at 0.01/0.05 — 2 executed, 50% missed, 2e-05 mean.
    row0 = next(r for r in rows if r.startswith("0.00"))
    assert "2" in row0.split() and "50.0" in row0 and "2e-05" in row0
    # Window 1: the job at 0.12 — 100% missed.
    row1 = next(r for r in rows if r.startswith("0.10"))
    assert "100.0" in row1
    # The manifest SLO summary renders with its burn rate.
    assert "slo:" in text
    assert "slo miss_rate<0.7@99%: 1/2 bad window(s)" in text
    assert "burn rate 50.00 — EXHAUSTED" in text


def test_summarize_serve_windows_coarsens_long_runs():
    ts = TimeSeriesRegistry(window_s=0.1)
    for i in range(100):
        ts.observe("serve.miss", (i + 0.5) * 0.1, float(i % 2))
    out = summarize_serve_windows(ts, max_rows=10)
    assert "merged per row" in out
    data_rows = [line for line in out.splitlines()
                 if line.strip() and line.strip()[0].isdigit()]
    assert 0 < len(data_rows) <= 10
    assert "miss rate" in out  # sparkline keeps full resolution


def test_summarize_serve_windows_empty():
    assert "no windowed" in summarize_serve_windows(TimeSeriesRegistry())


def test_render_run_flags_evicted_windows(tmp_path):
    run_dir = tmp_path / "run"
    with session(run_dir=run_dir, command="serve long") as obs:
        obs.timeseries = TimeSeriesRegistry(window_s=0.1, capacity=2)
        for i in range(5):
            obs.timeseries.observe("serve.miss", i * 0.1, 0.0)
    text = render_run(run_dir)
    assert "ring evicted old windows — serve.miss: 3" in text

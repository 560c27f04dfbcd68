"""Trace export: render a captured run as Chrome-trace JSON.

``repro report <run-dir> --export-trace out.json`` converts the
artifacts a ``--run-dir`` session wrote into the Trace Event Format
that ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_
load directly — spans become nested duration slices, per-job records
become per-stream tracks, and the windowed time series become counter
tracks, so a serve run can be scrubbed on a timeline instead of read
as tables.

Two clocks coexist in a run, so the export keeps them on separate
trace *processes*:

* **pid 1 — wall clock**: the manifest's recorded spans (pipeline
  stages, pool maps, the serve umbrella), offset so the first span
  starts at t=0;
* **pid 2 — virtual clock**: per-job slices, one track per stream run.
  Every executed job — served or in an episode — carries its exact
  virtual ``start`` and time components (``sjob`` events), so release
  gaps and switch windows show as they happened.  Time-series windows
  ride along as Chrome counter tracks (miss rate, shed rate, energy
  per job, p99 decision latency).

Timestamps are microseconds (the format's native unit); payloads are
strict JSON with a top-level ``traceEvents`` list, which is all either
viewer requires.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .runctx import EVENTS_NAME
from .timeseries import TIMESERIES_NAME, TimeSeriesRegistry

#: Time-series → counter-track renderings: (series, track name, how).
_COUNTER_TRACKS = (
    ("serve.miss", "miss_rate", "mean"),
    ("serve.shed", "shed_rate", "mean"),
    ("serve.fallback", "fallback_rate", "mean"),
    ("serve.energy_per_job", "energy_per_job", "mean"),
    ("serve.decision_ms", "p99_decision_ms", "p99"),
)

_US = 1e6  # seconds -> trace microseconds


def _meta(pid: int, name: str, tid: Optional[int] = None,
          tname: Optional[str] = None) -> List[Dict]:
    events: List[Dict] = [{
        "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
        "args": {"name": name},
    }]
    if tid is not None:
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": tname},
        })
    return events


def _span_events(stages: List[Dict]) -> List[Dict]:
    if not stages:
        return []
    t0 = min(float(s.get("start", 0.0)) for s in stages)
    events = []
    for stage in stages:
        events.append({
            "name": str(stage.get("name", "?")),
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (float(stage.get("start", 0.0)) - t0) * _US,
            "dur": max(float(stage.get("duration_s", 0.0)) * _US, 0.01),
            "args": {str(k): v for k, v
                     in (stage.get("labels") or {}).items()},
        })
    return events


def _sjob_events(tid: int, events: List[Dict]) -> List[Dict]:
    # Executed jobs carry exact virtual placement; shed jobs (never
    # executed) become instants at their arrival.
    out = []
    for event in events:
        args = {
            "status": event.get("status"),
            "missed": bool(event.get("missed")),
            "energy": event.get("energy"),
            "decision_ms": event.get("decision_ms"),
        }
        if event.get("status") == "shed":
            out.append({
                "name": f"shed {event.get('index')}",
                "ph": "i", "s": "t", "pid": 2, "tid": tid,
                "ts": float(event.get("arrival", 0.0)) * _US,
                "args": args,
            })
            continue
        start = float(event.get("start", 0.0))
        duration = (float(event.get("t_slice", 0.0))
                    + float(event.get("t_switch", 0.0))
                    + float(event.get("t_exec", 0.0)))
        out.append({
            "name": f"job {event.get('index')}",
            "ph": "X", "pid": 2, "tid": tid,
            "ts": start * _US,
            "dur": max(duration * _US, 0.01),
            "args": args,
        })
    return out


def _counter_events(ts: TimeSeriesRegistry) -> List[Dict]:
    out = []
    for series, track, how in _COUNTER_TRACKS:
        for index, cell in ts.windows(series):
            value = (cell.quantile(0.99) if how == "p99" else cell.mean)
            out.append({
                "name": track, "ph": "C", "pid": 2, "tid": 0,
                "ts": ts.window_start(index) * _US,
                "args": {track: value},
            })
    return out


def chrome_trace(run_dir: Union[str, Path]) -> Dict[str, object]:
    """Build the Chrome-trace payload for one captured run directory.

    Raises :class:`FileNotFoundError` when ``run_dir`` holds no
    manifest (not a run directory).  Missing optional artifacts
    (events, time series) simply contribute no tracks.
    """
    from .report import _salvage_events, load_manifest, stream_runs

    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    trace: List[Dict] = []
    trace += _meta(1, "wall clock (stages)", tid=1, tname="spans")
    trace += _span_events(manifest.get("stages") or [])

    events_path = run_dir / str(manifest.get("events_file")
                                or EVENTS_NAME)
    runs = (stream_runs(_salvage_events(events_path))
            if events_path.is_file() else [])

    trace += _meta(2, "virtual clock (jobs)")
    for tid, (summary, sjobs) in enumerate(runs, start=1):
        name = f"{summary.get('scheme', '?')} on {summary.get('stream')}"
        trace += _meta(2, "virtual clock (jobs)", tid=tid, tname=name)[1:]
        trace += _sjob_events(tid, sjobs)

    ts_name = manifest.get("timeseries_file")
    ts_path = run_dir / str(ts_name or TIMESERIES_NAME)
    if ts_path.is_file():
        with open(ts_path) as handle:
            ts = TimeSeriesRegistry.from_dict(json.load(handle))
        trace += _counter_events(ts)

    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {
            "command": manifest.get("command"),
            "git_rev": manifest.get("git_rev"),
        },
    }


def write_chrome_trace(run_dir: Union[str, Path],
                       out_path: Union[str, Path]) -> Path:
    """Export ``run_dir`` as Chrome-trace JSON at ``out_path``."""
    payload = chrome_trace(run_dir)
    out_path = Path(out_path)
    with open(out_path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return out_path


def validate_chrome_trace(payload: Dict[str, object]) -> List[str]:
    """Structural check of a trace payload; returns problem strings.

    The loadability contract both viewers share: a ``traceEvents``
    list whose entries carry ``ph``/``name``/``pid``/``ts`` (metadata
    events excepted for ``ts``) and non-negative durations.  Used by
    the CI gate and the artifact auditor.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        for key in ("ph", "name", "pid"):
            if key not in event:
                problems.append(f"event {i} lacks {key!r}")
        if event.get("ph") != "M" and "ts" not in event:
            problems.append(f"event {i} ({event.get('name')}) lacks ts")
        if event.get("ph") == "X" and float(event.get("dur", 0)) < 0:
            problems.append(f"event {i} has negative duration")
    return problems

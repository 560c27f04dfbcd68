"""Run-artifact validation: accounting consistency of a captured run.

``repro check <run-dir>`` replays the structured event stream a
``--run-dir`` session captured (see :mod:`repro.obs`) and cross-checks
it against itself and the manifest:

* the manifest parses and its ``n_events`` matches the events file
  (detects torn/truncated artifacts);
* every executed ``sjob`` event is self-consistent (non-negative time
  and energy, miss flag agreeing with the recorded slack);
* every ``stream`` summary event — a served stream's or an episode's —
  equals the aggregation of its per-job ``sjob`` events (offered /
  completed / fallback / shed / miss counts, energy sum — the
  conservation law every offered job ends in exactly one terminal
  state);
* a manifest-named ``timeseries.json`` exists, parses, and its
  windowed sample counts agree with the manifest's ``serve.*``
  counters (unless the ring evicted windows, which the artifact
  declares), and any ``slo`` summary rows are internally consistent.

This is the offline half of the correctness story: the invariant
checker (:mod:`repro.check.invariants`) guards live episodes, this
module guards what was written to disk — so a run directory can be
audited long after the process that produced it is gone.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..obs import MANIFEST_NAME, TimeSeriesRegistry, read_events
from ..units import TIME_EPS_REL

#: Relative tolerance for energy sums re-accumulated from sjob events.
_ENERGY_REL_TOL = 1e-6


def _slack_contradicts_miss(event: Dict[str, object]) -> bool:
    # The emitted slack is (release + deadline) - finish, so a missed
    # job must have negative slack and an on-time job non-negative —
    # up to rounding at the scale of the job's own time footprint.
    slack = float(event.get("slack", 0.0))
    footprint = (float(event.get("t_exec", 0.0))
                 + float(event.get("t_slice", 0.0)))
    tol = TIME_EPS_REL * max(abs(slack), footprint, 1e-12)
    if event.get("missed"):
        return slack > tol
    return slack < -tol


def check_run_dir(run_dir: Union[str, Path]) -> List[str]:
    """Validate the artifacts under ``run_dir``; return violations.

    Raises :class:`FileNotFoundError` when the directory holds no
    ``manifest.json`` (not a run directory at all); every other
    problem comes back as a human-readable violation line.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_NAME} under {run_dir}")
    violations: List[str] = []
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as exc:
        return [f"manifest.json does not parse: {exc}"]

    events_name = manifest.get("events_file")
    if not events_name:
        violations.append("manifest records no events file — the run "
                          "captured nothing to audit")
        return violations
    events_path = run_dir / str(events_name)
    if not events_path.is_file():
        return violations + [f"manifest names {events_name} but the "
                             f"file is missing"]
    try:
        events = read_events(events_path)
    except json.JSONDecodeError as exc:
        return violations + [f"{events_name} has a torn/corrupt line: "
                             f"{exc}"]

    if manifest.get("n_events") != len(events):
        violations.append(
            f"manifest says {manifest.get('n_events')} events but "
            f"{events_name} holds {len(events)} — truncated or "
            f"appended-to artifact")

    # Accumulate sjob events until the stream summary that closes them.
    open_streams: Dict[str, List[Dict[str, object]]] = {}
    for position, event in enumerate(events):
        etype = event.get("type")
        if etype == "sjob":
            name = str(event.get("stream"))
            open_streams.setdefault(name, []).append(event)
            if event.get("status") == "shed":
                continue
            for field in ("t_slice", "t_switch", "t_exec", "energy"):
                if float(event.get(field, 0.0)) < 0.0:
                    violations.append(
                        f"event {position}: sjob {event.get('index')} "
                        f"of stream {name} has negative {field} "
                        f"({event.get(field)})")
            if _slack_contradicts_miss(event):
                violations.append(
                    f"event {position}: sjob {event.get('index')} of "
                    f"stream {name} has missed={event.get('missed')} "
                    f"but slack={event.get('slack')}")
        elif etype == "stream":
            name = str(event.get("stream"))
            violations.extend(_check_stream_summary(
                position, event, open_streams.pop(name, [])))
    for name, sjobs in open_streams.items():
        violations.append(
            f"{len(sjobs)} sjob event(s) for stream {name} never "
            f"closed by a stream summary")

    violations.extend(_check_timeseries(run_dir, manifest))
    violations.extend(_check_slo_rows(manifest))
    return violations


def _check_stream_summary(position: int, event: Dict[str, object],
                          sjobs: List[Dict[str, object]]) -> List[str]:
    """Cross-check one ``stream`` summary against its ``sjob`` events.

    Conservation: every offered job ends in exactly one terminal
    state, so the summary's offered / completed / fallback / shed /
    miss counts and energy sum must equal the per-job aggregation.
    """
    name = str(event.get("stream"))
    violations: List[str] = []
    by_status = {"completed": 0, "fallback": 0, "shed": 0}
    for sjob in sjobs:
        status = str(sjob.get("status"))
        by_status[status] = by_status.get(status, 0) + 1
    checks = (
        ("n_offered", len(sjobs)),
        ("n_completed", by_status.get("completed", 0)),
        ("n_fallback", by_status.get("fallback", 0)),
        ("n_shed", by_status.get("shed", 0)),
        ("misses", sum(1 for s in sjobs if s.get("missed"))),
    )
    for field, derived in checks:
        claimed = int(event.get(field, -1))
        if claimed != derived:
            violations.append(
                f"event {position}: stream {name} claims "
                f"{field}={claimed} but sjob events show {derived}")
    energy = sum(float(s.get("energy", 0.0)) for s in sjobs)
    claimed_energy = float(event.get("energy", 0.0))
    if abs(claimed_energy - energy) > _ENERGY_REL_TOL * max(
            abs(claimed_energy), abs(energy), 1e-30):
        violations.append(
            f"event {position}: stream {name} energy "
            f"{claimed_energy!r} != sjob-event sum {energy!r}")
    return violations


def _check_timeseries(run_dir: Path,
                      manifest: Dict[str, object]) -> List[str]:
    """Audit the ``timeseries.json`` artifact against the manifest.

    The windowed series must exist when the manifest names them,
    parse back through :meth:`TimeSeriesRegistry.from_dict`, and —
    when the ring evicted nothing — conserve sample counts against
    the manifest's ``serve.*`` counters (one ``serve.shed`` indicator
    per offered job, one ``serve.miss`` indicator per executed job).
    """
    name = manifest.get("timeseries_file")
    if not name:
        return []
    path = run_dir / str(name)
    if not path.is_file():
        return [f"manifest names {name} but the file is missing"]
    try:
        with open(path) as handle:
            ts = TimeSeriesRegistry.from_dict(json.load(handle))
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        return [f"{name} does not parse: {exc}"]
    violations: List[str] = []
    for series in ts.series_names():
        for index, cell in ts.windows(series):
            if cell.count < 0 or (cell.count == 0 and cell.total):
                violations.append(
                    f"{name}: series {series} window {index} is "
                    f"inconsistent (count={cell.count}, "
                    f"total={cell.total})")
    if any(ts.dropped_windows.values()):
        return violations  # truncated record: counts can't conserve
    counters = (manifest.get("metrics") or {}).get("counters") or {}
    executed = (int(counters.get("serve.completed", 0))
                + int(counters.get("serve.fallback", 0)))
    conservation = (
        ("serve.shed", int(counters.get("serve.offered", 0))),
        ("serve.miss", executed),
    )
    for series, expected in conservation:
        if series not in ts.series_names() or not expected:
            continue
        held = ts.total_count(series)
        if held != expected:
            violations.append(
                f"{name}: series {series} holds {held} samples but "
                f"manifest counters imply {expected}")
    return violations


def _check_slo_rows(manifest: Dict[str, object]) -> List[str]:
    """Internal consistency of the manifest's ``slo`` summary rows."""
    violations: List[str] = []
    for row in manifest.get("slo") or []:
        spec = row.get("spec", "?")
        windows = int(row.get("windows", 0))
        bad = int(row.get("bad_windows", 0))
        if bad < 0 or windows < 0 or bad > windows:
            violations.append(
                f"slo {spec}: bad_windows={bad} outside "
                f"[0, windows={windows}]")
        burn = row.get("burn_rate")
        if burn is not None and bool(row.get("exhausted")) \
                != (float(burn) > 1.0):
            violations.append(
                f"slo {spec}: exhausted={row.get('exhausted')} "
                f"contradicts burn_rate={burn}")
    return violations

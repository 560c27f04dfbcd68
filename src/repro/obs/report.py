"""Render captured runs: stage timings, stream digests, serve dashboards.

Pure presentation over the artifacts ``runctx`` wrote — nothing here
mutates a run directory.  ``render_run`` is the engine behind
``repro report <run-dir>``; ``format_stage_table`` also serves the
stage-timing footer ``repro experiment --profile`` prints from the
live tracer.  Serve runs additionally get a time-resolved dashboard
(:func:`summarize_serve_windows` over ``timeseries.json``) and the
manifest's SLO burn-rate status; Chrome-trace export lives in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .events import read_events
from .runctx import EVENTS_NAME, MANIFEST_NAME
from .slo import describe_slo_rows
from .timeseries import TIMESERIES_NAME, TimeSeriesRegistry, WindowCell

AggregateRows = Sequence[Tuple[str, Optional[str], int, int, float]]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a numeric series as a unicode sparkline."""
    data = list(values)
    if not data:
        return ""
    if len(data) > width:  # downsample by striding
        stride = len(data) / width
        data = [data[int(i * stride)] for i in range(width)]
    lo, hi = min(data), max(data)
    if hi - lo < 1e-15:
        return _SPARK_LEVELS[0] * len(data)
    span = hi - lo
    return "".join(
        _SPARK_LEVELS[int((v - lo) / span * (len(_SPARK_LEVELS) - 1))]
        for v in data
    )


def format_stage_table(rows: AggregateRows) -> str:
    """Aligned stage-timing table from ``Tracer.aggregate()`` rows.

    Nested stages are indented under their parents; ``count`` is how
    many spans shared that (name, parent) slot (e.g. one ``fit`` per
    benchmark), ``total`` their summed wall-clock.
    """
    if not rows:
        return "(no spans recorded)"
    header = ("stage", "count", "total_s", "mean_s")
    table: List[Tuple[str, str, str, str]] = [header]
    for name, _parent, depth, count, total in rows:
        table.append((
            "  " * depth + name,
            str(count),
            f"{total:.3f}",
            f"{total / count:.3f}",
        ))
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join(
        "  ".join(
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(row, widths))
        )
        for row in table
    )


def summarize_perf(metrics: Dict) -> str:
    """Pool-utilization and cache-effectiveness digest of a metrics
    snapshot.

    Reads the ``pool.*`` and ``cache.*`` series the parallel subsystem
    emits and renders at most two lines — one for process-pool usage,
    one for artifact-cache hits — or an empty string when the run used
    neither, so callers can append it unconditionally.
    """
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    lines: List[str] = []
    maps = counters.get("pool.maps", 0)
    if maps:
        tasks = int(counters.get("pool.tasks", 0))
        workers = int(gauges.get("pool.workers", 0))
        line = (f"  pool: {tasks} tasks over {int(maps)} map(s), "
                f"{workers} worker(s)")
        utilization = gauges.get("pool.utilization")
        if utilization is not None:
            line += f", {utilization * 100.0:.0f}% busy"
        lines.append(line)
    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    if hits or misses:
        total = hits + misses
        line = (f"  cache: {int(hits)} hit(s), {int(misses)} miss(es) "
                f"({hits / total * 100.0:.0f}% hit rate), "
                f"{int(counters.get('cache.put', 0))} put(s)")
        evicted = counters.get("cache.evict", 0)
        if evicted:
            line += f", {int(evicted)} evicted"
        lines.append(line)
    skipped = counters.get("flow.record.cached", 0)
    if skipped:
        lines.append(f"  record stage skipped for {int(skipped)} "
                     f"design(s) (cached feature matrix)")
    from ..rtl.backend import BACKENDS
    for backend in reversed(BACKENDS):
        runs = counters.get(f"sim.{backend}.runs", 0)
        if not runs:
            continue
        cycles = counters.get(f"sim.{backend}.cycles", 0.0)
        wall = counters.get(f"sim.{backend}.wall_s", 0.0)
        line = (f"  sim[{backend}]: {int(runs)} run(s), "
                f"{int(cycles)} cycles")
        if wall > 0:
            line += f" at {cycles / wall / 1e6:.2f} Mcyc/s"
        jumps = counters.get(f"sim.{backend}.ff_jumps", 0)
        if jumps:
            line += f", {int(jumps)} fast-forward jump(s)"
        codegen = counters.get(f"sim.{backend}.codegen_s")
        if codegen:
            line += (f"; {int(counters.get(f'sim.{backend}.compiles', 0))}"
                     f" kernel(s) in {codegen * 1e3:.0f} ms")
        lines.append(line)
    solves = counters.get("flow.fit.solves", 0)
    if solves:
        lines.append(
            f"  fit: {int(solves)} solve(s), "
            f"{int(counters.get('flow.fit.iterations', 0))} FISTA "
            f"iteration(s) in {int(counters.get('flow.fit.steps', 0))} "
            f"step(s), "
            f"{int(counters.get('flow.fit.unconverged', 0))} unconverged")
    offered = counters.get("serve.offered", 0)
    if offered:
        line = (f"  serve: {int(offered)} offered, "
                f"{int(counters.get('serve.completed', 0))} completed, "
                f"{int(counters.get('serve.fallback', 0))} fallback, "
                f"{int(counters.get('serve.shed', 0))} shed; "
                f"{int(counters.get('serve.predict_runs', 0))} "
                "predictor run(s), "
                f"{int(counters.get('serve.epochs', 0))} epoch(s) over "
                f"{int(counters.get('serve.epoch_jobs', 0))} job(s)")
        decision = (metrics.get("histograms") or {}).get(
            "serve.decision_ms") or {}
        if decision.get("count"):
            line += (f"; decision p50/p99 "
                     f"{decision['p50']:.3g}/{decision['p99']:.3g} ms")
        lines.append(line)
    fleet_offered = counters.get("serve.fleet.offered", 0)
    if fleet_offered:
        line = (f"  fleet: {int(fleet_offered)} offered, "
                f"{int(counters.get('serve.fleet.routed', 0))} routed; "
                "shed admission/rate/deadline "
                f"{int(counters.get('serve.fleet.shed.admission', 0))}/"
                f"{int(counters.get('serve.fleet.shed.rate_limit', 0))}/"
                f"{int(counters.get('serve.fleet.shed.deadline', 0))}")
        active = gauges.get("serve.fleet.active")
        if active is not None:
            line += f", {int(active)} active instance(s)"
        ups = counters.get("serve.fleet.scale_up", 0)
        downs = counters.get("serve.fleet.scale_down", 0)
        if ups or downs:
            line += f", {int(ups)} up / {int(downs)} down rescale(s)"
        lines.append(line)
    return "\n".join(lines)


def stream_runs(events: Sequence[Dict]
                ) -> List[Tuple[Dict, List[Dict]]]:
    """``(stream summary, sjob events)`` per stream run, in closing
    order.

    A stream's ``sjob`` events run until the ``stream`` summary that
    closes them, so an episode or a served stream is one run even when
    a later run reuses its name.  Runs never closed (a crash mid-run)
    come last, with a stand-in summary of scheme ``"?"``.
    """
    runs: List[Tuple[Dict, List[Dict]]] = []
    open_streams: Dict[str, List[Dict]] = {}
    for event in events:
        etype = event.get("type")
        if etype == "sjob":
            open_streams.setdefault(str(event.get("stream", "?")),
                                    []).append(event)
        elif etype == "stream":
            name = str(event.get("stream", "?"))
            runs.append((event, open_streams.pop(name, [])))
    return runs + [({"stream": name, "scheme": "?"}, sjobs)
                   for name, sjobs in open_streams.items()]


def summarize_streams(events: Sequence[Dict]) -> str:
    """One digest line per stream run (see :func:`stream_runs`).

    Each line gives executed job, miss, boost and switch counts, sheds
    when any, the mean absolute prediction error of a run whose
    controller planned on the prediction (its summary's
    ``plans_on_prediction``), and a slack sparkline — the quick "where
    did the misses cluster" view.
    """
    runs = stream_runs(events)
    if not runs:
        return "(no job events)"
    lines = []
    for summary, sjobs in runs:
        jobs = [j for j in sjobs if j.get("status") != "shed"]
        misses = sum(1 for j in jobs if j.get("missed"))
        boosts = sum(1 for j in jobs if j.get("boosted"))
        switches = sum(1 for j in jobs if float(j.get("t_switch", 0.0)) > 0)
        errors = [
            abs(float(j["predicted_cycles"]) - float(j["actual_cycles"]))
            / float(j["actual_cycles"]) * 100.0
            for j in jobs
            if j.get("predicted_cycles") is not None
            and math.isfinite(float(j["predicted_cycles"]))
            and float(j.get("actual_cycles", 0)) > 0
        ] if summary.get("plans_on_prediction") else []
        slack = [float(j["slack"]) for j in jobs if "slack" in j]
        shed = len(sjobs) - len(jobs)
        lines.append(
            f"  {summary.get('scheme', '?')} on "
            f"{summary.get('stream', '?')}: {len(jobs)} jobs, "
            f"{misses} missed, {boosts} boosted, {switches} switches"
            + (f", {shed} shed" if shed else "")
            + (f", mean |err| {sum(errors) / len(errors):.2f}%"
               if errors else "")
        )
        if slack:
            lines.append(f"    slack {sparkline(slack)}")
    return "\n".join(lines)


def summarize_serve_windows(ts: TimeSeriesRegistry,
                            max_rows: int = 12) -> str:
    """Time-resolved serve dashboard from the windowed registry.

    One row per (possibly coarsened) window — executed jobs, miss /
    shed / fallback rates, mean energy per job, p99 decision latency —
    plus full-resolution sparklines underneath.  When the run spans
    more than ``max_rows`` windows, consecutive windows are merged
    cell-by-cell so the table stays terminal-sized without losing the
    aggregates (sums and sketches merge exactly; only row granularity
    coarsens).
    """
    indices = ts.window_indices()
    if not indices:
        return "  (no windowed serve telemetry)"
    lo, hi = indices[0], indices[-1]
    group = max(1, -(-(hi - lo + 1) // max_rows))  # ceil division

    def coarse(series: str) -> Dict[int, WindowCell]:
        slots: Dict[int, WindowCell] = {}
        for index, cell in ts.windows(series):
            slot = (index - lo) // group
            merged = slots.get(slot)
            if merged is None:
                merged = slots[slot] = WindowCell()
            merged.merge(cell)
        return slots

    miss = coarse("serve.miss")
    shed = coarse("serve.shed")
    fallback = coarse("serve.fallback")
    energy = coarse("serve.energy_per_job")
    decision = coarse("serve.decision_ms")

    header = ("t(s)", "jobs", "miss%", "shed%", "fb%",
              "energy/job", "p99ms")
    table: List[Tuple[str, ...]] = [header]
    for slot in range((hi - lo) // group + 1):
        cells = (miss.get(slot), shed.get(slot), fallback.get(slot),
                 energy.get(slot), decision.get(slot))
        if not any(c is not None and c.count for c in cells):
            continue
        m, s, f, e, d = cells

        def pct(cell: Optional[WindowCell]) -> str:
            return f"{cell.mean * 100:.1f}" if cell is not None \
                and cell.count else "-"

        table.append((
            f"{ts.window_start(lo + slot * group):.2f}",
            str(m.count if m is not None else 0),
            pct(m), pct(s), pct(f),
            f"{e.mean:.3g}" if e is not None and e.count else "-",
            f"{d.quantile(0.99):.3g}" if d is not None and d.count
            else "-",
        ))
    widths = [max(len(row[i]) for row in table)
              for i in range(len(header))]
    lines = [
        "  " + "  ".join(
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(row, widths)))
        for row in table
    ]
    if group > 1:
        lines.append(f"  ({group} windows of {ts.window_s:g} s "
                     f"merged per row)")
    for series, label in (("serve.miss", "miss rate "),
                          ("serve.energy_per_job", "energy/job"),
                          ("serve.fleet.backlog", "fleet backlog"),
                          ("serve.fleet.shed", "fleet shed ")):
        values = [cell.mean for _, cell in ts.windows(series)]
        if len(values) > 1:
            lines.append(f"  {label} {sparkline(values)}")
    dropped = {name: n for name, n in ts.dropped_windows.items() if n}
    if dropped:
        detail = ", ".join(f"{name}: {n}"
                           for name, n in sorted(dropped.items()))
        lines.append(f"  (ring evicted old windows — {detail})")
    return "\n".join(lines)


def load_manifest(run_dir: Path) -> Dict:
    """Parse ``manifest.json`` from a run directory."""
    with open(run_dir / MANIFEST_NAME) as handle:
        return json.load(handle)


def _manifest_rows(stages: Sequence[Dict]) -> AggregateRows:
    """Re-aggregate manifest ``stages`` entries by (name, parent)."""
    order: List[Tuple[str, Optional[str]]] = []
    totals: Dict[Tuple[str, Optional[str]], List[float]] = {}
    depths: Dict[Tuple[str, Optional[str]], int] = {}
    # Same pre-order treatment as Tracer.aggregate(): sort by entry.
    stages = sorted(stages, key=lambda s: (float(s.get("start", 0.0)),
                                           int(s.get("depth", 0))))
    for stage in stages:
        key = (stage["name"], stage.get("parent"))
        if key not in totals:
            totals[key] = []
            depths[key] = int(stage.get("depth", 0))
            order.append(key)
        totals[key].append(float(stage["duration_s"]))
    return [
        (name, parent, depths[(name, parent)],
         len(totals[(name, parent)]), sum(totals[(name, parent)]))
        for name, parent in order
    ]


def render_run(run_dir) -> str:
    """The full terminal report for one captured run directory."""
    run_dir = Path(run_dir)
    manifest = load_manifest(run_dir)
    lines = [
        f"run: {manifest.get('command') or '(unknown command)'}",
        f"  dir      {run_dir}",
        f"  git rev  {manifest.get('git_rev', 'unknown')}",
        f"  python   {manifest.get('python', '?')} "
        f"on {manifest.get('platform', '?')}",
        f"  duration {float(manifest.get('duration_s', 0.0)):.2f}s, "
        f"{manifest.get('n_events', 0)} events",
    ]
    config = manifest.get("config") or {}
    if config:
        rendered = ", ".join(f"{k}={v}" for k, v in config.items())
        lines.append(f"  config   {rendered}")
    lines.append("")
    lines.append("stage timings:")
    lines.append(format_stage_table(_manifest_rows(
        manifest.get("stages", []))))
    metrics = manifest.get("metrics") or {}
    perf = summarize_perf(metrics)
    if perf:
        lines.append("")
        lines.append("parallelism/cache:")
        lines.append(perf)
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    histograms = metrics.get("histograms") or {}
    if counters or gauges or histograms:
        lines.append("")
        lines.append("metrics:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]:g}")
        for name in sorted(gauges):
            lines.append(f"  {name} = {gauges[name]:g}")
        for name in sorted(histograms):
            snap = histograms[name]
            if snap.get("count"):
                lines.append(
                    f"  {name}: n={snap['count']} mean={snap['mean']:.4g}"
                    f" p50={snap['p50']:.4g} p95={snap['p95']:.4g}"
                    f" p99={snap['p99']:.4g}"
                )
    ts_path = run_dir / str(manifest.get("timeseries_file")
                            or TIMESERIES_NAME)
    # Episodes feed the serve.* series too, but each restarts the
    # virtual clock at 0, so only a serve run's windows describe a run.
    command = str(manifest.get("command") or "")
    if command.split(" ", 1)[0] == "serve" and ts_path.is_file():
        with open(ts_path) as handle:
            ts = TimeSeriesRegistry.from_dict(json.load(handle))
        if any(name.startswith("serve.") for name in ts.series_names()):
            lines.append("")
            lines.append(f"serve (windows of {ts.window_s * 1e3:g} ms, "
                         f"virtual clock):")
            lines.append(summarize_serve_windows(ts))
    slo_rows = manifest.get("slo")
    if slo_rows:
        lines.append("")
        lines.append("slo:")
        lines.append(describe_slo_rows(slo_rows))
    events_path = run_dir / EVENTS_NAME
    if events_path.exists():
        lines.append("")
        lines.append("streams:")
        try:
            events = read_events(events_path)
        except json.JSONDecodeError:
            # A torn final line (crash mid-write) shouldn't kill the
            # report — salvage the complete lines and say so.
            events = _salvage_events(events_path)
            lines.append(f"  (events file truncated mid-write; "
                         f"salvaged {len(events)} complete events)")
        lines.append(summarize_streams(events))
    return "\n".join(lines)


def _salvage_events(path: Path) -> List[Dict]:
    """Parse a JSONL file line by line, skipping unparseable lines."""
    events: List[Dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events

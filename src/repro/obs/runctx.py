"""Run context: the ambient Observer and the run-manifest writer.

One :class:`Observer` bundles the three instrumentation primitives —
tracer, metrics registry, event sink — for the duration of a run.  It
is installed process-wide by :func:`session`; instrumented code pulls
it with :func:`get_observer` (``None`` when observability is off) or
opens spans through the module-level :func:`span` helper, which
degrades to a shared no-op context manager at near-zero cost.

A session given a ``run_dir`` writes two artifacts on exit:

* ``events.jsonl`` — the structured event stream (see ``events.py``);
* ``manifest.json`` — command, config, git revision, interpreter and
  platform, wall-clock duration, every recorded span, and a metrics
  snapshot.  ``repro report <run-dir>`` renders both.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from .events import EventSink
from .metrics import MetricsRegistry
from .timeseries import TIMESERIES_NAME, TimeSeriesRegistry
from .tracer import NULL_SPAN, Tracer

MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"


class Observer:
    """The live instrumentation bundle for one run."""

    def __init__(self, run_dir: Optional[Union[str, Path]] = None,
                 command: str = "", config: Optional[Dict] = None):
        self.run_dir = Path(run_dir) if run_dir is not None else None
        self.command = command
        self.config = dict(config or {})
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: Windowed (virtual-clock) aggregates; replace before serving
        #: to change the window width.  Persisted as
        #: ``timeseries.json`` when non-empty and a run_dir was given.
        self.timeseries = TimeSeriesRegistry()
        #: Optional live SLO tracker (set by ``repro serve --slo``);
        #: its summary lands in the manifest.
        self.slo = None
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.sink: Optional[EventSink] = None
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
            self.sink = EventSink(self.run_dir / EVENTS_NAME)

    def span(self, name: str, **labels: object):
        """Open a traced span (context manager)."""
        return self.tracer.span(name, **labels)

    def emit(self, event_type: str, **fields: object) -> None:
        """Emit one structured event (dropped when no run_dir)."""
        if self.sink is not None:
            self.sink.emit({"type": event_type, **fields})

    def manifest(self) -> Dict[str, object]:
        """The JSON-ready run manifest (computable at any point)."""
        import platform
        manifest = {
            "command": self.command,
            "config": self.config,
            "git_rev": git_revision(),
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "started_at": self.started_at,
            "duration_s": time.perf_counter() - self._t0,
            "events_file": EVENTS_NAME if self.sink is not None else None,
            "n_events": self.sink.n_events if self.sink is not None else 0,
            "timeseries_file": (TIMESERIES_NAME
                                if self.run_dir is not None
                                and self.timeseries else None),
            "stages": [s.to_dict() for s in self.tracer.spans],
            "metrics": self.metrics.snapshot(),
        }
        if self.slo is not None:
            manifest["slo"] = self.slo.summary()
        return manifest

    def finish(self) -> Optional[Path]:
        """Close the sink and write ``manifest.json`` plus (when any
        windowed series were recorded) ``timeseries.json``."""
        if self.sink is not None:
            self.sink.close()
        if self.run_dir is None:
            return None
        if self.timeseries:
            with open(self.run_dir / TIMESERIES_NAME, "w") as handle:
                json.dump(self.timeseries.to_dict(), handle)
                handle.write("\n")
        path = self.run_dir / MANIFEST_NAME
        with open(path, "w") as handle:
            json.dump(self.manifest(), handle, indent=2, default=str)
            handle.write("\n")
        return path


_CURRENT: Optional[Observer] = None


def get_observer() -> Optional[Observer]:
    """The installed Observer, or ``None`` when observability is off."""
    return _CURRENT


def _deactivate() -> None:
    # Drop the ambient observer without finalizing it.  Used by pool
    # workers: a fork copies the parent's Observer (including open file
    # descriptors), and letting the child write spans or events would
    # corrupt the parent's artifacts.
    global _CURRENT
    _CURRENT = None


def span(name: str, **labels: object):
    """Span on the ambient observer; a shared no-op when disabled."""
    observer = _CURRENT
    if observer is None:
        return NULL_SPAN
    return observer.tracer.span(name, **labels)


@contextmanager
def session(run_dir: Optional[Union[str, Path]] = None,
            command: str = "", config: Optional[Dict] = None
            ) -> Iterator[Observer]:
    """Install an Observer for the duration of the block.

    On exit the manifest and events file are finalized (when a
    ``run_dir`` was given) and the previous observer — normally none —
    is restored, so sessions nest safely in tests.
    """
    global _CURRENT
    observer = Observer(run_dir=run_dir, command=command, config=config)
    previous = _CURRENT
    _CURRENT = observer
    try:
        yield observer
    finally:
        _CURRENT = previous
        observer.finish()


def git_revision() -> str:
    """The repository's HEAD commit, or ``"unknown"`` outside git."""
    import subprocess
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"

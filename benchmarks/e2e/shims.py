"""Outside-in layer timing: shims around repro's public entry points.

A :class:`Target` names one function (``name``) or method
(``Class.method``) at the module attribute its caller looks up, so
replacing that attribute puts a timing shim on the call path without
touching ``src/``.  While installed, every call records a span
``(layer, start, end, parent)`` in memory; a layer's *self time* is its
spans' durations minus what their child spans cover, so the self times
of all layers add up to the time spent inside the outermost spans.

A target that no longer exists (a refactor renamed or deleted it) is
reported as ``absent`` rather than crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Counter = Callable[[Dict[str, float], tuple, object, object], None]


@dataclass(frozen=True)
class Target:
    """One shimmed entry point.

    ``before(args)`` runs ahead of the call and its value reaches
    ``count(counts, args, result, before_value)``, which adds the
    layer's work counters into ``counts``.
    """

    layer: str
    module: str
    attr: str
    count: Optional[Counter] = None
    before: Optional[Callable[[tuple], object]] = None


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


def _count_arg(position: int, key: str = "jobs") -> Counter:
    def count(counts, args, result, _):
        _add(counts, key, len(args[position]))
    return count


def _count_batch(counts, args, result, _):
    if result:
        _add(counts, "batches", 1)
        _add(counts, "jobs", len(result))


def _count_call(counts, args, result, _):
    _add(counts, "jobs", 1)


def _count_predict(counts, args, result, _):
    # Simulated slice cycles; a replayed record simulates nothing.
    _add(counts, "jobs", 1)
    _add(counts, "cycles", result[1])


def _count_predict_batch(counts, args, result, _):
    _add(counts, "jobs", len(args[1]))
    _add(counts, "cycles", sum(entry[1] for entry in result
                               if entry is not None))


def _epoch_window(args) -> int:
    engine, jobs, start = args[0], args[1], args[2]
    return min(engine.window, len(jobs) - start)


def _count_epoch(counts, args, committed, window):
    _add(counts, "window_jobs", window)
    _add(counts, "jobs", committed)
    _add(counts, "epochs", 1 if committed else 0)
    _add(counts, "declines", 0 if committed else 1)


#: Every shimmed entry point, outermost layers first.  The outer
#: targets (``flow.bundle``, ``serve.stream``, ``serve.fleet.serve``,
#: ...) exist so the glue between inner layers is attributed to the
#: layer that runs it instead of to nobody.
TARGETS: Tuple[Target, ...] = (
    # offline flow
    Target("flow.bundle", "repro.experiments.runner", "bundle_for"),
    Target("workloads.generate", "repro.experiments.runner",
           "workload_for"),
    Target("flow.generate", "repro.experiments.runner",
           "generate_predictor"),
    Target("rtl.synthesize", "repro.flow.pipeline", "synthesize"),
    Target("analysis.detect", "repro.flow.pipeline", "discover_features"),
    Target("rtl.compiled_clone", "repro.flow.pipeline", "compiled_clone"),
    Target("analysis.record", "repro.flow.pipeline", "record_jobs",
           _count_arg(2)),
    Target("model.select_gamma", "repro.flow.pipeline", "select_gamma"),
    Target("model.fit", "repro.flow.pipeline", "fit_predictor"),
    Target("slicing.slice", "repro.flow.pipeline", "build_slice"),
    Target("slicing.slice", "repro.flow.pipeline", "compute_slice_cost"),
    Target("flow.test_records", "repro.experiments.runner",
           "build_job_records", _count_arg(2)),
    Target("experiments.compare", "repro.experiments.schemes",
           "compare_schemes"),
    Target("runtime.episode", "repro.experiments.runner", "run_episode",
           _count_arg(1)),
    # serving
    Target("serve.stream", "repro.serve.server", "serve_streams"),
    Target("serve.drive", "repro.serve.vector", "drive_stream_vectorized"),
    Target("serve.epoch", "repro.serve.vector", "EpochEngine.run_epoch",
           _count_epoch, _epoch_window),
    Target("serve.offer", "repro.serve.server", "AcceleratorStream.offer"),
    Target("serve.drain", "repro.serve.server", "AcceleratorStream.drain"),
    Target("serve.batch", "repro.serve.server",
           "AcceleratorStream.run_batch", _count_batch),
    Target("serve.admit", "repro.serve.server", "AcceleratorStream.admit"),
    Target("serve.predict", "repro.serve.server", "SlicePredictor.predict",
           _count_predict),
    Target("serve.predict", "repro.serve.server",
           "SlicePredictor.predict_batch", _count_predict_batch),
    Target("serve.predict", "repro.serve.server",
           "RecordPredictor.predict", _count_call),
    Target("serve.fleet.serve", "repro.serve.fleet", "serve_fleet"),
    Target("serve.fleet.dispatch", "repro.serve.fleet",
           "FleetDispatcher.dispatch"),
)


def _resolve(target: Target):
    """``(owner, name, original)`` for a target, or ``None`` if gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Shims:
    """Install, record and remove the timing shims for one traced pass.

    Use as a context manager; spans and counters accumulate until the
    object is discarded.
    """

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.layers: List[str] = list(dict.fromkeys(
            t.layer for t in self.targets))
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(dict)
        self.status: Dict[str, str] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object, bool]] = []

    def __enter__(self) -> "Shims":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> Dict[str, str]:
        """Shim every resolvable target; returns layer -> status
        (``ok``, ``partial`` or ``absent``)."""
        found: Dict[str, List[bool]] = defaultdict(list)
        for target in self.targets:
            resolved = _resolve(target)
            found[target.layer].append(resolved is not None)
            if resolved is None:
                continue
            owner, name, original = resolved
            own = name in getattr(owner, "__dict__", {})
            shim = self._wrap(self.layers.index(target.layer), original,
                              self.counts[target.layer], target)
            setattr(owner, name, shim)
            self._saved.append((owner, name, original, own))
        self.status = {
            layer: ("ok" if all(hits) else
                    "absent" if not any(hits) else "partial")
            for layer, hits in found.items()}
        return self.status

    def uninstall(self) -> None:
        """Restore every shimmed attribute, innermost first."""
        for owner, name, original, own in reversed(self._saved):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._saved.clear()

    def _wrap(self, layer_id: int, fn, counts: Dict[str, float],
              target: Target):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count, before = target.count, target.before

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            pre = before(args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer_id, start, end, parent)
            if count is not None:
                count(counts, args, result, pre)
            return result

        return shim

    # -- analysis ------------------------------------------------------

    def calls(self) -> Dict[str, int]:
        """Completed calls per layer."""
        out = {layer: 0 for layer in self.layers}
        for span in self.spans:
            if span is not None:
                out[self.layers[span[0]]] += 1
        return out

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer, each span minus its children's spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {layer: 0.0 for layer in self.layers}
        for i, span in enumerate(self.spans):
            if span is not None:
                out[self.layers[span[0]]] += (span[2] - span[1]) - child[i]
        return out

    def to_json(self, origin: float) -> dict:
        """Spans as ``[layer, start_s, end_s, parent]`` relative to
        ``origin`` (the traced pass's start on the same clock)."""
        return {
            "layers": self.layers,
            "status": self.status,
            "spans": [[s[0], round(s[1] - origin, 7),
                       round(s[2] - origin, 7), s[3]]
                      for s in self.spans if s is not None],
        }

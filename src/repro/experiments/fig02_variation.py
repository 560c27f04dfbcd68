"""Fig 2: per-frame execution time of the H.264 decoder for three
clips (coastguard, foreman, news) at one resolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..rtl import make_simulation
from ..units import MS
from ..workloads.video import fig2_clips, generate_clip
from .runner import bundle_for
from .setup import default_config


@dataclass(frozen=True)
class Fig2Result:
    """Per-clip execution-time series in milliseconds."""

    series_ms: Dict[str, List[float]]

    @property
    def clips(self) -> List[str]:
        return list(self.series_ms)

    def spread(self, clip: str) -> float:
        """Max minus min execution time of a clip (ms)."""
        values = self.series_ms[clip]
        return max(values) - min(values)


def run(scale: Optional[float] = None,
        n_frames: Optional[int] = None) -> Fig2Result:
    """Simulate the three Fig 2 clips per frame."""
    if scale is None:
        scale = default_config().scale
    if n_frames is None:
        n_frames = max(int(round(100 * scale)), 10)
    bundle = bundle_for("h264", scale)
    f0 = bundle.design.nominal_frequency
    sim = make_simulation(bundle.package.module,
                          track_state_cycles=False)
    series: Dict[str, List[float]] = {}
    for spec in fig2_clips(n_frames):
        times = []
        for frame in generate_clip(spec):
            job = bundle.design.encode_job(frame)
            times.append(sim.run_job(*job.as_pair()).cycles / f0 / MS)
        series[spec.name] = times
    return Fig2Result(series_ms=series)


def to_text(result: Fig2Result) -> str:
    """Render the result the way the paper's figure reads."""
    lines = ["Fig 2: h264 per-frame execution time (ms) at nominal V/f"]
    for clip, values in result.series_ms.items():
        lines.append(
            f"  {clip:12s} n={len(values):4d} "
            f"min {min(values):5.2f}  avg {sum(values)/len(values):5.2f}  "
            f"max {max(values):5.2f}"
        )
    return "\n".join(lines)

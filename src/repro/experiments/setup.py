"""Canonical experimental configuration (Sec. 4.2 of the paper).

* deadline: 16.7 ms (60 fps screen refresh);
* ASIC: six voltage levels 1.0 -> 0.625 V; FPGA: seven, 1.0 -> 0.7 V;
* boost level: 1.08 V;
* DVFS switching time: 100 us (conservative, off-chip regulator);
* margins: 10% for the PID controller, 5% for prediction;
* workload scale: 1.0 reproduces the (laptop-sized) Table 3 workloads;
  override with the ``REPRO_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..units import DVFS_SWITCH_TIME, FRAME_DEADLINE_60FPS
from ..workloads import check_scale

PID_MARGIN = 0.10
PREDICTION_MARGIN = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared evaluation parameters."""

    deadline: float = FRAME_DEADLINE_60FPS
    t_switch: float = DVFS_SWITCH_TIME
    pid_margin: float = PID_MARGIN
    prediction_margin: float = PREDICTION_MARGIN
    scale: float = 1.0


def default_scale() -> float:
    """Workload scale, overridable via ``REPRO_SCALE``."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return 1.0
    try:
        return check_scale(float(raw))
    except ValueError as exc:
        raise ValueError(f"REPRO_SCALE={raw!r}: {exc}") from None


def default_config() -> ExperimentConfig:
    """The canonical configuration at the ambient workload scale."""
    return ExperimentConfig(scale=default_scale())

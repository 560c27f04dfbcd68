"""Discrete DVFS operating points (Sec. 4.2 of the paper).

ASIC accelerators use six equally-spaced voltage levels from 1.0 V down
to 0.625 V; FPGA accelerators use seven levels from 1.0 V to 0.7 V.
The optional boost level sits at 1.08 V and is only used by the boosted
predictive controller (Fig 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .vf_model import VoltageFrequencyModel

ASIC_VOLTAGES: tuple = (1.0, 0.925, 0.85, 0.775, 0.7, 0.625)
FPGA_VOLTAGES: tuple = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7)
BOOST_VOLTAGE = 1.08


@dataclass(frozen=True)
class OperatingPoint:
    """One (voltage, frequency) pair the accelerator can run at."""

    voltage: float
    frequency: float
    is_boost: bool = False

    def __post_init__(self) -> None:
        if self.voltage <= 0 or self.frequency <= 0:
            raise ValueError("voltage and frequency must be positive")


class LevelTable:
    """The discrete operating points of one accelerator.

    Points are kept sorted by ascending frequency.  ``nominal`` is the
    fastest non-boost point (the paper's baseline level).
    """

    def __init__(self, points: Sequence[OperatingPoint]):
        normal = sorted((p for p in points if not p.is_boost),
                        key=lambda p: p.frequency)
        boosts = sorted((p for p in points if p.is_boost),
                        key=lambda p: p.frequency)
        if not normal:
            raise ValueError("need at least one non-boost level")
        self.points: List[OperatingPoint] = normal
        self.boost: Optional[OperatingPoint] = boosts[-1] if boosts else None
        #: The index space every batched level decision addresses: the
        #: points in ascending frequency, then the boost point (index
        #: ``len(points)``) when the table has one.
        self.indexed: Tuple[OperatingPoint, ...] = tuple(normal) + (
            (self.boost,) if self.boost is not None else ())
        #: ``indexed``'s frequencies, which ``select_level_batch``
        #: searches.
        self.frequencies = np.array([p.frequency for p in self.indexed])
        #: Points are addressable by index only when no two share a
        #: (voltage, frequency, is_boost) value: true for every
        #: characterized table; a degenerate one keeps the scalar path.
        self.unique = len(set(self.indexed)) == len(self.indexed)
        self._index: Dict[OperatingPoint, int] = {
            p: i for i, p in enumerate(self.indexed)}

    def index_of(self, point: OperatingPoint) -> int:
        """The index of ``point`` in :attr:`indexed`."""
        return self._index[point]

    @property
    def nominal(self) -> OperatingPoint:
        return self.points[-1]

    @property
    def slowest(self) -> OperatingPoint:
        return self.points[0]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def lowest_meeting(self, f_required: float,
                       allow_boost: bool = False
                       ) -> Optional[OperatingPoint]:
        """The slowest point with frequency >= ``f_required``.

        Returns None when even the fastest allowed point falls short
        (the caller decides whether to run flat-out anyway).
        """
        for point in self.points:
            if point.frequency >= f_required:
                return point
        if allow_boost and self.boost is not None:
            if self.boost.frequency >= f_required:
                return self.boost
        return None

    def fastest(self, allow_boost: bool = False) -> OperatingPoint:
        """The fastest allowed point (boost when enabled and present)."""
        if allow_boost and self.boost is not None:
            return self.boost
        return self.nominal


def build_level_table(vf: VoltageFrequencyModel,
                      voltages: Sequence[float],
                      include_boost: bool = True,
                      boost_voltage: float = BOOST_VOLTAGE) -> LevelTable:
    """Build a level table by characterizing each voltage."""
    points = [
        OperatingPoint(voltage=v, frequency=vf.frequency_at(v))
        for v in voltages
    ]
    if include_boost:
        points.append(OperatingPoint(
            voltage=boost_voltage,
            frequency=vf.frequency_at(boost_voltage),
            is_boost=True,
        ))
    return LevelTable(points)

"""Seeded random helpers shared by the workload generators."""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, label: str) -> np.random.Generator:
    """A deterministic generator derived from a seed and a label.

    Labels keep independent aspects of a workload (sizes, content,
    noise) on independent streams so changing one does not reshuffle
    the others.  The derivation uses a *stable* hash (CRC32), never
    Python's per-process-salted ``hash``, so workloads are identical
    across runs and machines.
    """
    h = zlib.crc32(f"{seed}:{label}".encode("utf-8")) & 0x7FFFFFFF
    return np.random.default_rng(h)


def clipped_normal(rng: np.random.Generator, mean: float, sigma: float,
                   low: float, high: float) -> float:
    """One normal draw clipped into [low, high]."""
    return float(np.clip(rng.normal(mean, sigma), low, high))


def clipped_normal_int(rng: np.random.Generator, mean: float, sigma: float,
                       low: int, high: int) -> int:
    """A clipped normal draw rounded to int."""
    return int(round(clipped_normal(rng, mean, sigma, low, high)))

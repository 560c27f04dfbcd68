"""Per-benchmark train/test workloads (Table 3 of the paper).

``scale`` shrinks or grows job counts uniformly (1.0 reproduces the
structure of Table 3 at a laptop-friendly size: the paper's 600/1500
h264 frames become 200/300, everything else keeps its 100/200-job
shape).  Train and test sets always use disjoint random seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List

from .datastream import generate_pieces
from .images import generate_images, generate_raw_images
from .particles import generate_trajectory
from .video import generate_clips, test_clips, train_clips

ALL_BENCHMARKS = ("h264", "cjpeg", "djpeg", "md", "stencil", "aes", "sha")


@dataclass(frozen=True)
class BenchmarkWorkload:
    """Train and test item lists for one benchmark."""

    name: str
    train: List[Any]
    test: List[Any]
    train_description: str
    test_description: str


def check_scale(scale: float) -> float:
    """Return ``scale`` if it is a workload scale: finite and > 0.

    A zero or negative scale would silently build floor-sized
    workloads, and NaN or infinity cannot be rounded to a job count.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and > 0, got {scale!r}")
    return scale


def _count(base: int, scale: float, floor: int = 8) -> int:
    return max(int(round(base * scale)), floor)


def workload_for(name: str, scale: float = 1.0) -> BenchmarkWorkload:
    """Build the Table 3 workload for one benchmark."""
    check_scale(scale)
    if name == "h264":
        n_train = _count(100, scale)
        n_test = _count(60, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_clips(train_clips(n_train)),
            test=generate_clips(test_clips(n_test)),
            train_description=f"2 videos ({2 * n_train} frames, same size)",
            test_description=f"5 videos ({5 * n_test} frames, same size)",
        )
    if name == "cjpeg":
        n = _count(100, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_images(n, seed=311, min_dim_blocks=12,
                                  max_dim_blocks=48),
            test=generate_images(n, seed=312, min_dim_blocks=12,
                                 max_dim_blocks=48),
            train_description=f"{n} images (various sizes)",
            test_description=f"{n} images (various sizes)",
        )
    if name == "djpeg":
        n = _count(100, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_images(n, seed=321, min_dim_blocks=18,
                                  max_dim_blocks=45),
            test=generate_images(n, seed=322, min_dim_blocks=18,
                                 max_dim_blocks=45),
            train_description=f"{n} images (various sizes)",
            test_description=f"{n} images (various sizes)",
        )
    if name == "md":
        n = _count(200, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_trajectory(n, seed=331),
            test=generate_trajectory(n, seed=332),
            train_description=f"{n} steps (particle pos. changes)",
            test_description=f"{n} steps (particle pos. changes)",
        )
    if name == "stencil":
        n = _count(100, scale)
        return BenchmarkWorkload(
            name=name,
            train=generate_raw_images(n, seed=341),
            test=generate_raw_images(n, seed=342),
            train_description=f"{n} images (various sizes)",
            test_description=f"{n} images (various sizes)",
        )
    if name == "aes":
        n = _count(100, scale)
        mb = 1024 * 1024
        return BenchmarkWorkload(
            name=name,
            train=generate_pieces(n, seed=351, min_bytes=mb,
                                  max_bytes=int(6.35 * mb)),
            test=generate_pieces(n, seed=352, min_bytes=mb,
                                 max_bytes=int(6.35 * mb)),
            train_description=f"{n} pieces of data (various sizes)",
            test_description=f"{n} pieces of data (various sizes)",
        )
    if name == "sha":
        n = _count(100, scale)
        kb = 1024
        return BenchmarkWorkload(
            name=name,
            train=generate_pieces(n, seed=361, min_bytes=400 * kb,
                                  max_bytes=5000 * kb),
            test=generate_pieces(n, seed=362, min_bytes=400 * kb,
                                 max_bytes=5000 * kb),
            train_description=f"{n} pieces of data (various sizes)",
            test_description=f"{n} pieces of data (various sizes)",
        )
    raise KeyError(f"unknown benchmark {name!r}; "
                   f"choose from {ALL_BENCHMARKS}")

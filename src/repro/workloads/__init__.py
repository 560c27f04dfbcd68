"""Synthetic workload generators (Table 3 of the paper)."""

from .datastream import DataPiece, generate_pieces
from .images import Image, RawImage, Strip, generate_images, generate_raw_images
from .particles import N_PARTICLES, Timestep, generate_trajectory
from .registry import ALL_BENCHMARKS, BenchmarkWorkload, check_scale, \
    workload_for
from .video import (
    ClipSpec,
    Frame,
    MacroblockDesc,
    fig2_clips,
    generate_clip,
    generate_clips,
    test_clips,
    train_clips,
)

__all__ = [
    "ALL_BENCHMARKS", "BenchmarkWorkload", "ClipSpec", "DataPiece", "Frame",
    "check_scale",
    "Image", "MacroblockDesc", "N_PARTICLES", "RawImage", "Strip",
    "Timestep", "fig2_clips", "generate_clip", "generate_clips",
    "generate_images", "generate_pieces", "generate_raw_images",
    "generate_trajectory", "test_clips", "train_clips", "workload_for",
]

"""Workload generator tests: determinism, ranges, statistics."""

import numpy as np
import pytest

from repro.workloads import (
    ALL_BENCHMARKS,
    fig2_clips,
    generate_clip,
    generate_images,
    generate_pieces,
    generate_raw_images,
    generate_trajectory,
    workload_for,
)
from repro.workloads.rng import clipped_normal_int, stream
from repro.workloads.video import MAX_COEFFS


def test_stream_is_deterministic_and_label_separated():
    a1 = stream(1, "x").integers(0, 1000, 10)
    a2 = stream(1, "x").integers(0, 1000, 10)
    b = stream(1, "y").integers(0, 1000, 10)
    assert a1.tolist() == a2.tolist()
    assert a1.tolist() != b.tolist()


def test_clipped_normal_int_respects_bounds():
    rng = stream(3, "c")
    values = [clipped_normal_int(rng, 50, 100, 0, 60) for _ in range(200)]
    assert min(values) >= 0 and max(values) <= 60


def test_clip_generation_deterministic():
    spec = fig2_clips(10)[0]
    a = generate_clip(spec)
    b = generate_clip(spec)
    assert a == b


def test_clip_frame_structure():
    spec = fig2_clips(30)[1]
    frames = generate_clip(spec)
    assert len(frames) == 30
    assert frames[0].is_scene_cut  # frame 0 is always an I-frame
    for frame in frames:
        assert len(frame.mbs) == spec.mb_count
        for mb in frame.mbs:
            assert 0 <= mb.mb_type <= 2
            assert 0 <= mb.n_coeffs <= MAX_COEFFS
            assert 0 <= mb.mv_frac <= 2
            if mb.mb_type != 1:
                assert mb.mv_frac == 0  # only inter MBs carry vectors


def test_clips_have_distinct_complexity():
    """coastguard is heavier than news (the Fig 2 separation)."""
    clips = {s.name: generate_clip(s) for s in fig2_clips(40)}

    def mean_coeffs(frames):
        return np.mean([
            mb.n_coeffs for f in frames for mb in f.mbs
        ])

    assert mean_coeffs(clips["coastguard"]) > mean_coeffs(clips["news"]) + 10


def test_scene_cut_frames_are_intra_heavy():
    spec = fig2_clips(60)[2]  # news has cuts
    frames = generate_clip(spec)
    cuts = [f for f in frames if f.is_scene_cut]
    assert cuts
    for frame in cuts:
        assert all(mb.mb_type == 0 for mb in frame.mbs)


def test_images_sizes_and_fields():
    images = generate_images(50, seed=9, min_dim_blocks=10,
                             max_dim_blocks=40)
    assert len(images) == 50
    for img in images:
        assert 10 <= img.width_blocks <= 40
        assert 10 <= img.height_blocks <= 40
        assert len(img.strips) == img.height_blocks
        for strip in img.strips:
            assert strip.n_blocks == img.width_blocks
            assert 0 <= strip.nnz_total <= 63 * strip.n_blocks
    sizes = {img.size_class for img in images}
    assert len(sizes) > 1  # various sizes => several table classes


def test_images_autocorrelated_with_jumps():
    images = generate_images(300, seed=5)
    logs = np.log([img.n_blocks for img in images])
    rho = np.corrcoef(logs[:-1], logs[1:])[0, 1]
    assert 0.3 < rho < 0.97  # correlated but not constant


def test_raw_images_bounds():
    images = generate_raw_images(40, seed=2)
    for img in images:
        assert 256 <= img.rows <= 784
        assert 256 <= img.cols <= 784
        assert img.kernel in (0, 1, 2)


def test_trajectory_shapes_and_dynamics():
    steps = generate_trajectory(120, seed=4)
    assert len(steps) == 120
    totals = np.array([s.total_pairs for s in steps])
    assert (totals > 0).all()
    # Slowly varying: consecutive steps correlate strongly.
    rho = np.corrcoef(totals[:-1], totals[1:])[0, 1]
    assert rho > 0.8
    # But the range is wide (cluster merges / dispersal).
    assert totals.max() > 2.5 * totals.min()


def test_pieces_bounds_and_modes():
    pieces = generate_pieces(100, seed=8, min_bytes=1000, max_bytes=100000)
    for piece in pieces:
        assert 1000 <= piece.n_bytes <= 100000
        assert piece.mode in (0, 1)
    assert any(p.key256 for p in pieces)
    assert any(not p.key256 for p in pieces)


def test_piece_size_sessions_correlate():
    pieces = generate_pieces(300, seed=3, min_bytes=10_000,
                             max_bytes=10_000_000)
    logs = np.log([p.n_bytes for p in pieces])
    rho = np.corrcoef(logs[:-1], logs[1:])[0, 1]
    assert rho > 0.3


def test_workload_registry_covers_all_benchmarks():
    for name in ALL_BENCHMARKS:
        workload = workload_for(name, scale=0.1)
        assert workload.train and workload.test
        assert workload.train_description
    with pytest.raises(KeyError, match="unknown benchmark"):
        workload_for("npu")


def test_workload_scale_controls_counts():
    small = workload_for("cjpeg", scale=0.1)
    large = workload_for("cjpeg", scale=0.5)
    assert len(large.test) > len(small.test)


def test_train_and_test_sets_differ():
    workload = workload_for("aes", scale=0.3)
    train_sizes = [p.n_bytes for p in workload.train]
    test_sizes = [p.n_bytes for p in workload.test]
    assert train_sizes != test_sizes

"""Ablation benches: the design knobs DESIGN.md calls out."""

from repro.experiments import ablations


def test_ablation_alpha(benchmark, prewarmed, save_result):
    points = benchmark.pedantic(ablations.alpha_sweep, rounds=1,
                                iterations=1)
    lines = ["alpha  under%  miss%  energy%"]
    for p in points:
        lines.append(f"{p.alpha:5.0f} {p.under_rate_pct:7.1f} "
                     f"{p.miss_rate_pct:6.2f} "
                     f"{p.normalized_energy_pct:8.1f}")
    save_result("ablation_alpha", "\n".join(lines))
    # Larger alpha -> fewer under-predictions (the objective's purpose).
    assert points[0].under_rate_pct >= points[-1].under_rate_pct
    # And it does not rise from symmetric to alpha=100 (the committed
    # sweep shows it flat).
    assert points[-1].under_rate_pct < points[0].under_rate_pct + 1e-9


def test_ablation_gamma(benchmark, prewarmed, save_result):
    points = benchmark.pedantic(ablations.gamma_sweep, rounds=1,
                                iterations=1)
    lines = ["gamma  n_feat  err%  slice_area%"]
    for p in points:
        lines.append(f"{p.gamma:7.0e} {p.n_features:6d} "
                     f"{p.mean_abs_error_pct:6.2f} "
                     f"{p.slice_area_fraction * 100:8.2f}")
    save_result("ablation_gamma", "\n".join(lines))
    # The strongest penalty keeps fewer features than the weakest and
    # costs accuracy.
    assert points[-1].n_features <= points[0].n_features
    assert points[-1].mean_abs_error_pct >= points[0].mean_abs_error_pct


def test_ablation_margin(benchmark, prewarmed, save_result):
    points = benchmark.pedantic(ablations.margin_sweep, rounds=1,
                                iterations=1)
    lines = ["margin%  miss%  energy%"]
    for p in points:
        lines.append(f"{p.margin_pct:7.1f} {p.miss_rate_pct:6.2f} "
                     f"{p.normalized_energy_pct:8.1f}")
    save_result("ablation_margin", "\n".join(lines))
    # More margin -> monotone energy increase, never more misses.
    energies = [p.normalized_energy_pct for p in points]
    assert all(a <= b + 1e-9 for a, b in zip(energies, energies[1:]))
    assert points[-1].miss_rate_pct <= points[0].miss_rate_pct


def test_ablation_switching_time(benchmark, prewarmed, save_result):
    points = benchmark.pedantic(ablations.switching_time_sweep, rounds=1,
                                iterations=1)
    lines = ["t_switch_us  miss%  energy%"]
    for p in points:
        lines.append(f"{p.t_switch_us:11.2f} {p.miss_rate_pct:6.2f} "
                     f"{p.normalized_energy_pct:8.1f}")
    save_result("ablation_switching", "\n".join(lines))
    # ns-scale switching (Sec 4.2's faster regulators) saves energy
    # relative to the conservative 100us+ setting.
    assert (points[0].normalized_energy_pct
            <= points[-1].normalized_energy_pct + 1e-9)


def test_ablation_wait_elision(benchmark, prewarmed, save_result):
    result = benchmark.pedantic(ablations.elision_benefit, rounds=1,
                                iterations=1)
    save_result("ablation_elision", (
        f"{result.benchmark}: slice cycles with elision "
        f"{result.slice_cycles_with_elision}, without "
        f"{result.slice_cycles_without_elision} "
        f"(speedup {result.speedup:.1f}x)"
    ))
    # Sec 3.5: without elision the slice is no faster than the job.
    assert result.speedup > 5.0


def test_ablation_quantization(benchmark, prewarmed, save_result):
    """Fixed-point predictor coefficients (the hardware MAC reality)."""
    import numpy as np

    from repro.experiments import bundle_for
    from repro.model.quantize import quantization_sweep

    bundle = bundle_for("h264")
    x = np.array([r.features for r in bundle.test_records])

    def sweep():
        return quantization_sweep(bundle.package.predictor, x,
                                  fraction_bits=(0, 2, 4, 8, 12))

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["fraction_bits  max_pct_delta_vs_float"]
    for bits, err in points:
        lines.append(f"{bits:13d}  {err:12.4f}")
    save_result("ablation_quantization", "\n".join(lines))
    by_bits = dict(points)
    # 8 fraction bits reproduce the float model to well under 0.5%.
    assert by_bits[8] < 0.5
    assert by_bits[12] <= by_bits[0]

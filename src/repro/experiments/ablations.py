"""Ablation studies on the framework's design choices.

These go beyond the paper's figures and quantify the knobs DESIGN.md
calls out; each is the experiment ``ablation-<study>``, which
:func:`run` and :func:`to_text` compute and print:

* ``alpha_sweep`` — the under-prediction penalty weight of the convex
  objective vs. miss rate and energy;
* ``gamma_sweep`` — the Lasso weight vs. feature count, accuracy and
  slice area;
* ``margin_sweep`` — the prediction margin vs. misses and energy;
* ``switching_sweep`` — DVFS switching overhead (the paper's
  Sec. 4.2 notes ns-scale switching exists in the literature);
* ``elision_sweep`` — slice execution time with vs. without the
  wait-state elision optimization of Sec. 3.5;
* ``quantization_sweep`` — fixed-point predictor coefficients (the
  hardware MAC) vs. the float model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..analysis import FeatureSet
from ..dvfs import PredictiveController
from ..model import (
    PredictionReport,
    TrainingConfig,
    fit_predictor,
    quantize,
)
from ..rtl import make_simulation, tech
from ..rtl.transform import derive_module
from ..runtime import run_episode
from ..slicing import build_slice
from .runner import BenchmarkBundle, bundle_for, run_scheme, tech_context
from .setup import default_config


def _records_with_predictor(bundle: BenchmarkBundle, predictor
                            ) -> List:
    """Re-predict stored test records from their recorded features.

    Slice cycle counts are kept from the reference slice — the ablated
    model would select a slightly different slice, but its runtime is
    dominated by feeds-control work that never changes.
    """
    out = []
    for record in bundle.test_records:
        predicted = max(predictor.predict_one(record.features), 0.0)
        out.append(replace(record, predicted_cycles=predicted))
    return out


def _episode_with_records(ctx, records, scheme: str = "prediction"):
    from .fig18_hls import TechRecords
    return run_scheme(TechRecords(ctx, records), scheme)


@dataclass(frozen=True)
class AlphaPoint:
    alpha: float
    under_rate_pct: float      # fraction of jobs under-predicted
    miss_rate_pct: float
    normalized_energy_pct: float

    HEADER = "alpha  under%  miss%  energy%"
    ROW = ("{0.alpha:5.0f} {0.under_rate_pct:7.1f} {0.miss_rate_pct:6.2f} "
           "{0.normalized_energy_pct:8.1f}")


def alpha_sweep(benchmark: str = "djpeg",
                alphas: Sequence[float] = (1.0, 2.0, 8.0, 30.0, 100.0),
                scale: Optional[float] = None) -> List[AlphaPoint]:
    """Retrain with different under-prediction weights; replay DVFS."""
    bundle = bundle_for(benchmark, scale)
    ctx = tech_context(bundle, tech="asic")
    baseline = run_scheme(ctx, "baseline")
    points = []
    for alpha in alphas:
        model = fit_predictor(bundle.package.train_matrix,
                              TrainingConfig(alpha=alpha, gamma=1e-4))
        records = _records_with_predictor(bundle, model.predictor)
        predicted = np.array([r.predicted_cycles for r in records])
        actual = np.array([float(r.actual_cycles) for r in records])
        report = PredictionReport.from_predictions(predicted, actual)
        episode = _episode_with_records(ctx, records)
        points.append(AlphaPoint(
            alpha=alpha,
            under_rate_pct=report.under_rate * 100,
            miss_rate_pct=episode.miss_rate * 100,
            normalized_energy_pct=episode.normalized_energy(baseline) * 100,
        ))
    return points


@dataclass(frozen=True)
class GammaPoint:
    gamma: float
    n_features: int
    mean_abs_error_pct: float
    slice_area_pct: float      # slice area, % of the full design's

    HEADER = "gamma  n_feat  err%  slice_area%"
    ROW = ("{0.gamma:7.0e} {0.n_features:6d} {0.mean_abs_error_pct:6.2f} "
           "{0.slice_area_pct:8.2f}")


def gamma_sweep(benchmark: str = "h264",
                gammas: Sequence[float] = (1e-6, 1e-4, 1e-3, 1e-2, 1e-1),
                scale: Optional[float] = None) -> List[GammaPoint]:
    """Sparsity/accuracy/area trade-off along the Lasso path."""
    bundle = bundle_for(benchmark, scale)
    package = bundle.package
    full_area = tech.asic_area(package.netlist)
    points = []
    for gamma in gammas:
        model = fit_predictor(package.train_matrix,
                              TrainingConfig(alpha=8.0, gamma=gamma))
        records = _records_with_predictor(bundle, model.predictor)
        predicted = np.array([r.predicted_cycles for r in records])
        actual = np.array([float(r.actual_cycles) for r in records])
        report = PredictionReport.from_predictions(predicted, actual)
        selected = [package.feature_set.specs[i]
                    for i in model.predictor.selected_indices]
        hw_slice = build_slice(package.module, FeatureSet(selected))
        points.append(GammaPoint(
            gamma=gamma,
            n_features=model.predictor.n_terms,
            mean_abs_error_pct=report.mean_abs_pct,
            slice_area_pct=tech.asic_area(hw_slice.netlist) / full_area
            * 100,
        ))
    return points


@dataclass(frozen=True)
class MarginPoint:
    margin_pct: float
    miss_rate_pct: float
    normalized_energy_pct: float

    HEADER = "margin%  miss%  energy%"
    ROW = ("{0.margin_pct:7.1f} {0.miss_rate_pct:6.2f} "
           "{0.normalized_energy_pct:8.1f}")


def margin_sweep(benchmark: str = "md",
                 margins: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.15),
                 scale: Optional[float] = None) -> List[MarginPoint]:
    """Prediction margin vs misses and energy (paper uses 5%)."""
    bundle = bundle_for(benchmark, scale)
    ctx = tech_context(bundle, tech="asic")
    baseline = run_scheme(ctx, "baseline")
    config = default_config()
    points = []
    for margin in margins:
        controller = PredictiveController(ctx.levels, config.t_switch,
                                          margin=margin)
        episode = run_episode(
            controller, bundle.test_records, ctx.task(),
            ctx.energy_model, slice_energy_model=ctx.slice_energy_model,
            t_switch=config.t_switch,
        )
        points.append(MarginPoint(
            margin_pct=margin * 100,
            miss_rate_pct=episode.miss_rate * 100,
            normalized_energy_pct=episode.normalized_energy(baseline) * 100,
        ))
    return points


@dataclass(frozen=True)
class SwitchPoint:
    t_switch_us: float
    miss_rate_pct: float
    normalized_energy_pct: float

    HEADER = "t_switch_us  miss%  energy%"
    ROW = ("{0.t_switch_us:11.2f} {0.miss_rate_pct:6.2f} "
           "{0.normalized_energy_pct:8.1f}")


def switching_sweep(benchmark: str = "md",
                    times_us: Sequence[float] = (0.05, 1.0, 10.0, 100.0,
                                                 500.0),
                    scale: Optional[float] = None) -> List[SwitchPoint]:
    """Faster regulators (Sec. 4.2's ns-scale switching) vs 100 us."""
    bundle = bundle_for(benchmark, scale)
    ctx = tech_context(bundle, tech="asic")
    config = default_config()
    points = []
    for t_us in times_us:
        t_switch = t_us * 1e-6
        controller = PredictiveController(ctx.levels, t_switch,
                                          margin=config.prediction_margin)
        baseline = run_scheme(ctx, "baseline")
        episode = run_episode(
            controller, bundle.test_records, ctx.task(),
            ctx.energy_model, slice_energy_model=ctx.slice_energy_model,
            t_switch=t_switch,
        )
        points.append(SwitchPoint(
            t_switch_us=t_us,
            miss_rate_pct=episode.miss_rate * 100,
            normalized_energy_pct=episode.normalized_energy(baseline) * 100,
        ))
    return points


@dataclass(frozen=True)
class ElisionResult:
    benchmark: str
    slice_cycles_with_elision: int
    slice_cycles_without_elision: int

    @property
    def speedup(self) -> float:
        return (self.slice_cycles_without_elision
                / max(self.slice_cycles_with_elision, 1))

    ROW = ("{0.benchmark}: slice cycles with elision "
           "{0.slice_cycles_with_elision}, without "
           "{0.slice_cycles_without_elision} (speedup {0.speedup:.1f}x)")


def elision_sweep(benchmark: str = "h264", scale: Optional[float] = None,
                  n_jobs: int = 3) -> ElisionResult:
    """Slice runtime with and without wait-state elision (Sec. 3.5).

    The un-elided variant keeps every wait state (the FSM "still waits
    ... as if the original computation is still taking place").
    """
    bundle = bundle_for(benchmark, scale)
    package = bundle.package
    hw_slice = package.hw_slice

    unelided = derive_module(
        package.module,
        name=f"{benchmark}__slice_unelided",
        drop_dynamic=hw_slice.elided_dynamic,  # opaque stalls still go
        drop_datapath=True,
    )
    elided = make_simulation(hw_slice.module, track_state_cycles=False)
    kept = make_simulation(unelided, track_state_cycles=False)
    with_e = without_e = 0
    for item in bundle.workload.test[:n_jobs]:
        job = bundle.design.encode_job(item).as_pair()
        with_e += elided.run_job(*job).cycles
        without_e += kept.run_job(*job).cycles
    return ElisionResult(
        benchmark=benchmark,
        slice_cycles_with_elision=with_e,
        slice_cycles_without_elision=without_e,
    )


class QuantizationPoint(NamedTuple):
    fraction_bits: int
    max_pct_delta: float       # worst |fixed - float| over the test set, %

    HEADER = "fraction_bits  max_pct_delta_vs_float"
    ROW = "{0.fraction_bits:13d}  {0.max_pct_delta:12.4f}"


def quantization_sweep(benchmark: str = "h264",
                       fraction_bits: Sequence[int] = (0, 2, 4, 8, 12),
                       scale: Optional[float] = None
                       ) -> List[QuantizationPoint]:
    """The trained predictor with fixed-point coefficients (what the
    hardware MAC holds) against the float model, on the test set."""
    bundle = bundle_for(benchmark, scale)
    x = np.array([r.features for r in bundle.test_records])
    points = quantize.quantization_sweep(bundle.package.predictor, x,
                                         fraction_bits)
    return [QuantizationPoint(*point) for point in points]


def run(scale: Optional[float] = None, study: str = "alpha"):
    """The ``ablation-<study>`` result: ``<study>_sweep`` at ``scale``."""
    return globals()[f"{study}_sweep"](scale=scale)


def to_text(result, study: str = "alpha") -> str:
    """A sweep's header over one ``ROW`` per point (elision's result is
    one row)."""
    if isinstance(result, ElisionResult):
        return result.ROW.format(result)
    return "\n".join([result[0].HEADER, *(p.ROW.format(p) for p in result)])

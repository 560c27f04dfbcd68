"""Training pipeline: standardize, solve, select, refit.

The pipeline mirrors Sec. 3.4 end to end:

1. standardize features and scale the target (numerical conditioning —
   the returned predictor is mapped back to raw feature space);
2. minimize the asymmetric + L1 objective (Lasso feature selection);
3. *refit* on the selected features with the L1 term dropped, keeping
   the asymmetric loss.  Refitting removes Lasso shrinkage, which would
   otherwise bias predictions low — dangerous in a deadline context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..analysis.features import FeatureMatrix
from ..obs import get_observer
from .linear import LinearPredictor
from .objective import make_objective
from .solver import SolveResult, solve_batch


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the predictor training flow.

    ``alpha`` is the paper's under-prediction weight; ``gamma`` the L1
    weight (``None`` selects it automatically via the Lasso path, see
    :mod:`repro.model.lasso`).  ``gamma`` is expressed per training
    sample (it is multiplied by ``n_jobs`` internally) so one value
    works across workload sizes.
    """

    alpha: float = 8.0
    gamma: Optional[float] = 3e-4
    refit: bool = True
    max_iter: int = 4000
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError(f"alpha must be a finite number >= 1, "
                             f"got {self.alpha}")
        if self.gamma is not None and not (math.isfinite(self.gamma)
                                           and self.gamma >= 0.0):
            raise ValueError(f"gamma must be a finite number >= 0, "
                             f"got {self.gamma}")


@dataclass
class Standardizer:
    """Feature standardization with constant-column protection."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0) if x.size else np.zeros(x.shape[1])
        scale = x.std(axis=0) if x.size else np.ones(x.shape[1])
        scale = np.where(scale < 1e-12, 1.0, scale)
        return cls(mean=mean, scale=scale)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Standardize features with the fitted statistics."""
        return (x - self.mean) / self.scale


@dataclass
class TrainedModel:
    """A fitted predictor plus training diagnostics."""

    predictor: LinearPredictor
    gamma: float
    alpha: float
    solve_info: SolveResult
    n_candidate_features: int

    @property
    def n_selected_features(self) -> int:
        return self.predictor.n_terms


def fit_predictor(matrix: FeatureMatrix,
                  config: TrainingConfig = TrainingConfig()
                  ) -> TrainedModel:
    """Train the execution-time predictor on a feature matrix."""
    if matrix.n_jobs < 2:
        raise ValueError("need at least two training jobs")
    [fit] = _lasso_fits(matrix, [config])
    if config.refit:
        selected = _nonzero(fit.beta)
        if selected:
            fit = _refit(matrix, config, selected)
    return _trained_model(matrix, config, fit)


@dataclass
class _Fit:
    """One standardized-space solve, as wide as the feature matrix."""

    beta: np.ndarray
    intercept: float
    std: Standardizer
    y_scale: float
    info: SolveResult


def _lasso_fits(matrix: FeatureMatrix,
                configs: Sequence[TrainingConfig]) -> List[_Fit]:
    # The L1-penalized selection solves over every candidate feature,
    # one per config.  The configs differ only in gamma, so the solves
    # share one standardized design and run as one lockstep batch.
    if not configs:
        return []
    first = configs[0]
    gammas = [(c.gamma if c.gamma is not None else 0.0) * matrix.n_jobs
              for c in configs]
    return _solve_standardized(matrix.x, matrix.cycles, first.alpha,
                               gammas, first.max_iter, first.tol)


def _refit(matrix: FeatureMatrix, config: TrainingConfig,
           selected: List[int]) -> _Fit:
    # The unpenalized solve on the selected columns, widened back to
    # every candidate feature.  It depends on the selection and the
    # matrix, not on gamma, so gamma points that select the same
    # features can share one.
    [fit] = _solve_standardized(matrix.x[:, selected], matrix.cycles,
                                config.alpha, [0.0], config.max_iter,
                                config.tol)
    beta = np.zeros(matrix.n_features)
    beta[selected] = fit.beta
    # Rebuild a full-width standardizer view for the mapping.
    full_mean = np.zeros(matrix.n_features)
    full_scale = np.ones(matrix.n_features)
    full_mean[selected] = fit.std.mean
    full_scale[selected] = fit.std.scale
    return _Fit(beta, fit.intercept, Standardizer(full_mean, full_scale),
                fit.y_scale, fit.info)


def _trained_model(matrix: FeatureMatrix, config: TrainingConfig,
                   fit: _Fit) -> TrainedModel:
    # Map a standardized-space fit back to raw feature space.
    std = fit.std
    coeffs = fit.beta / std.scale * fit.y_scale
    intercept = (fit.intercept - float(fit.beta @ (std.mean / std.scale))
                 ) * fit.y_scale
    predictor = LinearPredictor(
        feature_names=tuple(matrix.feature_set.names()),
        coeffs=coeffs,
        intercept=intercept,
    )
    return TrainedModel(
        predictor=predictor,
        gamma=config.gamma if config.gamma is not None else 0.0,
        alpha=config.alpha,
        solve_info=fit.info,
        n_candidate_features=matrix.n_features,
    )


def _solve_standardized(x: np.ndarray, y: np.ndarray, alpha: float,
                        gammas: Sequence[float], max_iter: int,
                        tol: float) -> List[_Fit]:
    """Solve in standardized space, one fit per gamma, as one batch.

    Every training solve passes here, so this is where the
    ``flow.fit.*`` work counters are kept.
    """
    std = Standardizer.fit(x)
    xs = std.transform(x)
    y_scale = float(np.mean(np.abs(y)))
    if y_scale < 1e-12:
        y_scale = 1.0
    ys = y / y_scale
    design = np.hstack([xs, np.ones((xs.shape[0], 1))])
    infos = solve_batch(
        [make_objective(design, ys, alpha=alpha, gamma=gamma,
                        intercept_col=design.shape[1] - 1)
         for gamma in gammas],
        max_iter=max_iter, tol=tol)
    observer = get_observer()
    if observer is not None:
        iterations = [info.iterations for info in infos]
        observer.metrics.inc("flow.fit.solves", len(infos))
        observer.metrics.inc("flow.fit.iterations", sum(iterations))
        observer.metrics.inc("flow.fit.steps", max(iterations))
        observer.metrics.inc("flow.fit.unconverged",
                             sum(not info.converged for info in infos))
    return [_Fit(info.beta[:-1], float(info.beta[-1]), std, y_scale, info)
            for info in infos]


def _nonzero(beta: np.ndarray, rel_tol: float = 1e-6) -> List[int]:
    scale = float(np.max(np.abs(beta))) if beta.size else 0.0
    if scale == 0.0:
        return []
    return [i for i, b in enumerate(beta) if abs(b) > scale * rel_tol]

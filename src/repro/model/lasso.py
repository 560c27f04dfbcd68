"""Lasso path utilities: choosing the L1 weight gamma.

The paper sets gamma "empirically ... to reduce the number of non-zero
coefficients without impacting modeling accuracy too much".  This
module automates that: sweep gamma over a grid, measure held-out
accuracy and feature count at each point, and pick the sparsest model
whose validation error is within a tolerance of the best.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.features import FeatureMatrix
from .training import (
    TrainingConfig,
    _lasso_fits,
    _nonzero,
    _refit,
    _trained_model,
)


@dataclass(frozen=True)
class PathPoint:
    """One point of the Lasso path."""

    gamma: float
    n_features: int
    val_error: float  # mean |pct error| on the validation split


DEFAULT_GAMMAS: Tuple[float, ...] = tuple(
    float(g) for g in np.logspace(-6, -1, 11)
)


def _split(matrix: FeatureMatrix, val_fraction: float,
           seed: int) -> Tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    n = matrix.n_jobs
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    if len(train_idx) < 2:
        raise ValueError("not enough jobs to split for gamma selection")
    train = FeatureMatrix(matrix.feature_set, matrix.x[train_idx],
                          matrix.cycles[train_idx])
    return train, matrix.x[val_idx], matrix.cycles[val_idx]


def lasso_path(matrix: FeatureMatrix, alpha: float = 8.0,
               gammas: Sequence[float] = DEFAULT_GAMMAS,
               val_fraction: float = 0.25,
               seed: int = 0,
               workers: Optional[int] = None) -> List[PathPoint]:
    """Fit at every gamma; report sparsity and held-out error.

    Each point is :func:`~repro.model.training.fit_predictor` on the
    same train split, scored on the held-out split.  The gamma points'
    Lasso problems share the split's standardized design and differ
    only in gamma, so they run in process as one lockstep batch
    (:func:`~repro.model.solver.solve_batch`).  A point's refit depends
    only on the features its Lasso solve selects, so the path then runs
    one refit per distinct non-empty selection; the refits are
    independent, so ``workers > 1`` distributes them over a process
    pool (``workers=None`` follows the ambient ``--jobs``/``REPRO_JOBS``
    setting).  The returned path is identical to a serial run.
    """
    from ..parallel import pmap

    train, x_val, y_val = _split(matrix, val_fraction, seed)
    configs = [TrainingConfig(alpha=alpha, gamma=gamma) for gamma in gammas]
    fits = _lasso_fits(train, configs)
    selections = [tuple(_nonzero(fit.beta)) for fit in fits]
    distinct = list(dict.fromkeys(s for s in selections if s))
    refit = functools.partial(_refit, train,
                              TrainingConfig(alpha=alpha, gamma=0.0))
    refits = dict(zip(distinct, pmap(
        refit, [list(s) for s in distinct], jobs=workers,
        label="lasso_path.refit.pmap")))
    points = []
    for config, fit, selected in zip(configs, fits, selections):
        # An empty selection keeps the Lasso fit, as fit_predictor does.
        model = _trained_model(train, config, refits.get(selected, fit))
        pred = model.predictor.predict(x_val)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.abs(pred - y_val) / np.maximum(y_val, 1e-12) * 100.0
        points.append(PathPoint(
            gamma=config.gamma,
            n_features=model.n_selected_features,
            val_error=float(np.mean(pct)),
        ))
    return points


def select_gamma(matrix: FeatureMatrix, alpha: float = 8.0,
                 gammas: Sequence[float] = DEFAULT_GAMMAS,
                 accuracy_slack: float = 0.5,
                 val_fraction: float = 0.25,
                 seed: int = 0,
                 workers: Optional[int] = None
                 ) -> Tuple[float, List[PathPoint]]:
    """Pick the sparsest gamma within ``accuracy_slack`` (percentage
    points of mean error) of the best point on the path."""
    points = lasso_path(matrix, alpha=alpha, gammas=gammas,
                        val_fraction=val_fraction, seed=seed,
                        workers=workers)
    best = min(p.val_error for p in points)
    eligible = [p for p in points if p.val_error <= best + accuracy_slack]
    chosen = min(eligible, key=lambda p: (p.n_features, -p.gamma))
    return chosen.gamma, points

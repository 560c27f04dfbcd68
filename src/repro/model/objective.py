"""The paper's convex training objective (Sec. 3.4).

.. math::

    \\min_\\beta \\; \\|pos(X\\beta - y)\\|^2
        + \\alpha \\|neg(X\\beta - y)\\|^2
        + \\gamma \\|\\beta\\|_1

with :math:`pos(x) = max(x, 0)`, :math:`neg(x) = max(-x, 0)` and
:math:`\\alpha > 1` weighting *under*-predictions (negative residuals
cause deadline misses) more heavily than over-predictions.

The first two terms form a once-differentiable convex quadratic-spline
loss; the L1 term is handled by the proximal step of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class AsymmetricLassoObjective:
    """Smooth part + L1 weights of the training objective.

    Args:
        x: design matrix (n_jobs, n_coeffs).
        y: observed execution times (n_jobs,).
        alpha: under-prediction penalty weight (>= 1).
        gamma: L1 penalty weight (>= 0).
        penalize: per-coefficient L1 mask (False for the intercept).
    """

    x: np.ndarray
    y: np.ndarray
    alpha: float
    gamma: float
    penalize: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 1.0):
            raise ValueError(f"alpha must be a finite number >= 1, "
                             f"got {self.alpha}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be a finite number >= 0, "
                             f"got {self.gamma}")
        if self.x.ndim != 2 or self.y.ndim != 1:
            raise ValueError("x must be 2-D and y 1-D")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y disagree on sample count")
        if self.penalize.shape != (self.x.shape[1],):
            raise ValueError("penalize mask must have one entry per coeff")

    @property
    def n_coeffs(self) -> int:
        return self.x.shape[1]

    def residual_weights(self, residuals: np.ndarray) -> np.ndarray:
        """1 for over-predictions, alpha for under-predictions."""
        return np.where(residuals >= 0.0, 1.0, self.alpha)

    def weighted_residual(self, beta: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """``(w * r, loss)`` at ``beta``, from one product with ``x``.

        ``r = x @ beta - y`` and ``w = residual_weights(r)``; the loss
        is :meth:`smooth_value`, and :meth:`grad_of` turns ``w * r``
        into :meth:`smooth_grad`.  ``beta`` may also be a stack of
        coefficient rows, shape ``(..., n_coeffs)``: each row costs one
        gemv and sums its loss along the contiguous last axis, so it
        gets the bits it gets alone.
        """
        r = beta @ self.x.T - self.y
        # alpha >= 1, so the minimum is r where r >= 0 and alpha * r
        # below: exactly residual_weights(r) * r.
        wr = np.minimum(r, self.alpha * r)
        return wr, np.add.reduce(wr * r, axis=-1)

    def grad_of(self, wr: np.ndarray) -> np.ndarray:
        """The smooth loss's gradient from a :meth:`weighted_residual`."""
        return 2.0 * (wr @ self.x)

    def smooth_value(self, beta: np.ndarray) -> float:
        """The asymmetric squared loss (without the L1 term)."""
        return float(self.weighted_residual(beta)[1])

    def smooth_grad(self, beta: np.ndarray) -> np.ndarray:
        """Gradient of the asymmetric squared loss."""
        return self.grad_of(self.weighted_residual(beta)[0])

    def l1_value(self, beta: np.ndarray) -> float:
        """The gamma-weighted L1 penalty of the coefficients."""
        return float(self.gamma
                     * np.add.reduce(np.abs(beta[self.penalize])))

    def value(self, beta: np.ndarray) -> float:
        """The full objective: smooth loss plus L1 penalty."""
        return self.smooth_value(beta) + self.l1_value(beta)

    def lipschitz(self) -> float:
        """An upper bound on the smooth part's gradient Lipschitz const.

        The Hessian is bounded by ``2 * alpha * X^T X``; its largest
        eigenvalue is ``2 * alpha * sigma_max(X)^2``.
        """
        if self.x.size == 0:
            return 1.0
        sigma = np.linalg.norm(self.x, 2)
        return max(2.0 * self.alpha * sigma * sigma, 1e-12)


def make_objective(x: np.ndarray, y: np.ndarray, alpha: float, gamma: float,
                   intercept_col: Optional[int] = None
                   ) -> AsymmetricLassoObjective:
    """Build an objective, optionally exempting one column from L1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    penalize = np.ones(x.shape[1], dtype=bool)
    if intercept_col is not None:
        penalize[intercept_col] = False
    return AsymmetricLassoObjective(x=x, y=y, alpha=alpha, gamma=gamma,
                                    penalize=penalize)

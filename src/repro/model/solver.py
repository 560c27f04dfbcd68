"""Proximal-gradient solver (FISTA with adaptive restart).

The paper notes the objective "is convex.  Thus, we can use a convex
optimization solver to fit the model."  This module is that solver: an
accelerated proximal gradient method (FISTA) with backtracking line
search and function-value adaptive restart, which handles the smooth
asymmetric loss plus the non-smooth L1 term exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objective import AsymmetricLassoObjective


@dataclass
class SolveResult:
    """Solver outcome."""

    beta: np.ndarray
    value: float
    iterations: int
    converged: bool


def solve(objective: AsymmetricLassoObjective,
          beta0: Optional[np.ndarray] = None,
          max_iter: int = 4000,
          tol: float = 1e-9) -> SolveResult:
    """Minimize the objective; returns coefficients and diagnostics.

    Convergence is declared when the relative objective decrease over
    an iteration falls below ``tol``.  Each point an iteration visits
    (the momentum and every backtracking candidate) is evaluated once:
    the momentum's loss and gradient share one
    :meth:`~AsymmetricLassoObjective.weighted_residual`, and the
    accepted candidate's loss from the backtracking test becomes its
    objective value.
    """
    n = objective.n_coeffs
    beta = np.zeros(n) if beta0 is None else np.asarray(beta0, float).copy()
    momentum = beta.copy()
    t = 1.0
    step = 1.0 / objective.lipschitz()

    value = objective.value(beta)
    for iteration in range(1, max_iter + 1):
        wr, smooth_mom = objective.weighted_residual(momentum)
        grad = objective.grad_of(wr)
        candidate = objective.prox(momentum - step * grad, step)

        # Backtracking: the quadratic upper bound at `momentum` must
        # majorize the smooth loss at the candidate.
        for _ in range(60):
            diff = candidate - momentum
            bound = (smooth_mom + float(grad @ diff)
                     + float(diff @ diff) / (2.0 * step))
            smooth_new = objective.smooth_value(candidate)
            if smooth_new <= bound + 1e-12:
                break
            step *= 0.5
            candidate = objective.prox(momentum - step * grad, step)
        else:  # every halving failed: the last candidate is unseen
            smooth_new = objective.smooth_value(candidate)

        new_value = smooth_new + objective.l1_value(candidate)
        if new_value > value:  # adaptive restart: drop momentum
            momentum = beta.copy()
            t = 1.0
            grad = objective.smooth_grad(momentum)
            candidate = objective.prox(momentum - step * grad, step)
            new_value = objective.value(candidate)

        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = candidate + ((t - 1.0) / t_next) * (candidate - beta)
        improvement = value - new_value
        beta = candidate
        value = new_value
        t = t_next

        if improvement >= 0 and improvement <= tol * max(abs(value), 1.0):
            return SolveResult(beta=beta, value=value,
                               iterations=iteration, converged=True)

    return SolveResult(beta=beta, value=value,
                       iterations=max_iter, converged=False)

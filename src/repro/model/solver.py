"""Proximal-gradient solver (FISTA with adaptive restart).

The paper notes the objective "is convex.  Thus, we can use a convex
optimization solver to fit the model."  This module is that solver: an
accelerated proximal gradient method (FISTA) with backtracking line
search and function-value adaptive restart, which handles the smooth
asymmetric loss plus the non-smooth L1 term exactly.

One loop solves a batch of objectives that share the design and differ
only in gamma (the Lasso path's points); a single solve is a batch of
one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

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

    A batch of one: see :func:`solve_batch`.
    """
    return solve_batch([objective], beta0, max_iter, tol)[0]


def solve_batch(objectives: Sequence[AsymmetricLassoObjective],
                beta0: Optional[np.ndarray] = None,
                max_iter: int = 4000,
                tol: float = 1e-9) -> List[SolveResult]:
    """Minimize objectives that differ only in gamma, in lockstep.

    The objectives must share ``x`` and ``y`` (the same arrays),
    ``alpha`` and the penalty mask; ``beta0`` starts every member.
    Convergence is declared when a member's relative objective decrease
    over an iteration falls below ``tol``; it then leaves the batch, so
    the loop runs as many iterations as its slowest member.

    Each member does exactly the floating-point operations it does
    alone.  Members are rows of ``(k, 1, n_coeffs)`` stacks, so one
    ``matmul`` runs one gemv or dot per member; losses sum along the
    contiguous last axis; each member keeps its own step, momentum
    weight and objective value as Python floats.  Each point an
    iteration visits (the momentum and every backtracking candidate) is
    evaluated once: the momentum's loss and gradient share one
    :meth:`~AsymmetricLassoObjective.weighted_residual`, and the
    accepted candidate's loss from the backtracking test becomes its
    objective value.
    """
    if not objectives:
        return []
    shared = objectives[0]
    mask = shared.penalize
    for objective in objectives[1:]:
        if (objective.x is not shared.x or objective.y is not shared.y
                or objective.alpha != shared.alpha
                or not np.array_equal(objective.penalize, mask)):
            raise ValueError("a batch's objectives must share x, y, alpha "
                             "and the penalty mask")
    # Shrinking members (gamma > 0) lead, so the prox touches a prefix
    # of the rows and a member with gamma == 0 is never thresholded.
    ids = sorted(range(len(objectives)),
                 key=lambda i: objectives[i].gamma == 0.0)
    gammas = [objectives[i].gamma for i in ids]
    steps = [1.0 / objectives[i].lipschitz() for i in ids]
    shrinking = sum(1 for g in gammas if g != 0.0)
    # The intercept is the last column, so the penalized coefficients
    # are usually a prefix slice.
    n_pen = int(np.count_nonzero(mask))
    prefix = bool(mask[:n_pen].all())
    cols = slice(0, n_pen) if prefix else mask

    def penalized(beta):
        # Each row's penalized coefficients, contiguous, so that its L1
        # sum adds in its 1-D order (a fancy index would not keep rows
        # contiguous).
        return beta[..., cols] if prefix else np.compress(mask, beta, -1)

    def column(values):
        # Per-row scalars broadcast over rows (a single row: a float).
        if len(values) == 1:
            return values[0]
        return np.array(values).reshape(-1, 1, 1)

    def columns(rows):
        # (step, threshold, shrinking rows) for the stacked `rows`.
        lead = bisect.bisect_left(rows, shrinking)
        return (column([steps[r] for r in rows]),
                column([gammas[r] * steps[r] for r in rows[:lead]]), lead)

    def candidates(momentum, grad, step, threshold, lead):
        # prox(momentum - step * grad, step): soft-threshold the
        # penalized coefficients of the shrinking rows.
        z = momentum - step * grad
        if lead:
            head = z[:lead, :, cols]
            z[:lead, :, cols] = (np.sign(head)
                                 * np.maximum(np.abs(head) - threshold, 0.0))
        return z

    def loss(beta):
        return shared.weighted_residual(beta)[1].ravel().tolist()

    def values_at(beta, smooth, rows):
        # Smooth loss plus each row's L1 penalty; a row with gamma == 0
        # adds an exact 0.0 to its finite loss, so only leading rows sum.
        lead = bisect.bisect_left(rows, shrinking)
        if not lead:
            return smooth
        sums = np.add.reduce(np.abs(penalized(beta[:lead])), axis=-1)
        return [a + gammas[r] * s for r, a, s in
                zip(rows, smooth, sums.ravel().tolist())] + smooth[lead:]

    def majorized(momentum, grad, candidate, rows, smooth_mom):
        # The quadratic upper bound at `momentum` must majorize the
        # smooth loss at the candidate: (smooth losses, failing rows).
        diff = candidate - momentum
        diff_t = diff.transpose(0, 2, 1)
        smooth = loss(candidate)
        failing = [
            r for r, new, gd, dd in zip(
                rows, smooth, (grad @ diff_t).ravel().tolist(),
                (diff @ diff_t).ravel().tolist())
            if not new <= (smooth_mom[r] + gd + dd / (2.0 * steps[r])
                           + 1e-12)]
        return smooth, failing

    k = len(ids)
    p = shared.n_coeffs
    start = np.zeros(p) if beta0 is None else np.asarray(beta0, float)
    beta = momentum = np.repeat(start.reshape(1, 1, p), k, axis=0)
    values = values_at(beta, loss(beta), range(k))
    t = [1.0] * k
    results: List[Optional[SolveResult]] = [None] * k
    stacked = columns(range(k))

    for iteration in range(1, max_iter + 1):
        rows = range(len(ids))
        wr, smooth_mom = shared.weighted_residual(momentum)
        smooth_mom = smooth_mom.ravel().tolist()
        grad = shared.grad_of(wr)
        candidate = candidates(momentum, grad, *stacked)
        smooth_new, failing = majorized(momentum, grad, candidate, rows,
                                        smooth_mom)
        if failing:  # backtrack: halve the failing rows' steps
            tests = 1
            while failing:
                for r in failing:
                    steps[r] *= 0.5
                retry = candidates(momentum[failing], grad[failing],
                                   *columns(failing))
                candidate[failing] = retry
                if tests == 60:  # every halving failed: the last is unseen
                    smooth, still = loss(retry), []
                else:
                    smooth, still = majorized(momentum[failing],
                                              grad[failing], retry,
                                              failing, smooth_mom)
                    tests += 1
                for r, value in zip(failing, smooth):
                    smooth_new[r] = value
                failing = still
            stacked = columns(rows)

        new_values = values_at(candidate, smooth_new, rows)
        restart = [r for r in rows if new_values[r] > values[r]]
        if restart:  # adaptive restart: drop momentum
            origin = beta[restart]
            wr, _ = shared.weighted_residual(origin)
            retry = candidates(origin, shared.grad_of(wr),
                               *columns(restart))
            candidate[restart] = retry
            for r, value in zip(restart,
                                values_at(retry, loss(retry), restart)):
                new_values[r] = value
                t[r] = 1.0

        keep, t_next, weight = [], [], []
        for r in rows:
            value = new_values[r]
            improvement = values[r] - value
            if 0 <= improvement <= tol * max(abs(value), 1.0):
                results[ids[r]] = SolveResult(
                    beta=candidate[r, 0], value=value,
                    iterations=iteration, converged=True)
            else:
                keep.append(r)
                a = t[r]
                b = (1.0 + math.sqrt(1.0 + 4.0 * a * a)) / 2.0
                t_next.append(b)
                weight.append((a - 1.0) / b)
        if len(keep) < len(rows):  # converged members leave the batch
            if not keep:
                return results
            candidate, beta = candidate[keep], beta[keep]
            ids, gammas, steps, new_values = (
                [seq[r] for r in keep]
                for seq in (ids, gammas, steps, new_values))
            shrinking = bisect.bisect_left(keep, shrinking)
            stacked = columns(range(len(keep)))
        momentum = candidate + column(weight) * (candidate - beta)
        beta, values, t = candidate, new_values, t_next

    for r, member in enumerate(ids):
        results[member] = SolveResult(beta=beta[r, 0], value=values[r],
                                      iterations=max_iter, converged=False)
    return results

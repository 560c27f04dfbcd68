"""The FISTA solver against the loop it replaced, bit for bit.

:func:`reference_solve` is the earlier ``solve`` loop and
:class:`ReferenceObjective` the earlier objective evaluation, copied
verbatim: every iteration evaluated the momentum twice (gradient, then
loss) and the accepted candidate twice (backtracking test, then
objective value).  The current solver evaluates each visited point
once and must still return the same coefficients, value, iteration
count and convergence flag on every problem, both alone and as one
member of a lockstep batch whose other members differ in gamma.
"""

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest

from repro.model import AsymmetricLassoObjective, SolveResult, make_objective
from repro.model import solver as solver_mod
from repro.model import training


class ReferenceObjective:
    """The earlier objective evaluation, counting calls per method."""

    def __init__(self, objective: AsymmetricLassoObjective):
        self.objective = objective
        self.x = objective.x
        self.y = objective.y
        self.alpha = objective.alpha
        self.gamma = objective.gamma
        self.penalize = objective.penalize
        self.calls = Counter()

    @property
    def n_coeffs(self) -> int:
        return self.x.shape[1]

    def lipschitz(self) -> float:
        return self.objective.lipschitz()

    def residual_weights(self, residuals):
        return np.where(residuals >= 0.0, 1.0, self.alpha)

    def smooth_value(self, beta):
        self.calls["smooth_value"] += 1
        r = self.x @ beta - self.y
        w = self.residual_weights(r)
        return float(np.sum(w * r * r))

    def smooth_grad(self, beta):
        self.calls["smooth_grad"] += 1
        r = self.x @ beta - self.y
        w = self.residual_weights(r)
        return 2.0 * (self.x.T @ (w * r))

    def l1_value(self, beta):
        return float(self.gamma * np.sum(np.abs(beta[self.penalize])))

    def value(self, beta):
        return self.smooth_value(beta) + self.l1_value(beta)

    def prox(self, beta, step):
        if self.gamma == 0.0:
            return beta
        threshold = self.gamma * step
        out = beta.copy()
        p = self.penalize
        out[p] = np.sign(beta[p]) * np.maximum(np.abs(beta[p]) - threshold,
                                               0.0)
        return out


def reference_solve(objective: ReferenceObjective,
                    beta0: Optional[np.ndarray] = None,
                    max_iter: int = 4000,
                    tol: float = 1e-9) -> SolveResult:
    n = objective.n_coeffs
    beta = np.zeros(n) if beta0 is None else np.asarray(beta0, float).copy()
    momentum = beta.copy()
    t = 1.0
    step = 1.0 / objective.lipschitz()

    value = objective.value(beta)
    for iteration in range(1, max_iter + 1):
        grad = objective.smooth_grad(momentum)
        candidate = objective.prox(momentum - step * grad, step)

        # Backtracking: the quadratic upper bound at `momentum` must
        # majorize the smooth loss at the candidate.
        smooth_mom = objective.smooth_value(momentum)
        for _ in range(60):
            diff = candidate - momentum
            bound = (smooth_mom + float(grad @ diff)
                     + float(diff @ diff) / (2.0 * step))
            if objective.smooth_value(candidate) <= bound + 1e-12:
                break
            step *= 0.5
            candidate = objective.prox(momentum - step * grad, step)

        new_value = objective.value(candidate)
        if new_value > value:  # adaptive restart: drop momentum
            momentum = beta.copy()
            t = 1.0
            grad = objective.smooth_grad(momentum)
            candidate = objective.prox(momentum - step * grad, step)
            new_value = objective.value(candidate)

        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
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


def _work(ref: ReferenceObjective, result: SolveResult):
    """(restarts, backtracking tests beyond the first) of a reference
    run, read off its call counts: an iteration takes one gradient
    (two on restart) and 2 + (backtracking tests) losses (one more on
    restart), after one initial loss."""
    restarts = ref.calls["smooth_grad"] - result.iterations
    extra_tests = (ref.calls["smooth_value"] - 1 - restarts
                   - 3 * result.iterations)
    return restarts, extra_tests


@dataclass(frozen=True)
class UnderestimatedLipschitz(AsymmetricLassoObjective):
    """An objective whose first step is ``shrink`` times too long, so
    backtracking has to halve it (60 halvings are not enough when
    ``shrink`` exceeds 2**60)."""

    shrink: float = 1.0

    def lipschitz(self) -> float:
        return super().lipschitz() / self.shrink


def _problem(seed, n=80, p=6, alpha=8.0, gamma=0.0, order="C",
             intercept=True, correlated=False, shrink=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if correlated:  # ill-conditioned: momentum overshoots, FISTA restarts
        x[:, 1:] = x[:, :1] + 1e-3 * x[:, 1:]
    y = x @ rng.normal(size=p) * 3.0 + rng.normal(size=n)
    if intercept:
        x = np.hstack([x, np.ones((n, 1))])
        y = y + 40.0
    x = np.asarray(x, order=order)
    objective = make_objective(x, y, alpha=alpha, gamma=gamma,
                               intercept_col=x.shape[1] - 1
                               if intercept else None)
    if shrink is not None:
        objective = UnderestimatedLipschitz(
            x=objective.x, y=objective.y, alpha=alpha, gamma=gamma,
            penalize=objective.penalize, shrink=shrink)
    return objective


def _assert_same(got, expected):
    assert np.array_equal(got.beta, expected.beta)
    assert got.value == expected.value
    assert got.iterations == expected.iterations
    assert got.converged == expected.converged


def _assert_bit_equal(objective, **kwargs):
    ref = ReferenceObjective(objective)
    expected = reference_solve(ref, **kwargs)
    _assert_same(solver_mod.solve(objective, **kwargs), expected)
    _assert_batch_bit_equal(objective, **kwargs)
    return ref, expected


#: The other members of each case's batch: they share its design and
#: differ in gamma, so they converge at other iterations, and gamma 0
#: is never thresholded.
BATCH_GAMMAS = (0.0, 0.01, 0.5, 3.0, 40.0)


def _assert_batch_bit_equal(objective, **kwargs):
    """The objective as the middle member of a mixed batch: every
    member equals its own reference-loop run."""
    others = [replace(objective, gamma=g) for g in BATCH_GAMMAS
              if g != objective.gamma]
    batch = others[:2] + [objective] + others[2:]
    results = solver_mod.solve_batch(batch, **kwargs)
    assert len(results) == len(batch)
    for member, got in zip(batch, results):
        _assert_same(got, reference_solve(ReferenceObjective(member),
                                          **kwargs))
    return results


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 40.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_matches_reference_loop(seed, gamma, order):
    objective = _problem(seed, gamma=gamma, order=order)
    assert objective.x.flags.f_contiguous == (order == "F")
    _assert_bit_equal(objective, max_iter=4000, tol=1e-10)


def test_solve_matches_reference_with_intercept_exempt_from_l1():
    objective = _problem(3, gamma=1e4)
    assert not objective.penalize[-1] and objective.penalize[:-1].all()
    _, result = _assert_bit_equal(objective, tol=1e-10)
    # The strong L1 zeroes every feature; only the intercept survives.
    assert np.all(result.beta[:-1] == 0.0)
    assert result.beta[-1] != 0.0


def test_solve_matches_reference_with_the_intercept_first():
    # The penalized columns are no prefix, so the batch gathers them.
    base = _problem(9, gamma=0.5, intercept=False)
    x = np.hstack([np.ones((base.x.shape[0], 1)), base.x])
    objective = make_objective(x, base.y + 40.0, alpha=8.0, gamma=0.5,
                               intercept_col=0)
    assert not objective.penalize[0] and objective.penalize[1:].all()
    _assert_bit_equal(objective, tol=1e-10)


def test_solve_matches_reference_on_adaptive_restarts():
    objective = _problem(4, p=5, gamma=0.1, correlated=True)
    ref, result = _assert_bit_equal(objective, tol=1e-12)
    assert _work(ref, result)[0] > 0


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_solve_matches_reference_when_backtracking(gamma):
    objective = _problem(5, gamma=gamma, shrink=64.0)
    ref, result = _assert_bit_equal(objective, tol=1e-10)
    assert _work(ref, result)[1] > 0


def test_solve_matches_reference_when_every_halving_fails():
    # Columns spanning four decades and a first step 1.5 * 2**60 times
    # too long: an iteration away from the start runs out of its 60
    # halvings, so its last candidate is accepted untested and must be
    # evaluated before its objective value is used.
    rng = np.random.default_rng(19)
    x = rng.normal(size=(40, 4)) * np.logspace(0, -4, 4)
    y = x @ rng.normal(size=4) * 1e5 + rng.normal(size=40)
    x = np.hstack([x, np.ones((40, 1))])
    base = make_objective(x, y, alpha=8.0, gamma=1.0, intercept_col=4)
    objective = UnderestimatedLipschitz(
        x=base.x, y=base.y, alpha=8.0, gamma=1.0, penalize=base.penalize,
        shrink=1.5 * 2.0 ** 60)
    ref, result = _assert_bit_equal(objective, tol=1e-10)
    assert result.converged
    assert _work(ref, result)[1] >= 59


def test_solve_matches_reference_when_capped_by_max_iter():
    objective = _problem(7, gamma=0.05, correlated=True)
    _, result = _assert_bit_equal(objective, max_iter=30, tol=1e-14)
    assert not result.converged and result.iterations == 30


def test_solve_matches_reference_from_a_warm_start():
    objective = _problem(8, gamma=0.5, order="F")
    beta0 = np.linspace(-1.0, 1.0, objective.n_coeffs)
    _assert_bit_equal(objective, beta0=beta0, tol=1e-10)


def test_batch_members_finish_at_their_own_iterations():
    # The batch runs until its slowest member converges; the others
    # leave it earlier with the results they get alone.
    results = _assert_batch_bit_equal(_problem(2, gamma=0.5, order="F"),
                                      tol=1e-10)
    assert len({r.iterations for r in results}) > 1


def test_batch_rejects_members_on_different_designs():
    a, b = _problem(0), _problem(1)
    with pytest.raises(ValueError, match="share x, y, alpha"):
        solver_mod.solve_batch([a, b])
    with pytest.raises(ValueError, match="share x, y, alpha"):
        solver_mod.solve_batch([a, replace(a, alpha=2.0)])
    assert solver_mod.solve_batch([]) == []


def test_training_solves_match_reference_on_a_real_matrix(
        shared_bundle, monkeypatch):
    """Every solve a real flow's training runs — the Lasso path's
    gamma points as one batch, the final Lasso solves on C-ordered
    designs and the refits on the F-ordered column gathers — is
    bit-equal to the reference loop."""
    from repro.model import lasso_path

    matrix = shared_bundle("djpeg", 0.05).package.train_matrix
    batches = []

    def recording_solve_batch(objectives, **kwargs):
        batches.append((list(objectives), kwargs))
        return solver_mod.solve_batch(objectives, **kwargs)

    monkeypatch.setattr(training, "solve_batch", recording_solve_batch)
    for gamma in (1e-5, 1e-3):
        training.fit_predictor(matrix, training.TrainingConfig(gamma=gamma))
    lasso_path(matrix, workers=1)
    sizes = [len(objectives) for objectives, _ in batches]
    assert max(sizes) == 11 and min(sizes) == 1
    seen = [(obj, kwargs) for objectives, kwargs in batches
            for obj in objectives]
    assert {obj.gamma == 0.0 for obj, _ in seen} == {True, False}
    layouts = {obj.x.flags.f_contiguous for obj, _ in seen}
    assert layouts == {True, False}
    for objectives, kwargs in batches:
        results = solver_mod.solve_batch(objectives, **kwargs)
        for objective, got in zip(objectives, results):
            _assert_same(got, reference_solve(
                ReferenceObjective(objective), **kwargs))

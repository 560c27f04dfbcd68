"""Training robustness: degenerate inputs must not break the flow."""

import numpy as np
import pytest

from repro.analysis import FeatureMatrix, FeatureSet, FeatureSpec
from repro.model import TrainingConfig, fit_predictor


def matrix_from(x, cycles):
    x = np.asarray(x, dtype=float)
    specs = [FeatureSpec("ic", f"c{i}") for i in range(x.shape[1])]
    return FeatureMatrix(FeatureSet(specs), x,
                         np.asarray(cycles, dtype=float))


def test_constant_features_fall_back_to_intercept():
    """All-constant features carry no signal; the model should learn
    the mean (standardization must not divide by zero)."""
    x = np.ones((30, 3)) * 7
    cycles = np.full(30, 1234.0)
    model = fit_predictor(matrix_from(x, cycles),
                          TrainingConfig(gamma=1e-3))
    pred = model.predictor.predict(x)
    np.testing.assert_allclose(pred, 1234.0, rtol=1e-6)


def test_constant_target():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 50, size=(40, 4)).astype(float)
    cycles = np.full(40, 5000.0)
    model = fit_predictor(matrix_from(x, cycles),
                          TrainingConfig(gamma=1e-3))
    pred = model.predictor.predict(x)
    np.testing.assert_allclose(pred, 5000.0, rtol=1e-4)


def test_single_feature():
    rng = np.random.default_rng(2)
    x = rng.integers(1, 100, size=(50, 1)).astype(float)
    cycles = 37.0 * x[:, 0] + 100.0
    model = fit_predictor(matrix_from(x, cycles),
                          TrainingConfig(gamma=1e-4))
    assert model.predictor.coeffs[0] == pytest.approx(37.0, rel=1e-3)


def test_duplicate_collinear_features():
    """Perfectly collinear columns must not blow up the solver; the
    combined effect must be learned even if the split is arbitrary."""
    rng = np.random.default_rng(3)
    base = rng.integers(0, 50, size=(60, 1)).astype(float)
    x = np.hstack([base, base, base])
    cycles = 10.0 * base[:, 0] + 500.0
    model = fit_predictor(matrix_from(x, cycles),
                          TrainingConfig(gamma=1e-3))
    pred = model.predictor.predict(x)
    np.testing.assert_allclose(pred, cycles, rtol=1e-3)
    assert sum(model.predictor.coeffs) == pytest.approx(10.0, rel=1e-2)


def test_tiny_training_set():
    x = np.array([[1.0], [2.0], [3.0]])
    cycles = np.array([10.0, 20.0, 30.0])
    model = fit_predictor(matrix_from(x, cycles),
                          TrainingConfig(gamma=0.0))
    assert model.predictor.predict_one([4.0]) == pytest.approx(40.0,
                                                               rel=1e-3)


def test_zero_feature_matrix():
    """A design with no detectable features still trains (intercept)."""
    specs = []
    matrix = FeatureMatrix(FeatureSet(specs), np.zeros((10, 0)),
                           np.full(10, 777.0))
    model = fit_predictor(matrix, TrainingConfig(gamma=1e-3))
    assert model.predictor.predict(np.zeros((3, 0))) \
        == pytest.approx([777.0] * 3, rel=1e-6)


def test_huge_dynamic_range():
    """Cycles spanning 5 orders of magnitude stay numerically stable."""
    rng = np.random.default_rng(4)
    x = np.exp(rng.uniform(0, 11, size=(80, 1)))
    cycles = 3.0 * x[:, 0] + 10.0
    model = fit_predictor(matrix_from(x, cycles),
                          TrainingConfig(gamma=1e-6))
    pred = model.predictor.predict(x)
    err = np.abs(pred - cycles) / cycles
    assert np.max(err) < 0.05


NON_FINITE = [float("nan"), float("inf")]


def _flow_config(**fields):
    from repro.flow import FlowConfig
    return FlowConfig(**fields)


def _objective(**fields):
    from repro.model import make_objective
    params = {"alpha": 8.0, "gamma": 0.0, **fields}
    return make_objective(np.ones((3, 2)), np.ones(3), **params)


# One case per field that takes a float: NaN slipped through every
# `< bound` test, and infinity through every lower bound.
@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf"])
@pytest.mark.parametrize("build,field", [
    (TrainingConfig, "alpha"),
    (TrainingConfig, "gamma"),
    (_objective, "alpha"),
    (_objective, "gamma"),
    (_flow_config, "alpha"),
    (_flow_config, "gamma"),
    (_flow_config, "auto_gamma_slack"),
], ids=["training-alpha", "training-gamma", "objective-alpha",
        "objective-gamma", "flow-alpha", "flow-gamma", "flow-slack"])
def test_non_finite_hyperparameters_are_rejected_by_name(build, field,
                                                         value):
    with pytest.raises(ValueError, match=f"^{field} must be a finite"):
        build(**{field: value})


def test_negative_auto_gamma_slack_is_rejected():
    # A negative slack leaves no path point eligible for select_gamma.
    with pytest.raises(ValueError, match="auto_gamma_slack"):
        _flow_config(auto_gamma_slack=-0.1)

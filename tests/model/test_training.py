"""Training pipeline, Lasso path and metrics tests."""

import numpy as np
import pytest

from repro.analysis import FeatureMatrix, FeatureSet, FeatureSpec
from repro.model import (
    BoxStats,
    LinearPredictor,
    PredictionReport,
    TrainingConfig,
    fit_predictor,
    lasso_path,
    percent_errors,
    select_gamma,
    worst_case_error_pct,
)
from repro.model import lasso as lasso_mod
from repro.model.lasso import DEFAULT_GAMMAS, PathPoint, _split


def synthetic_matrix(seed=0, n=200, relevant=3, junk=5, noise=0.0):
    """A feature matrix shaped like real accelerator features: counts
    and value sums with positive coefficients (cycles per unit)."""
    rng = np.random.default_rng(seed)
    p = relevant + junk
    specs = [FeatureSpec("ic", f"c{i}") for i in range(p)]
    x = rng.integers(0, 50, size=(n, p)).astype(float)
    coeffs = np.zeros(p)
    coeffs[:relevant] = rng.uniform(50, 500, size=relevant)
    cycles = x @ coeffs + 2000.0 + noise * rng.normal(size=n)
    cycles = np.maximum(cycles, 1.0)
    return FeatureMatrix(FeatureSet(specs), x, cycles), coeffs


def test_fit_recovers_noiseless_model():
    matrix, coeffs = synthetic_matrix()
    model = fit_predictor(matrix, TrainingConfig(alpha=8.0, gamma=1e-4))
    pred = model.predictor.predict(matrix.x)
    assert worst_case_error_pct(pred, matrix.cycles) < 0.5


def test_fit_selects_only_relevant_features():
    matrix, coeffs = synthetic_matrix()
    model = fit_predictor(matrix, TrainingConfig(alpha=8.0, gamma=1e-3))
    selected = set(model.predictor.selected_features)
    assert selected <= {"ic:c0", "ic:c1", "ic:c2"}
    assert len(selected) == 3


def test_refit_removes_shrinkage_bias():
    matrix, _ = synthetic_matrix(noise=0.0)
    biased = fit_predictor(
        matrix, TrainingConfig(alpha=1.0, gamma=5e-3, refit=False))
    refit = fit_predictor(
        matrix, TrainingConfig(alpha=1.0, gamma=5e-3, refit=True))
    err_biased = worst_case_error_pct(
        biased.predictor.predict(matrix.x), matrix.cycles)
    err_refit = worst_case_error_pct(
        refit.predictor.predict(matrix.x), matrix.cycles)
    assert err_refit < err_biased


def test_asymmetric_training_under_predicts_rarely():
    matrix, _ = synthetic_matrix(seed=3, noise=800.0)
    model = fit_predictor(matrix, TrainingConfig(alpha=30.0, gamma=1e-4))
    pred = model.predictor.predict(matrix.x)
    report = PredictionReport.from_predictions(pred, matrix.cycles)
    assert report.under_rate < 0.15
    # A symmetric fit under-predicts about half the time.
    sym = fit_predictor(matrix, TrainingConfig(alpha=1.0, gamma=1e-4))
    sym_report = PredictionReport.from_predictions(
        sym.predictor.predict(matrix.x), matrix.cycles)
    assert sym_report.under_rate > 0.3


def test_fit_requires_two_jobs():
    matrix, _ = synthetic_matrix(n=10)
    tiny = FeatureMatrix(matrix.feature_set, matrix.x[:1], matrix.cycles[:1])
    with pytest.raises(ValueError, match="two training jobs"):
        fit_predictor(tiny)


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        TrainingConfig(alpha=0.0)
    with pytest.raises(ValueError, match="gamma"):
        TrainingConfig(gamma=-1.0)


def test_predictor_round_trip_raw_space():
    """Coefficients are usable on raw (unstandardized) features."""
    matrix, _ = synthetic_matrix(seed=5)
    model = fit_predictor(matrix, TrainingConfig(alpha=4.0, gamma=1e-4))
    x0 = matrix.x[0]
    manual = float(x0 @ model.predictor.coeffs) + model.predictor.intercept
    assert model.predictor.predict_one(x0) == pytest.approx(manual)


def test_lasso_path_is_monotone_in_sparsity():
    matrix, _ = synthetic_matrix(seed=7, noise=100.0)
    points = lasso_path(matrix, alpha=4.0,
                        gammas=[1e-6, 1e-4, 1e-2])
    counts = [p.n_features for p in points]
    assert counts[0] >= counts[-1]


def _path_by_definition(matrix, alpha=8.0, gammas=DEFAULT_GAMMAS):
    """The Lasso path as defined: ``fit_predictor`` at every gamma on
    the path's train split, scored on its held-out split."""
    train, x_val, y_val = _split(matrix, 0.25, 0)
    points = []
    for gamma in gammas:
        model = fit_predictor(train, TrainingConfig(alpha=alpha, gamma=gamma))
        pred = model.predictor.predict(x_val)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.abs(pred - y_val) / np.maximum(y_val, 1e-12) * 100.0
        points.append(PathPoint(gamma=gamma,
                                n_features=model.n_selected_features,
                                val_error=float(np.mean(pct))))
    return points


# djpeg's path selects 12 features, then 3, then 12 again; stencil's
# walks through three selections: both share refits across gammas.
@pytest.mark.parametrize("name", ["djpeg", "stencil"])
def test_lasso_path_equals_fit_predictor_per_gamma(shared_bundle, name):
    matrix = shared_bundle(name, 0.05).package.train_matrix
    assert lasso_path(matrix, workers=1) == _path_by_definition(matrix)


def test_lasso_path_refits_once_per_distinct_selection(shared_bundle,
                                                       monkeypatch):
    matrix = shared_bundle("djpeg", 0.05).package.train_matrix
    refits = []
    real_refit = lasso_mod._refit

    def counting_refit(train, config, selected):
        refits.append(tuple(selected))
        return real_refit(train, config, selected)

    monkeypatch.setattr(lasso_mod, "_refit", counting_refit)
    points = lasso_path(matrix, workers=1)
    assert points == _path_by_definition(matrix)
    train = _split(matrix, 0.25, 0)[0]
    selections = [
        tuple(lasso_mod._nonzero(lasso_mod._lasso_fits(
            train, [TrainingConfig(gamma=gamma)])[0].beta))
        for gamma in DEFAULT_GAMMAS]
    distinct = {s for s in selections if s}
    assert len(distinct) < len(selections)  # selections repeat
    assert sorted(refits) == sorted(distinct)  # one refit each


def test_select_gamma_prefers_sparse_models():
    matrix, _ = synthetic_matrix(seed=8, noise=100.0)
    gamma, points = select_gamma(matrix, alpha=4.0)
    chosen = next(p for p in points if p.gamma == gamma)
    best_err = min(p.val_error for p in points)
    assert chosen.val_error <= best_err + 0.5
    assert chosen.n_features <= min(
        p.n_features for p in points if p.val_error <= best_err + 0.5)


def test_percent_errors_sign_convention():
    errors = percent_errors(np.array([110.0, 90.0]), np.array([100.0, 100.0]))
    assert errors.tolist() == [10.0, -10.0]


def test_box_stats_known_distribution():
    data = list(range(1, 101)) + [1000.0]  # one clear outlier
    box = BoxStats.from_samples(data)
    assert box.q1 <= box.median <= box.q3
    assert box.outliers == (1000.0,)
    assert box.whisker_high <= 100.0


def test_box_stats_rejects_empty():
    with pytest.raises(ValueError):
        BoxStats.from_samples([])


def test_prediction_report_fields():
    actual = np.array([100.0, 100.0, 100.0, 100.0])
    predicted = np.array([105.0, 95.0, 100.0, 120.0])
    report = PredictionReport.from_predictions(predicted, actual)
    assert report.n_jobs == 4
    assert report.max_over_pct == pytest.approx(20.0)
    assert report.max_under_pct == pytest.approx(5.0)
    assert report.under_rate == pytest.approx(0.25)


def test_linear_predictor_shapes():
    with pytest.raises(ValueError):
        LinearPredictor(("a", "b"), np.zeros(3), 0.0)
    pred = LinearPredictor(("a", "b"), np.array([1.0, 0.0]), 5.0)
    assert pred.n_terms == 1
    assert pred.selected_features == ["a"]
    assert pred.as_dict() == {"a": 1.0}
    assert pred.restricted().coeffs.tolist() == [1.0, 0.0]

"""Execution-time prediction model (convex optimization, Sec. 3.4)."""

from .lasso import PathPoint, lasso_path, select_gamma
from .linear import LinearPredictor
from .metrics import (
    BoxStats,
    PredictionReport,
    percent_errors,
    worst_case_error_pct,
)
from .objective import AsymmetricLassoObjective, make_objective
from .solver import SolveResult, solve, solve_batch
from .training import Standardizer, TrainedModel, TrainingConfig, fit_predictor

__all__ = [
    "AsymmetricLassoObjective", "BoxStats", "LinearPredictor", "PathPoint",
    "PredictionReport", "SolveResult", "Standardizer", "TrainedModel",
    "TrainingConfig", "fit_predictor", "lasso_path", "make_objective",
    "percent_errors", "select_gamma", "solve", "solve_batch",
    "worst_case_error_pct",
]

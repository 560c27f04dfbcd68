"""The runtime prediction model: a sparse linear map.

At runtime the hardware predictor computes ``y = x . beta + b`` with a
handful of multiply-accumulates (Sec. 3.4: "Linear models are very
simple to evaluate at runtime").  Coefficients live in *raw feature
space* (counts and value sums), so the hardware needs no normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Coefficients smaller than this (relative to the largest) count as zero.
SPARSITY_TOL = 1e-8


@dataclass(frozen=True)
class LinearPredictor:
    """A trained execution-time predictor.

    ``coeffs`` has one entry per feature in ``feature_names`` (zeros for
    unselected features); ``intercept`` is in the same unit as the
    training target (cycles).
    """

    feature_names: Tuple[str, ...]
    coeffs: np.ndarray
    intercept: float

    def __post_init__(self) -> None:
        if self.coeffs.shape != (len(self.feature_names),):
            raise ValueError("one coefficient per feature required")

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict execution time for feature vector(s) ``x``."""
        x = np.asarray(x, dtype=float)
        return x @ self.coeffs + self.intercept

    def predict_one(self, x: Sequence[float]) -> float:
        """Predict execution time for one feature vector."""
        return float(np.asarray(x, dtype=float) @ self.coeffs
                     + self.intercept)

    @property
    def selected_indices(self) -> List[int]:
        scale = float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0
        if scale == 0.0:
            return []
        threshold = scale * SPARSITY_TOL
        return [i for i, c in enumerate(self.coeffs) if abs(c) > threshold]

    @property
    def n_terms(self) -> int:
        """Number of non-zero coefficients (hardware MAC count)."""
        return len(self.selected_indices)

    @property
    def selected_features(self) -> List[str]:
        return [self.feature_names[i] for i in self.selected_indices]

    def as_dict(self) -> Dict[str, float]:
        """Non-zero coefficients keyed by feature name."""
        return {
            self.feature_names[i]: float(self.coeffs[i])
            for i in self.selected_indices
        }

    def restricted(self) -> "LinearPredictor":
        """A copy with exact zeros outside the selected set."""
        coeffs = np.zeros_like(self.coeffs)
        idx = self.selected_indices
        coeffs[idx] = self.coeffs[idx]
        return LinearPredictor(self.feature_names, coeffs, self.intercept)

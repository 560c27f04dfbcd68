"""Offline predictor-generation flow and evaluation record building."""

from .evaluate import build_job_records
from .pipeline import FlowConfig, GeneratedPredictor, generate_predictor

__all__ = [
    "FlowConfig", "GeneratedPredictor", "build_job_records",
    "generate_predictor",
]

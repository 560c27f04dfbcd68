"""repro — predictive DVFS for hardware accelerators.

A self-contained reproduction of Chen, Rucker and Suh, *Execution Time
Prediction for Energy-Efficient Hardware Accelerators* (MICRO 2015),
including every substrate the paper depends on: a behavioural RTL IR
with a cycle-accurate simulator, structural FSM/counter detection,
hardware slicing with wait-state elision, the asymmetric-Lasso
execution-time model, voltage-frequency and energy models, the seven
benchmark accelerators with synthetic workloads, and the DVFS runtime
with every evaluated controller.

Quick start::

    from repro import get_design, workload_for, generate_predictor

    design = get_design("h264")
    workload = workload_for("h264", scale=0.2)
    package = generate_predictor(design, workload.train)
    predicted, slice_cycles = package.run_slice(
        design.encode_job(workload.test[0]))

See ``examples/`` for runnable scenarios and ``repro.experiments`` for
the paper's tables and figures.
"""

from .accelerators import AcceleratorDesign, JobInput, get_design
from .analysis import FeatureMatrix, FeatureSet, FeatureSpec, discover_features
from .dvfs import (
    ConstantFrequencyController,
    LevelTable,
    OperatingPoint,
    OracleController,
    PidController,
    PredictiveController,
    build_level_table,
)
from .flow import (
    FlowConfig,
    GeneratedPredictor,
    build_job_records,
    generate_predictor,
)
from .model import LinearPredictor, TrainingConfig, fit_predictor
from .rtl import Fsm, Module, Simulation, synthesize
from .runtime import Task, run_episode
from .slicing import HardwareSlice, build_slice
from .units import FRAME_DEADLINE_60FPS
from .workloads import ALL_BENCHMARKS, workload_for

__version__ = "1.0.0"

__all__ = [
    "ALL_BENCHMARKS", "AcceleratorDesign", "ConstantFrequencyController",
    "FRAME_DEADLINE_60FPS", "FeatureMatrix", "FeatureSet", "FeatureSpec",
    "FlowConfig", "Fsm", "GeneratedPredictor", "HardwareSlice", "JobInput",
    "LevelTable", "LinearPredictor", "Module", "OperatingPoint",
    "OracleController", "PidController", "PredictiveController",
    "Simulation", "Task", "TrainingConfig",
    "build_job_records", "build_level_table", "build_slice",
    "discover_features", "fit_predictor", "generate_predictor",
    "get_design", "run_episode", "synthesize", "workload_for",
]

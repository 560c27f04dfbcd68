"""DVFS machinery: V-f models, levels, energy, controllers."""

from .controllers import (
    ConstantFrequencyController,
    Controller,
    HistoryController,
    IntervalGovernorController,
    OracleController,
    PidController,
    PredictiveController,
    TableBasedController,
)
from .dvfs_model import (
    BatchPlan,
    Plan,
    required_frequency,
    required_frequency_batch,
    select_level,
    select_level_batch,
)
from .energy import (
    AsicEnergyModel,
    EnergyModel,
    FpgaEnergyModel,
    JobActivity,
    activity_from_run,
)
from .levels import (
    ASIC_VOLTAGES,
    BOOST_VOLTAGE,
    FPGA_VOLTAGES,
    LevelTable,
    OperatingPoint,
    build_level_table,
)
from .pid import PidGains, PidPredictor, replay_errors, tune_pid
from .vf_model import (
    AlphaPowerDevice,
    AsicVfModel,
    Fo4Chain,
    FpgaVfModel,
    VoltageFrequencyModel,
)

__all__ = [
    "ASIC_VOLTAGES", "AlphaPowerDevice", "AsicEnergyModel", "AsicVfModel",
    "BOOST_VOLTAGE", "BatchPlan", "ConstantFrequencyController",
    "Controller", "EnergyModel", "FPGA_VOLTAGES", "Fo4Chain",
    "IntervalGovernorController",
    "FpgaEnergyModel", "FpgaVfModel", "HistoryController", "JobActivity",
    "LevelTable", "OperatingPoint", "OracleController",
    "PidController",
    "PidGains", "PidPredictor", "Plan", "PredictiveController",
    "TableBasedController", "VoltageFrequencyModel", "activity_from_run",
    "build_level_table", "replay_errors", "required_frequency",
    "required_frequency_batch", "select_level", "select_level_batch",
    "tune_pid",
]

"""Datasets, experiment runners and reporting.

Public surface:

* :class:`DesignSpaceDataset` — simulate-once, reuse-everywhere data.
* One runner per figure of the paper (see :mod:`.experiments`).
* ASCII reporting helpers used by the benchmark harnesses.
"""

from .budget import BudgetPlan, amortisation_curve, expected_rmae, plan_budget
from .calibration import AccuracyModel, fit_accuracy_model, measure_operating_points
from .dataset import DesignSpaceDataset
from .experiments import (
    ComparisonResult,
    MotivationResult,
    SweepPoint,
    SweepResult,
    comparison_sweep,
    drift_sweep,
    mibench_experiment,
    motivation_experiment,
    noise_sweep,
    response_sweep,
    spec_error_experiment,
    training_programs_sweep,
    training_size_sweep,
)
from .persistence import load_dataset, save_dataset
from .reporting import (
    ascii_bar_chart,
    format_series,
    format_table,
    scale_banner,
)

__all__ = [
    "AccuracyModel",
    "BudgetPlan",
    "ComparisonResult",
    "DesignSpaceDataset",
    "MotivationResult",
    "SweepPoint",
    "SweepResult",
    "amortisation_curve",
    "ascii_bar_chart",
    "comparison_sweep",
    "drift_sweep",
    "expected_rmae",
    "fit_accuracy_model",
    "load_dataset",
    "measure_operating_points",
    "plan_budget",
    "save_dataset",
    "format_series",
    "format_table",
    "mibench_experiment",
    "motivation_experiment",
    "noise_sweep",
    "response_sweep",
    "scale_banner",
    "spec_error_experiment",
    "training_programs_sweep",
    "training_size_sweep",
]

"""The paper's contribution: the architecture-centric predictor.

Public surface:

* :class:`ProgramSpecificPredictor` — per-program ANN (and the baseline).
* :class:`ArchitectureCentricPredictor` — the cross-program model.
* :class:`TrainingPool` — offline training of per-program models.
* :func:`leave_one_out` / :func:`cross_suite` — evaluation protocols;
  :class:`PoolMatrix` — a pool's predictions at a configuration set,
  computed once and indexed by every fold.
* :func:`save_predictor` / :func:`load_predictor` — fitted-predictor
  artifacts (what the model registry publishes and the server loads).
"""

from .active import model_disagreement, select_responses
from .baselines import LinearBaselinePredictor, SplineBaselinePredictor
from .crossval import (
    CrossValidationResult,
    PoolMatrix,
    PredictionScore,
    ProgramSummary,
    cross_suite,
    evaluate_on_program,
    leave_one_out,
    program_specific_score,
)
from .multimetric import MultiMetricPredictor
from .persistence import (
    load_models,
    load_predictor,
    save_models,
    save_predictor,
)
from .predictor import ArchitectureCentricPredictor
from .program_model import ProgramSpecificPredictor
from .training import TrainingPool
from .uncertainty import UncertainPrediction, bootstrap_predict, coverage
from .workflow import ExplorationReport, explore_new_program

__all__ = [
    "ArchitectureCentricPredictor",
    "LinearBaselinePredictor",
    "MultiMetricPredictor",
    "SplineBaselinePredictor",
    "CrossValidationResult",
    "ExplorationReport",
    "PoolMatrix",
    "PredictionScore",
    "ProgramSpecificPredictor",
    "ProgramSummary",
    "TrainingPool",
    "UncertainPrediction",
    "bootstrap_predict",
    "coverage",
    "cross_suite",
    "evaluate_on_program",
    "explore_new_program",
    "leave_one_out",
    "load_models",
    "load_predictor",
    "model_disagreement",
    "program_specific_score",
    "save_models",
    "save_predictor",
    "select_responses",
]

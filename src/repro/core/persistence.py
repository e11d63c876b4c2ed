"""Saving and loading trained offline pools and fitted predictors.

Offline training is the architecture-centric workflow's one-off expense
(N programs x T simulations plus N network trainings); a production
user trains once and ships the pool.  A pool serialises to a single
``.npz`` archive of network weights and scaler state; loading restores
ready-to-use :class:`ProgramSpecificPredictor` objects without touching
a simulator.  A *fitted* :class:`ArchitectureCentricPredictor` — pool
plus the combining regressor learned from a new program's responses —
round-trips the same way through :func:`save_predictor` /
:func:`load_predictor`, which is the artifact the model registry
(:mod:`repro.serve.registry`) publishes and the inference server loads.

Archives are written through the shared checksummed artifact writer
(:mod:`repro.runtime.artifact`): a content digest over every array is
embedded at save time and verified at load time, so a truncated or
bit-flipped pool fails loudly instead of hydrating into
plausible-looking weights.  Only the current format version loads.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.designspace.space import DesignSpace
from repro.ml.mlp import MultilayerPerceptron
from repro.runtime.artifact import read_archive, write_archive
from repro.sim.metrics import Metric

from .predictor import ArchitectureCentricPredictor
from .program_model import ProgramSpecificPredictor

#: The pool/predictor archive schema; the only version this code reads.
_FORMAT_VERSION = 2

_WEIGHT_NAMES = (
    "hidden_weights", "hidden_bias", "output_weights",
    "output_bias", "x_mean", "x_scale", "y_mean", "y_scale",
)


def _pool_payload(
    models: Sequence[ProgramSpecificPredictor],
) -> Dict[str, np.ndarray]:
    """The archive entries shared by pool and predictor artifacts."""
    if not models:
        raise ValueError("at least one trained model is required")
    metrics = {model.metric for model in models}
    if len(metrics) != 1:
        raise ValueError("all models must target the same metric")
    payload: Dict[str, np.ndarray] = {
        "metric": np.array(models[0].metric.value),
        "programs": np.array([model.program for model in models]),
        "log_target": np.array([model.log_target for model in models]),
        "training_sizes": np.array(
            [model.training_size_ for model in models]
        ),
    }
    for index, model in enumerate(models):
        weights = model._network.get_weights()
        for name, array in weights.items():
            payload[f"model{index}_{name}"] = array
    return payload


def _models_from_payload(
    payload: Dict[str, np.ndarray], space: DesignSpace
) -> List[ProgramSpecificPredictor]:
    """Rebuild the program models held in an archive payload."""
    metric = Metric.from_name(str(payload["metric"]))
    programs = [str(name) for name in payload["programs"]]
    log_targets = payload["log_target"]
    training_sizes = payload["training_sizes"]
    models: List[ProgramSpecificPredictor] = []
    for index, program in enumerate(programs):
        predictor = ProgramSpecificPredictor(
            space=space,
            metric=metric,
            program=program,
            log_target=bool(log_targets[index]),
        )
        weights = {
            name: payload[f"model{index}_{name}"] for name in _WEIGHT_NAMES
        }
        network = MultilayerPerceptron()
        network.set_weights(weights)
        predictor._network = network
        predictor._trained = True
        predictor.training_size_ = int(training_sizes[index])
        models.append(predictor)
    return models


def save_models(
    models: Sequence[ProgramSpecificPredictor],
    path: Union[str, pathlib.Path],
) -> pathlib.Path:
    """Serialise trained program models to one checksummed ``.npz``."""
    return write_archive(path, _pool_payload(models), _FORMAT_VERSION)


def load_models(
    path: Union[str, pathlib.Path],
    space: DesignSpace | None = None,
) -> List[ProgramSpecificPredictor]:
    """Restore program models saved by :func:`save_models`.

    Args:
        path: The ``.npz`` archive.
        space: Design space for configuration encoding (defaults to the
            full Table 1 space; pass the same restricted space the pool
            was trained on, if any).

    Raises:
        ValueError: if the archive is truncated, fails its content
            checksum or has an unsupported version.
    """
    space = space if space is not None else DesignSpace()
    payload = read_archive(path, _FORMAT_VERSION, label="model pool")
    return _models_from_payload(payload, space)


def save_predictor(
    predictor: ArchitectureCentricPredictor,
    path: Union[str, pathlib.Path],
) -> pathlib.Path:
    """Serialise a fitted architecture-centric predictor.

    The archive holds the full offline pool *and* the fitted combining
    regressor, so loading restores a predictor whose predictions are
    bit-identical to the saved one — no responses, no refit.

    Raises:
        RuntimeError: if the predictor has not been fitted on responses.
    """
    if not predictor._fitted:
        raise RuntimeError(
            "only a predictor fitted on responses can be saved; "
            "call fit_responses first"
        )
    payload = _pool_payload(predictor.program_models)
    regressor = predictor._regressor
    payload.update(
        {
            "combiner_weights": np.asarray(regressor.weights_, dtype=float),
            "combiner_intercept": np.array(float(regressor.intercept_)),
            "combiner_ridge": np.array(float(regressor.ridge)),
            "combiner_fit_intercept": np.array(bool(regressor.fit_intercept)),
            "training_error": np.array(float(predictor.training_error_)),
            "response_count": np.array(int(predictor.response_count_)),
        }
    )
    return write_archive(path, payload, _FORMAT_VERSION)


def load_predictor(
    path: Union[str, pathlib.Path],
    space: DesignSpace | None = None,
) -> ArchitectureCentricPredictor:
    """Restore a fitted predictor saved by :func:`save_predictor`.

    Raises:
        ValueError: if the archive is truncated, fails its checksum, or
            holds a bare pool without the fitted combiner.
    """
    space = space if space is not None else DesignSpace()
    payload = read_archive(
        path, _FORMAT_VERSION, label="predictor artifact"
    )
    if "combiner_weights" not in payload:
        raise ValueError(
            f"{path} holds an unfitted model pool, not a fitted "
            "predictor; load it with load_models instead"
        )
    models = _models_from_payload(payload, space)
    predictor = ArchitectureCentricPredictor(
        models, ridge=float(payload["combiner_ridge"])
    )
    regressor = predictor._regressor
    regressor.fit_intercept = bool(payload["combiner_fit_intercept"])
    regressor.weights_ = np.asarray(
        payload["combiner_weights"], dtype=float
    )
    regressor.intercept_ = float(payload["combiner_intercept"])
    predictor._fitted = True
    predictor.training_error_ = float(payload["training_error"])
    predictor.response_count_ = int(payload["response_count"])
    return predictor

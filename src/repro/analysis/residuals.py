"""Residual analysis: where in the space does a predictor go wrong?

A fitted predictor's mean error hides structure: a model that is 7 %
off on average may be 2 % off in the bulk of the space and 30 % off on
narrow machines with tiny register files.  This module locates such
structure:

* :func:`residual_profile` — signed relative residuals against
  simulated truth, plus summary statistics;
* :func:`residuals_by_parameter` — mean absolute residual conditioned
  on each value of each parameter (where the bias lives);
* :func:`worst_regions` — the configurations with the largest errors,
  for eyeballing what they have in common.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.designspace.configuration import Configuration
from repro.designspace.space import DesignSpace


@dataclass(frozen=True)
class ResidualProfile:
    """Signed relative residuals of a predictor over a config set."""

    residuals: np.ndarray  # (prediction - actual) / actual
    mean_absolute: float
    bias: float  # mean signed residual: systematic over/under-prediction
    worst: float

    @property
    def percent(self) -> float:
        """Mean absolute residual in percent (equals rmae)."""
        return self.mean_absolute * 100.0


def residual_profile(
    predictions: np.ndarray, actual: np.ndarray
) -> ResidualProfile:
    """Summarise the signed relative residuals of a prediction batch."""
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    actual = np.asarray(actual, dtype=float).reshape(-1)
    if predictions.shape != actual.shape:
        raise ValueError("predictions and actual must align")
    if predictions.size == 0:
        raise ValueError("residuals of zero samples are undefined")
    if np.any(actual <= 0.0):
        raise ValueError("actual values must be positive")
    residuals = (predictions - actual) / actual
    return ResidualProfile(
        residuals=residuals,
        mean_absolute=float(np.mean(np.abs(residuals))),
        bias=float(residuals.mean()),
        worst=float(np.max(np.abs(residuals))),
    )


def residuals_by_parameter(
    space: DesignSpace,
    configs: Sequence[Configuration],
    residuals: np.ndarray,
) -> Dict[str, Dict[int, float]]:
    """Mean absolute residual per parameter value.

    A value whose conditional error is far above the overall mean marks
    a region the predictor handles poorly (e.g. the rf_size = 40 cliff,
    which no smooth model fits perfectly).
    """
    residuals = np.asarray(residuals, dtype=float).reshape(-1)
    if len(configs) != residuals.shape[0]:
        raise ValueError("configs and residuals must align")
    absolute = np.abs(residuals)
    raw = np.array(configs)
    names = [p.name for p in space.parameters]
    result: Dict[str, Dict[int, float]] = {}
    for column, name in enumerate(names):
        per_value: Dict[int, float] = {}
        for value in np.unique(raw[:, column]):
            mask = raw[:, column] == value
            per_value[int(value)] = float(absolute[mask].mean())
        result[name] = per_value
    return result


def worst_regions(
    configs: Sequence[Configuration],
    residuals: np.ndarray,
    count: int = 10,
) -> List[Tuple[Configuration, float]]:
    """The ``count`` configurations with the largest absolute residuals."""
    residuals = np.asarray(residuals, dtype=float).reshape(-1)
    if len(configs) != residuals.shape[0]:
        raise ValueError("configs and residuals must align")
    if count < 1:
        raise ValueError("count must be at least 1")
    order = np.argsort(-np.abs(residuals))[:count]
    return [(configs[i], float(residuals[i])) for i in order]


def error_hotspots(
    space: DesignSpace,
    configs: Sequence[Configuration],
    residuals: np.ndarray,
    threshold: float = 1.5,
) -> List[Tuple[str, int, float]]:
    """Parameter values whose conditional error exceeds ``threshold``
    times the overall mean, sorted by severity.

    Returns (parameter, value, conditional mean-abs residual) rows.
    """
    overall = float(np.mean(np.abs(np.asarray(residuals, dtype=float))))
    if overall == 0.0:
        return []
    by_parameter = residuals_by_parameter(space, configs, residuals)
    hotspots = [
        (name, value, conditional)
        for name, per_value in by_parameter.items()
        for value, conditional in per_value.items()
        if conditional > threshold * overall
    ]
    hotspots.sort(key=lambda row: -row[2])
    return hotspots

"""Calibrating the budget planner's accuracy surrogate from data.

:mod:`repro.exploration.budget` ranks (T, N, R) splits with a
closed-form surrogate ``rmae ~ base + a/sqrt(T) + b/N + c/R^0.7`` whose
default coefficients were tuned by hand against this repository's
sweeps.  This module fits those coefficients *empirically*: run a small
designed measurement (a handful of leave-one-out evaluations across a
grid of operating points) and fit the coefficients by non-negative
least squares.  The surrogate is linear in its coefficients, and every
term's premise is that more T, N or R never raises the error, so no
coefficient may be negative: the fitted rmae is then >= 0 and
non-increasing in T, N and R at every operating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.crossval import PoolMatrix, evaluate_on_program
from repro.core.training import TrainingPool
from repro.sim.metrics import Metric
from repro.workloads.profile import stable_seed

from .dataset import DesignSpaceDataset


@dataclass(frozen=True)
class AccuracyModel:
    """Fitted coefficients of the budget surrogate."""

    base: float
    training_coefficient: float
    pool_coefficient: float
    response_coefficient: float
    residual_rmse: float
    measurements: int

    def expected_rmae(
        self, training_size: int, pool_size: int, responses: int
    ) -> float:
        """Predicted leave-one-out rmae (%) at an operating point."""
        if training_size < 2 or pool_size < 1 or responses < 2:
            raise ValueError("T >= 2, N >= 1 and R >= 2 are required")
        return float(
            self.base
            + self.training_coefficient / np.sqrt(training_size)
            + self.pool_coefficient / pool_size
            + self.response_coefficient / responses**0.7
        )


def _surrogate_features(points: Sequence[Tuple[int, int, int]]) -> np.ndarray:
    """The surrogate's design: one column per coefficient, base first."""
    return np.array(
        [
            [1.0, 1.0 / np.sqrt(t), 1.0 / n, 1.0 / r**0.7]
            for t, n, r in points
        ]
    )


def _nonnegative_least_squares(
    design: np.ndarray, target: np.ndarray
) -> np.ndarray:
    """Exact non-negative least squares for a few columns.

    The optimum is the unconstrained least-squares fit on its own
    support, so the best non-negative fit over every support of the
    columns (16 for the surrogate's four) is the optimum.
    """
    columns = design.shape[1]
    best = np.zeros(columns)
    best_residual = float(target @ target)
    for support in itertools.product((False, True), repeat=columns):
        mask = np.array(support)
        if not mask.any():
            continue
        fitted, *_ = np.linalg.lstsq(design[:, mask], target, rcond=None)
        if (fitted < 0.0).any():
            continue
        coefficients = np.zeros(columns)
        coefficients[mask] = fitted
        residual = target - design @ coefficients
        if residual @ residual < best_residual:
            best, best_residual = coefficients, float(residual @ residual)
    return best


def measure_operating_points(
    dataset: DesignSpaceDataset,
    metric: Metric,
    points: Sequence[Tuple[int, int, int]],
    programs: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[float]:
    """Measured mean rmae at each (T, N, R) operating point.

    Pools are retrained per training size (models depend on T); the
    ``N`` training programs are drawn at random per point.
    """
    targets = list(programs) if programs is not None else list(dataset.programs)
    measured = []
    pools = {}
    all_programs = list(dataset.programs)
    for training_size, pool_size, responses in points:
        if pool_size >= len(all_programs):
            raise ValueError(
                "pool_size must leave at least one program to predict"
            )
        if training_size not in pools:
            pools[training_size] = TrainingPool(
                dataset, metric, training_size=training_size,
                seed=stable_seed("calib-pool", str(training_size), str(seed)),
            )
        pool = pools[training_size]
        rng = np.random.default_rng(
            stable_seed("calib-pick", str(pool_size), str(seed))
        )
        chosen = list(rng.choice(all_programs, size=pool_size, replace=False))
        # Over the chosen models only: a matrix over the whole pool
        # would train models no evaluation at this point uses.
        matrix = PoolMatrix(pool.models(include=chosen), dataset.configs)
        errors = []
        for program in targets:
            if program in chosen:
                continue
            score = evaluate_on_program(
                matrix, dataset, program,
                responses=responses,
                seed=stable_seed("calib-resp", program, str(responses),
                                 str(seed)),
            )
            errors.append(score.rmae)
        if not errors:
            raise ValueError(
                f"operating point (T={training_size}, N={pool_size}) left "
                "no evaluation programs"
            )
        measured.append(float(np.mean(errors)))
    return measured


def fit_accuracy_model(
    dataset: DesignSpaceDataset,
    metric: Metric = Metric.CYCLES,
    points: Sequence[Tuple[int, int, int]] = (
        (64, 5, 8), (64, 15, 32), (256, 5, 32), (256, 15, 8),
        (512, 10, 16), (512, 20, 64),
    ),
    programs: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> AccuracyModel:
    """Fit the surrogate's coefficients from measured operating points,
    by non-negative least squares (every coefficient >= 0).

    Args:
        dataset: Simulated dataset to measure on.
        metric: Target metric of the surrogate.
        points: (T, N, R) operating points; the default six span the
            surrogate's three axes.
        programs: Evaluation programs (default: all of the suite).
        seed: Measurement seed.
    """
    if len(points) < 4:
        raise ValueError(
            "at least four operating points are needed to fit four "
            "coefficients"
        )
    measured = np.array(measure_operating_points(
        dataset, metric, points, programs=programs, seed=seed
    ))
    features = _surrogate_features(points)
    base, training, pool, response = _nonnegative_least_squares(
        features, measured
    )
    residual = features @ (base, training, pool, response) - measured
    return AccuracyModel(
        base=float(base),
        training_coefficient=float(training),
        pool_coefficient=float(pool),
        response_coefficient=float(response),
        residual_rmse=float(np.sqrt(np.mean(residual**2))),
        measurements=len(points),
    )

"""Experiment runners: one per table/figure of the paper.

Each function reproduces the measurement behind one artefact of the
paper's evaluation and returns a plain-data result object; the benchmark
harnesses in ``benchmarks/`` call these and print the paper's rows or
series.  All runners accept scale parameters (sample size, repeats) so
they can run at smoke-test scale in CI and at paper scale when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.crossval import (
    CrossValidationResult,
    PoolMatrix,
    cross_suite,
    evaluate_on_program,
    leave_one_out,
    program_specific_score,
)
from repro.core.predictor import ArchitectureCentricPredictor
from repro.core.program_model import ProgramSpecificPredictor
from repro.core.training import TrainingPool
from repro.ml.metrics import correlation, rmae
from repro.sim.metrics import Metric
from repro.workloads.profile import stable_seed

from .dataset import DesignSpaceDataset


# ----------------------------------------------------------------------
# Figure 1 — motivation: applu energy, program-specific vs ours
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MotivationResult:
    """Fig. 1 data: the space sorted by actual value, both predictions."""

    program: str
    metric: Metric
    actual: np.ndarray
    program_specific: np.ndarray
    architecture_centric: np.ndarray

    @property
    def program_specific_rmae(self) -> float:
        return rmae(self.program_specific, self.actual)

    @property
    def architecture_centric_rmae(self) -> float:
        return rmae(self.architecture_centric, self.actual)


def motivation_experiment(
    dataset: DesignSpaceDataset,
    program: str = "applu",
    metric: Metric = Metric.ENERGY,
    responses: int = 32,
    training_size: int = 512,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> MotivationResult:
    """Reproduce Fig. 1: both models given the same 32 simulations.

    The program-specific predictor trains on the 32 simulations; the
    architecture-centric predictor uses them as responses on top of
    offline training on every other program of the suite.
    """
    response_idx, holdout_idx = dataset.split_indices(
        responses, seed=stable_seed("motivation", program, str(seed))
    )
    response_configs = dataset.subset_configs(response_idx)
    response_values = dataset.subset_values(program, metric, response_idx)
    holdout_configs = dataset.subset_configs(holdout_idx)
    actual = dataset.subset_values(program, metric, holdout_idx)

    specific = ProgramSpecificPredictor(
        space=dataset.simulator.space,
        metric=metric,
        program=program,
        seed=stable_seed("motivation-ps", program, str(seed)),
    ).fit(response_configs, response_values)

    pool = TrainingPool(
        dataset, metric, training_size=training_size,
        seed=stable_seed("motivation-pool", str(seed)), n_jobs=n_jobs,
    )
    centric = ArchitectureCentricPredictor(pool.models(exclude=[program]))
    centric.fit_responses(response_configs, response_values)

    order = np.argsort(actual)
    return MotivationResult(
        program=program,
        metric=metric,
        actual=actual[order],
        program_specific=specific.predict(holdout_configs)[order],
        architecture_centric=centric.predict(holdout_configs)[order],
    )


# ----------------------------------------------------------------------
# Figures 9/10 — model parameter sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One point of an accuracy-vs-budget sweep."""

    budget: int
    rmae_mean: float
    rmae_std: float
    correlation_mean: float
    correlation_std: float


@dataclass(frozen=True)
class SweepResult:
    """A sweep series for one metric."""

    metric: Metric
    points: Tuple[SweepPoint, ...]

    def budgets(self) -> List[int]:
        """The swept budget values, in sweep order."""
        return [point.budget for point in self.points]


def _sweep_point(
    budget: int, scores: Sequence[Tuple[float, float]]
) -> SweepPoint:
    """The point at ``budget``: mean and spread of the (rmae,
    correlation) pairs scored there."""
    errors = [error for error, _ in scores]
    correlations = [value for _, value in scores]
    return SweepPoint(
        budget=budget,
        rmae_mean=float(np.mean(errors)),
        rmae_std=float(np.std(errors)),
        correlation_mean=float(np.mean(correlations)),
        correlation_std=float(np.std(correlations)),
    )


def training_size_sweep(
    dataset: DesignSpaceDataset,
    metric: Metric,
    sizes: Sequence[int] = (16, 32, 64, 128, 256, 512),
    repeats: int = 3,
    seed: int = 0,
    programs: Optional[Sequence[str]] = None,
) -> SweepResult:
    """Fig. 9: program-specific accuracy vs training-set size T.

    Averaged over programs and repeats; the paper's conclusion is the
    plateau at T = 512.
    """
    targets = list(programs) if programs is not None else list(dataset.programs)
    points = []
    for size in sizes:
        scores = []
        for repeat in range(repeats):
            for program in targets:
                score = program_specific_score(
                    dataset,
                    program,
                    metric,
                    training_size=size,
                    seed=stable_seed("fig9", program, str(size), str(repeat), str(seed)),
                )
                scores.append((score.rmae, score.correlation))
        points.append(_sweep_point(size, scores))
    return SweepResult(metric=metric, points=tuple(points))


def response_sweep(
    dataset: DesignSpaceDataset,
    metric: Metric,
    counts: Sequence[int] = (4, 8, 16, 32, 64, 128),
    training_size: int = 512,
    repeats: int = 3,
    seed: int = 0,
    programs: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
) -> SweepResult:
    """Fig. 10: architecture-centric accuracy vs response count R.

    Leave-one-out per program; the paper's conclusion is the plateau at
    R = 32.
    """
    targets = list(programs) if programs is not None else list(dataset.programs)
    matrices = [
        PoolMatrix(
            TrainingPool(
                dataset, metric, training_size=training_size,
                seed=stable_seed("fig10-pool", str(repeat), str(seed)),
                n_jobs=n_jobs,
            ).models(),
            dataset.configs,
        )
        for repeat in range(repeats)
    ]
    points = []
    for count in counts:
        scores = []
        for repeat, matrix in enumerate(matrices):
            for program in targets:
                score = evaluate_on_program(
                    matrix.select(exclude=[program]),
                    dataset,
                    program,
                    responses=count,
                    seed=stable_seed("fig10", program, str(count), str(repeat), str(seed)),
                )
                scores.append((score.rmae, score.correlation))
        points.append(_sweep_point(count, scores))
    return SweepResult(metric=metric, points=tuple(points))


# ----------------------------------------------------------------------
# Figure 13 — comparison against the program-specific predictor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComparisonResult:
    """Fig. 13 data: both models' accuracy vs simulation budget."""

    metric: Metric
    architecture_centric: SweepResult
    program_specific: SweepResult

    def crossover_budget(self) -> Optional[int]:
        """Smallest budget where the program-specific rmae matches ours
        at 32 responses, or ``None`` if it never does in the sweep."""
        ours_at_32 = next(
            (
                p.rmae_mean
                for p in self.architecture_centric.points
                if p.budget == 32
            ),
            None,
        )
        if ours_at_32 is None:
            return None
        for point in self.program_specific.points:
            if point.rmae_mean <= ours_at_32:
                return point.budget
        return None


def comparison_sweep(
    dataset: DesignSpaceDataset,
    metric: Metric,
    budgets: Sequence[int] = (8, 16, 32, 64, 128, 256, 512),
    training_size: int = 512,
    repeats: int = 3,
    seed: int = 0,
    programs: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
) -> ComparisonResult:
    """Fig. 13: same simulation budget as responses (ours) vs training
    data (program-specific baseline)."""
    ours = response_sweep(
        dataset,
        metric,
        counts=budgets,
        training_size=training_size,
        repeats=repeats,
        seed=seed,
        programs=programs,
        n_jobs=n_jobs,
    )
    targets = list(programs) if programs is not None else list(dataset.programs)
    points = []
    for budget in budgets:
        scores = []
        for repeat in range(repeats):
            for program in targets:
                score = program_specific_score(
                    dataset,
                    program,
                    metric,
                    training_size=budget,
                    seed=stable_seed("fig13", program, str(budget), str(repeat), str(seed)),
                )
                scores.append((score.rmae, score.correlation))
        points.append(_sweep_point(budget, scores))
    return ComparisonResult(
        metric=metric,
        architecture_centric=ours,
        program_specific=SweepResult(metric=metric, points=tuple(points)),
    )


# ----------------------------------------------------------------------
# Figure 14 — cost of offline training
# ----------------------------------------------------------------------
def training_programs_sweep(
    dataset: DesignSpaceDataset,
    metric: Metric,
    pool_sizes: Sequence[int] = (2, 5, 10, 15, 20),
    training_size: int = 512,
    responses: int = 32,
    repeats: int = 3,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> SweepResult:
    """Fig. 14: accuracy vs number of offline training programs.

    For each pool size, training programs are drawn at random (as in the
    paper) and every remaining program is predicted.
    """
    programs = list(dataset.programs)
    if max(pool_sizes) >= len(programs):
        raise ValueError(
            "pool sizes must leave at least one program to predict"
        )
    matrix = PoolMatrix(
        TrainingPool(
            dataset, metric, training_size=training_size,
            seed=stable_seed("fig14-pool", str(seed)), n_jobs=n_jobs,
        ).models(),
        dataset.configs,
    )
    points = []
    for size in pool_sizes:
        scores = []
        for repeat in range(repeats):
            rng = np.random.default_rng(
                stable_seed("fig14-pick", str(size), str(repeat), str(seed))
            )
            chosen = list(rng.choice(programs, size=size, replace=False))
            fold = matrix.select(include=chosen)
            for program in programs:
                if program in chosen:
                    continue
                score = evaluate_on_program(
                    fold,
                    dataset,
                    program,
                    responses=responses,
                    seed=stable_seed("fig14", program, str(size), str(repeat), str(seed)),
                )
                scores.append((score.rmae, score.correlation))
        points.append(_sweep_point(size, scores))
    return SweepResult(metric=metric, points=tuple(points))


# ----------------------------------------------------------------------
# Robustness sweeps (ablations A4/A8): drift and response noise
# ----------------------------------------------------------------------
def noise_sweep(
    dataset: DesignSpaceDataset,
    metric: Metric,
    noise_levels: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.20),
    training_size: int = 512,
    responses: int = 32,
    seed: int = 0,
    programs: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
) -> SweepResult:
    """Ablation A8: accuracy vs multiplicative response noise.

    Each response is perturbed by lognormal noise of the given sigma
    before fitting, modelling SimPoint-class measurement error.  The
    ``budget`` field of each sweep point carries the noise level in
    percent.
    """
    targets = list(programs) if programs is not None else list(dataset.programs)
    matrix = PoolMatrix(
        TrainingPool(
            dataset, metric, training_size=training_size,
            seed=stable_seed("noise-pool", str(seed)), n_jobs=n_jobs,
        ).models(),
        dataset.configs,
    )
    points = []
    for noise in noise_levels:
        if noise < 0:
            raise ValueError("noise levels must be non-negative")
        scores = []
        for program in targets:
            point_seed = stable_seed("noise", program, str(noise), str(seed))
            rng = np.random.default_rng(point_seed)
            response_idx, holdout_idx = dataset.split_indices(
                responses, seed=point_seed
            )
            clean = dataset.subset_values(program, metric, response_idx)
            noisy = clean * np.exp(rng.normal(0.0, noise, size=clean.shape))
            fold = matrix.select(exclude=[program])
            predictor = ArchitectureCentricPredictor(fold.models)
            predictor.fit_design(fold.rows(response_idx), noisy)
            predictions = predictor.predict_design(fold.rows(holdout_idx))
            actual = dataset.subset_values(program, metric, holdout_idx)
            scores.append(
                (rmae(predictions, actual), correlation(predictions, actual))
            )
        points.append(_sweep_point(int(round(noise * 100)), scores))
    return SweepResult(metric=metric, points=tuple(points))


def drift_sweep(
    dataset: DesignSpaceDataset,
    metric: Metric,
    drifts: Sequence[float] = (0.0, 0.5, 1.0),
    programs_per_level: int = 5,
    training_size: int = 512,
    responses: int = 32,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> SweepResult:
    """Ablation A4: accuracy vs workload drift off the training suite.

    Random programs are generated at each drift level and predicted
    from the dataset-suite-trained pool.  The ``budget`` field carries
    the drift level in percent.
    """
    from repro.workloads.synthetic import synthetic_suite

    # Every drift level's dataset shares ``dataset.configs``, so one
    # matrix serves them all.
    matrix = PoolMatrix(
        TrainingPool(
            dataset, metric, training_size=training_size,
            seed=stable_seed("drift-pool", str(seed)), n_jobs=n_jobs,
        ).models(),
        dataset.configs,
    )
    points = []
    for drift in drifts:
        suite = synthetic_suite(
            programs_per_level, seed=seed + int(drift * 1000), drift=drift,
            name=f"drift{int(drift * 100):03d}",
        )
        drifted = DesignSpaceDataset(
            suite, dataset.configs, dataset.simulator
        )
        scores = []
        for program in suite.programs:
            score = evaluate_on_program(
                matrix, drifted, program, responses=responses,
                seed=stable_seed("drift", program, str(drift), str(seed)),
            )
            scores.append((score.rmae, score.correlation))
        points.append(_sweep_point(int(round(drift * 100)), scores))
    return SweepResult(metric=metric, points=tuple(points))


# ----------------------------------------------------------------------
# Figures 11/12 — thin wrappers with the paper's defaults
# ----------------------------------------------------------------------
def spec_error_experiment(
    dataset: DesignSpaceDataset,
    metric: Metric,
    repeats: int = 3,
    seed: int = 0,
    training_size: int = 512,
    responses: int = 32,
    n_jobs: Optional[int] = None,
) -> CrossValidationResult:
    """Fig. 11: per-SPEC-program training and testing error."""
    return leave_one_out(
        dataset, metric, training_size=training_size, responses=responses,
        repeats=repeats, seed=seed, n_jobs=n_jobs,
    )


def mibench_experiment(
    spec_dataset: DesignSpaceDataset,
    mibench_dataset: DesignSpaceDataset,
    metric: Metric,
    repeats: int = 3,
    seed: int = 0,
    training_size: int = 512,
    responses: int = 32,
    n_jobs: Optional[int] = None,
) -> CrossValidationResult:
    """Fig. 12: MiBench predicted from a SPEC CPU 2000-trained model."""
    return cross_suite(
        spec_dataset, mibench_dataset, metric,
        training_size=training_size, responses=responses,
        repeats=repeats, seed=seed, n_jobs=n_jobs,
    )

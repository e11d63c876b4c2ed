"""Cross-validation harnesses (Sections 6, 7 and 8 of the paper).

Three evaluation protocols:

* :func:`evaluate_on_program` — fit the architecture-centric model for
  one new program from R responses and score it on the held-out sample.
  It indexes a :class:`PoolMatrix`: every pool model's log10 prediction
  at every configuration, computed once per pool and configuration set
  (a model's output depends on the configuration alone; only the linear
  fit depends on the new program, Section 5.3).
* :func:`leave_one_out` — the paper's main protocol: for every program,
  train on all others, characterise the left-out program with R
  responses, validate on the rest of the 3,000-point sample, repeated
  with independent seeds.
* :func:`cross_suite` — train the pool on one suite (SPEC CPU 2000) and
  predict every program of another (MiBench), Section 7.3.

Each record carries both the testing error/correlation and the training
error of the response fit, which Section 7.2 uses as the signal that a
program (art, mcf, tiff2rgba, patricia) has unique behaviour.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.designspace.configuration import Configuration
from repro.ml.ensemble import StackedEnsemble
from repro.ml.metrics import correlation, rmae
from repro.obs import span
from repro.sim.metrics import Metric
from repro.workloads.profile import stable_seed

from .predictor import ArchitectureCentricPredictor
from .program_model import ProgramSpecificPredictor
from .training import TrainingPool, fold_programs

if TYPE_CHECKING:  # avoid a package-level import cycle with exploration
    from repro.exploration.dataset import DesignSpaceDataset


@dataclass(frozen=True)
class PredictionScore:
    """Accuracy of one fitted predictor on one program."""

    program: str
    metric: Metric
    rmae: float
    correlation: float
    training_error: float
    responses: int


@dataclass
class ProgramSummary:
    """Aggregated scores for one program across repeats."""

    program: str
    scores: List[PredictionScore] = field(default_factory=list)

    @property
    def mean_rmae(self) -> float:
        return float(np.mean([s.rmae for s in self.scores]))

    @property
    def std_rmae(self) -> float:
        return float(np.std([s.rmae for s in self.scores]))

    @property
    def mean_correlation(self) -> float:
        return float(np.mean([s.correlation for s in self.scores]))

    @property
    def mean_training_error(self) -> float:
        return float(np.mean([s.training_error for s in self.scores]))


@dataclass
class CrossValidationResult:
    """Result of a full cross-validation run."""

    metric: Metric
    summaries: Dict[str, ProgramSummary]

    @property
    def mean_rmae(self) -> float:
        """Average testing rmae across programs."""
        return float(
            np.mean([s.mean_rmae for s in self.summaries.values()])
        )

    @property
    def mean_correlation(self) -> float:
        """Average correlation coefficient across programs."""
        return float(
            np.mean([s.mean_correlation for s in self.summaries.values()])
        )

    def program(self, name: str) -> ProgramSummary:
        """Summary for one program."""
        try:
            return self.summaries[name]
        except KeyError:
            raise KeyError(
                f"no summary for program {name!r}; "
                f"known: {sorted(self.summaries)}"
            ) from None


#: Configurations per block of the pool pass.  The row-pure forward's
#: (N, rows, H) temporaries are ~4 MB at 512 rows; one 3,000-row pass
#: would set the peak memory of a leave-one-out process.
_BLOCK_ROWS = 512


class PoolMatrix:
    """Every pool model's log10 prediction at every configuration.

    A program model's output depends on the configuration alone, so a
    pool's (configurations x models) log10 matrix is computed once per
    pool and configuration set, and every fold fits and scores by
    indexing it.  The pass is
    :meth:`~repro.ml.ensemble.StackedEnsemble.log_model_matrix_invariant`
    over consecutive blocks of configurations: each entry is a pure
    function of its configuration and model, so a row has the same bits
    in every block and a column the same bits in every subset.  The
    BLAS pass is not row-pure (its last bits move with the number of
    rows in a call), so it cannot be indexed in place of a fold's own
    pass.

    Args:
        models: Trained program models that stack into one
            :class:`~repro.ml.ensemble.StackedEnsemble` (every
            :class:`~repro.core.training.TrainingPool`'s do).
        configs: The configurations to evaluate them at.

    Attributes:
        models: The matrix's models, one per column, in column order.
        configs: The configurations, one per row of ``values``.
        values: Read-only, C-contiguous (configurations x pool models)
            float64 matrix, shared by every :meth:`select` of the pool.
        columns: The columns of ``values`` this matrix covers.

    Raises:
        ValueError: if the models do not stack.
    """

    def __init__(
        self,
        models: Sequence[ProgramSpecificPredictor],
        configs: Sequence[Configuration],
    ) -> None:
        self.models: Tuple[ProgramSpecificPredictor, ...] = tuple(models)
        self.configs: Tuple[Configuration, ...] = tuple(configs)
        with span("crossval.pool_matrix", rows=len(self.configs),
                  models=len(self.models)):
            ensemble = StackedEnsemble.maybe_from_models(self.models)
            if ensemble is None:
                raise ValueError(
                    "the models do not stack into one ensemble (they need "
                    "one trained network shape and one design space)"
                )
            values = np.concatenate([
                ensemble.log_model_matrix_invariant(
                    self.configs[start:start + _BLOCK_ROWS]
                )
                for start in range(0, len(self.configs), _BLOCK_ROWS)
            ])
        values.flags.writeable = False
        self.values = values
        self.columns = np.arange(len(self.models))

    @property
    def programs(self) -> Tuple[str, ...]:
        """Program names, in column order."""
        return tuple(model.program for model in self.models)

    def select(
        self,
        include: Optional[Sequence[str]] = None,
        exclude: Optional[Sequence[str]] = None,
    ) -> "PoolMatrix":
        """The same matrix over a fold's models, without copying values.

        Takes the arguments of :meth:`TrainingPool.models` and picks the
        models it would return, in its order.

        Raises:
            KeyError: if ``include`` or ``exclude`` names a program the
                matrix does not hold.
        """
        position = {name: i for i, name in enumerate(self.programs)}
        picked = [
            position[name]
            for name in fold_programs(self.programs, include, exclude)
        ]
        selected = copy.copy(self)
        selected.models = tuple(self.models[i] for i in picked)
        selected.columns = self.columns[picked]
        return selected

    def rows(self, indices: Sequence[int]) -> np.ndarray:
        """(len(indices), models) C-contiguous copy, in column order.

        The combining regressor's GEMV picks its summation order from
        the layout, so the copy is laid out as a fold's own pass would
        return it.
        """
        return self.values[np.ix_(indices, self.columns)]


def evaluate_on_program(
    matrix: PoolMatrix,
    dataset: DesignSpaceDataset,
    program: str,
    responses: int = 32,
    seed: int = 0,
    ridge: float = 0.05,
) -> PredictionScore:
    """Fit and score the architecture-centric predictor on one program.

    The R responses are drawn from the dataset's configuration pool and
    the score is computed on the remaining configurations, exactly the
    paper's protocol.  The program models' predictions come from
    ``matrix``, the fold's :meth:`PoolMatrix.select` of a matrix over
    the dataset's configurations; the fold runs no forward pass.

    Raises:
        ValueError: if ``matrix`` was computed over other configurations.
    """
    if matrix.configs is not dataset.configs and (
        matrix.configs != dataset.configs
    ):
        raise ValueError(
            "the pool matrix was computed over another configuration set "
            "than the dataset's"
        )
    predictor = ArchitectureCentricPredictor(matrix.models, ridge=ridge)
    metric = predictor.metric
    response_idx, holdout_idx = dataset.split_indices(responses, seed=seed)
    predictor.fit_design(
        matrix.rows(response_idx),
        dataset.subset_values(program, metric, response_idx),
    )
    predictions = predictor.predict_design(matrix.rows(holdout_idx))
    actual = dataset.subset_values(program, metric, holdout_idx)
    return PredictionScore(
        program=program,
        metric=metric,
        rmae=rmae(predictions, actual),
        correlation=correlation(predictions, actual),
        training_error=predictor.training_error,
        responses=responses,
    )


def leave_one_out(
    dataset: DesignSpaceDataset,
    metric: Metric,
    training_size: int = 512,
    responses: int = 32,
    repeats: int = 5,
    seed: int = 0,
    programs: Optional[Sequence[str]] = None,
    n_jobs: Optional[int] = None,
) -> CrossValidationResult:
    """Leave-one-out cross-validation over a suite (Section 7.1/7.2).

    Each repeat trains its pool, computes one :class:`PoolMatrix` over
    the dataset's configurations, and scores every fold from it.

    Args:
        dataset: Shared simulated dataset for the suite.
        metric: Target metric.
        training_size: T simulations per training program.
        responses: R simulations from each left-out program.
        repeats: Independent repetitions with fresh splits/initialisation
            (the paper repeats 20 times; benches default lower and say so).
        seed: Base seed.
        programs: Restrict evaluation to these left-out programs
            (training still uses the whole suite minus the one left out).
        n_jobs: Worker processes for the offline pool training of each
            repeat (1 = serial; results are identical either way).
    """
    targets = list(programs) if programs is not None else list(dataset.programs)
    summaries = {name: ProgramSummary(name) for name in targets}
    for repeat in range(repeats):
        with span("crossval.repeat", protocol="leave-one-out",
                  repeat=repeat):
            pool = TrainingPool(
                dataset,
                metric,
                training_size=training_size,
                seed=stable_seed("loo", str(seed), str(repeat)),
                n_jobs=n_jobs,
            )
            matrix = PoolMatrix(pool.models(), dataset.configs)
            for name in targets:
                fold = matrix.select(exclude=[name])
                with span("crossval.evaluate", program=name,
                          repeat=repeat):
                    score = evaluate_on_program(
                        fold,
                        dataset,
                        name,
                        responses=responses,
                        seed=stable_seed(
                            "loo-resp", name, str(seed), str(repeat)
                        ),
                    )
                summaries[name].scores.append(score)
    return CrossValidationResult(metric=metric, summaries=summaries)


def cross_suite(
    train_dataset: DesignSpaceDataset,
    test_dataset: DesignSpaceDataset,
    metric: Metric,
    training_size: int = 512,
    responses: int = 32,
    repeats: int = 5,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> CrossValidationResult:
    """Train on one suite, predict every program of another (Section 7.3).

    Both datasets must share a design space; they need not share
    configurations (responses come from the test dataset's own pool,
    and each repeat's :class:`PoolMatrix` is computed over it).
    ``n_jobs`` controls the worker processes of each repeat's offline
    pool training (1 = serial; results are identical either way).
    """
    summaries = {
        name: ProgramSummary(name) for name in test_dataset.programs
    }
    for repeat in range(repeats):
        with span("crossval.repeat", protocol="cross-suite",
                  repeat=repeat):
            pool = TrainingPool(
                train_dataset,
                metric,
                training_size=training_size,
                seed=stable_seed("xsuite", str(seed), str(repeat)),
                n_jobs=n_jobs,
            )
            matrix = PoolMatrix(pool.models(), test_dataset.configs)
            for name in test_dataset.programs:
                with span("crossval.evaluate", program=name,
                          repeat=repeat):
                    score = evaluate_on_program(
                        matrix,
                        test_dataset,
                        name,
                        responses=responses,
                        seed=stable_seed(
                            "xsuite-resp", name, str(seed), str(repeat)
                        ),
                    )
                summaries[name].scores.append(score)
    return CrossValidationResult(metric=metric, summaries=summaries)


def program_specific_score(
    dataset: DesignSpaceDataset,
    program: str,
    metric: Metric,
    training_size: int,
    seed: int = 0,
) -> PredictionScore:
    """Score a program-specific ANN given ``training_size`` simulations.

    The comparison baseline of Section 7.4: the same simulation budget
    the architecture-centric model spends on responses is spent training
    a fresh per-program network instead.
    """
    train_idx, holdout_idx = dataset.split_indices(training_size, seed=seed)
    predictor = ProgramSpecificPredictor(
        space=dataset.simulator.space,
        metric=metric,
        program=program,
        seed=stable_seed("ps-net", program, str(seed)),
    )
    predictor.fit(
        dataset.subset_configs(train_idx),
        dataset.subset_values(program, metric, train_idx),
    )
    train_predictions = predictor.predict(dataset.subset_configs(train_idx))
    training_error = rmae(
        train_predictions, dataset.subset_values(program, metric, train_idx)
    )
    predictions = predictor.predict(dataset.subset_configs(holdout_idx))
    actual = dataset.subset_values(program, metric, holdout_idx)
    return PredictionScore(
        program=program,
        metric=metric,
        rmae=rmae(predictions, actual),
        correlation=correlation(predictions, actual),
        training_error=training_error,
        responses=training_size,
    )

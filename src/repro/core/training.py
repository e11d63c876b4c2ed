"""Offline training of the per-program model pool.

The architecture-centric scheme trains one program-specific ANN per
training program, offline, on T simulations each (Section 5.2, Fig. 6).
:class:`TrainingPool` owns that step: it trains the models once over a
shared dataset and serves arbitrary subsets (leave-one-out folds, random
few-program pools for the Section 8 cost study) without retraining,
because a program's model does not depend on which fold it appears in.

Training the pool is embarrassingly parallel — the N network fits share
nothing — so the pool fans out over a ``ProcessPoolExecutor`` when asked
(``n_jobs > 1``).  Workers receive the already-encoded training arrays,
fit the network, and ship the weights back through the existing
``get_weights``/``set_weights`` transport.  Every per-program seed is
derived deterministically from the pool seed, and the arrays a worker
fits are prepared by the exact code the serial path runs, so any worker
count produces **bit-identical** models to a serial run.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.mlp import MLPTrainingRecord, MultilayerPerceptron
from repro.obs import get_logger, get_registry, get_tracer, span
from repro.parallel import resolve_jobs
from repro.sim.metrics import Metric
from repro.workloads.profile import stable_seed

from .program_model import ProgramSpecificPredictor

if TYPE_CHECKING:  # avoid a package-level import cycle with exploration
    from repro.exploration.dataset import DesignSpaceDataset

_log = get_logger(__name__)


def _fit_network_worker(
    task: Tuple[str, np.ndarray, np.ndarray, int, int]
) -> Tuple[str, dict, Tuple[int, int, float, float], float]:
    """Train one program's network from prepared arrays (runs in a worker).

    Module-level so it pickles; receives nothing but plain arrays and
    ints, so the result depends only on the (deterministic) inputs.
    The fit wall time rides back with the weights so the parent can
    fold worker fits into its ``train.fit`` telemetry.
    """
    program, features, targets, hidden_neurons, net_seed = task
    network = MultilayerPerceptron(hidden_neurons=hidden_neurons, seed=net_seed)
    start = time.perf_counter()
    network.fit(features, targets)
    fit_seconds = time.perf_counter() - start
    record = network.training_record_
    return (
        program,
        network.get_weights(),
        (
            record.epochs_run,
            record.best_epoch,
            record.best_validation_loss,
            record.final_training_loss,
        ),
        fit_seconds,
    )


def fold_programs(
    programs: Sequence[str],
    include: Optional[Sequence[str]] = None,
    exclude: Optional[Sequence[str]] = None,
) -> List[str]:
    """The programs of a fold, in ``include`` order.

    Args:
        programs: Every program the fold may draw from.
        include: Programs to include (defaults to ``programs``).
        exclude: Programs to drop (e.g. the left-out test program).

    Raises:
        KeyError: if ``include`` or ``exclude`` names an unknown program.
    """
    names = list(include) if include is not None else list(programs)
    dropped = set(exclude or ())
    unknown = (set(names) | dropped) - set(programs)
    if unknown:
        raise KeyError(f"programs not in the pool: {sorted(unknown)}")
    return [name for name in names if name not in dropped]


class TrainingPool:
    """Per-program predictors trained offline over a shared dataset.

    Args:
        dataset: Simulated (program x configuration) metric data.
        metric: Target metric of every model in the pool.
        training_size: T — simulations per training program (the paper
            settles on 512).
        seed: Base seed; each program derives its own training split and
            network initialisation from it deterministically.
        hidden_neurons: ANN hidden width (the paper uses 10).
        n_jobs: Worker processes for bulk training (:meth:`train_all`
            and :meth:`models`); 1 trains serially in-process, -1 uses
            one worker per CPU.  The trained weights are identical for
            every worker count.
    """

    def __init__(
        self,
        dataset: DesignSpaceDataset,
        metric: Metric,
        training_size: int = 512,
        seed: int = 0,
        hidden_neurons: int = 10,
        n_jobs: Optional[int] = None,
    ) -> None:
        if training_size < 2:
            raise ValueError("training_size must be at least 2")
        if training_size > len(dataset):
            raise ValueError(
                f"training_size {training_size} exceeds the dataset's "
                f"{len(dataset)} configurations"
            )
        self.dataset = dataset
        self.metric = metric
        self.training_size = training_size
        self.seed = seed
        self.hidden_neurons = hidden_neurons
        self.n_jobs = resolve_jobs(n_jobs)
        self._models: Dict[str, ProgramSpecificPredictor] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def model(self, program: str) -> ProgramSpecificPredictor:
        """The trained model for one program (trained on first use)."""
        if program not in self._models:
            self._models[program] = self._train(program)
        return self._models[program]

    def _prepare(
        self, program: str
    ) -> Tuple[ProgramSpecificPredictor, np.ndarray, np.ndarray]:
        """Untrained predictor plus its encoded training arrays.

        One code path prepares the arrays for both the serial and the
        parallel fit, which is what makes them bit-identical.
        """
        split_seed = stable_seed(
            "pool-split", program, str(self.seed), str(self.training_size)
        )
        train_idx, _ = self.dataset.split_indices(
            self.training_size, seed=split_seed
        )
        configs = self.dataset.subset_configs(train_idx)
        values = self.dataset.subset_values(program, self.metric, train_idx)
        predictor = ProgramSpecificPredictor(
            space=self.dataset.simulator.space,
            metric=self.metric,
            program=program,
            hidden_neurons=self.hidden_neurons,
            seed=stable_seed("pool-net", program, str(self.seed)),
        )
        features, targets = predictor.training_arrays(configs, values)
        return predictor, features, targets

    def _train(self, program: str) -> ProgramSpecificPredictor:
        predictor, features, targets = self._prepare(program)
        with span(
            "train.fit", program=program, samples=int(features.shape[0])
        ) as fit_span:
            fitted = predictor.fit_prepared(features, targets)
            epochs = fitted.training_record.epochs_run
            if fit_span is not None:
                fit_span["attrs"]["epochs"] = epochs
        registry = get_registry()
        registry.counter("train.models").inc()
        registry.counter("train.epochs").inc(epochs)
        if fit_span is not None:
            registry.histogram("train.fit.seconds").observe(fit_span["dur"])
            _log.debug(
                "trained model for %s in %.3fs", program, fit_span["dur"],
                extra={"event": "train.fit", "program": program,
                       "seconds": fit_span["dur"]},
            )
        return fitted

    def _train_many(self, programs: Sequence[str], n_jobs: int) -> None:
        """Train the given programs, fanning out when ``n_jobs > 1``."""
        missing = [name for name in programs if name not in self._models]
        if not missing:
            return
        if n_jobs == 1 or len(missing) == 1:
            for name in missing:
                self._models[name] = self._train(name)
            return
        prepared = {name: self._prepare(name) for name in missing}
        tasks = [
            (
                name,
                features,
                targets,
                self.hidden_neurons,
                stable_seed("pool-net", name, str(self.seed)),
            )
            for name, (_, features, targets) in prepared.items()
        ]
        registry = get_registry()
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
            for name, weights, record, fit_seconds in pool.map(
                _fit_network_worker, tasks
            ):
                predictor = prepared[name][0]
                predictor.adopt_network_weights(
                    weights,
                    training_size=prepared[name][1].shape[0],
                    training_record=MLPTrainingRecord(*record),
                )
                self._models[name] = predictor
                epochs = predictor.training_record.epochs_run
                registry.counter("train.models").inc()
                registry.counter("train.epochs").inc(epochs)
                registry.histogram("train.fit.seconds").observe(fit_seconds)
                get_tracer().record(
                    "train.fit", fit_seconds, program=name, worker=True,
                    samples=int(prepared[name][1].shape[0]), epochs=epochs,
                )

    def train_all(self, n_jobs: Optional[int] = None) -> "TrainingPool":
        """Eagerly train every program's model (otherwise lazy).

        Args:
            n_jobs: Override the pool's worker count for this call
                (``None`` keeps the constructor's setting).
        """
        jobs = self.n_jobs if n_jobs is None else resolve_jobs(n_jobs)
        self._train_many(list(self.dataset.programs), jobs)
        return self

    # ------------------------------------------------------------------
    # Serving folds
    # ------------------------------------------------------------------
    def models(
        self,
        include: Optional[Sequence[str]] = None,
        exclude: Optional[Sequence[str]] = None,
    ) -> List[ProgramSpecificPredictor]:
        """Trained models for a fold.

        Args:
            include: Programs to include (defaults to the whole suite).
            exclude: Programs to drop (e.g. the left-out test program).
        """
        wanted = fold_programs(self.dataset.programs, include, exclude)
        self._train_many(wanted, self.n_jobs)
        return [self._models[name] for name in wanted]

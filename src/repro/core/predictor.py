"""The architecture-centric predictor — the paper's contribution.

Section 5.3: the design space of a *new* program is modelled as a linear
combination of the design spaces of previously seen programs.  Offline,
one program-specific ANN is trained per training program (T simulations
each).  Online, the new program is simulated at only R configurations
(the *responses*); a linear regressor is fitted mapping the training
models' predictions at those configurations to the new program's
responses.  Predicting any point of the 18-billion-point space is then
one forward pass through N small ANNs and a weighted sum.

The training error of the linear fit doubles as a confidence signal
(Section 7.2): a program whose responses the combination cannot fit —
art, mcf — will also predict poorly, telling the architect to fall back
to a program-specific model.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.designspace.configuration import Configuration
from repro.ml.ensemble import StackedEnsemble
from repro.ml.linear import LinearRegressor
from repro.ml.metrics import correlation, rmae
from repro.obs import get_registry, span
from repro.sim.metrics import Metric

from .program_model import ProgramSpecificPredictor


class ArchitectureCentricPredictor:
    """Cross-program predictor built from offline-trained program models.

    Args:
        program_models: Trained :class:`ProgramSpecificPredictor` objects,
            one per offline training program, all for the same metric.
        ridge: Ridge penalty of the combining regressor.  The default
            of 0.05 matters: with N ~ 25 training programs and R = 32
            responses the least-squares problem sits near the
            interpolation threshold, where an unregularised fit has a
            classic variance peak (predicting *worse* at R = 32 than at
            R = 8); a modest ridge flattens it (ablation A2 sweeps this).
    """

    def __init__(
        self,
        program_models: Sequence[ProgramSpecificPredictor],
        ridge: float = 0.05,
    ) -> None:
        if not program_models:
            raise ValueError("at least one trained program model is required")
        metrics = {model.metric for model in program_models}
        if len(metrics) != 1:
            raise ValueError(
                f"all program models must target the same metric, got {metrics}"
            )
        self.metric: Metric = program_models[0].metric
        self.program_models: List[ProgramSpecificPredictor] = list(program_models)
        self._regressor = LinearRegressor(fit_intercept=True, ridge=ridge)
        self._fitted = False
        self.training_error_: float = float("nan")
        self.response_count_: int = 0
        self._ensemble: Optional[StackedEnsemble] = None
        self._ensemble_built = False

    # ------------------------------------------------------------------
    # Fitting on responses
    # ------------------------------------------------------------------
    def _model_matrix(self, configs: Sequence[Configuration]) -> np.ndarray:
        """(n, N) matrix of each program model's predictions.

        Predictions are taken in log10 space so that the combination
        weighs programs by shape rather than by sheer magnitude, and the
        final prediction is mapped back to raw units.

        The matrix is produced by a :class:`StackedEnsemble` — one
        encode and one batched forward pass instead of N per-model
        passes — whenever the pool stacks (trained models sharing one
        network shape and design space, the normal case).  The result
        is bit-identical to the per-model loop, which remains as the
        fallback for heterogeneous pools.
        """
        ensemble = self._stacked_ensemble()
        if ensemble is not None:
            return ensemble.log_model_matrix(configs)
        columns = [model.predict(configs) for model in self.program_models]
        return np.log10(np.stack(columns, axis=1))

    def _stacked_ensemble(self) -> Optional[StackedEnsemble]:
        """The stacked fast path, built lazily on first prediction."""
        if not self._ensemble_built:
            self._ensemble_built = True
            self._ensemble = StackedEnsemble.maybe_from_models(
                self.program_models
            )
        return self._ensemble

    def fit_responses(
        self,
        response_configs: Sequence[Configuration],
        response_values: np.ndarray,
    ) -> "ArchitectureCentricPredictor":
        """Fit the combining regressor on the new program's responses.

        Builds the (R, N) design with one stacked forward pass over the
        responses and fits it through :meth:`fit_design`.

        Args:
            response_configs: The R simulated configurations.
            response_values: The new program's measured metric at those
                configurations.
        """
        return self.fit_design(
            self._model_matrix(response_configs), response_values
        )

    def fit_design(
        self, design: np.ndarray, response_values: np.ndarray
    ) -> "ArchitectureCentricPredictor":
        """Fit the combining regressor on an already computed design.

        Args:
            design: (R, N) log10 predictions of the program models at the
                R responses, one column per model in
                ``program_models`` order.
            response_values: The new program's measured metric at those
                configurations.
        """
        design = np.asarray(design, dtype=float)
        response_values = np.asarray(response_values, dtype=float).reshape(-1)
        if design.ndim != 2 or design.shape[1] != len(self.program_models):
            raise ValueError(
                f"design has shape {design.shape}; expected one column per "
                f"program model ({len(self.program_models)})"
            )
        if design.shape[0] != response_values.shape[0]:
            raise ValueError(
                f"configs and values disagree on sample count: "
                f"{design.shape[0]} configurations vs "
                f"{response_values.shape[0]} values"
            )
        if design.shape[0] < 2:
            raise ValueError("at least two responses are required")
        if not np.all(np.isfinite(response_values)):
            bad = int(np.sum(~np.isfinite(response_values)))
            raise ValueError(
                f"{bad} response value(s) are NaN/Inf; refusing to fit on "
                "non-finite metrics (check the simulation backend)"
            )
        if np.any(response_values <= 0.0):
            raise ValueError("metric values must be positive")

        with span(
            "predict.fit_responses", responses=design.shape[0],
            models=len(self.program_models),
        ):
            self._regressor.fit(design, np.log10(response_values))
        self._fitted = True
        self.response_count_ = design.shape[0]
        # Reuse the design matrix for the training error instead of
        # recomputing every model's predictions through self.predict.
        self.training_error_ = rmae(
            self.predict_design(design), response_values
        )
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Predict the new program's metric anywhere in the space.

        Batch timing lands in the ``predict.batch.seconds`` histogram
        and the ``predict.configs`` counter — metric bumps rather than
        spans, because tight ``predict_one`` loops would otherwise
        flood the trace.
        """
        if not self._fitted:
            raise RuntimeError(
                "the predictor has not been fitted on responses yet"
            )
        start = time.perf_counter()
        result = self.predict_design(self._model_matrix(configs))
        registry = get_registry()
        registry.histogram("predict.batch.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("predict.configs").inc(len(configs))
        return result

    def predict_invariant(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Batch-composition-invariant predictions (the serving path).

        Identical weights to :meth:`predict`, but every stage — the
        stacked member forward, the log10 design matrix, the combining
        regressor — uses operations whose per-row rounding is
        independent of what else shares the batch (see
        :meth:`~repro.ml.ensemble.StackedEnsemble.predict_features_invariant`).
        A configuration's prediction is therefore a pure function of
        the configuration: predicting it alone, inside any coalesced
        batch, or from a cache all yield the same bits.  The inference
        server (:mod:`repro.serve`) routes every request through this
        method, which is what makes its request coalescing and its
        per-configuration LRU cache exact rather than approximately
        right.  Agreement with :meth:`predict` is within BLAS rounding
        (last ulp), not bit-exact.

        Raises:
            RuntimeError: if unfitted, or if the pool does not stack
                (heterogeneous pools have no invariant fast path).
        """
        if not self._fitted:
            raise RuntimeError(
                "the predictor has not been fitted on responses yet"
            )
        ensemble = self._stacked_ensemble()
        if ensemble is None:
            raise RuntimeError(
                "batch-invariant prediction needs a stackable model pool "
                "(homogeneous trained networks sharing one design space)"
            )
        start = time.perf_counter()
        design = ensemble.log_model_matrix_invariant(configs)
        log_prediction = self._regressor.predict_invariant(design)
        result = np.power(10.0, np.clip(log_prediction, -30.0, 30.0))
        registry = get_registry()
        registry.histogram("predict.batch.seconds").observe(
            time.perf_counter() - start
        )
        registry.counter("predict.configs").inc(len(configs))
        return result

    def predict_design(self, design: np.ndarray) -> np.ndarray:
        """Combine an already computed (n, N) design matrix.

        ``design`` holds the program models' log10 predictions, laid
        out as :meth:`fit_design` takes them.  The combining GEMV picks
        its summation order from the memory layout, so equal values in a
        C-contiguous and a transposed array can differ in the last ulp.
        """
        log_prediction = self._regressor.predict(design)
        return np.power(10.0, np.clip(log_prediction, -30.0, 30.0))

    def predict_one(self, config: Configuration) -> float:
        """Predict a single configuration."""
        return float(self.predict([config])[0])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def training_error(self) -> float:
        """rmae (%) of the fit on the responses — the confidence signal."""
        if not self._fitted:
            raise RuntimeError(
                "the predictor has not been fitted on responses yet"
            )
        return self.training_error_

    @property
    def program_weights(self) -> Dict[str, float]:
        """Fitted combination weight per training program."""
        if not self._fitted:
            raise RuntimeError(
                "the predictor has not been fitted on responses yet"
            )
        return {
            model.program: float(weight)
            for model, weight in zip(
                self.program_models, self._regressor.coefficients
            )
        }

    def evaluate(
        self,
        configs: Sequence[Configuration],
        actual_values: np.ndarray,
    ) -> Dict[str, float]:
        """rmae and correlation against held-out simulated truth."""
        predictions = self.predict(configs)
        return {
            "rmae": rmae(predictions, actual_values),
            "correlation": correlation(predictions, actual_values),
        }

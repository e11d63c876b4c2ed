"""Program-specific predictors (the state-of-the-art baseline).

A program-specific predictor (Ipek et al., ASPLOS 2006 — reference [7]
of the paper) maps a microarchitectural configuration vector to one
target metric for one program, using a one-hidden-layer artificial
neural network trained on simulations of that program.  It is both a
building block of the architecture-centric model (Section 5.2) and the
baseline it is compared against (Section 7.4).

Targets are learned in log10 space: the design space spans more than an
order of magnitude for the heavier metrics (EDD covers several decades)
and relative error — the paper's rmae — is exactly what a log-space
squared loss optimises for.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.designspace.configuration import Configuration
from repro.designspace.space import DesignSpace
from repro.ml.mlp import MLPTrainingRecord, MultilayerPerceptron
from repro.sim.metrics import Metric


class ProgramSpecificPredictor:
    """ANN predictor of one metric for one program.

    Args:
        space: Design space used to encode configurations.
        metric: Which target metric this predictor models.
        program: Program name, for bookkeeping and reporting.
        hidden_neurons: Hidden-layer width (the paper uses 10).
        seed: Seed for the network's initialisation.
        log_target: Learn log10(metric) rather than the raw value.
    """

    def __init__(
        self,
        space: DesignSpace,
        metric: Metric,
        program: str = "",
        hidden_neurons: int = 10,
        seed: Optional[int] = None,
        log_target: bool = True,
    ) -> None:
        self.space = space
        self.metric = metric
        self.program = program
        self.log_target = log_target
        self._network = MultilayerPerceptron(
            hidden_neurons=hidden_neurons, seed=seed
        )
        self._trained = False
        self.training_size_: int = 0

    def training_arrays(
        self,
        configs: Sequence[Configuration],
        values: np.ndarray,
    ) -> tuple:
        """Validate and encode a training set into (features, targets).

        The exact preprocessing :meth:`fit` applies, exposed so callers
        that train the network elsewhere (e.g. the parallel training
        pool, which fits in worker processes) produce bit-identical
        inputs to an in-process fit.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        if len(configs) != values.shape[0]:
            raise ValueError("configs and values disagree on sample count")
        if np.any(values <= 0.0):
            raise ValueError("metric values must be positive")
        features = self.space.encode_many(configs)
        targets = np.log10(values) if self.log_target else values
        return features, targets

    def fit(
        self,
        configs: Sequence[Configuration],
        values: np.ndarray,
    ) -> "ProgramSpecificPredictor":
        """Train on simulated (configuration, metric value) pairs."""
        return self.fit_prepared(*self.training_arrays(configs, values))

    def fit_prepared(
        self, features: np.ndarray, targets: np.ndarray
    ) -> "ProgramSpecificPredictor":
        """Train on arrays produced by :meth:`training_arrays`.

        Splitting preparation from fitting lets the training pool encode
        once in the parent process and fit in workers; the combined path
        is bit-identical to :meth:`fit`.
        """
        self._network.fit(features, targets)
        self._trained = True
        self.training_size_ = features.shape[0]
        return self

    @property
    def training_record(self) -> Optional[MLPTrainingRecord]:
        """The network's last training record (``None`` before a fit)."""
        return self._network.training_record_

    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Predict the metric for a batch of configurations."""
        if not self._trained:
            raise RuntimeError(
                f"program-specific predictor for {self.program!r} "
                "has not been trained"
            )
        features = self.space.encode_many(configs)
        raw = self._network.predict(features)
        if self.log_target:
            # Clip the exponent so a wild extrapolation cannot overflow.
            return np.power(10.0, np.clip(raw, -30.0, 30.0))
        return raw

    def predict_one(self, config: Configuration) -> float:
        """Predict the metric for a single configuration."""
        return float(self.predict([config])[0])

    # ------------------------------------------------------------------
    # Weight transport (persistence, parallel training, stacking)
    # ------------------------------------------------------------------
    def network_weights(self) -> dict:
        """Export the trained network's weights and scaler state.

        Raises:
            RuntimeError: if the predictor has not been trained.
        """
        if not self._trained:
            raise RuntimeError(
                f"program-specific predictor for {self.program!r} "
                "has not been trained"
            )
        return self._network.get_weights()

    def adopt_network_weights(
        self,
        weights: dict,
        training_size: int,
        training_record=None,
    ) -> "ProgramSpecificPredictor":
        """Install weights exported by :meth:`network_weights`.

        The inverse of :meth:`network_weights`: restores a network
        trained elsewhere (another process, a serialised pool) so the
        predictor behaves exactly as if :meth:`fit` had run in-process.
        """
        self._network.set_weights(weights)
        if training_record is not None:
            self._network.training_record_ = training_record
        self._trained = True
        self.training_size_ = int(training_size)
        return self

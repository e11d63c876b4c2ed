"""Multilayer perceptron, implemented from scratch on numpy.

The paper's program-specific predictors (Section 5.2) are multilayer
perceptrons with one hidden layer of 10 neurons: a non-linear (tanh)
hidden layer and a linear output layer so the network can extrapolate
beyond the target range seen in training, trained by back-propagation.
This module reimplements exactly that architecture; the weight updates
use Adam (adaptive-moment back-propagation), which reaches the same
optimum as classical momentum descent in far fewer epochs on these
small, ill-conditioned regression problems.  Early stopping against a
held-out validation split guards against overfitting when the training
set is large enough to afford one.

Inputs and targets are standardised internally, so callers pass raw
feature vectors and raw targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .scaling import StandardScaler

#: Adam moment-decay constants (standard values).
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
#: Validate every this many epochs (validation is cheap but not free).
_VALIDATION_STRIDE = 10


@dataclass(frozen=True)
class MLPTrainingRecord:
    """Summary of one training run (exposed for tests and diagnostics)."""

    epochs_run: int
    best_epoch: int
    best_validation_loss: float
    final_training_loss: float


def _views(flat: np.ndarray, input_dim: int, hidden: int) -> tuple:
    """(w_hidden, b_hidden, w_output, 0-d b_output) views into ``flat``."""
    edges = np.cumsum([input_dim * hidden, hidden, hidden])
    w_hidden, b_hidden, w_output, b_output = np.split(flat, edges)
    return (w_hidden.reshape(input_dim, hidden), b_hidden, w_output,
            b_output[0, ...])


class MultilayerPerceptron:
    """One-hidden-layer perceptron regressor (tanh hidden, linear output).

    Args:
        hidden_neurons: Hidden layer size; the paper uses 10.
        learning_rate: Adam step size on standardised data.
        epochs: Maximum training epochs (full-batch).
        validation_fraction: Share of the training data held out for
            early stopping (skipped for very small training sets, where
            the paper's baseline behaviour — fit whatever the samples
            support — is exactly what we want to reproduce).
        patience: Early-stopping patience, in validation checks.
        seed: Seed for weight initialisation and the validation split.
    """

    def __init__(
        self,
        hidden_neurons: int = 10,
        learning_rate: float = 0.01,
        epochs: int = 3000,
        validation_fraction: float = 0.15,
        patience: int = 30,
        seed: Optional[int] = None,
    ) -> None:
        if hidden_neurons < 1:
            raise ValueError("hidden_neurons must be at least 1")
        if learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 <= validation_fraction < 0.5:
            raise ValueError("validation_fraction must be in [0, 0.5)")
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.hidden_neurons = hidden_neurons
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.seed = seed

        self._x_scaler = StandardScaler()
        self._y_scaler = StandardScaler()
        self._hidden_weights: np.ndarray | None = None
        self._hidden_bias: np.ndarray | None = None
        self._output_weights: np.ndarray | None = None
        self._output_bias: float = 0.0
        self.training_record_: MLPTrainingRecord | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self, features: np.ndarray, targets: np.ndarray
    ) -> "MultilayerPerceptron":
        """Train the network on raw (features, targets).

        The four parameter tensors (and their gradients) are views into
        one flat vector, so one in-place Adam step updates them all.
        """
        features = np.atleast_2d(np.asarray(features, dtype=float))
        targets = np.asarray(targets, dtype=float).reshape(-1)
        if features.shape[0] != targets.shape[0]:
            raise ValueError("features and targets disagree on sample count")
        if features.shape[0] < 2:
            raise ValueError("training needs at least two samples")
        bad = np.count_nonzero(~np.isfinite(features)) + np.count_nonzero(
            ~np.isfinite(targets)
        )
        if bad:
            raise ValueError(
                f"{bad} training value(s) are NaN/Inf; refusing to fit on "
                "non-finite features or targets"
            )

        rng = np.random.default_rng(self.seed)
        x = self._x_scaler.fit_transform(features)
        y = self._y_scaler.fit_transform(targets.reshape(-1, 1)).reshape(-1)

        # Validation split for early stopping (only when data allows it).
        sample_count = x.shape[0]
        validation_count = int(sample_count * self.validation_fraction)
        use_validation = validation_count >= 8
        order = rng.permutation(sample_count)
        if use_validation:
            x_val, y_val = x[order[:validation_count]], y[order[:validation_count]]
            x_train, y_train = x[order[validation_count:]], y[order[validation_count:]]
        else:
            x_train, y_train = x[order], y[order]

        input_dim = x.shape[1]
        hidden = self.hidden_neurons
        params = np.zeros(input_dim * hidden + 2 * hidden + 1)
        grads = np.empty_like(params)
        w_hidden, b_hidden, w_output, b_output = _views(params, input_dim, hidden)
        g_w_hidden, g_b_hidden, g_w_output, g_b_output = _views(
            grads, input_dim, hidden
        )
        limit_hidden = np.sqrt(6.0 / (input_dim + hidden))
        limit_output = np.sqrt(6.0 / (hidden + 1))
        w_hidden[...] = rng.uniform(-limit_hidden, limit_hidden, (input_dim, hidden))
        w_output[...] = rng.uniform(-limit_output, limit_output, hidden)

        # Adam moments and step buffers, plus the epoch's temporaries.
        moment1, moment2 = np.zeros_like(params), np.zeros_like(params)
        step, denominator = np.empty_like(params), np.empty_like(params)
        n = x_train.shape[0]
        hidden_act, slope = np.empty((n, hidden)), np.empty((n, hidden))
        grad_hidden = np.empty((n, hidden))
        error, grad_output = np.empty(n), np.empty(n)
        grad_column = grad_output[:, None]

        best_params, best_loss, best_epoch = params.copy(), np.inf, 0
        stall = epoch = 0
        for epoch in range(1, self.epochs + 1):
            # Forward pass.
            np.matmul(x_train, w_hidden, out=hidden_act)
            hidden_act += b_hidden
            np.tanh(hidden_act, out=hidden_act)
            np.matmul(hidden_act, w_output, out=error)
            error += b_output
            error -= y_train

            # Backward pass (mean-squared-error gradients).
            np.multiply(2.0, error, out=grad_output)
            grad_output /= n
            np.matmul(hidden_act.T, grad_output, out=g_w_output)
            np.add.reduce(grad_output, out=g_b_output)
            np.multiply(grad_column, w_output, out=grad_hidden)
            np.multiply(hidden_act, hidden_act, out=slope)
            np.subtract(1.0, slope, out=slope)
            grad_hidden *= slope
            np.matmul(x_train.T, grad_hidden, out=g_w_hidden)
            np.add.reduce(grad_hidden, axis=0, out=g_b_hidden)

            # Adam over every parameter at once.  Each line keeps the operand
            # order of m = β1·m + (1 − β1)·g, v = β2·v + ((1 − β2)·g)·g and
            # Δ = ((−lr)·m̂) / (√v̂ + ε), so the bits match a per-tensor step.
            moment1 *= _BETA1
            np.multiply(1.0 - _BETA1, grads, out=step)
            moment1 += step
            moment2 *= _BETA2
            np.multiply(1.0 - _BETA2, grads, out=step)
            step *= grads
            moment2 += step
            np.divide(moment1, 1.0 - _BETA1**epoch, out=step)
            step *= -self.learning_rate
            np.divide(moment2, 1.0 - _BETA2**epoch, out=denominator)
            np.sqrt(denominator, out=denominator)
            denominator += _EPS
            step /= denominator
            params += step

            # Periodic early-stopping check on the validation split.
            if use_validation and epoch % _VALIDATION_STRIDE == 0:
                val_prediction = (
                    np.tanh(x_val @ w_hidden + b_hidden) @ w_output + b_output
                )
                val_loss = float(np.mean((val_prediction - y_val) ** 2))
                if val_loss < best_loss - 1e-10:
                    best_params, best_loss, best_epoch = params.copy(), val_loss, epoch
                    stall = 0
                else:
                    stall += 1
                    if stall >= self.patience:
                        break

        # Only the last epoch's loss is reported, so only it is computed.
        training_loss = float(np.mean(error**2))
        if not use_validation:
            best_params, best_loss, best_epoch = params, training_loss, epoch
        (self._hidden_weights, self._hidden_bias, self._output_weights,
         output_bias) = _views(best_params, input_dim, hidden)
        self._output_bias = float(output_bias)
        self.training_record_ = MLPTrainingRecord(
            epochs_run=epoch,
            best_epoch=best_epoch,
            best_validation_loss=best_loss,
            final_training_loss=training_loss,
        )
        return self

    # ------------------------------------------------------------------
    # Weight export / import
    # ------------------------------------------------------------------
    def get_weights(self) -> dict:
        """Export trained weights and scaler state (for persistence)."""
        if self._hidden_weights is None:
            raise RuntimeError("the network has not been trained")
        return {
            "hidden_weights": self._hidden_weights.copy(),
            "hidden_bias": self._hidden_bias.copy(),
            "output_weights": self._output_weights.copy(),
            "output_bias": np.array(self._output_bias),
            "x_mean": self._x_scaler.mean_.copy(),
            "x_scale": self._x_scaler.scale_.copy(),
            "y_mean": self._y_scaler.mean_.copy(),
            "y_scale": self._y_scaler.scale_.copy(),
        }

    def set_weights(self, weights: dict) -> "MultilayerPerceptron":
        """Restore a network exported by :meth:`get_weights`."""
        required = {
            "hidden_weights", "hidden_bias", "output_weights",
            "output_bias", "x_mean", "x_scale", "y_mean", "y_scale",
        }
        missing = required - set(weights)
        if missing:
            raise ValueError(f"missing weight arrays: {sorted(missing)}")
        self._hidden_weights = np.asarray(weights["hidden_weights"], dtype=float)
        self._hidden_bias = np.asarray(weights["hidden_bias"], dtype=float)
        self._output_weights = np.asarray(weights["output_weights"], dtype=float)
        self._output_bias = float(np.asarray(weights["output_bias"]))
        self._x_scaler.mean_ = np.asarray(weights["x_mean"], dtype=float)
        self._x_scaler.scale_ = np.asarray(weights["x_scale"], dtype=float)
        self._y_scaler.mean_ = np.asarray(weights["y_mean"], dtype=float)
        self._y_scaler.scale_ = np.asarray(weights["y_scale"], dtype=float)
        self.hidden_neurons = self._hidden_weights.shape[1]
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict raw targets for raw feature vectors."""
        if self._hidden_weights is None:
            raise RuntimeError("the network has not been trained")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        x = self._x_scaler.transform(features)
        hidden = np.tanh(x @ self._hidden_weights + self._hidden_bias)
        scaled = hidden @ self._output_weights + self._output_bias
        return self._y_scaler.inverse_transform(
            scaled.reshape(-1, 1)
        ).reshape(-1)

"""Frozen oracle for the bits of ``MultilayerPerceptron.fit``.

``fit`` trains through one flat parameter vector: the four tensors and
their gradients are views into it, one in-place Adam step updates every
parameter, and the epoch's temporaries are preallocated.  That is only
a speed-up if it changes no bit.  This file keeps the loop it replaced
(one ``_Adam`` state per tensor, a fresh array for every temporary and
the training loss on every epoch) as the reference, and asserts exact
equality of every exported weight array, every training-record field
and the predictions, over sizes that straddle the validation split's
8-sample floor, both input widths the predictors use, a one-neuron
hidden layer, every way the loop can end, and the training arrays of
three leave-one-out pool programs at the paper's T = 512.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.training import TrainingPool
from repro.exploration import DesignSpaceDataset
from repro.ml.mlp import MLPTrainingRecord, MultilayerPerceptron
from repro.ml.scaling import StandardScaler
from repro.sim import Metric
from repro.workloads import spec2000_suite
from repro.workloads.profile import stable_seed

_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
_VALIDATION_STRIDE = 10


class _Adam:
    """Adam state for one parameter tensor (the reference's optimiser)."""

    def __init__(self, shape) -> None:
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def step(self, gradient: np.ndarray, learning_rate: float, t: int) -> np.ndarray:
        self.m = _BETA1 * self.m + (1.0 - _BETA1) * gradient
        self.v = _BETA2 * self.v + (1.0 - _BETA2) * gradient * gradient
        m_hat = self.m / (1.0 - _BETA1**t)
        v_hat = self.v / (1.0 - _BETA2**t)
        return -learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)


def _reference_fit(net: MultilayerPerceptron, features, targets):
    """The per-tensor epoch loop, verbatim; returns (weights, record)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    x_scaler, y_scaler = StandardScaler(), StandardScaler()
    rng = np.random.default_rng(net.seed)
    x = x_scaler.fit_transform(features)
    y = y_scaler.fit_transform(targets.reshape(-1, 1)).reshape(-1)

    sample_count = x.shape[0]
    validation_count = int(sample_count * net.validation_fraction)
    use_validation = validation_count >= 8
    order = rng.permutation(sample_count)
    if use_validation:
        x_val, y_val = x[order[:validation_count]], y[order[:validation_count]]
        x_train, y_train = x[order[validation_count:]], y[order[validation_count:]]
    else:
        x_val = y_val = None
        x_train, y_train = x[order], y[order]

    input_dim = x.shape[1]
    hidden = net.hidden_neurons
    limit_hidden = np.sqrt(6.0 / (input_dim + hidden))
    limit_output = np.sqrt(6.0 / (hidden + 1))
    w_hidden = rng.uniform(-limit_hidden, limit_hidden, (input_dim, hidden))
    b_hidden = np.zeros(hidden)
    w_output = rng.uniform(-limit_output, limit_output, hidden)
    b_output = 0.0

    adam_w_hidden = _Adam(w_hidden.shape)
    adam_b_hidden = _Adam(b_hidden.shape)
    adam_w_output = _Adam(w_output.shape)
    adam_b_output = _Adam(())

    best = {
        "loss": np.inf,
        "epoch": 0,
        "w_hidden": w_hidden.copy(),
        "b_hidden": b_hidden.copy(),
        "w_output": w_output.copy(),
        "b_output": b_output,
    }
    stall = 0
    n = x_train.shape[0]
    training_loss = np.inf
    epoch = 0
    for epoch in range(1, net.epochs + 1):
        hidden_act = np.tanh(x_train @ w_hidden + b_hidden)
        prediction = hidden_act @ w_output + b_output
        error = prediction - y_train
        training_loss = float(np.mean(error**2))

        grad_output = 2.0 * error / n
        g_w_output = hidden_act.T @ grad_output
        g_b_output = float(np.sum(grad_output))
        grad_hidden = np.outer(grad_output, w_output) * (1.0 - hidden_act**2)
        g_w_hidden = x_train.T @ grad_hidden
        g_b_hidden = grad_hidden.sum(axis=0)

        w_hidden = w_hidden + adam_w_hidden.step(g_w_hidden, net.learning_rate, epoch)
        b_hidden = b_hidden + adam_b_hidden.step(g_b_hidden, net.learning_rate, epoch)
        w_output = w_output + adam_w_output.step(g_w_output, net.learning_rate, epoch)
        b_output = b_output + float(
            adam_b_output.step(np.asarray(g_b_output), net.learning_rate, epoch)
        )

        if use_validation and epoch % _VALIDATION_STRIDE == 0:
            val_prediction = np.tanh(x_val @ w_hidden + b_hidden) @ w_output + b_output
            val_loss = float(np.mean((val_prediction - y_val) ** 2))
            if val_loss < best["loss"] - 1e-10:
                best.update(
                    loss=val_loss,
                    epoch=epoch,
                    w_hidden=w_hidden.copy(),
                    b_hidden=b_hidden.copy(),
                    w_output=w_output.copy(),
                    b_output=b_output,
                )
                stall = 0
            else:
                stall += 1
                if stall >= net.patience:
                    break

    if use_validation:
        weights = (best["w_hidden"], best["b_hidden"], best["w_output"],
                   float(best["b_output"]))
        best_loss, best_epoch = float(best["loss"]), int(best["epoch"])
    else:
        weights = (w_hidden, b_hidden, w_output, float(b_output))
        best_loss, best_epoch = training_loss, epoch
    exported = {
        "hidden_weights": weights[0].copy(),
        "hidden_bias": weights[1].copy(),
        "output_weights": weights[2].copy(),
        "output_bias": np.array(weights[3]),
        "x_mean": x_scaler.mean_.copy(),
        "x_scale": x_scaler.scale_.copy(),
        "y_mean": y_scaler.mean_.copy(),
        "y_scale": y_scaler.scale_.copy(),
    }
    record = MLPTrainingRecord(
        epochs_run=epoch,
        best_epoch=best_epoch,
        best_validation_loss=best_loss,
        final_training_loss=training_loss,
    )
    return exported, record


def _assert_same_bits(make_net, features, targets):
    """Fit ``make_net()`` both ways and compare weights, record, output."""
    fitted = make_net().fit(features, targets)
    weights, record = _reference_fit(make_net(), features, targets)
    exported = fitted.get_weights()
    assert exported.keys() == weights.keys()
    for key, expected in weights.items():
        got = exported[key]
        assert got.shape == expected.shape, key
        assert got.dtype == expected.dtype, key
        assert got.tobytes() == expected.tobytes(), key
    assert fitted.training_record_ == record
    reference = make_net().set_weights(weights)
    probe = np.concatenate([features, features[:3] * 1.5 + 0.25])
    assert fitted.predict(probe).tobytes() == reference.predict(probe).tobytes()
    return record


def _data(n: int, d: int, seed: int):
    rng = np.random.default_rng(1000 * n + 10 * d + seed)
    scales = 10.0 ** rng.integers(-2, 3, d)
    features = rng.uniform(0.0, 1.0, (n, d)) * scales
    mix = rng.standard_normal(d) / scales
    targets = np.sin(features @ mix) + 0.1 * rng.standard_normal(n) + 3.0
    return features, targets


#: Every way the epoch loop can end (keyword arguments of the network).
_EXITS = {
    "max_epochs": dict(epochs=120, patience=1000),
    "early_stop": dict(epochs=600, patience=2),
    "one_epoch": dict(epochs=1),
    "no_validation": dict(epochs=120, validation_fraction=0.0),
}


class TestSyntheticGrid:
    @pytest.mark.parametrize("exit_kind", sorted(_EXITS))
    @pytest.mark.parametrize("hidden", [1, 10])
    @pytest.mark.parametrize("dims", [1, 13])
    @pytest.mark.parametrize("samples", [2, 16, 53, 54, 120, 512])
    def test_fit_matches_the_per_tensor_loop(self, samples, dims, hidden,
                                             exit_kind):
        features, targets = _data(samples, dims, seed=hidden)
        options = _EXITS[exit_kind]

        def make_net():
            return MultilayerPerceptron(hidden_neurons=hidden, seed=samples,
                                        **options)

        record = _assert_same_bits(make_net, features, targets)
        validated = int(samples * make_net().validation_fraction) >= 8
        if exit_kind == "early_stop" and validated:
            assert record.epochs_run < options["epochs"]
        elif exit_kind != "early_stop":
            assert record.epochs_run == options["epochs"]


class TestLeaveOneOutPool:
    """The training arrays the fig. 11 benchmark's pool fits at seed 2007."""

    @pytest.fixture(scope="class")
    def pool(self):
        dataset = DesignSpaceDataset.sampled(spec2000_suite(), 3000, seed=2007)
        return TrainingPool(dataset, Metric.CYCLES, training_size=512,
                            seed=stable_seed("loo", "2007", "0"))

    @pytest.mark.parametrize("program", ["art", "gzip", "swim"])
    def test_pool_fit_matches_the_per_tensor_loop(self, pool, program):
        predictor, features, targets = pool._prepare(program)
        network = predictor._network
        _assert_same_bits(
            lambda: MultilayerPerceptron(
                hidden_neurons=network.hidden_neurons, seed=network.seed
            ),
            features, targets,
        )

"""Tests for the from-scratch multilayer perceptron."""

import numpy as np
import pytest

from repro.ml import MultilayerPerceptron


def _nonlinear_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] ** 2
    return x, y


class TestLearning:
    def test_learns_a_linear_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(300, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + 4.0
        net = MultilayerPerceptron(seed=0, epochs=1500).fit(x, y)
        prediction = net.predict(x)
        rmse = np.sqrt(np.mean((prediction - y) ** 2))
        assert rmse < 0.05 * y.std()

    def test_learns_a_nonlinear_function(self):
        x, y = _nonlinear_data()
        net = MultilayerPerceptron(seed=0, epochs=3000).fit(x, y)
        prediction = net.predict(x)
        rmse = np.sqrt(np.mean((prediction - y) ** 2))
        assert rmse < 0.15 * y.std()

    def test_generalises(self):
        x, y = _nonlinear_data(seed=2)
        x_test, y_test = _nonlinear_data(n=100, seed=3)
        net = MultilayerPerceptron(seed=0, epochs=3000).fit(x, y)
        prediction = net.predict(x_test)
        rmse = np.sqrt(np.mean((prediction - y_test) ** 2))
        assert rmse < 0.3 * y_test.std()

    def test_linear_output_extrapolates(self):
        """The linear output layer must allow values beyond the training
        target range (the paper's stated reason for the architecture)."""
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 1.0, size=(300, 1))
        y = 3.0 * x[:, 0]
        net = MultilayerPerceptron(seed=0, epochs=2000).fit(x, y)
        beyond = net.predict(np.array([[1.3]]))[0]
        assert beyond > y.max() * 0.95


class TestDeterminismAndRecords:
    def test_seeded_training_is_deterministic(self):
        x, y = _nonlinear_data(n=120, seed=5)
        a = MultilayerPerceptron(seed=11, epochs=300).fit(x, y).predict(x)
        b = MultilayerPerceptron(seed=11, epochs=300).fit(x, y).predict(x)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        x, y = _nonlinear_data(n=120, seed=5)
        a = MultilayerPerceptron(seed=11, epochs=200).fit(x, y).predict(x)
        b = MultilayerPerceptron(seed=12, epochs=200).fit(x, y).predict(x)
        assert not np.allclose(a, b)

    def test_training_record_present(self):
        x, y = _nonlinear_data(n=150, seed=6)
        net = MultilayerPerceptron(seed=0, epochs=200).fit(x, y)
        record = net.training_record_
        assert record is not None
        assert 0 < record.epochs_run <= 200
        assert record.final_training_loss >= 0

    def test_early_stopping_can_halt_before_max_epochs(self):
        x, y = _nonlinear_data(n=300, seed=7)
        net = MultilayerPerceptron(seed=0, epochs=50_000, patience=3).fit(x, y)
        assert net.training_record_.epochs_run < 50_000


class TestValidation:
    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            MultilayerPerceptron().predict(np.ones((1, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MultilayerPerceptron().fit(np.ones((3, 2)), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        x, y = _nonlinear_data(n=40, seed=9)
        y[7] = bad
        with pytest.raises(ValueError, match="1 training value"):
            MultilayerPerceptron(seed=0, epochs=5).fit(x, y)

    def test_non_finite_features_counted(self):
        x, y = _nonlinear_data(n=40, seed=9)
        x[3, 0] = np.nan
        x[5, 1] = np.inf
        with pytest.raises(ValueError, match="2 training value"):
            MultilayerPerceptron(seed=0, epochs=5).fit(x, y)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError):
            MultilayerPerceptron().fit(np.ones((1, 2)), np.ones(1))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            MultilayerPerceptron(hidden_neurons=0)
        with pytest.raises(ValueError):
            MultilayerPerceptron(learning_rate=0.0)
        with pytest.raises(ValueError):
            MultilayerPerceptron(epochs=0)
        with pytest.raises(ValueError):
            MultilayerPerceptron(validation_fraction=0.8)
        with pytest.raises(ValueError):
            MultilayerPerceptron(patience=0)

    def test_tiny_training_set_skips_validation(self):
        """With a handful of samples the net must still train (this is
        exactly the 32-simulation program-specific baseline)."""
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(16, 3))
        y = x.sum(axis=1)
        net = MultilayerPerceptron(seed=0, epochs=500).fit(x, y)
        assert np.all(np.isfinite(net.predict(x)))

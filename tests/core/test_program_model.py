"""Tests for the program-specific predictor."""

import numpy as np
import pytest

from repro.core import ProgramSpecificPredictor
from repro.sim import Metric


@pytest.fixture(scope="module")
def trained(small_dataset):
    idx, _ = small_dataset.split_indices(256, seed=3)
    predictor = ProgramSpecificPredictor(
        space=small_dataset.simulator.space,
        metric=Metric.CYCLES,
        program="gzip",
        seed=1,
    )
    predictor.fit(
        small_dataset.subset_configs(idx),
        small_dataset.subset_values("gzip", Metric.CYCLES, idx),
    )
    return predictor, idx


class TestTraining:
    def test_predictions_positive(self, trained, small_dataset):
        predictor, _ = trained
        predictions = predictor.predict(list(small_dataset.configs[:50]))
        assert np.all(predictions > 0)

    def test_training_fit_is_tight(self, trained, small_dataset):
        predictor, idx = trained
        from repro.ml import rmae
        predictions = predictor.predict(small_dataset.subset_configs(idx))
        actual = small_dataset.subset_values("gzip", Metric.CYCLES, idx)
        assert rmae(predictions, actual) < 15.0

    def test_generalisation_reasonable(self, trained, small_dataset):
        # gzip has the suite's hardest surface (misprediction-dominated
        # with a small dynamic range); at T=256 a modest positive
        # correlation is the realistic bar.
        predictor, idx = trained
        from repro.ml import correlation
        rest = [i for i in range(len(small_dataset)) if i not in set(idx)]
        predictions = predictor.predict(small_dataset.subset_configs(rest))
        actual = small_dataset.subset_values("gzip", Metric.CYCLES, rest)
        assert correlation(predictions, actual) > 0.35

    def test_generalisation_on_a_smooth_surface(self, small_dataset):
        """applu's memory-dominated surface is learnable at T=256."""
        from repro.ml import correlation
        idx, rest = small_dataset.split_indices(256, seed=17)
        predictor = ProgramSpecificPredictor(
            space=small_dataset.simulator.space,
            metric=Metric.CYCLES,
            program="applu",
            seed=1,
        )
        predictor.fit(
            small_dataset.subset_configs(idx),
            small_dataset.subset_values("applu", Metric.CYCLES, idx),
        )
        predictions = predictor.predict(small_dataset.subset_configs(rest))
        actual = small_dataset.subset_values("applu", Metric.CYCLES, rest)
        assert correlation(predictions, actual) > 0.6

    def test_predict_one(self, trained, space):
        predictor, _ = trained
        value = predictor.predict_one(space.baseline)
        assert value > 0

    def test_training_size_recorded(self, trained):
        predictor, _ = trained
        assert predictor.training_size_ == 256


class TestValidation:
    def test_untrained_predict_rejected(self, space):
        predictor = ProgramSpecificPredictor(space, Metric.CYCLES, "x")
        with pytest.raises(RuntimeError, match="not been trained"):
            predictor.predict([space.baseline])

    def test_shape_mismatch_rejected(self, space):
        predictor = ProgramSpecificPredictor(space, Metric.CYCLES, "x")
        with pytest.raises(ValueError):
            predictor.fit([space.baseline], np.array([1.0, 2.0]))

    def test_non_positive_values_rejected(self, space):
        predictor = ProgramSpecificPredictor(space, Metric.CYCLES, "x")
        with pytest.raises(ValueError, match="positive"):
            predictor.fit(
                [space.baseline, space.baseline.replace(width=8)],
                np.array([1.0, -2.0]),
            )

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_value_rejected(self, small_dataset, bad):
        """One inf (or NaN) value used to train a model predicting 1e30
        (or NaN) everywhere; the fit now refuses and counts it."""
        idx, _ = small_dataset.split_indices(64, seed=4)
        values = small_dataset.subset_values("gzip", Metric.CYCLES, idx).copy()
        values[10] = bad
        predictor = ProgramSpecificPredictor(
            small_dataset.simulator.space, Metric.CYCLES, "gzip", seed=1
        )
        with pytest.raises(ValueError, match="1 training value.*NaN/Inf"):
            predictor.fit(small_dataset.subset_configs(idx), values)
        with pytest.raises(RuntimeError, match="not been trained"):
            predictor.predict(small_dataset.subset_configs(idx[:2]))

    def test_raw_target_mode(self, small_dataset):
        idx, _ = small_dataset.split_indices(128, seed=4)
        predictor = ProgramSpecificPredictor(
            space=small_dataset.simulator.space,
            metric=Metric.CYCLES,
            program="gzip",
            seed=1,
            log_target=False,
        )
        predictor.fit(
            small_dataset.subset_configs(idx),
            small_dataset.subset_values("gzip", Metric.CYCLES, idx),
        )
        predictions = predictor.predict(small_dataset.subset_configs(idx))
        assert np.all(np.isfinite(predictions))

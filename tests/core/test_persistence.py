"""Tests for trained-pool save/load round-tripping."""

import numpy as np
import pytest

from repro.core import ArchitectureCentricPredictor, load_models, save_models
from repro.sim import Metric


@pytest.fixture()
def archive(tmp_path, cycles_pool):
    models = cycles_pool.models()
    return save_models(models, tmp_path / "pool.npz"), models


class TestRoundTrip:
    def test_predictions_identical(self, archive, small_dataset, space):
        path, originals = archive
        restored = load_models(path, space)
        probe = list(small_dataset.configs[:30])
        for original, clone in zip(originals, restored):
            assert clone.program == original.program
            assert np.allclose(clone.predict(probe), original.predict(probe))

    def test_metadata_restored(self, archive, space):
        path, originals = archive
        restored = load_models(path, space)
        for original, clone in zip(originals, restored):
            assert clone.metric is original.metric
            assert clone.training_size_ == original.training_size_
            assert clone.log_target == original.log_target

    def test_restored_pool_drives_the_predictor(self, archive,
                                                small_dataset, space):
        path, _ = archive
        restored = [
            model for model in load_models(path, space)
            if model.program != "applu"
        ]
        predictor = ArchitectureCentricPredictor(restored)
        idx, rest = small_dataset.split_indices(32, seed=44)
        predictor.fit_responses(
            small_dataset.subset_configs(idx),
            small_dataset.subset_values("applu", Metric.CYCLES, idx),
        )
        scores = predictor.evaluate(
            small_dataset.subset_configs(rest),
            small_dataset.subset_values("applu", Metric.CYCLES, rest),
        )
        assert scores["correlation"] > 0.8


class TestValidation:
    def test_empty_pool_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_models([], tmp_path / "pool.npz")

    def test_mixed_metrics_rejected(self, tmp_path, cycles_pool,
                                    small_dataset):
        from repro.core import TrainingPool
        energy_pool = TrainingPool(
            small_dataset, Metric.ENERGY, training_size=64, seed=1
        )
        mixed = [cycles_pool.model("gzip"), energy_pool.model("gzip")]
        with pytest.raises(ValueError, match="same metric"):
            save_models(mixed, tmp_path / "pool.npz")

    def test_untrained_network_export_rejected(self):
        from repro.ml import MultilayerPerceptron
        with pytest.raises(RuntimeError):
            MultilayerPerceptron().get_weights()

    def test_incomplete_weights_rejected(self):
        from repro.ml import MultilayerPerceptron
        with pytest.raises(ValueError, match="missing"):
            MultilayerPerceptron().set_weights({"hidden_weights": np.ones(2)})


@pytest.fixture()
def fitted(cycles_pool, small_dataset):
    models = cycles_pool.models(exclude=["swim"])
    predictor = ArchitectureCentricPredictor(models)
    idx, holdout = small_dataset.split_indices(24, seed=3)
    predictor.fit_responses(
        small_dataset.subset_configs(idx),
        small_dataset.subset_values("swim", Metric.CYCLES, idx),
    )
    probe = small_dataset.subset_configs(holdout)[:40]
    return predictor, probe


class TestPredictorRoundTrip:
    def test_predictions_bit_identical(self, fitted, tmp_path, space):
        from repro.core import load_predictor, save_predictor

        predictor, probe = fitted
        path = save_predictor(predictor, tmp_path / "fitted.npz")
        restored = load_predictor(path, space)
        assert np.array_equal(
            restored.predict(probe), predictor.predict(probe)
        )
        assert np.array_equal(
            restored.predict_invariant(probe),
            predictor.predict_invariant(probe),
        )

    def test_fit_metadata_survives(self, fitted, tmp_path, space):
        from repro.core import load_predictor, save_predictor

        predictor, _ = fitted
        path = save_predictor(predictor, tmp_path / "fitted.npz")
        restored = load_predictor(path, space)
        assert restored.training_error_ == predictor.training_error_
        assert restored.response_count_ == predictor.response_count_
        assert restored._regressor.ridge == predictor._regressor.ridge

    def test_unfitted_predictor_rejected(self, cycles_pool, tmp_path):
        from repro.core import save_predictor

        unfitted = ArchitectureCentricPredictor(cycles_pool.models())
        with pytest.raises(RuntimeError, match="fit_responses"):
            save_predictor(unfitted, tmp_path / "nope.npz")

    def test_bare_pool_rejected_by_load_predictor(self, cycles_pool,
                                                  tmp_path, space):
        from repro.core import load_predictor

        path = save_models(cycles_pool.models(), tmp_path / "pool.npz")
        with pytest.raises(ValueError, match="load_models instead"):
            load_predictor(path, space)

    def test_corrupt_predictor_artifact_rejected(self, fitted, tmp_path):
        from repro.core import load_predictor, save_predictor

        predictor, _ = fitted
        path = save_predictor(predictor, tmp_path / "fitted.npz")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_predictor(path)


class TestOlderFormat:
    def test_v1_archive_rejected(self, cycles_pool, tmp_path, space):
        """A pool relabelled to format 1 after its weights were altered
        must fail to load, not hydrate the altered weights unverified."""
        from repro.core.persistence import _pool_payload

        payload = _pool_payload(cycles_pool.models())
        payload["model0_output_bias"] = payload["model0_output_bias"] + 1.0
        path = tmp_path / "relabelled.npz"
        np.savez_compressed(path, format_version=np.array(1), **payload)
        with pytest.raises(
            ValueError, match="unsupported model pool format version 1"
        ):
            load_models(path, space)

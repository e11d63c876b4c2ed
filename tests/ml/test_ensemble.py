"""Tests for the stacked ensemble fast path.

The contract under test is exact: the stacked forward pass must
reproduce the per-model loop bit for bit (``np.array_equal``, not
``allclose``), because the predictor silently routes through it.
"""

import numpy as np
import pytest

from repro.core import ArchitectureCentricPredictor
from repro.core.program_model import ProgramSpecificPredictor
from repro.designspace import sample_configurations
from repro.ml import StackedEnsemble
from repro.sim import Metric


def per_member_invariant(ensemble, features):
    """Reference for ``predict_features_invariant``: one member at a time.

    Each member's (m, H, D) product is laid out in (m, D, H) memory
    order, so ``np.add.reduce`` over D accumulates in index order from
    +0.0; the output contraction is a contiguous last-axis reduction.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    out = np.empty((len(ensemble), features.shape[0]))
    for n in range(len(ensemble)):
        x = (features - ensemble._x_mean[n]) / ensemble._x_scale[n]
        hidden = np.tanh(
            np.add.reduce(
                x[:, None, :] * ensemble._hidden_weights[n].T[None, :, :],
                axis=2,
            )
            + ensemble._hidden_bias[n]
        )
        scaled = (
            np.add.reduce(hidden * ensemble._output_weights[n], axis=1)
            + ensemble._output_bias[n]
        )
        out[n] = scaled * ensemble._y_scale[n] + ensemble._y_mean[n]
    rows = np.where(ensemble._log_target)[0]
    out[rows] = np.power(10.0, np.clip(out[rows], -30.0, 30.0))
    return out


@pytest.fixture(scope="module")
def models(cycles_pool):
    return cycles_pool.models()


@pytest.fixture(scope="module")
def ensemble(models):
    return StackedEnsemble.from_models(models)


class TestBitIdentity:
    def test_predict_matches_every_member_exactly(
        self, ensemble, models, configs
    ):
        batch = list(configs[:50])
        stacked = ensemble.predict(batch)
        assert stacked.shape == (len(models), len(batch))
        for row, model in zip(stacked, models):
            assert np.array_equal(row, model.predict(batch))

    def test_log_model_matrix_matches_stacked_columns(
        self, ensemble, models, configs
    ):
        batch = list(configs[:50])
        expected = np.log10(
            np.stack([model.predict(batch) for model in models], axis=1)
        )
        produced = ensemble.log_model_matrix(batch)
        assert produced.flags["C_CONTIGUOUS"]
        assert np.array_equal(produced, expected)

    def test_predictor_path_identical_to_per_model_fallback(
        self, models, small_dataset
    ):
        response_idx, holdout_idx = small_dataset.split_indices(32, seed=3)
        response_configs = small_dataset.subset_configs(response_idx)
        response_values = small_dataset.subset_values(
            "art", Metric.CYCLES, response_idx
        )
        holdout = small_dataset.subset_configs(holdout_idx)

        fast = ArchitectureCentricPredictor(models)
        slow = ArchitectureCentricPredictor(models)
        # Forcing the lazy build to conclude "no ensemble" pins the
        # fallback per-model loop for the comparison.
        slow._ensemble_built = True
        assert slow._stacked_ensemble() is None
        assert fast._stacked_ensemble() is not None

        fast.fit_responses(response_configs, response_values)
        slow.fit_responses(response_configs, response_values)
        assert fast.training_error == slow.training_error
        assert np.array_equal(fast.predict(holdout), slow.predict(holdout))


class TestShapes:
    def test_empty_batch(self, ensemble, models):
        assert ensemble.predict([]).shape == (len(models), 0)

    def test_len_and_programs(self, ensemble, models):
        assert len(ensemble) == len(models)
        assert list(ensemble.programs) == [m.program for m in models]

    def test_feature_width_checked(self, ensemble):
        with pytest.raises(ValueError, match="features"):
            ensemble.predict_features(np.zeros((4, ensemble.input_dim + 1)))


class TestConstruction:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            StackedEnsemble.from_models([])
        assert StackedEnsemble.maybe_from_models([]) is None

    def test_untrained_member_declines_softly(self, models):
        untrained = ProgramSpecificPredictor(
            space=models[0].space, metric=Metric.CYCLES, program="raw"
        )
        with pytest.raises(RuntimeError):
            StackedEnsemble.from_models(list(models) + [untrained])
        assert (
            StackedEnsemble.maybe_from_models(list(models) + [untrained])
            is None
        )

    def test_mixed_hidden_widths_decline(self, models, small_dataset):
        odd = ProgramSpecificPredictor(
            space=models[0].space,
            metric=Metric.CYCLES,
            program="odd",
            hidden_neurons=4,
            seed=11,
        )
        train_idx, _ = small_dataset.split_indices(64, seed=11)
        odd.fit(
            small_dataset.subset_configs(train_idx),
            small_dataset.subset_values("gzip", Metric.CYCLES, train_idx),
        )
        mixed = list(models) + [odd]
        with pytest.raises(ValueError, match="shape"):
            StackedEnsemble.from_models(mixed)
        assert StackedEnsemble.maybe_from_models(mixed) is None

    def test_distinct_spaces_decline(self, models):
        from repro.designspace import DesignSpace

        # A structurally equal but distinct space instance still
        # declines: "encode once" is only sound for one shared encoder.
        clone = ProgramSpecificPredictor(
            space=DesignSpace(), metric=Metric.CYCLES, program="clone"
        )
        clone.adopt_network_weights(
            models[0].network_weights(), training_size=1
        )
        assert (
            StackedEnsemble.maybe_from_models(list(models) + [clone]) is None
        )


@pytest.fixture(scope="module")
def mixed_members(small_dataset):
    """Two stacked members, the second predicting the raw metric."""
    space = small_dataset.simulator.space
    train_idx, _ = small_dataset.split_indices(64, seed=21)
    train_configs = small_dataset.subset_configs(train_idx)
    members = []
    for program, log_target in (("gzip", True), ("applu", False)):
        member = ProgramSpecificPredictor(
            space=space,
            metric=Metric.CYCLES,
            program=program,
            seed=21,
            log_target=log_target,
        )
        member.fit(
            train_configs,
            small_dataset.subset_values(program, Metric.CYCLES, train_idx),
        )
        members.append(member)
    return members


class TestMixedLogTarget:
    def test_raw_target_member_not_exponentiated(
        self, mixed_members, small_dataset
    ):
        ensemble = StackedEnsemble.from_models(mixed_members)
        batch = small_dataset.configs[:20]
        stacked = ensemble.predict(batch)
        for row, member in zip(stacked, mixed_members):
            assert np.array_equal(row, member.predict(batch))

    def test_invariant_matches_per_member_reference(
        self, mixed_members, small_dataset
    ):
        ensemble = StackedEnsemble.from_models(mixed_members)
        features = ensemble.space.encode_many(small_dataset.configs[:20])
        assert np.array_equal(
            ensemble.predict_features_invariant(features),
            per_member_invariant(ensemble, features),
        )


class TestInvariantForward:
    """The batch-composition-invariant path the serving layer uses."""

    @pytest.mark.parametrize("m", [1, 2, 7, 64, 1000])
    def test_stacked_pass_matches_per_member_reference(self, ensemble, m):
        configs = sample_configurations(ensemble.space, m, seed=m)
        features = ensemble.space.encode_many(configs)
        assert np.array_equal(
            ensemble.predict_features_invariant(features),
            per_member_invariant(ensemble, features),
        )

    def test_invariant_rows_do_not_depend_on_batch_mates(
        self, ensemble, small_dataset
    ):
        batch = list(small_dataset.configs[:30])
        features = ensemble.space.encode_many(batch)
        full = ensemble.predict_features_invariant(features)
        for index in (0, 7, 29):
            alone = ensemble.predict_features_invariant(
                features[index : index + 1]
            )
            assert np.array_equal(alone[:, 0], full[:, index])

    def test_invariant_close_to_matmul_path(self, ensemble, small_dataset):
        batch = list(small_dataset.configs[:30])
        features = ensemble.space.encode_many(batch)
        invariant = ensemble.predict_features_invariant(features)
        matmul = ensemble.predict_features(features)
        assert np.allclose(invariant, matmul, rtol=1e-12)

    def test_log_model_matrix_invariant_composition(
        self, ensemble, small_dataset
    ):
        superset = list(small_dataset.configs[:40])
        subset = superset[5:15]
        full = ensemble.log_model_matrix_invariant(superset)
        part = ensemble.log_model_matrix_invariant(subset)
        assert np.array_equal(part, full[5:15])

    def test_log_model_matrix_invariant_close_to_blas(
        self, ensemble, small_dataset
    ):
        batch = list(small_dataset.configs[:25])
        invariant = ensemble.log_model_matrix_invariant(batch)
        blas = ensemble.log_model_matrix(batch)
        assert invariant.shape == blas.shape
        assert np.allclose(invariant, blas, rtol=1e-12)

"""Tests for active response selection (the beyond-paper extension)."""

import numpy as np
import pytest

from repro.core import (
    ArchitectureCentricPredictor,
    model_disagreement,
    select_responses,
)
from repro.sim import Metric


@pytest.fixture(scope="module")
def models(cycles_pool):
    return cycles_pool.models(exclude=["applu"])


class TestDisagreement:
    def test_shape(self, models, small_dataset):
        configs = list(small_dataset.configs[:50])
        scores = model_disagreement(models, configs)
        assert scores.shape == (50,)
        assert np.all(scores >= 0)

    def test_empty_configs(self, models):
        assert model_disagreement(models, []).shape == (0,)

    def test_no_models_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            model_disagreement([], list(small_dataset.configs[:5]))

    def test_varies_over_space(self, models, small_dataset):
        scores = model_disagreement(models, list(small_dataset.configs[:200]))
        assert scores.std() > 0

    def test_matches_per_model_loop(self, models, small_dataset):
        candidates = list(small_dataset.configs[:200])
        fast = model_disagreement(models, candidates)
        slow = np.stack(
            [np.log10(m.predict(candidates)) for m in models]
        ).std(axis=0)
        np.testing.assert_array_equal(fast, slow)


class TestSelectResponses:
    def test_count_and_uniqueness(self, models, small_dataset):
        candidates = list(small_dataset.configs[:300])
        chosen = select_responses(models, candidates, 32, seed=1)
        assert len(chosen) == 32
        assert len(set(chosen)) == 32
        assert all(0 <= i < 300 for i in chosen)

    def test_deterministic(self, models, small_dataset):
        candidates = list(small_dataset.configs[:200])
        a = select_responses(models, candidates, 16, seed=5)
        b = select_responses(models, candidates, 16, seed=5)
        assert a == b

    def test_first_pick_maximises_disagreement(self, models, small_dataset):
        candidates = list(small_dataset.configs[:200])
        chosen = select_responses(models, candidates, 4, seed=2)
        scores = model_disagreement(models, candidates)
        assert chosen[0] == int(np.argmax(scores))

    def test_invalid_count_rejected(self, models, small_dataset):
        candidates = list(small_dataset.configs[:10])
        with pytest.raises(ValueError):
            select_responses(models, candidates, 11)
        with pytest.raises(ValueError):
            select_responses(models, candidates, 0)

    def test_negative_diversity_rejected(self, models, small_dataset):
        with pytest.raises(ValueError):
            select_responses(models, list(small_dataset.configs[:10]), 2,
                             diversity_weight=-1.0)

    def test_active_selection_is_usable(self, models, small_dataset):
        """Fitting on actively chosen responses must give a working
        predictor (comparable to random selection)."""
        candidates = list(small_dataset.configs)
        chosen = select_responses(models, candidates, 32, seed=3)
        predictor = ArchitectureCentricPredictor(models)
        predictor.fit_responses(
            [candidates[i] for i in chosen],
            small_dataset.values("applu", Metric.CYCLES)[chosen],
        )
        rest = [i for i in range(len(candidates)) if i not in set(chosen)]
        scores = predictor.evaluate(
            small_dataset.subset_configs(rest),
            small_dataset.subset_values("applu", Metric.CYCLES, rest),
        )
        assert scores["correlation"] > 0.8

"""Active-learning response selection strategies."""

from __future__ import annotations

import pytest

from repro.core.active import select_responses
from repro.search import RESPONSE_STRATEGIES, pick_response_indices


@pytest.fixture(scope="module")
def models(cycles_pool):
    return cycles_pool.models(exclude=["gzip"])


@pytest.fixture(scope="module")
def candidates(small_dataset):
    return small_dataset.configs[:200]


class TestPickResponseIndices:
    @pytest.mark.parametrize("strategy", RESPONSE_STRATEGIES)
    def test_returns_distinct_valid_indices(
        self, models, candidates, strategy
    ):
        picks = pick_response_indices(
            models, candidates, 16, strategy=strategy, seed=5
        )
        assert len(picks) == 16
        assert len(set(picks)) == 16
        assert all(0 <= i < len(candidates) for i in picks)

    @pytest.mark.parametrize("strategy", RESPONSE_STRATEGIES)
    def test_deterministic_for_seed(self, models, candidates, strategy):
        first = pick_response_indices(
            models, candidates, 12, strategy=strategy, seed=9
        )
        second = pick_response_indices(
            models, candidates, 12, strategy=strategy, seed=9
        )
        assert first == second

    def test_disagreement_equals_core_selector(self, models, candidates):
        ours = pick_response_indices(
            models, candidates, 8, strategy="disagreement", seed=2
        )
        core = select_responses(models, candidates, 8, seed=2)
        assert ours == core

    def test_hybrid_spends_half_randomly(self, models, candidates):
        picks = pick_response_indices(
            models, candidates, 10, strategy="hybrid", seed=4
        )
        assert len(set(picks)) == 10

    def test_unknown_strategy(self, models, candidates):
        with pytest.raises(ValueError, match="unknown strategy"):
            pick_response_indices(
                models, candidates, 4, strategy="oracle"
            )

    def test_count_bounds(self, models, candidates):
        with pytest.raises(ValueError, match="count"):
            pick_response_indices(models, candidates, 0)
        with pytest.raises(ValueError, match="count"):
            pick_response_indices(
                models, candidates, len(candidates) + 1
            )

"""Tests for design-space sampling."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designspace import (
    DesignSpace,
    corner_biased_sample,
    embedded_space,
    restrict,
    sample_configurations,
    split_responses,
    stratified_sample,
)


def _digest(configs):
    """sha256 of the sampled value tuples; ``json`` refuses anything but
    plain ints, so the digest pins the values' type as well."""
    payload = json.dumps([config.values() for config in configs])
    return hashlib.sha256(payload.encode()).hexdigest()


def _small_space():
    """2,304 legal points: small enough to enumerate and to repeat draws."""
    return restrict(
        DesignSpace(),
        width=(2, 4), rob_size=(32, 48), iq_size=(8, 24), lsq_size=(8, 16),
        rf_size=(40, 48), rf_read_ports=(2, 4), rf_write_ports=(1, 2),
        gshare_size=(1024, 2048), btb_size=(1024, 1024),
        max_branches=(8, 8), icache_kb=(8, 16), dcache_kb=(8, 16),
        l2cache_kb=(256, 256),
    )


class TestPinnedDraws:
    """The draws every dataset and benchmark is built from.  The digests
    were recorded from the per-draw sampler this one replaced."""

    def test_paper_scale_draw(self):
        sample = sample_configurations(DesignSpace(), 3000, seed=2007)
        assert _digest(sample) == (
            "f87bc5c91fea067e37b1ab31d976e4293c0ee2fb54f4d25c7a034ef87b846cc6"
        )

    def test_embedded_space_draw(self):
        sample = sample_configurations(embedded_space(), 500, seed=7)
        assert _digest(sample) == (
            "b869c5dad2c26f9e58f0db7ccbe05d044c65dffd706f5e6f8ada54842727a784"
        )

    def test_draw_with_repeats(self):
        sample = sample_configurations(
            _small_space(), 300, seed=11, unique=False
        )
        assert len(set(sample)) == 274
        assert _digest(sample) == (
            "0fa4a0bc923cfecc93f1e2c290469f546e38e425e97dad80cbc69bfbe5e32b65"
        )

    def test_unique_draw_from_a_small_space(self):
        sample = sample_configurations(_small_space(), 40, seed=3)
        assert _digest(sample) == (
            "4cb033b2b068fcd2084c45aade89e61b817c028b67260cf514cad9b8628ce2b0"
        )

    def test_enumeration(self):
        space = _small_space()
        configs = list(space.enumerate())
        assert len(configs) == space.legal_size == 2304
        assert _digest(configs) == (
            "c347d170c6f256b9b49659c3648ae6934abaeddcb70a32088ce6b336d50ad931"
        )

    def test_stratified_and_corner_draws(self):
        assert _digest(
            stratified_sample(DesignSpace(), 50, "width", seed=5)
        ) == "c7beee75f8808970e27565dc99aa02c6a542534a6e2cc2e61e484dd6b8dbd641"
        assert _digest(
            corner_biased_sample(DesignSpace(), 50, seed=5)
        ) == "b8c0254f81007b589aedba426fac49e50f2466bd2b088d7aece1a0c9093bfd88"


class TestUniformSampling:
    def test_requested_count(self, space):
        assert len(sample_configurations(space, 25, seed=0)) == 25

    def test_zero_count(self, space):
        assert sample_configurations(space, 0, seed=0) == []

    def test_negative_count_rejected(self, space):
        with pytest.raises(ValueError):
            sample_configurations(space, -1, seed=0)

    def test_all_legal(self, space):
        for config in sample_configurations(space, 100, seed=1):
            assert space.is_legal(config)

    def test_unique_by_default(self, space):
        sample = sample_configurations(space, 200, seed=2)
        assert len(set(sample)) == 200

    def test_deterministic_given_seed(self, space):
        a = sample_configurations(space, 30, seed=3)
        b = sample_configurations(space, 30, seed=3)
        assert a == b

    def test_different_seeds_differ(self, space):
        a = sample_configurations(space, 30, seed=3)
        b = sample_configurations(space, 30, seed=4)
        assert a != b

    def test_accepts_generator(self, space):
        rng = np.random.default_rng(5)
        sample = sample_configurations(space, 10, seed=rng)
        assert len(sample) == 10

    def test_marginals_roughly_uniform_for_unconstrained_parameter(self, space):
        """rf_size is unconstrained, so its sampled marginal is uniform."""
        sample = sample_configurations(space, 3000, seed=6)
        values = np.array([c.rf_size for c in sample])
        grid = space.parameter("rf_size").values
        counts = np.array([(values == v).sum() for v in grid])
        expected = len(sample) / len(grid)
        assert np.all(counts > 0.5 * expected)
        assert np.all(counts < 1.6 * expected)


class TestSplitResponses:
    def test_disjoint_and_covering(self, space):
        sample = sample_configurations(space, 50, seed=7)
        responses, rest = split_responses(sample, 8, seed=8)
        assert len(responses) == 8
        assert len(rest) == 42
        assert set(responses).isdisjoint(rest)
        assert set(responses) | set(rest) == set(sample)

    def test_out_of_range_rejected(self, space):
        sample = sample_configurations(space, 10, seed=9)
        with pytest.raises(ValueError):
            split_responses(sample, 11)

    @given(count=st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_any_count_within_range(self, space, count):
        sample = sample_configurations(space, 20, seed=10)
        responses, rest = split_responses(sample, count, seed=count)
        assert len(responses) == count
        assert len(responses) + len(rest) == 20


class TestStratifiedSampling:
    def test_covers_every_value(self, space):
        parameter = space.parameter("width")
        sample = stratified_sample(space, 4 * parameter.cardinality,
                                   "width", seed=11)
        widths = {config.width for config in sample}
        assert widths == set(parameter.values)

    def test_all_legal(self, space):
        for config in stratified_sample(space, 12, "width", seed=12):
            assert space.is_legal(config)


class TestCornerBiasedSampling:
    def test_all_legal(self, space):
        for config in corner_biased_sample(space, 40, seed=13):
            assert space.is_legal(config)

    def test_corners_over_represented(self, space):
        sample = corner_biased_sample(
            space, 400, seed=14, corner_fraction=0.8
        )
        parameter = space.parameter("rf_size")
        extremes = sum(
            1
            for config in sample
            if config.rf_size in (parameter.minimum, parameter.maximum)
        )
        # Under uniform sampling the two extremes would be ~2/16 = 12.5%.
        assert extremes / len(sample) > 0.4

    def test_bad_fraction_rejected(self, space):
        with pytest.raises(ValueError):
            corner_biased_sample(space, 5, corner_fraction=1.5)

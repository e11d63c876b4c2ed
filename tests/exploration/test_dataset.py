"""Tests for the shared simulated dataset."""

import numpy as np
import pytest

from repro.exploration import DesignSpaceDataset
from repro.sim import Metric


class TestConstruction:
    def test_sampled_constructor(self, small_suite):
        dataset = DesignSpaceDataset.sampled(small_suite, sample_size=50,
                                             seed=1)
        assert len(dataset) == 50
        assert dataset.programs == small_suite.programs

    def test_empty_configs_rejected(self, small_suite, simulator):
        with pytest.raises(ValueError):
            DesignSpaceDataset(small_suite, [], simulator)


class TestValues:
    def test_values_shape(self, small_dataset):
        values = small_dataset.values("gzip", Metric.CYCLES)
        assert values.shape == (len(small_dataset),)
        assert np.all(values > 0)

    def test_values_cached(self, small_dataset):
        a = small_dataset.values("gzip", Metric.CYCLES)
        b = small_dataset.values("gzip", Metric.CYCLES)
        assert a is b

    def test_all_metrics_cached_together(self, small_dataset):
        small_dataset.values("crafty", Metric.CYCLES)
        assert ("crafty", Metric.EDD) in small_dataset._cache

    def test_matrix_shape_and_order(self, small_dataset):
        matrix = small_dataset.matrix(Metric.ENERGY)
        assert matrix.shape == (
            len(small_dataset.programs), len(small_dataset),
        )
        gzip_row = list(small_dataset.programs).index("gzip")
        assert np.allclose(
            matrix[gzip_row], small_dataset.values("gzip", Metric.ENERGY)
        )

    def test_values_match_direct_simulation(self, small_dataset):
        direct = small_dataset.simulator.simulate(
            small_dataset.suite["gzip"], small_dataset.configs[7]
        )
        assert small_dataset.values("gzip", Metric.CYCLES)[7] == pytest.approx(
            direct.cycles
        )


class TestSubsets:
    def test_subset_configs(self, small_dataset):
        subset = small_dataset.subset_configs([0, 2, 4])
        assert subset == [
            small_dataset.configs[0],
            small_dataset.configs[2],
            small_dataset.configs[4],
        ]

    def test_subset_values(self, small_dataset):
        values = small_dataset.subset_values("gzip", Metric.CYCLES, [1, 3])
        full = small_dataset.values("gzip", Metric.CYCLES)
        assert np.allclose(values, full[[1, 3]])

    @pytest.mark.parametrize(
        "indices",
        [[1, 3], (4, 0, 4), range(2, 6), np.array([5, 2, -1]), [],
         np.array([], dtype=np.intp)],
        ids=["list", "tuple", "range", "int-array", "empty", "empty-array"],
    )
    def test_subset_values_index_forms(self, small_dataset, indices):
        values = small_dataset.values("gzip", Metric.CYCLES)
        got = small_dataset.subset_values("gzip", Metric.CYCLES, indices)
        want = values[list(indices)]
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)

    def test_split_indices_disjoint(self, small_dataset):
        first, rest = small_dataset.split_indices(32, seed=5)
        assert len(first) == 32
        assert len(rest) == len(small_dataset) - 32
        assert set(first.tolist()).isdisjoint(rest.tolist())

    def test_split_deterministic(self, small_dataset):
        a, _ = small_dataset.split_indices(10, seed=6)
        b, _ = small_dataset.split_indices(10, seed=6)
        assert np.array_equal(a, b)

    def test_split_within_universe(self, small_dataset):
        universe = list(range(50))
        first, rest = small_dataset.split_indices(10, seed=7,
                                                  universe=universe)
        assert set(first.tolist()) <= set(universe)
        assert set(rest.tolist()) <= set(universe)

    def test_split_out_of_range_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            small_dataset.split_indices(len(small_dataset) + 1)


class TestHydrate:
    """The public cache-hydration API (used by persistence/campaigns)."""

    def _fresh(self, small_suite, small_dataset):
        from repro.exploration import DesignSpaceDataset

        return DesignSpaceDataset(
            small_suite, small_dataset.configs, small_dataset.simulator
        )

    def test_hydrated_values_served_without_simulation(self, small_suite,
                                                       small_dataset):
        dataset = self._fresh(small_suite, small_dataset)
        values = np.linspace(1.0, 2.0, len(dataset))
        dataset.hydrate("gzip", Metric.CYCLES, values)
        assert dataset.hydrated("gzip", Metric.CYCLES)
        assert np.array_equal(dataset.values("gzip", Metric.CYCLES), values)

    def test_unknown_program_rejected(self, small_suite, small_dataset):
        dataset = self._fresh(small_suite, small_dataset)
        with pytest.raises(ValueError, match="not in suite"):
            dataset.hydrate(
                "doom", Metric.CYCLES, np.ones(len(dataset))
            )

    def test_wrong_shape_rejected(self, small_suite, small_dataset):
        dataset = self._fresh(small_suite, small_dataset)
        with pytest.raises(ValueError, match="shape"):
            dataset.hydrate(
                "gzip", Metric.CYCLES, np.ones(len(dataset) - 1)
            )
        with pytest.raises(ValueError, match="shape"):
            dataset.hydrate(
                "gzip", Metric.CYCLES,
                np.ones((len(dataset), 2)),
            )

    def test_non_finite_values_rejected(self, small_suite, small_dataset):
        dataset = self._fresh(small_suite, small_dataset)
        poisoned = np.ones(len(dataset))
        poisoned[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            dataset.hydrate("gzip", Metric.CYCLES, poisoned)

    def test_not_hydrated_until_computed(self, small_suite, small_dataset):
        dataset = self._fresh(small_suite, small_dataset)
        assert not dataset.hydrated("gzip", Metric.CYCLES)

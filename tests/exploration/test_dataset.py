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


class TestOneSuiteCall:
    """A miss simulates every program still missing the metric in one
    ``simulate_suite`` call and never overwrites a cached metric."""

    @staticmethod
    def _counted(small_suite, small_dataset, monkeypatch, phases=1):
        from repro.sim import IntervalSimulator

        calls = []
        original = IntervalSimulator.simulate_suite

        def counted(self, profiles, configs):
            calls.append([profile.name for profile in profiles])
            return original(self, profiles, configs)

        monkeypatch.setattr(IntervalSimulator, "simulate_suite", counted)
        dataset = DesignSpaceDataset(
            small_suite, small_dataset.configs[:60], small_dataset.simulator,
            phases=phases,
        )
        return dataset, calls

    def test_one_call_fills_every_program(self, small_suite, small_dataset,
                                          monkeypatch):
        dataset, calls = self._counted(small_suite, small_dataset,
                                       monkeypatch)
        dataset.values("applu", Metric.ENERGY)
        assert calls == [list(small_suite.programs)]
        for program in small_suite.programs:
            for metric in Metric.all():
                assert dataset.hydrated(program, metric)
        dataset.matrix(Metric.EDD)
        assert len(calls) == 1

    def test_only_missing_programs_are_simulated(self, small_suite,
                                                 small_dataset, monkeypatch):
        dataset, calls = self._counted(small_suite, small_dataset,
                                       monkeypatch)
        for program in small_suite.programs[1:]:
            dataset.hydrate(program, Metric.CYCLES, np.ones(len(dataset)))
        dataset.values("gzip", Metric.CYCLES)
        assert calls == [[small_suite.programs[0]]]

    def test_a_hydrated_metric_is_not_overwritten(self, small_suite,
                                                  small_dataset):
        dataset = DesignSpaceDataset(
            small_suite, small_dataset.configs[:60], small_dataset.simulator
        )
        hydrated = np.linspace(1.0, 2.0, len(dataset))
        dataset.hydrate("gzip", Metric.CYCLES, hydrated)
        energy = dataset.values("gzip", Metric.ENERGY)
        assert np.array_equal(dataset.values("gzip", Metric.CYCLES), hydrated)
        direct = dataset.simulator.simulate_batch(
            small_suite["gzip"], list(dataset.configs)
        )
        assert np.array_equal(energy, direct.energy)

    def test_values_equal_one_batch_per_program(self, small_suite,
                                                small_dataset):
        dataset = DesignSpaceDataset(
            small_suite, small_dataset.configs[:60], small_dataset.simulator
        )
        for program in small_suite.programs:
            direct = dataset.simulator.simulate_batch(
                small_suite[program], list(dataset.configs)
            )
            cycles = dataset.values(program, Metric.CYCLES)
            energy = dataset.values(program, Metric.ENERGY)
            assert np.array_equal(cycles, direct.cycles)
            assert np.array_equal(energy, direct.energy)
            assert np.array_equal(dataset.values(program, Metric.ED),
                                  energy * cycles)
            assert np.array_equal(dataset.values(program, Metric.EDD),
                                  energy * cycles * cycles)

    def test_phases_share_the_call(self, small_suite, small_dataset,
                                   monkeypatch):
        from repro.workloads import combine_phase_metrics, decompose

        dataset, calls = self._counted(small_suite, small_dataset,
                                       monkeypatch, phases=3)
        cycles = dataset.values("swim", Metric.CYCLES)
        assert len(calls) == 1
        assert len(calls[0]) == 3 * len(small_suite.programs)
        parts = decompose(small_suite["swim"], 3)
        rows = [
            dataset.simulator.simulate_batch(
                phase.profile, list(dataset.configs)
            ).cycles
            for phase in parts
        ]
        weights = np.array([phase.weight for phase in parts])
        assert np.array_equal(
            cycles, combine_phase_metrics(np.stack(rows), weights)
        )

    def test_an_unknown_program_raises_before_simulating(
        self, small_suite, small_dataset, monkeypatch
    ):
        dataset, calls = self._counted(small_suite, small_dataset,
                                       monkeypatch)
        with pytest.raises(KeyError, match="doom"):
            dataset.values("doom", Metric.CYCLES)
        assert calls == []

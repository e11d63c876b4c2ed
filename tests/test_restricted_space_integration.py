"""The full stack works on restricted design spaces, not just Table 1.

A downstream user studying an embedded core runs the identical workflow
on `embedded_space()`; every layer (sampling, simulation, training,
prediction, search) must honour the restricted grids.
"""

import numpy as np
import pytest

from repro.core import ArchitectureCentricPredictor, TrainingPool
from repro.designspace import embedded_space, sample_configurations
from repro.exploration import DesignSpaceDataset
from repro.search import hill_climb
from repro.sim import IntervalSimulator, Metric
from repro.workloads import mibench_suite


@pytest.fixture(scope="module")
def embedded():
    return embedded_space()


@pytest.fixture(scope="module")
def embedded_dataset(embedded):
    suite = mibench_suite().subset(
        ["qsort", "jpeg", "sha", "fft", "dijkstra", "gsm"]
    )
    simulator = IntervalSimulator(embedded)
    configs = sample_configurations(embedded, 400, seed=9)
    return DesignSpaceDataset(suite, configs, simulator)


class TestRestrictedStack:
    def test_samples_stay_inside_the_windows(self, embedded,
                                             embedded_dataset):
        for config in embedded_dataset.configs:
            assert config.width <= 4
            assert config.l2cache_kb <= 1024
            assert embedded.is_legal(config)

    def test_simulation_works(self, embedded_dataset):
        values = embedded_dataset.values("qsort", Metric.CYCLES)
        assert np.all(values > 0)

    def test_predictor_trains_and_predicts(self, embedded_dataset):
        pool = TrainingPool(embedded_dataset, Metric.CYCLES,
                            training_size=256, seed=3)
        predictor = ArchitectureCentricPredictor(
            pool.models(exclude=["fft"])
        )
        response_idx, holdout_idx = embedded_dataset.split_indices(
            24, seed=4
        )
        predictor.fit_responses(
            embedded_dataset.subset_configs(response_idx),
            embedded_dataset.subset_values(
                "fft", Metric.CYCLES, response_idx
            ),
        )
        scores = predictor.evaluate(
            embedded_dataset.subset_configs(holdout_idx),
            embedded_dataset.subset_values(
                "fft", Metric.CYCLES, holdout_idx
            ),
        )
        assert scores["correlation"] > 0.6

    def test_search_respects_the_windows(self, embedded, embedded_dataset):
        class Oracle:
            def predict(self, configs):
                return embedded_dataset.simulator.simulate_batch(
                    embedded_dataset.suite["qsort"], list(configs)
                ).cycles

        result = hill_climb(Oracle(), embedded, max_steps=15)
        best = result.best.configuration
        assert embedded.is_legal(best)
        assert best.width <= 4

    def test_encoding_bounds_match_the_restriction(self, embedded):
        low, high = embedded.feature_bounds()
        # width feature caps at 4 in the embedded space.
        assert high[0] == 4.0

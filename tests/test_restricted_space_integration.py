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
from repro.search import (
    AGENT_NAMES,
    DesignSpaceEnv,
    SimulationOracle,
    make_agent,
    run_search,
)
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

    @pytest.mark.parametrize("agent_name", AGENT_NAMES)
    def test_search_respects_the_windows(self, embedded, embedded_dataset,
                                         agent_name):
        class Recording:
            """Pass-through agent that keeps every proposal."""

            def __init__(self, agent):
                self.agent = agent
                self.name = agent.name
                self.proposed = []

            def propose(self, count):
                proposals = self.agent.propose(count)
                self.proposed.extend(proposals)
                return proposals

            def observe(self, observations):
                self.agent.observe(observations)

        env = DesignSpaceEnv(
            embedded,
            SimulationOracle(
                embedded_dataset.simulator, embedded_dataset.suite["qsort"]
            ),
            objectives=(Metric.CYCLES, Metric.ENERGY),
            budget=40,
        )
        agent = Recording(
            make_agent(agent_name, embedded, objectives=2, seed=5)
        )
        outcome = run_search(env, agent, batch_size=8, seed=5)
        assert outcome.spent == 40
        assert agent.proposed
        archived = [point.configuration for point in outcome.frontier]
        for config in agent.proposed + archived:
            assert embedded.is_legal(config)
            assert config.width <= 4
            assert config.l2cache_kb <= 1024

    def test_encoding_bounds_match_the_restriction(self, embedded):
        low, high = embedded.feature_bounds()
        # width feature caps at 4 in the embedded space.
        assert high[0] == 4.0

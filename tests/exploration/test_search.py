"""Tests for the predictor-guided search strategies."""

import numpy as np
import pytest

from repro.search import (
    TradeOffPoint,
    dominated_fraction,
    hill_climb,
    pareto_front,
    predicted_best,
    simulated_annealing,
)
from repro.sim import Metric


class _OraclePredictor:
    """Predictor backed directly by the interval simulator."""

    def __init__(self, simulator, profile, metric):
        self._simulator = simulator
        self._profile = profile
        self._metric = metric

    def predict(self, configs):
        batch = self._simulator.simulate_batch(self._profile, list(configs))
        return batch.metric(self._metric)


@pytest.fixture(scope="module")
def oracle(simulator, small_suite):
    return _OraclePredictor(simulator, small_suite["gzip"], Metric.CYCLES)


@pytest.fixture(scope="module")
def energy_oracle(simulator, small_suite):
    return _OraclePredictor(simulator, small_suite["gzip"], Metric.ENERGY)


class TestPredictedBest:
    def test_best_is_best_of_shortlist(self, oracle, space):
        result = predicted_best(oracle, space, candidates=300, shortlist=5,
                                seed=1)
        values = [c.predicted for c in result.shortlist]
        assert result.best.predicted == min(values)
        assert result.candidates_scanned == 300
        assert result.simulations_spent == 0

    def test_shortlist_sorted(self, oracle, space):
        result = predicted_best(oracle, space, candidates=300, shortlist=5,
                                seed=1)
        predicted = [c.predicted for c in result.shortlist]
        assert predicted == sorted(predicted)

    def test_verification_reranks(self, oracle, space, simulator,
                                  small_suite):
        profile = small_suite["gzip"]

        def verify(config):
            return simulator.simulate(profile, config).cycles

        result = predicted_best(oracle, space, candidates=300, shortlist=5,
                                seed=1, verify=verify)
        assert result.simulations_spent == 5
        simulated = [c.simulated for c in result.shortlist]
        assert simulated == sorted(simulated)
        # Oracle predictions equal simulations, so ordering is stable.
        assert result.best.simulated == pytest.approx(result.best.predicted)

    def test_beats_baseline(self, oracle, space, simulator, small_suite):
        result = predicted_best(oracle, space, candidates=500, shortlist=3,
                                seed=2)
        baseline = simulator.simulate(
            small_suite["gzip"], space.baseline
        ).cycles
        assert result.best.predicted < baseline

    def test_invalid_shortlist_rejected(self, oracle, space):
        with pytest.raises(ValueError):
            predicted_best(oracle, space, candidates=10, shortlist=11)


class TestHillClimb:
    def test_never_worsens(self, oracle, space):
        result = hill_climb(oracle, space, max_steps=15)
        values = [c.predicted for c in result.shortlist]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_path_starts_at_baseline(self, oracle, space):
        result = hill_climb(oracle, space, max_steps=5)
        assert result.shortlist[0].configuration == space.baseline

    def test_improves_on_start(self, oracle, space):
        result = hill_climb(oracle, space, max_steps=30)
        assert result.best.predicted < result.shortlist[0].predicted

    def test_path_configurations_legal(self, oracle, space):
        result = hill_climb(oracle, space, max_steps=10)
        for candidate in result.shortlist:
            assert space.is_legal(candidate.configuration)

    def test_zero_simulations(self, oracle, space):
        assert hill_climb(oracle, space, max_steps=3).simulations_spent == 0

    def test_invalid_steps_rejected(self, oracle, space):
        with pytest.raises(ValueError):
            hill_climb(oracle, space, max_steps=0)


class TestParetoFront:
    def test_front_is_non_dominated(self, oracle, energy_oracle, space):
        front = pareto_front(oracle, energy_oracle, space, candidates=400,
                             seed=3)
        assert front
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    b.cycles <= a.cycles and b.energy <= a.energy
                    and (b.cycles < a.cycles or b.energy < a.energy)
                )
                assert not dominates

    def test_front_sorted_by_cycles(self, oracle, energy_oracle, space):
        front = pareto_front(oracle, energy_oracle, space, candidates=400,
                             seed=3)
        cycles = [p.cycles for p in front]
        assert cycles == sorted(cycles)

    def test_energy_decreases_along_front(self, oracle, energy_oracle, space):
        front = pareto_front(oracle, energy_oracle, space, candidates=400,
                             seed=3)
        energies = [p.energy for p in front]
        assert energies == sorted(energies, reverse=True)


class TestDominatedFraction:
    def test_full_domination(self):
        front = [TradeOffPoint(None, 1.0, 1.0)]
        points = [TradeOffPoint(None, 2.0, 2.0), TradeOffPoint(None, 3.0, 1.5)]
        assert dominated_fraction(front, points) == 1.0

    def test_no_domination(self):
        front = [TradeOffPoint(None, 5.0, 5.0)]
        points = [TradeOffPoint(None, 1.0, 1.0)]
        assert dominated_fraction(front, points) == 0.0

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            dominated_fraction([], [])


class TestSimulatedAnnealing:
    def test_never_returns_worse_than_start(self, oracle, space):
        start_value = float(oracle.predict([space.baseline])[0])
        result = simulated_annealing(oracle, space, steps=150, seed=1)
        assert result.best.predicted <= start_value

    def test_beats_or_matches_hill_climbing_on_average(self, oracle, space):
        hill = hill_climb(oracle, space, max_steps=40)
        annealed = min(
            simulated_annealing(oracle, space, steps=300, seed=s).best.predicted
            for s in (1, 2, 3)
        )
        assert annealed <= hill.best.predicted * 1.1

    def test_deterministic_given_seed(self, oracle, space):
        a = simulated_annealing(oracle, space, steps=100, seed=9)
        b = simulated_annealing(oracle, space, steps=100, seed=9)
        assert a.best.predicted == b.best.predicted

    def test_zero_simulations(self, oracle, space):
        result = simulated_annealing(oracle, space, steps=50, seed=2)
        assert result.simulations_spent == 0

    def test_invalid_arguments_rejected(self, oracle, space):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            simulated_annealing(oracle, space, steps=0)
        with _pytest.raises(ValueError):
            simulated_annealing(oracle, space, initial_temperature=0.0)

    def test_legal_result(self, oracle, space):
        result = simulated_annealing(oracle, space, steps=80, seed=4)
        assert space.is_legal(result.best.configuration)


class TestNonFiniteInputs:
    def test_frontier_rejects_nan(self, space):
        class _NaNPredictor:
            def predict(self, configs):
                values = np.ones(len(configs))
                values[0] = np.nan
                return values

        class _OnePredictor:
            def predict(self, configs):
                return np.ones(len(configs))

        with pytest.raises(ValueError, match="non-finite cycles"):
            pareto_front(
                _NaNPredictor(), _OnePredictor(), space,
                candidates=16, seed=0,
            )

    def test_dominated_fraction_rejects_nan(self, space):
        good = TradeOffPoint(space.baseline, 1.0, 1.0)
        bad = TradeOffPoint(space.baseline, float("nan"), 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            dominated_fraction([good], [bad])

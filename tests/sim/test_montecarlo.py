"""Tests for the Monte Carlo statistical simulator."""

import numpy as np
import pytest

from repro.designspace import Configuration
from repro.sim import (
    EnergyModel,
    IntervalSimulator,
    MachineSpec,
    MonteCarloSimulator,
)
from repro.sim.montecarlo import noisy_responses
from repro.workloads import spec2000_profile


@pytest.fixture(scope="module")
def mc(space):
    return MonteCarloSimulator(space, window_instructions=1500,
                               replications=6)


class TestEstimates:
    def test_positive_and_finite(self, mc, space):
        result = mc.simulate(spec2000_profile("gzip"), space.baseline,
                             seed=1)
        assert np.isfinite(result.cycles) and result.cycles > 0
        assert np.isfinite(result.energy) and result.energy > 0
        assert result.cycles_std >= 0

    def test_deterministic_given_seed(self, mc, space):
        profile = spec2000_profile("gzip")
        a = mc.simulate(profile, space.baseline, seed=3)
        b = mc.simulate(profile, space.baseline, seed=3)
        assert a.cycles == b.cycles

    def test_seeds_produce_sampling_noise(self, mc, space):
        profile = spec2000_profile("gzip")
        a = mc.simulate(profile, space.baseline, seed=1)
        b = mc.simulate(profile, space.baseline, seed=2)
        assert a.cycles != b.cycles
        # ...but within a plausible sampling band.
        assert abs(a.cycles - b.cycles) / a.cycles < 0.5

    def test_relative_noise_reported(self, mc, space):
        result = mc.simulate(spec2000_profile("gzip"), space.baseline,
                             seed=4)
        assert 0.0 <= result.relative_noise < 0.5

    def test_more_replications_less_noise(self, space):
        profile = spec2000_profile("gzip")
        few = MonteCarloSimulator(space, replications=2,
                                  window_instructions=1000)
        many = MonteCarloSimulator(space, replications=24,
                                   window_instructions=1000)
        spread_few = np.std(
            [few.simulate(profile, space.baseline, seed=s).cycles
             for s in range(8)]
        )
        spread_many = np.std(
            [many.simulate(profile, space.baseline, seed=s).cycles
             for s in range(8)]
        )
        assert spread_many < spread_few

    def test_illegal_config_rejected(self, mc, space):
        bad = space.baseline.replace(rob_size=32, iq_size=80)
        with pytest.raises(ValueError):
            mc.simulate(spec2000_profile("gzip"), bad)

    def test_invalid_construction(self, space):
        with pytest.raises(ValueError):
            MonteCarloSimulator(space, window_instructions=5)
        with pytest.raises(ValueError):
            MonteCarloSimulator(space, replications=0)


class TestEnergyAccounting:
    """Monte Carlo rescales the interval model's leakage + clock energy
    by its own cycle estimate, so the energy it adds per extra cycle is
    the machine's whole per-cycle overhead, ALUs included."""

    @pytest.fixture(scope="class")
    def machines(self, space, configs):
        return [space.baseline] + list(configs[:4])

    def test_per_cycle_share_is_the_energy_models(self, mc, space, machines):
        profile = spec2000_profile("gzip")
        interval = IntervalSimulator(space)
        for config in machines:
            model = EnergyModel(MachineSpec(config))
            per_cycle = model.leakage_power + model.clock_energy_per_cycle
            reference = interval.simulate(profile, config)
            result = mc.simulate(profile, config, seed=11)
            share = (result.energy - reference.energy) / (
                result.cycles - reference.cycles
            )
            assert share == pytest.approx(per_cycle, rel=1e-9)

    def test_column_build_term_equals_the_energy_models_exactly(
        self, space, machines
    ):
        overhead = IntervalSimulator(space)._columns(machines).overhead_per_cycle
        for i, config in enumerate(machines):
            model = EnergyModel(MachineSpec(config))
            assert overhead[i] == (
                model.leakage_power + model.clock_energy_per_cycle
            )


class TestOneColumnBuild:
    """``simulate`` builds the interval model's columns once per call:
    the reference cycles and energy and the per-cycle overhead share
    them, with the bits of the two-build version."""

    #: (program, configuration, seed) -> (cycles, energy, cycles_std),
    #: recorded from the two-build version (300-instruction windows, 3
    #: replications).
    PINNED = (
        ("gzip", (4, 96, 32, 48, 96, 8, 4, 16384, 4096, 16, 32, 32, 2048),
         1, (4194444.444444445, 30100862.5660842, 317129.2917002796)),
        ("art", (8, 96, 16, 72, 128, 2, 3, 4096, 1024, 8, 16, 64, 512),
         7, (11846750.79577004, 44322679.51142096, 1462250.7399594714)),
        ("applu", (8, 88, 56, 16, 40, 10, 4, 4096, 2048, 24, 128, 32, 2048),
         11, (13519055.40322563, 56249797.623664916, 2961857.8995922063)),
        ("mcf", (4, 152, 72, 56, 128, 8, 1, 2048, 2048, 16, 16, 8, 4096),
         3, (34007551.23657006, 90961561.80266018, 3238443.5500108656)),
    )

    @pytest.fixture(scope="class")
    def small_mc(self, space):
        return MonteCarloSimulator(space, window_instructions=300,
                                   replications=3)

    @pytest.mark.parametrize("program,values,seed,expected", PINNED)
    def test_results_unchanged(self, small_mc, program, values, seed,
                               expected):
        result = small_mc.simulate(
            spec2000_profile(program), Configuration.from_values(values),
            seed=seed,
        )
        assert (result.cycles, result.energy, result.cycles_std) == expected

    def test_one_column_build_per_call(self, small_mc, space, monkeypatch):
        builds = []
        original = IntervalSimulator._columns

        def counted(self, configs):
            builds.append(len(configs))
            return original(self, configs)

        monkeypatch.setattr(IntervalSimulator, "_columns", counted)
        small_mc.simulate(spec2000_profile("gzip"), space.baseline, seed=1)
        assert builds == [1]


class TestQualitativeAgreement:
    def test_rf_cliff_visible(self, mc, space):
        profile = spec2000_profile("gzip")
        base = mc.simulate(profile, space.baseline, seed=5).cycles
        starved = mc.simulate(
            profile, space.baseline.replace(rf_size=40), seed=5
        ).cycles
        assert starved > 1.2 * base

    def test_memory_bound_program_slower(self, mc, space):
        gzip = mc.simulate(spec2000_profile("gzip"), space.baseline,
                           seed=6).cycles
        art = mc.simulate(spec2000_profile("art"), space.baseline,
                          seed=6).cycles
        assert art > gzip

    def test_rank_agreement_with_interval_model(self, mc, space, configs):
        profile = spec2000_profile("swim")
        subset = list(configs[:12])
        interval = IntervalSimulator(space).simulate_batch(profile, subset)
        estimates = np.array(
            [mc.simulate(profile, c, seed=7).cycles for c in subset]
        )
        ranks = lambda a: np.argsort(np.argsort(a))
        rho = np.corrcoef(ranks(estimates), ranks(interval.cycles))[0, 1]
        assert rho > 0.5


class TestNoisyResponses:
    def test_shape_and_determinism(self, mc, space, configs):
        profile = spec2000_profile("gzip")
        subset = list(configs[:6])
        a = noisy_responses(mc, profile, subset, seed=9)
        b = noisy_responses(mc, profile, subset, seed=9)
        assert a.shape == (6,)
        assert np.allclose(a, b)
        assert np.all(a > 0)

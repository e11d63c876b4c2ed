"""Behavioural tests for the interval simulator.

These encode the paper's Section 3.4 observations as invariants: the
register file is the critical bottleneck, wide machines burn energy,
memory-bound programs live and die by the L2, and so on.
"""

import numpy as np
import pytest

from repro.designspace import (
    DesignSpace,
    embedded_space,
    restrict,
    sample_configurations,
    server_space,
)
from repro.sim import IntervalSimulator, Metric
from repro.workloads import spec2000_profile


@pytest.fixture(scope="module")
def sim():
    return IntervalSimulator()


@pytest.fixture(scope="module")
def baseline(sim):
    return sim.space.baseline


class TestBasics:
    def test_result_metrics_consistent(self, sim, baseline):
        result = sim.simulate(spec2000_profile("gzip"), baseline)
        assert result.ed == pytest.approx(result.cycles * result.energy)
        assert result.edd == pytest.approx(result.ed * result.cycles)

    def test_metric_lookup(self, sim, baseline):
        result = sim.simulate(spec2000_profile("gzip"), baseline)
        assert result.metric(Metric.CYCLES) == result.cycles
        assert result.metric(Metric.EDD) == result.edd

    def test_batch_matches_scalar(self, sim, baseline, configs):
        profile = spec2000_profile("applu")
        subset = list(configs[:20])
        batch = sim.simulate_batch(profile, subset)
        for i, config in enumerate(subset):
            single = sim.simulate(profile, config)
            assert batch.cycles[i] == single.cycles
            assert batch.energy[i] == single.energy

    def test_empty_batch(self, sim):
        batch = sim.simulate_batch(spec2000_profile("gzip"), [])
        assert len(batch) == 0

    def test_illegal_configuration_rejected(self, sim, baseline):
        config = baseline.replace(rob_size=32, iq_size=80)
        with pytest.raises(ValueError):
            sim.simulate(spec2000_profile("gzip"), config)

    def test_string_value_rejected_like_validate(self, sim, baseline):
        config = baseline.replace(width="4")
        with pytest.raises(ValueError) as refused:
            sim.simulate(spec2000_profile("gzip"), config)
        assert str(refused.value) == (
            "config[0]: width='4' is off the grid (2, 4, 6, 8)"
        )
        with pytest.raises(ValueError, match="width='4'"):
            sim.space.validate(config)

    def test_first_off_grid_value_by_index_then_parameter(
        self, sim, baseline
    ):
        rows = [baseline] * 6
        rows[2] = baseline.replace(l2cache_kb=3000)
        rows[3] = baseline.replace(rob_size=100, l2cache_kb=3000)
        rows[4] = baseline.replace(width=5)
        with pytest.raises(ValueError) as refused:
            sim.simulate_batch(spec2000_profile("gzip"), rows)
        assert str(refused.value) == (
            "config[2]: l2cache_kb=3000 is off the grid "
            "(256, 512, 1024, 2048, 4096)"
        )
        with pytest.raises(ValueError) as refused:
            sim.simulate_batch(spec2000_profile("gzip"), rows[3:])
        assert str(refused.value).startswith(
            "config[0]: rob_size=100 is off the grid (32, 40,"
        )

    def test_non_numeric_value_reported_in_scan_order(self, sim, baseline):
        gzip = spec2000_profile("gzip")
        numeric = baseline.replace(width=5)
        text = baseline.replace(iq_size="16")
        with pytest.raises(ValueError, match=r"^config\[1\]: width=5 "):
            sim.simulate_batch(gzip, [baseline, numeric, text])
        with pytest.raises(ValueError, match=r"^config\[1\]: iq_size='16' "):
            sim.simulate_batch(gzip, [baseline, text, numeric])
        with pytest.raises(ValueError, match=r"^config\[0\]: rob_size=None "):
            sim.simulate_suite([gzip], [baseline.replace(rob_size=None)])

    def test_illegal_configuration_message(self, sim, baseline):
        config = baseline.replace(rob_size=32, iq_size=80)
        with pytest.raises(ValueError) as refused:
            sim.simulate_suite(
                [spec2000_profile("gzip")], [baseline, baseline, config]
            )
        assert str(refused.value) == (
            f"config[2] violates legality constraints: {config}"
        )

    def test_deterministic(self, sim, baseline):
        profile = spec2000_profile("gzip")
        a = sim.simulate(profile, baseline)
        b = sim.simulate(profile, baseline)
        assert a.cycles == b.cycles and a.energy == b.energy

    def test_breakdown_fields(self, sim, baseline):
        result = sim.simulate(spec2000_profile("gzip"), baseline)
        assert {"window", "ipc_base", "cpi", "mlp"} <= set(result.breakdown)
        assert result.breakdown["ipc_base"] <= baseline.width

    def test_cycles_scale_with_instructions(self, sim, baseline):
        short = spec2000_profile("gzip")
        long = short.with_overrides(instructions=short.instructions * 2)
        assert sim.simulate(long, baseline).cycles == pytest.approx(
            2 * sim.simulate(short, baseline).cycles
        )


class TestRestrictedSpaces:
    """The space a simulator validates against selects which machines it
    accepts, not how it models them."""

    @pytest.mark.parametrize("narrow", [
        embedded_space(),
        server_space(),
        restrict(DesignSpace(), width=(4, 4)),
    ], ids=["embedded", "server", "one-width"])
    def test_equals_full_space_simulation_exactly(self, sim, narrow):
        profiles = [spec2000_profile("gzip"), spec2000_profile("art")]
        configs = [narrow.baseline] + sample_configurations(
            narrow, 63, seed=5
        )
        restricted = IntervalSimulator(narrow)
        rows = restricted.simulate_suite(profiles, configs)
        for row, full in zip(rows, sim.simulate_suite(profiles, configs)):
            for metric in Metric.all():
                assert np.isfinite(row.metric(metric)).all()
                assert np.array_equal(row.metric(metric), full.metric(metric))
        single = restricted.simulate(profiles[0], narrow.baseline)
        assert single == sim.simulate(profiles[0], narrow.baseline)
        assert np.isfinite([single.cycles, single.energy]).all()


class TestRegisterFileBottleneck:
    """Section 3.4: a small RF dominates the worst-cycles tail."""

    def test_tiny_rf_is_a_cliff(self, sim, baseline):
        profile = spec2000_profile("gzip")
        tiny = sim.simulate(profile, baseline.replace(rf_size=40)).cycles
        base = sim.simulate(profile, baseline).cycles
        assert tiny > 1.5 * base

    def test_big_rf_beyond_rob_does_not_help(self, sim, baseline):
        """Large RF is not sufficient for high performance (Fig 2c)."""
        profile = spec2000_profile("gzip")
        big = sim.simulate(profile, baseline.replace(rf_size=160)).cycles
        base = sim.simulate(profile, baseline).cycles
        assert big == pytest.approx(base, rel=0.12)

    def test_rf_cliff_shrinks_the_window(self, sim, baseline):
        profile = spec2000_profile("gzip")
        result = sim.simulate(profile, baseline.replace(rf_size=40))
        assert result.breakdown["window"] < 20


class TestMemoryHierarchy:
    def test_l2_matters_for_memory_bound_art(self, sim, baseline):
        art = spec2000_profile("art")
        small = sim.simulate(art, baseline.replace(l2cache_kb=256)).cycles
        large = sim.simulate(art, baseline.replace(l2cache_kb=4096)).cycles
        assert small > 1.25 * large

    def test_l2_barely_matters_for_cache_friendly_gzip(self, sim, baseline):
        gzip = spec2000_profile("gzip")
        small = sim.simulate(gzip, baseline.replace(l2cache_kb=1024)).cycles
        large = sim.simulate(gzip, baseline.replace(l2cache_kb=4096)).cycles
        assert small < 1.15 * large

    def test_mcf_is_slowest(self, sim, baseline):
        mcf = sim.simulate(spec2000_profile("mcf"), baseline).cycles
        gzip = sim.simulate(spec2000_profile("gzip"), baseline).cycles
        assert mcf > 3 * gzip

    def test_bigger_dcache_reduces_cycles(self, sim, baseline):
        profile = spec2000_profile("equake")
        small = sim.simulate(profile, baseline.replace(dcache_kb=8)).cycles
        large = sim.simulate(profile, baseline.replace(dcache_kb=128)).cycles
        assert large < small


class TestFrontEnd:
    def test_bigger_gshare_reduces_cycles_for_branchy_code(self, sim, baseline):
        profile = spec2000_profile("gcc")
        small = sim.simulate(profile, baseline.replace(gshare_size=1024)).cycles
        large = sim.simulate(profile, baseline.replace(gshare_size=32768)).cycles
        assert large < small

    def test_width_helps_high_ilp_fp_code(self, sim, baseline):
        profile = spec2000_profile("galgel")
        narrow = sim.simulate(
            profile, baseline.replace(width=2, rf_read_ports=4,
                                      rf_write_ports=2)
        ).cycles
        wide = sim.simulate(
            profile, baseline.replace(width=8)
        ).cycles
        assert wide < narrow

    def test_few_read_ports_throttle_issue(self, sim, baseline):
        profile = spec2000_profile("galgel")
        starved = sim.simulate(profile, baseline.replace(rf_read_ports=2)).cycles
        fed = sim.simulate(profile, baseline.replace(rf_read_ports=8)).cycles
        assert starved > fed


class TestEnergyBehaviour:
    """Section 3.4's energy structure."""

    def test_wide_machine_burns_more_energy(self, sim, baseline):
        profile = spec2000_profile("gzip")
        narrow = sim.simulate(
            profile,
            baseline.replace(width=2, rf_read_ports=4, rf_write_ports=2),
        ).energy
        wide = sim.simulate(profile, baseline.replace(width=8)).energy
        assert wide > narrow

    def test_big_l2_leaks(self, sim, baseline):
        profile = spec2000_profile("gzip")
        small = sim.simulate(profile, baseline.replace(l2cache_kb=1024)).energy
        large = sim.simulate(profile, baseline.replace(l2cache_kb=4096)).energy
        assert large > small

    def test_tiny_rf_wastes_energy_through_leakage(self, sim, baseline):
        """Slow configurations pay static energy for longer (Fig 3i)."""
        profile = spec2000_profile("gzip")
        tiny = sim.simulate(profile, baseline.replace(rf_size=40)).energy
        base = sim.simulate(profile, baseline).energy
        assert tiny > base

    def test_fewer_read_ports_save_energy(self, sim, baseline):
        profile = spec2000_profile("gzip")
        few = sim.simulate(profile, baseline.replace(rf_read_ports=4)).energy
        many = sim.simulate(profile, baseline.replace(rf_read_ports=16,
                                                      width=8)).energy
        assert few < many


class TestProgramDifferences:
    def test_programs_have_distinct_spaces(self, sim, configs):
        a = sim.simulate_batch(spec2000_profile("gzip"), list(configs[:50]))
        b = sim.simulate_batch(spec2000_profile("applu"), list(configs[:50]))
        assert not np.allclose(a.cycles, b.cycles)

    def test_idiosyncrasy_changes_the_space_shape(self, sim, configs):
        """Two profiles differing only in idiosyncrasy seed disagree."""
        base = spec2000_profile("gzip")
        twisted = base.with_overrides(
            idiosyncrasy_performance=base.idiosyncrasy_performance.__class__(
                amplitude=base.idiosyncrasy_performance.amplitude,
                seed=base.idiosyncrasy_performance.seed + 1,
            )
        )
        a = sim.simulate_batch(base, list(configs[:50])).cycles
        b = sim.simulate_batch(twisted, list(configs[:50])).cycles
        assert not np.allclose(a, b)
        # But only by the idiosyncrasy amplitude.
        assert np.max(np.abs(a - b) / a) < 3 * base.idiosyncrasy_performance.amplitude

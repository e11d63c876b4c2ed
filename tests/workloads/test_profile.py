"""Tests for the workload profile component models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    BranchBehaviour,
    Idiosyncrasy,
    InstructionMix,
    LocalityModel,
    spec2000_profile,
    stable_seed,
)


def _mix(**overrides) -> InstructionMix:
    values = dict(
        int_alu=0.40, int_mul=0.05, fp_alu=0.05, fp_mul=0.02,
        load=0.22, store=0.10, branch=0.16,
    )
    values.update(overrides)
    return InstructionMix(**values)


class TestInstructionMix:
    def test_fractions_sum_to_one(self):
        assert abs(sum(_mix().as_tuple()) - 1.0) < 1e-9

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _mix(int_alu=0.9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            InstructionMix(-0.1, 0.2, 0.2, 0.2, 0.2, 0.2, 0.1)

    def test_memory_fraction(self):
        assert _mix().memory == pytest.approx(0.32)

    def test_fp_fraction(self):
        assert _mix().fp == pytest.approx(0.07)

    def test_normalised(self):
        raw = InstructionMix(0.8, 0.1, 0.1, 0.2, 0.4, 0.2, 0.2).normalised() \
            if False else _mix().normalised()
        assert abs(sum(raw.as_tuple()) - 1.0) < 1e-12


class TestBranchBehaviour:
    def _behaviour(self) -> BranchBehaviour:
        return BranchBehaviour(
            floor=0.04, scale=0.05, alpha=0.5, btb_floor=0.01,
            btb_scale=0.02, taken_fraction=0.6, static_branches=128,
        )

    def test_mispredict_decreases_with_size(self):
        behaviour = self._behaviour()
        sizes = np.array([1024, 4096, 16384, 32768])
        rates = behaviour.mispredict_rate(sizes)
        assert np.all(np.diff(rates) < 0)

    def test_mispredict_approaches_floor(self):
        behaviour = self._behaviour()
        assert behaviour.mispredict_rate(2**30) == pytest.approx(
            behaviour.floor, abs=1e-3
        )

    def test_mispredict_is_probability(self):
        behaviour = self._behaviour()
        rate = behaviour.mispredict_rate(1)
        assert 0.0 <= rate <= 0.5

    def test_btb_miss_decreases_with_size(self):
        behaviour = self._behaviour()
        assert behaviour.btb_miss_rate(4096) < behaviour.btb_miss_rate(1024)

    def test_invalid_floor_rejected(self):
        with pytest.raises(ValueError):
            BranchBehaviour(1.5, 0.05, 0.5, 0.01, 0.02, 0.6, 128)

    def test_invalid_taken_fraction_rejected(self):
        with pytest.raises(ValueError):
            BranchBehaviour(0.04, 0.05, 0.5, 0.01, 0.02, 1.0, 128)


class TestLocalityModel:
    def _locality(self) -> LocalityModel:
        return LocalityModel(
            working_sets=((32 * 1024, 0.05), (2 * 1024 * 1024, 0.08)),
            cold=0.003,
        )

    def test_monotone_in_capacity(self):
        locality = self._locality()
        capacities = np.array([4, 16, 64, 256, 1024, 8192]) * 1024.0
        misses = locality.miss_ratio(capacities)
        assert np.all(np.diff(misses) <= 1e-12)

    def test_approaches_cold_floor(self):
        locality = self._locality()
        assert locality.miss_ratio(2.0**40) == pytest.approx(0.003, abs=1e-6)

    def test_small_cache_misses_most(self):
        locality = self._locality()
        assert locality.miss_ratio(64.0) > 0.1

    def test_footprint_is_largest_working_set(self):
        assert self._locality().footprint == 2 * 1024 * 1024

    def test_weights_exceeding_one_rejected(self):
        with pytest.raises(ValueError):
            LocalityModel(working_sets=((1024, 0.9),), cold=0.2)

    def test_empty_working_sets_rejected(self):
        with pytest.raises(ValueError):
            LocalityModel(working_sets=(), cold=0.01)

    @given(
        capacity=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=50, deadline=None)
    def test_miss_ratio_is_probability(self, capacity):
        assert 0.0 <= float(self._locality().miss_ratio(capacity)) <= 1.0


class TestIdiosyncrasy:
    def test_deterministic_given_seed(self):
        idio = Idiosyncrasy(amplitude=0.1, seed=42)
        x = np.random.default_rng(0).random((5, 13))
        assert np.allclose(idio.factor(x), idio.factor(x))

    def test_bounded_by_amplitude(self):
        idio = Idiosyncrasy(amplitude=0.1, seed=42)
        x = np.random.default_rng(1).random((200, 13))
        factors = idio.factor(x)
        assert np.all(factors >= 0.9 - 1e-9)
        assert np.all(factors <= 1.1 + 1e-9)

    def test_zero_amplitude_is_identity(self):
        idio = Idiosyncrasy(amplitude=0.0, seed=1)
        x = np.random.default_rng(2).random((10, 13))
        assert np.allclose(idio.factor(x), 1.0)

    def test_different_seeds_differ(self):
        x = np.random.default_rng(3).random((50, 13))
        a = Idiosyncrasy(amplitude=0.1, seed=1).factor(x)
        b = Idiosyncrasy(amplitude=0.1, seed=2).factor(x)
        assert not np.allclose(a, b)

    def test_varies_over_space(self):
        idio = Idiosyncrasy(amplitude=0.1, seed=4)
        x = np.random.default_rng(5).random((100, 13))
        assert idio.factor(x).std() > 1e-3


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", "b") == stable_seed("a", "b")

    def test_part_sensitive(self):
        assert stable_seed("a", "b") != stable_seed("a", "c")

    def test_fits_32_bits(self):
        assert 0 <= stable_seed("anything") < 2**32


class TestWorkloadProfile:
    def test_ilp_increases_with_window(self):
        profile = spec2000_profile("gzip")
        windows = np.array([8, 16, 32, 64, 128, 256])
        ilp = profile.ilp(windows)
        assert np.all(np.diff(ilp) > 0)

    def test_ilp_saturates_at_max(self):
        profile = spec2000_profile("gzip")
        assert float(profile.ilp(10_000)) == pytest.approx(
            profile.ilp_max, rel=1e-6
        )

    def test_describe_keys(self):
        summary = spec2000_profile("art").describe()
        assert {"memory_fraction", "ilp_max", "mlp_max"} <= set(summary)

    def test_with_overrides(self):
        profile = spec2000_profile("gzip")
        changed = profile.with_overrides(ilp_max=9.0)
        assert changed.ilp_max == 9.0
        assert changed.name == profile.name

    def test_invalid_fields_rejected(self):
        profile = spec2000_profile("gzip")
        with pytest.raises(ValueError):
            profile.with_overrides(ilp_max=-1.0)
        with pytest.raises(ValueError):
            profile.with_overrides(mlp_max=0.5)
        with pytest.raises(ValueError):
            profile.with_overrides(instructions=0)


class TestStacked:
    """A stacked profile's formulas give, row by row, each program's
    own scalar evaluation bit for bit, at arbitrary (off-grid) inputs."""

    @staticmethod
    def _profiles():
        from dataclasses import replace

        base = spec2000_profile("gzip")
        data, code = base.data_locality, base.instruction_locality
        profiles = []
        for index, (alpha, sharpness, sets) in enumerate((
            (1.0, 2.0, 1), (0.5, 0.5, 3), (0.7, 1.0, 2), (1.3, 1.7, 2),
            (1.0, 0.5, 3), (0.9, 2.0, 1),
        )):
            working_sets = (data.working_sets + ((3.0e6, 0.01),))[:sets]
            profiles.append(replace(
                spec2000_profile(("gzip", "mcf", "art", "swim")[index % 4]),
                branches=replace(base.branches, alpha=alpha),
                data_locality=LocalityModel(working_sets=working_sets,
                                            cold=data.cold,
                                            sharpness=sharpness),
                instruction_locality=replace(code, sharpness=3.0 - sharpness),
            ))
        return profiles

    def test_rows_equal_each_programs_scalars(self):
        from repro.workloads.profile import stacked

        profiles = self._profiles()
        together = stacked(tuple(profiles))
        rng = np.random.default_rng(4)
        capacity = rng.uniform(2e3, 8e6, size=700)
        entries = rng.uniform(500.0, 40000.0, size=700)
        window = rng.uniform(1.0, 200.0, size=700)
        for row, profile in enumerate(profiles):
            for stacked_value, own in (
                (together.data_locality.miss_ratio(capacity),
                 profile.data_locality.miss_ratio(capacity)),
                (together.instruction_locality.miss_ratio(capacity),
                 profile.instruction_locality.miss_ratio(capacity)),
                (together.branches.mispredict_rate(entries),
                 profile.branches.mispredict_rate(entries)),
                (together.branches.btb_miss_rate(entries),
                 profile.branches.btb_miss_rate(entries)),
                (together.ilp(window), profile.ilp(window)),
            ):
                assert np.array_equal(stacked_value[row], own), profile.name
            assert together.mix.memory[row, 0] == profile.mix.memory

    def test_columns_are_read_only_and_cached(self):
        from repro.workloads.profile import stacked

        profiles = tuple(self._profiles())
        together = stacked(profiles)
        assert stacked(profiles) is together
        assert together.name == tuple(p.name for p in profiles)
        for column in (together.ilp_max, together.mix.load,
                       together.data_locality.working_sets[0][0]):
            assert column.shape == (len(profiles), 1)
            with pytest.raises(ValueError):
                column[0, 0] = 1.0

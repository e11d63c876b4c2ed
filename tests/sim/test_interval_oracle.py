"""A frozen oracle for the interval model's bits.

The simulator evaluates each term once, at the level it depends on:
configuration-only terms in the shared column build, the
idiosyncrasies' seeded draws once per program, and the rest as one
(programs x configurations) array pass over row blocks.  The reference
below is the straightforward per-program evaluation that recomputes
everything, every time, with fresh draws.  The contract is exact
(``np.array_equal``): hoisting a term or stacking the programs must not
regroup a sum or reassociate a product.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.designspace import DesignSpace, sample_configurations
from repro.sim import IntervalSimulator, Metric, derive_metrics
from repro.sim import energy as e
from repro.sim.branch import branch_penalties
from repro.sim.caches import hierarchy_miss_ratios
from repro.sim.interval import _BLOCK_CELLS
from repro.workloads import (
    Idiosyncrasy,
    LocalityModel,
    decompose,
    mibench_suite,
    optimization_family,
    spec2000_suite,
    synthetic_suite,
)

SIZES = (1, 7, 128, 1000)


def fresh_draws(idiosyncrasy, dims):
    """The bump draws, redrawn from a new generator."""
    rng = np.random.default_rng(idiosyncrasy.seed)
    centres = rng.uniform(0.0, 1.0, size=(idiosyncrasy.bumps, dims))
    signs = rng.choice((-1.0, 1.0), size=idiosyncrasy.bumps)
    active = min(idiosyncrasy.active_dimensions, dims)
    masks = np.zeros((idiosyncrasy.bumps, dims))
    for bump in range(idiosyncrasy.bumps):
        chosen = rng.choice(dims, size=active, replace=False)
        masks[bump, chosen] = 1.0
    return centres, signs, masks


def reference_factor(idiosyncrasy, unit_features):
    """``Idiosyncrasy.factor`` with fresh draws."""
    features = np.atleast_2d(np.asarray(unit_features, dtype=float))
    if idiosyncrasy.bumps == 0 or idiosyncrasy.amplitude == 0.0:
        return np.ones(features.shape[0])
    centres, signs, masks = fresh_draws(idiosyncrasy, features.shape[1])
    deltas = features[:, None, :] - centres[None, :, :]
    sq = np.sum(deltas * deltas * masks[None, :, :], axis=2)
    phi = np.sum(
        signs * np.exp(-sq / (2.0 * idiosyncrasy.width**2)), axis=1
    )
    phi = np.tanh(phi)
    return 1.0 + idiosyncrasy.amplitude * phi


def reference_columns(space, configs):
    """Raw parameter columns plus unit-cube coordinates."""
    raw = np.array([c.values() for c in configs], dtype=float)
    columns = {p.name: raw[:, j] for j, p in enumerate(space.parameters)}
    divisors = np.array([p.encoding_divisor for p in space.parameters])
    lo, hi = space.feature_bounds()
    columns["_unit"] = (raw / divisors - lo) / (hi - lo)
    return columns


def reference_evaluate(profile, columns, fixed):
    """Per-program evaluation recomputing every term -> (cycles, energy,
    breakdown)."""
    mix = profile.mix
    instructions = float(profile.instructions)

    rename = np.maximum(
        1.0,
        (columns["rf_size"] - fixed.architected_registers)
        / profile.dest_fraction,
    )
    window = np.minimum(columns["rob_size"], rename)
    window = np.minimum(window, columns["max_branches"] / max(mix.branch, 1e-6))
    window = np.minimum(window, columns["iq_size"] / profile.iq_pressure)
    window = np.minimum(window, columns["lsq_size"] / max(mix.memory, 1e-6))
    window = np.maximum(window, 1.0)

    width = columns["width"]
    port_limit = np.minimum(
        columns["rf_read_ports"] / profile.reads_per_instruction,
        columns["rf_write_ports"] / profile.dest_fraction,
    )
    fu_limit = np.full_like(width, np.inf)
    for count, fraction in (
        (width, mix.int_alu),
        (np.maximum(1.0, np.ceil(width / 2.0)), mix.int_mul),
        (np.maximum(1.0, np.ceil(width / 2.0)), mix.fp_alu),
        (np.maximum(1.0, np.ceil(width / 4.0)), mix.fp_mul),
        (np.maximum(1.0, np.ceil(width / 2.0)), mix.memory),
    ):
        if fraction > 1e-9:
            fu_limit = np.minimum(fu_limit, count / fraction)
    ipc_struct = np.minimum(width, np.minimum(port_limit, fu_limit))

    ipc_window = np.asarray(profile.ilp(window), dtype=float)
    ipc_base = (ipc_window**-4.0 + ipc_struct**-4.0) ** (-1.0 / 4.0)
    ipc_base = np.maximum(ipc_base, 1e-3)

    branches = branch_penalties(
        profile.branches, mix.branch, columns["gshare_size"],
        columns["btb_size"],
    )
    resolve = window / (2.0 * ipc_base)
    mispredict_penalty = branches.mispredicts_per_instruction * (
        fixed.frontend_depth + fixed.branch_redirect_penalty + resolve
    )
    btb_penalty = branches.btb_bubbles_per_instruction * (
        fixed.branch_redirect_penalty + 1.0
    )
    imiss = hierarchy_miss_ratios(
        profile.instruction_locality,
        columns["icache_kb"] * 1024.0,
        columns["l2cache_kb"] * 1024.0,
        fixed.l1_associativity,
        fixed.l2_associativity,
    )
    icache_penalty = (1.0 / 8.0) * (
        imiss.l1 * (1.0 - imiss.l2_local) * fixed.l2_latency * 0.7
        + imiss.l2_global * fixed.memory_latency * 0.8
    )
    dmiss = hierarchy_miss_ratios(
        profile.data_locality,
        columns["dcache_kb"] * 1024.0,
        columns["l2cache_kb"] * 1024.0,
        fixed.l1_associativity,
        fixed.l2_associativity,
    )
    hide = np.exp(-window / profile.latency_hiding_scale)
    l2_hit_penalty = (
        mix.load * dmiss.l1 * (1.0 - dmiss.l2_local) * fixed.l2_latency * hide
    )
    misses_in_window = window * mix.load * dmiss.l2_global
    mlp = np.minimum(
        profile.mlp_max,
        np.minimum(1.0 + misses_in_window, float(fixed.mshr_entries)),
    )
    mlp = np.maximum(mlp, 1.0)
    memory_penalty = mix.load * dmiss.l2_global * fixed.memory_latency / mlp
    store_penalty = (
        mix.store * dmiss.l2_global * fixed.memory_latency * 0.15 / mlp
    )
    cpi = (
        1.0 / ipc_base
        + mispredict_penalty
        + btb_penalty
        + icache_penalty
        + l2_hit_penalty
        + memory_penalty
        + store_penalty
    )
    cycles = (
        cpi * instructions
        * reference_factor(profile.idiosyncrasy_performance, columns["_unit"])
    )

    # Energy: every per-access energy and the area, recomputed here.
    rf_ports = columns["rf_read_ports"] + columns["rf_write_ports"]
    rob_read = e.array_read_energy(columns["rob_size"], 76, 2 * width)
    rob_write = e.array_write_energy(columns["rob_size"], 76, 2 * width)
    iq_write = e.array_write_energy(columns["iq_size"], 48, width)
    iq_wakeup = e.cam_search_energy(columns["iq_size"], 10)
    lsq_search = e.cam_search_energy(columns["lsq_size"], 40)
    lsq_write = e.array_write_energy(columns["lsq_size"], 72, width)
    rf_read = e.array_read_energy(columns["rf_size"], 64, rf_ports)
    rf_write = e.array_write_energy(columns["rf_size"], 64, rf_ports)
    gshare = e.array_read_energy(columns["gshare_size"], 2)
    btb = e.array_read_energy(columns["btb_size"], 60)
    icache = e.cache_access_energy(
        columns["icache_kb"] * 1024.0, fixed.l1_line_bytes,
        fixed.l1_associativity,
    )
    dcache = e.cache_access_energy(
        columns["dcache_kb"] * 1024.0, fixed.l1_line_bytes,
        fixed.l1_associativity,
    )
    l2 = e.cache_access_energy(
        columns["l2cache_kb"] * 1024.0, fixed.l2_line_bytes,
        fixed.l2_associativity,
    )
    rename_energy = e.array_read_energy(64, 8, 2 * width)
    wasted = np.clip(
        branches.mispredicts_per_instruction * ipc_base * resolve * 0.5,
        0.0, 1.5,
    )
    spec = 1.0 + wasted
    alu = (
        mix.int_alu * e.ALU_ENERGY["int_alu"]
        + mix.int_mul * e.ALU_ENERGY["int_mul"]
        + mix.fp_alu * e.ALU_ENERGY["fp_alu"]
        + mix.fp_mul * e.ALU_ENERGY["fp_mul"]
    )
    per_instruction = (
        (1.0 / 8.0) * icache * spec
        + mix.branch * (2.0 * gshare + btb) * spec
        + rename_energy * spec
        + (rob_write + rob_read) * spec
        + (iq_write + iq_wakeup) * spec
        + profile.reads_per_instruction * rf_read * spec
        + profile.dest_fraction * rf_write * spec
        + mix.memory * (lsq_write + dcache) * spec
        + mix.load * lsq_search * spec
        + alu * spec
        + (imiss.l1 / 8.0 + mix.memory * dmiss.l1) * l2
    )
    alu_area = 1.6e5 * (
        width
        + 2.0 * np.maximum(1.0, np.ceil(width / 2.0))
        + 2.5 * np.maximum(1.0, np.ceil(width / 2.0))
        + 4.0 * np.maximum(1.0, np.ceil(width / 4.0))
    )
    area = (
        e.array_area(columns["rob_size"], 76, 2 * width)
        + e.array_area(columns["iq_size"], 48, width)
        + e.array_area(columns["lsq_size"], 72, width)
        + 2.0 * e.array_area(columns["rf_size"], 64, rf_ports)
        + e.array_area(columns["gshare_size"], 2)
        + e.array_area(columns["btb_size"], 60)
        + e.cache_area(columns["icache_kb"] * 1024.0)
        + e.cache_area(columns["dcache_kb"] * 1024.0)
        + e.cache_area(columns["l2cache_kb"] * 1024.0)
        + alu_area
    )
    leakage = area * e.LEAKAGE_PER_AREA
    clock = e.CLOCK_ENERGY_COEFF * np.sqrt(area) * width
    energy = instructions * per_instruction + cycles * (leakage + clock)
    energy = energy * reference_factor(
        profile.idiosyncrasy_energy, columns["_unit"]
    )

    breakdown = {
        "window": window,
        "ipc_base": ipc_base,
        "cpi": cpi,
        "mispredict_penalty": mispredict_penalty,
        "icache_penalty": icache_penalty,
        "l2_hit_penalty": l2_hit_penalty,
        "memory_penalty": memory_penalty,
        "l1d_miss_ratio": dmiss.l1,
        "l2d_local_miss_ratio": dmiss.l2_local,
        "mlp": mlp,
    }
    return cycles, energy, breakdown


@pytest.fixture(scope="module")
def profiles():
    profiles = list(spec2000_suite().profiles) + list(mibench_suite().profiles)
    assert len(profiles) == 26 + 24
    return profiles


@pytest.fixture(scope="module")
def sim():
    return IntervalSimulator(DesignSpace())


@pytest.mark.parametrize("m", SIZES)
def test_suite_rows_match_the_oracle_exactly(sim, profiles, m):
    configs = sample_configurations(sim.space, m, seed=1000 + m)
    columns = reference_columns(sim.space, configs)
    rows = sim.simulate_suite(profiles, configs)
    assert len(rows) == len(profiles)
    for profile, row in zip(profiles, rows):
        cycles, energy, breakdown = reference_evaluate(
            profile, columns, sim.fixed
        )
        expected = derive_metrics(cycles, energy)
        for metric in Metric.all():
            assert np.array_equal(row.metric(metric), expected[metric]), (
                profile.name, metric
            )
        _, _, produced = sim._evaluate(profile, sim._columns(configs))
        assert produced.keys() == breakdown.keys()
        for name, values in breakdown.items():
            assert np.array_equal(produced[name], values), (
                profile.name, name
            )


@pytest.mark.parametrize("m", SIZES)
def test_suite_batch_and_scalar_paths_agree_exactly(sim, profiles, m):
    configs = sample_configurations(sim.space, m, seed=2000 + m)
    rows = sim.simulate_suite(profiles, configs)
    probes = sorted({0, m // 2, m - 1} | set(range(min(m, 7))))
    for profile, row in zip(profiles, rows):
        batch = sim.simulate_batch(profile, configs)
        for metric in Metric.all():
            assert np.array_equal(row.metric(metric), batch.metric(metric))
        for i in probes:
            single = sim.simulate(profile, configs[i])
            for metric in Metric.all():
                assert single.metric(metric) == row.metric(metric)[i], (
                    profile.name, i, metric
                )


class TestBumpDraws:
    def test_cached_draws_are_read_only_and_equal_fresh_draws(
        self, profiles
    ):
        for profile in profiles:
            for idiosyncrasy in (
                profile.idiosyncrasy_performance, profile.idiosyncrasy_energy
            ):
                cached = idiosyncrasy._bump_parameters(13)
                for array, fresh in zip(cached, fresh_draws(idiosyncrasy, 13)):
                    assert not array.flags.writeable
                    assert np.array_equal(array, fresh)
                    with pytest.raises(ValueError):
                        array[...] = 0.0

    def test_a_rebuilt_idiosyncrasy_reuses_the_draws(self):
        a = Idiosyncrasy(amplitude=0.1, seed=77)
        b = Idiosyncrasy(amplitude=0.3, seed=77)
        assert all(
            x is y
            for x, y in zip(a._bump_parameters(13), b._bump_parameters(13))
        )

    def test_draws_follow_bumps_and_active_dimensions(self):
        base = Idiosyncrasy(amplitude=0.1, seed=5)
        _, _, masks = base._bump_parameters(13)
        for other in (
            replace(base, bumps=base.bumps + 1),
            replace(base, active_dimensions=base.active_dimensions + 1),
        ):
            drawn = other._bump_parameters(13)
            for array, fresh in zip(drawn, fresh_draws(other, 13)):
                assert np.array_equal(array, fresh)
            assert not np.array_equal(drawn[2], masks)

    def test_factor_matches_fresh_draws_for_any_feature_count(self):
        idiosyncrasy = Idiosyncrasy(amplitude=0.2, seed=9)
        features = np.random.default_rng(3).uniform(size=(40, 5))
        assert np.array_equal(
            idiosyncrasy.factor(features),
            reference_factor(idiosyncrasy, features),
        )


def edge_profiles():
    """Profiles no built-in suite produces, each exercising one rule of
    the array pass: a locality with one or three working sets (the
    others are padded with weightless sets), idiosyncrasies with zero
    amplitude or zero bumps, a unit class absent (``fp_mul = 0``) or
    below the 1e-9 cut, and exponents numpy evaluates by a shortcut for
    a scalar (``alpha = 1`` gives ``** -1.0``; sharpness 2 and 0.5)."""
    base = spec2000_suite()["gzip"]
    mix = base.mix
    data, code = base.data_locality, base.instruction_locality
    one_set = LocalityModel(working_sets=data.working_sets[:1],
                            cold=data.cold, sharpness=data.sharpness)
    three_sets = LocalityModel(
        working_sets=code.working_sets + ((3.0e6, 0.01),),
        cold=code.cold, sharpness=code.sharpness,
    )
    return [
        replace(base, name="one-and-three-sets", data_locality=one_set,
                instruction_locality=three_sets),
        replace(base, name="three-and-one-sets", data_locality=three_sets,
                instruction_locality=one_set),
        replace(base, name="flat",
                idiosyncrasy_performance=replace(
                    base.idiosyncrasy_performance, amplitude=0.0),
                idiosyncrasy_energy=replace(
                    base.idiosyncrasy_energy, bumps=0)),
        replace(base, name="no-fp-mul", mix=replace(
            mix, fp_mul=0.0, int_alu=mix.int_alu + mix.fp_mul)),
        replace(base, name="tiny-int-mul", mix=replace(
            mix, int_mul=1e-10, int_alu=mix.int_alu + mix.int_mul - 1e-10)),
        replace(base, name="shortcut-exponents",
                branches=replace(base.branches, alpha=1.0),
                data_locality=replace(data, sharpness=2.0),
                instruction_locality=replace(code, sharpness=0.5)),
    ]


@pytest.fixture(scope="module")
def mixed_profiles(profiles):
    """Edge profiles first, then synthetic programs, SimPoint-style
    phases, optimisation variants, SPEC and MiBench."""
    spec = spec2000_suite()
    mixed = edge_profiles()
    mixed += list(synthetic_suite(6, seed=11, drift=0.3).profiles)
    mixed += [phase.profile for phase in decompose(spec["mcf"], 3)]
    mixed += [phase.profile for phase in decompose(spec["art"], 4)]
    mixed += list(optimization_family(spec["applu"]).values())
    mixed += profiles
    assert len(mixed) >= 50
    return mixed


def assert_suite_matches_the_oracle(sim, profiles, m, seed):
    configs = sample_configurations(sim.space, m, seed=seed)
    columns = reference_columns(sim.space, configs)
    rows = sim.simulate_suite(profiles, configs)
    assert len(rows) == len(profiles)
    for profile, row in zip(profiles, rows):
        cycles, energy, _ = reference_evaluate(profile, columns, sim.fixed)
        expected = derive_metrics(cycles, energy)
        for metric in Metric.all():
            assert np.array_equal(row.metric(metric), expected[metric]), (
                profile.name, metric, len(profiles), m
            )


class TestArrayPass:
    """The (programs x configurations) pass over row blocks of
    ``_BLOCK_CELLS // P`` configurations equals the per-program oracle
    for every mix of programs, at every block edge."""

    @pytest.mark.parametrize("count", (1, 2, 26, 50))
    def test_block_edges(self, sim, mixed_profiles, count):
        rows = _BLOCK_CELLS // count
        for m in (rows - 1, rows, rows + 1):
            assert_suite_matches_the_oracle(
                sim, mixed_profiles[:count], m, seed=3000 + m
            )

    @pytest.mark.parametrize("m", (1, 7, 128))
    def test_every_mixed_profile(self, sim, mixed_profiles, m):
        assert_suite_matches_the_oracle(sim, mixed_profiles, m, seed=4000 + m)

    @pytest.mark.parametrize("profile", edge_profiles(),
                             ids=lambda profile: profile.name)
    def test_each_edge_profile_alone(self, sim, profile):
        configs = sample_configurations(sim.space, 64, seed=5)
        columns = reference_columns(sim.space, configs)
        cycles, energy, breakdown = reference_evaluate(
            profile, columns, sim.fixed
        )
        produced = sim._evaluate(profile, sim._columns(configs))
        assert np.array_equal(produced[0], cycles)
        assert np.array_equal(produced[1], energy)
        for name, values in breakdown.items():
            assert np.array_equal(produced[2][name], values), name
        batch = sim.simulate_batch(profile, configs)
        expected = derive_metrics(cycles, energy)
        for metric in Metric.all():
            assert np.array_equal(batch.metric(metric), expected[metric])

    def test_a_programs_row_does_not_depend_on_its_neighbours(
        self, sim, mixed_profiles
    ):
        configs = sample_configurations(sim.space, 300, seed=6)
        together = sim.simulate_suite(mixed_profiles, configs)
        for profile, row in zip(mixed_profiles[::7], together[::7]):
            alone = sim.simulate_batch(profile, configs)
            for metric in Metric.all():
                assert np.array_equal(row.metric(metric), alone.metric(metric))

"""Monte Carlo statistical simulation (the HLS-style middle tier).

The paper's related work (Section 9.2) describes *statistical
simulation* — HLS, HLSpower, Eeckhout et al. — as the middle ground
between analytic models and cycle-accurate simulation: synthesise short
instruction sequences from a program's statistical profile and execute
them on an abstract machine model, trading determinism for fidelity to
the profile's distributions.

This module implements that tier.  Per replication it samples a window
of instructions (classes from the mix, dependency distances from the
geometric model, cache/branch outcomes as Bernoulli draws from the
analytic miss/misprediction rates) and schedules them on an abstract
out-of-order window: each instruction starts when its producers finish
and the machine has issue capacity, with front-end stalls injected for
mispredicted branches and instruction misses.  Cycles and energy are
averaged over replications, so estimates carry genuine sampling noise —
which makes this simulator the natural tool for studying how the
architecture-centric predictor copes with noisy responses (ablation
A8), since real responses are themselves SimPoint *estimates*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.designspace.configuration import Configuration
from repro.designspace.space import DesignSpace
from repro.workloads.profile import WorkloadProfile

from .branch import branch_penalties
from .caches import hierarchy_miss_ratios
from .interval import IntervalSimulator
from .machine import FixedParameters


@dataclass(frozen=True)
class MonteCarloResult:
    """Estimate with its sampling spread."""

    cycles: float
    energy: float
    cycles_std: float
    replications: int

    @property
    def relative_noise(self) -> float:
        """Standard error of the cycles estimate, relative."""
        if self.cycles == 0.0:
            return 0.0
        return self.cycles_std / np.sqrt(self.replications) / self.cycles


class MonteCarloSimulator:
    """Statistical simulator: replicated synthetic-window execution.

    Args:
        space: Design space (for validation/encoding).
        fixed: Table 2 constants.
        window_instructions: Instructions per sampled window.
        replications: Windows averaged per estimate.
    """

    def __init__(
        self,
        space: Optional[DesignSpace] = None,
        fixed: Optional[FixedParameters] = None,
        window_instructions: int = 2000,
        replications: int = 8,
    ) -> None:
        if window_instructions < 10:
            raise ValueError("window_instructions must be at least 10")
        if replications < 1:
            raise ValueError("replications must be at least 1")
        self.space = space if space is not None else DesignSpace()
        self.fixed = fixed if fixed is not None else FixedParameters()
        self.window_instructions = window_instructions
        self.replications = replications
        # Energy is charged with the interval model's accounting, scaled
        # by the Monte Carlo cycle estimate (activity counts are profile
        # properties; only the elapsed cycles differ).
        self._interval = IntervalSimulator(self.space, self.fixed)

    # ------------------------------------------------------------------
    def simulate(
        self,
        profile: WorkloadProfile,
        config: Configuration,
        seed: Optional[int] = None,
    ) -> MonteCarloResult:
        """Estimate cycles and energy by replicated window sampling."""
        self.space.validate(config)
        rng = np.random.default_rng(seed)
        per_window = np.array(
            [
                self._one_window(profile, config, rng)
                for _ in range(self.replications)
            ]
        )
        scale = profile.instructions / self.window_instructions
        cycles = float(per_window.mean() * scale)
        cycles_std = float(per_window.std() * scale)

        # Energy: interval-model activity accounting at the Monte Carlo
        # cycle count (leakage + clock scale with cycles; dynamic energy
        # is activity-driven and shared).  One column build serves both
        # the reference pass and the per-cycle overhead.
        columns = self._interval._columns([config])
        batch_cycles, batch_energy, _ = self._interval._evaluate(
            profile, columns
        )
        reference_cycles = float(batch_cycles[0])
        leakage_share = float(columns.overhead_per_cycle[0]) * reference_cycles
        dynamic = float(batch_energy[0]) - leakage_share
        energy = dynamic + leakage_share * (cycles / reference_cycles)
        return MonteCarloResult(
            cycles=cycles,
            energy=float(energy),
            cycles_std=cycles_std,
            replications=self.replications,
        )

    # ------------------------------------------------------------------
    def _one_window(
        self,
        profile: WorkloadProfile,
        config: Configuration,
        rng: np.random.Generator,
    ) -> float:
        """Cycles for one sampled window on the abstract machine."""
        n = self.window_instructions
        fixed = self.fixed
        mix = profile.mix

        # Analytic event rates for this configuration.
        dmiss = hierarchy_miss_ratios(
            profile.data_locality,
            config.dcache_kb * 1024.0,
            config.l2cache_kb * 1024.0,
            fixed.l1_associativity,
            fixed.l2_associativity,
        )
        branches = branch_penalties(
            profile.branches, mix.branch,
            config.gshare_size, config.btb_size,
        )

        # Sample per-instruction properties.
        classes = rng.choice(
            7, size=n, p=np.array(mix.as_tuple()) / sum(mix.as_tuple())
        )
        latencies = np.array(
            [
                fixed.int_alu_latency,
                fixed.int_mul_latency,
                fixed.fp_alu_latency,
                fixed.fp_mul_latency,
                fixed.l1_latency,
                1,  # stores: buffered
                fixed.int_alu_latency,
            ]
        )[classes].astype(float)
        loads = classes == 4
        l1_misses = loads & (rng.random(n) < float(dmiss.l1))
        l2_misses = l1_misses & (rng.random(n) < float(dmiss.l2_local))
        mlp = max(1.0, min(profile.mlp_max, float(fixed.mshr_entries)))
        latencies[l1_misses] += fixed.l2_latency
        latencies[l2_misses] += fixed.memory_latency / mlp

        dependency_mean = max(2.0, profile.ilp_window_scale / 6.0)
        distances = rng.geometric(1.0 / dependency_mean, size=(n, 2))
        ready_mask = rng.random((n, 2)) < 0.3  # immediate/architected

        is_branch = classes == 6
        mispredicted = is_branch & (
            rng.random(n) < float(branches.mispredict_rate)
        )

        # Abstract OoO schedule: finish[i] = max(producer finishes,
        # earliest slot the front end and width allow) + latency.
        width = config.width
        window = min(
            config.rob_size,
            max(1, int((config.rf_size - fixed.architected_registers)
                       / profile.dest_fraction)),
            max(1, int(config.iq_size / profile.iq_pressure)),
        )
        finish = np.zeros(n)
        fetch_ready = np.zeros(n)
        stall_until = 0.0
        for i in range(n):
            fetch_cycle = max(i / width, stall_until)
            ready = fetch_cycle
            for s in range(2):
                if ready_mask[i, s]:
                    continue
                producer = i - int(distances[i, s])
                if producer >= 0:
                    ready = max(ready, finish[producer])
            # The window bounds how far execution runs ahead of commit.
            if i >= window:
                ready = max(ready, finish[i - window])
            finish[i] = ready + latencies[i]
            if mispredicted[i]:
                stall_until = finish[i] + fixed.frontend_depth
        return float(finish.max())


def noisy_responses(
    simulator: MonteCarloSimulator,
    profile: WorkloadProfile,
    configs: Sequence[Configuration],
    seed: Optional[int] = None,
) -> np.ndarray:
    """Monte Carlo cycle estimates for a response set (with noise)."""
    rng = np.random.default_rng(seed)
    return np.array(
        [
            simulator.simulate(
                profile, config, seed=int(rng.integers(0, 2**32))
            ).cycles
            for config in configs
        ]
    )

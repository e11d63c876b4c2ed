"""Simulated design-space datasets shared by all experiments.

The paper simulates the same 3,000 uniformly sampled configurations for
every benchmark (Section 3.3) and draws training sets, responses and
validation sets from that pool.  :class:`DesignSpaceDataset` reproduces
that protocol: one shared configuration sample, per-program metric
vectors computed lazily through the interval simulator and memoised, and
index-based subset selection so experiments can carve out disjoint
training/response/validation splits without re-simulating anything.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.designspace.configuration import Configuration
from repro.designspace.sampling import sample_configurations
from repro.designspace.space import DesignSpace
from repro.sim.interval import IntervalSimulator
from repro.sim.metrics import Metric
from repro.workloads.phases import combine_phase_metrics, decompose
from repro.workloads.suite import BenchmarkSuite


class DesignSpaceDataset:
    """Metric values of one suite over one shared configuration sample.

    Args:
        suite: The benchmark suite to simulate.
        configs: The shared configuration sample.
        simulator: Interval simulator (a default one is built if absent).
        phases: SimPoint-style phases per program.  1 (default) simulates
            each program's aggregate profile; higher values decompose
            every program into weighted phases and combine the per-phase
            cycles and energy, as the paper does with SimPoint intervals.
    """

    def __init__(
        self,
        suite: BenchmarkSuite,
        configs: Sequence[Configuration],
        simulator: Optional[IntervalSimulator] = None,
        phases: int = 1,
    ) -> None:
        if not configs:
            raise ValueError("a dataset needs at least one configuration")
        if phases < 1:
            raise ValueError("phases must be at least 1")
        self.suite = suite
        self.configs: Tuple[Configuration, ...] = tuple(configs)
        self.simulator = simulator if simulator is not None else IntervalSimulator()
        self.phases = phases
        self._cache: Dict[Tuple[str, Metric], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def sampled(
        cls,
        suite: BenchmarkSuite,
        sample_size: int = 3000,
        seed: int = 0,
        space: Optional[DesignSpace] = None,
        simulator: Optional[IntervalSimulator] = None,
    ) -> "DesignSpaceDataset":
        """Build a dataset over a fresh uniform random sample.

        Defaults follow the paper: 3,000 configurations shared across
        all programs of the suite.
        """
        simulator = simulator if simulator is not None else IntervalSimulator(space)
        configs = sample_configurations(simulator.space, sample_size, seed=seed)
        return cls(suite, configs, simulator)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.configs)

    @property
    def programs(self) -> Tuple[str, ...]:
        """Program names of the underlying suite."""
        return self.suite.programs

    def values(self, program: str, metric: Metric) -> np.ndarray:
        """Metric values of one program over all configurations (cached)."""
        key = (program, metric)
        if key not in self._cache:
            profile = self.suite[program]
            if self.phases == 1:
                batch = self.simulator.simulate_batch(
                    profile, list(self.configs)
                )
                cycles, energy = batch.cycles, batch.energy
            else:
                # Additive metrics combine across weighted phases; the
                # derived products are computed from the combined values.
                parts = decompose(profile, self.phases)
                weights = np.array([phase.weight for phase in parts])
                cycle_rows, energy_rows = [], []
                for phase in parts:
                    batch = self.simulator.simulate_batch(
                        phase.profile, list(self.configs)
                    )
                    cycle_rows.append(batch.cycles)
                    energy_rows.append(batch.energy)
                cycles = combine_phase_metrics(np.stack(cycle_rows), weights)
                energy = combine_phase_metrics(np.stack(energy_rows), weights)
            self._cache[(program, Metric.CYCLES)] = cycles
            self._cache[(program, Metric.ENERGY)] = energy
            self._cache[(program, Metric.ED)] = energy * cycles
            self._cache[(program, Metric.EDD)] = energy * cycles * cycles
        return self._cache[key]

    def hydrate(
        self, program: str, metric: Metric, values: np.ndarray
    ) -> None:
        """Install precomputed metric values instead of simulating them.

        The public entry point for anything that already holds a
        program's metrics — a loaded archive, a finished campaign — so
        callers never reach into the memoisation cache directly.

        Args:
            program: A program of this dataset's suite.
            metric: The metric the values belong to.
            values: One finite value per configuration of the dataset.

        Raises:
            ValueError: on an unknown program, a shape mismatch or
                non-finite values.
        """
        if program not in self.programs:
            raise ValueError(
                f"program {program!r} is not in suite {self.suite.name!r}"
            )
        values = np.asarray(values, dtype=float)
        if values.shape != (len(self.configs),):
            raise ValueError(
                f"values for {program!r}/{metric.value} have shape "
                f"{values.shape}, expected {(len(self.configs),)}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(
                f"values for {program!r}/{metric.value} contain "
                "non-finite entries"
            )
        self._cache[(program, metric)] = values

    def hydrated(self, program: str, metric: Metric) -> bool:
        """True when the pair is already served without simulation."""
        return (program, metric) in self._cache

    def matrix(self, metric: Metric) -> np.ndarray:
        """(programs, configurations) metric matrix in suite order."""
        return np.stack(
            [self.values(program, metric) for program in self.programs]
        )

    def subset_configs(self, indices: Sequence[int]) -> List[Configuration]:
        """Configurations at the given indices."""
        return [self.configs[i] for i in indices]

    def subset_values(
        self, program: str, metric: Metric, indices: Sequence[int]
    ) -> np.ndarray:
        """Metric values of one program at the given indices.

        Takes a list, tuple, range or integer array; ``take`` gathers
        from an index array without making a Python int per index.
        """
        return self.values(program, metric).take(indices)

    def split_indices(
        self,
        first_count: int,
        seed: Optional[int] = None,
        universe: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Random disjoint (first, rest) index split of the config pool.

        Args:
            first_count: Size of the first part (e.g. T or R).
            seed: Seed for the permutation.
            universe: Optional subset of indices to split (defaults to
                the whole pool).
        """
        pool = (
            np.arange(len(self.configs))
            if universe is None
            else np.asarray(list(universe), dtype=int)
        )
        if not 0 <= first_count <= pool.size:
            raise ValueError(
                f"first_count must be in [0, {pool.size}], got {first_count}"
            )
        rng = np.random.default_rng(seed)
        order = rng.permutation(pool)
        return order[:first_count], order[first_count:]

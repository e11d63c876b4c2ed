"""First-order interval performance/energy model (the bulk simulator).

This is the fast data generator behind the large experiments, playing
the role statistical simulation plays in the paper's related work: a
first-order superscalar model in the tradition of Karkhanis & Smith's
interval analysis.  Execution proceeds at a window-and-width-limited
steady-state issue rate, punctuated by miss events — branch
mispredictions, instruction-cache misses, data misses to L2 and memory —
each charged its exposure after out-of-order latency hiding and
memory-level parallelism.

The model is fully vectorised over configurations with numpy: evaluating
a program on thousands of design points is a single pass of array
arithmetic, which is what makes sampling 3,000 architectures per
benchmark (Section 3.3 of the paper) cheap enough to run everywhere.

Cycle model
-----------
The effective out-of-order window is the binding minimum of the reorder
buffer, the rename registers the register file can supply, the issue
queue and load/store queue occupancies the program generates, and the
in-flight branch limit.  The program's ILP curve maps the window to a
sustainable issue rate, capped (smoothly) by the pipeline width, the
register-file ports, and the width-scaled functional units.  Penalty
terms then add the exposed cost of branch mispredictions (front-end
refill plus window drain), BTB misses, instruction misses, L2 hits that
the window cannot hide, and memory accesses divided by the achievable
memory-level parallelism.

Energy model
------------
Wattch-style: per-instruction activity counts for every structure times
the Cacti-style per-access energies of :mod:`repro.sim.energy`, inflated
on the speculative front-end path by the wrong-path factor, plus leakage
and clock power integrated over the elapsed cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.designspace.configuration import PARAMETER_ORDER, Configuration
from repro.designspace.space import DesignSpace
from repro.workloads.profile import WorkloadProfile, stacked

from . import energy as energy_model
from .branch import branch_penalties
from .caches import effective_capacity, effective_miss_ratios
from .machine import FixedParameters, functional_units
from .metrics import Metric, derive_metrics

#: Instructions per I-cache line fetch (32-byte lines, 4-byte insns).
_INSTRUCTIONS_PER_FETCH = 8.0
#: Exponent of the smooth minimum combining window ILP and structural
#: width limits (higher = closer to a hard min).
_SOFT_MIN_POWER = 4.0
#: (program, configuration) cells per block of a suite pass: a block's
#: temporaries are (P, 4096 // P) arrays of 32 KB whatever the batch
#: size, as :class:`repro.core.crossval.PoolMatrix` blocks its rows.
_BLOCK_CELLS = 4096
#: Rows per idiosyncrasy evaluation.  Its three (rows, bumps, 13)
#: temporaries stay under ~160 KB each, in cache and reused by the
#: allocator: 3,000 rows take ~1.3 ms in 256-row calls against ~3.3 ms
#: in one, which returns its pages to the OS on every call.
_FACTOR_ROWS = 256


@dataclass(frozen=True)
class SimulationResult:
    """Metrics for one (program, configuration) pair, with breakdown."""

    cycles: float
    energy: float
    ed: float
    edd: float
    breakdown: Dict[str, float] = field(default_factory=dict)

    def metric(self, metric: Metric) -> float:
        """Look up one of the four target metrics."""
        return {
            Metric.CYCLES: self.cycles,
            Metric.ENERGY: self.energy,
            Metric.ED: self.ed,
            Metric.EDD: self.edd,
        }[metric]


@dataclass(frozen=True)
class BatchResult:
    """Metric arrays for one program across a batch of configurations."""

    cycles: np.ndarray
    energy: np.ndarray
    ed: np.ndarray
    edd: np.ndarray

    def metric(self, metric: Metric) -> np.ndarray:
        """Look up one of the four target metric arrays."""
        return {
            Metric.CYCLES: self.cycles,
            Metric.ENERGY: self.energy,
            Metric.ED: self.ed,
            Metric.EDD: self.edd,
        }[metric]

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class _Columns:
    """What the model reads from a batch of configurations alone.

    Built once per batch by :meth:`IntervalSimulator._columns` and shared
    by every program's pass: the raw parameter columns (indexable by
    parameter name), the coordinates in Table 1's unit cube that the
    idiosyncrasy terms read, the width-scaled functional-unit counts
    (Table 2b), the caches' effective capacities in bytes, every
    structure's per-access energy, and the leakage plus clock energy
    charged per cycle.
    """

    values: Dict[str, np.ndarray]
    unit: np.ndarray
    units: Dict[str, np.ndarray]
    capacity: Dict[str, np.ndarray]
    energies: energy_model.StructureEnergies
    overhead_per_cycle: np.ndarray

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def __len__(self) -> int:
        return len(self.unit)

    def rows(self, start: int, stop: int) -> "_Columns":
        """The configurations ``start:stop`` of every column (views)."""
        if start == 0 and stop >= len(self):
            return self
        cut = slice(start, stop)
        energies = self.energies
        return _Columns(
            values={name: column[cut] for name, column in self.values.items()},
            unit=self.unit[cut],
            units={name: count[cut] for name, count in self.units.items()},
            capacity={
                name: column[cut] for name, column in self.capacity.items()
            },
            energies=energy_model.StructureEnergies(*(
                getattr(energies, item.name)[cut] for item in fields(energies)
            )),
            overhead_per_cycle=self.overhead_per_cycle[cut],
        )


class IntervalSimulator:
    """Vectorised first-order simulator over a design space."""

    def __init__(
        self,
        space: Optional[DesignSpace] = None,
        fixed: Optional[FixedParameters] = None,
    ) -> None:
        self.space = space if space is not None else DesignSpace()
        self.fixed = fixed if fixed is not None else FixedParameters()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def simulate(
        self, profile: WorkloadProfile, config: Configuration
    ) -> SimulationResult:
        """Simulate one configuration, returning a diagnostic breakdown."""
        columns = self._columns([config])
        cycles, energy, breakdown = self._evaluate(profile, columns)
        metrics = derive_metrics(cycles[0], energy[0])
        return SimulationResult(
            cycles=float(metrics[Metric.CYCLES]),
            energy=float(metrics[Metric.ENERGY]),
            ed=float(metrics[Metric.ED]),
            edd=float(metrics[Metric.EDD]),
            breakdown={name: float(values[0]) for name, values in breakdown.items()},
        )

    def simulate_batch(
        self, profile: WorkloadProfile, configs: Sequence[Configuration]
    ) -> BatchResult:
        """Simulate a batch of configurations in one vectorised pass."""
        return self.simulate_suite([profile], configs)[0]

    def simulate_suite(
        self,
        profiles: Sequence[WorkloadProfile],
        configs: Sequence[Configuration],
    ) -> List[BatchResult]:
        """Program-major 2-D evaluation: every profile over one batch.

        Each term of the model is evaluated once, at the level it
        depends on.  One column build validates the batch and computes
        everything that reads the configurations alone: raw values,
        unit-cube coordinates, functional-unit counts, effective cache
        capacities, per-access energies, and leakage plus clock energy
        per cycle.  The programs' parameters are stacked into (P, 1)
        columns (:func:`~repro.workloads.profile.stacked`, cached per
        suite), and the idiosyncrasies' seeded bump draws are cached per
        program.  The terms that read both then run as (P, rows) arrays,
        one pass for all programs over blocks of at most
        :data:`_BLOCK_CELLS` (program, configuration) cells, so memory
        stays flat in the batch size.
        """
        columns = self._columns(configs)
        profiles = tuple(profiles)
        if not profiles:
            return []
        programs = stacked(profiles)
        count, size = len(profiles), len(columns)
        cycles = np.empty((count, size))
        energy = np.empty((count, size))
        step = max(1, _BLOCK_CELLS // count)
        for start in range(0, size, step):
            stop = start + step
            block_cycles, block_energy, _ = self._evaluate_programs(
                programs, columns.rows(start, stop)
            )
            cycles[:, start:stop] = block_cycles
            energy[:, start:stop] = block_energy
        metrics = derive_metrics(cycles, energy)
        return [
            BatchResult(
                cycles=metrics[Metric.CYCLES][row],
                energy=metrics[Metric.ENERGY][row],
                ed=metrics[Metric.ED][row],
                edd=metrics[Metric.EDD][row],
            )
            for row in range(count)
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _columns(self, configs: Sequence[Configuration]) -> _Columns:
        """Validate a batch and evaluate its configuration-only terms.

        :meth:`DesignSpace.validate_many` checks the batch (its error
        names the offending configuration index) and returns the raw
        value matrix.  Every term that reads the configurations alone
        is then evaluated once for the whole batch (see
        :class:`_Columns`).
        """
        raw = self.space.validate_many(configs)
        values = dict(zip(PARAMETER_ORDER, raw.T))
        fixed, e = self.fixed, energy_model
        width = values["width"]
        units = functional_units(width)
        area = e.core_area(values, units)
        leakage = area * e.LEAKAGE_PER_AREA
        clock = e.CLOCK_ENERGY_COEFF * np.sqrt(area) * width
        return _Columns(
            values=values,
            unit=DesignSpace.unit_cube(raw),
            units=units,
            capacity={
                "icache": effective_capacity(
                    values["icache_kb"] * 1024.0, fixed.l1_associativity
                ),
                "dcache": effective_capacity(
                    values["dcache_kb"] * 1024.0, fixed.l1_associativity
                ),
                "l2": effective_capacity(
                    values["l2cache_kb"] * 1024.0, fixed.l2_associativity
                ),
            },
            energies=e.structure_energies(values, fixed),
            overhead_per_cycle=leakage + clock,
        )

    def _effective_window(
        self, programs: WorkloadProfile, columns: _Columns
    ) -> np.ndarray:
        """Binding out-of-order window (instructions), (P, rows)."""
        mix = programs.mix
        rename = np.maximum(
            1.0,
            (columns["rf_size"] - self.fixed.architected_registers)
            / programs.dest_fraction,
        )
        branch_limit = columns["max_branches"] / np.maximum(mix.branch, 1e-6)
        iq_limit = columns["iq_size"] / programs.iq_pressure
        lsq_limit = columns["lsq_size"] / np.maximum(mix.memory, 1e-6)
        window = np.minimum(columns["rob_size"], rename)
        window = np.minimum(window, branch_limit)
        window = np.minimum(window, iq_limit)
        window = np.minimum(window, lsq_limit)
        return np.maximum(window, 1.0)

    def _structural_ipc(
        self, programs: WorkloadProfile, columns: _Columns
    ) -> np.ndarray:
        """Width / ports / functional-unit issue-rate ceiling, (P, rows).

        A unit class absent from a program's mix gives ``count / 0``,
        +inf, which the running minimum ignores; any fraction up to
        1e-9 gives a limit of at least 1e9, above every width.
        """
        mix = programs.mix
        width = columns["width"]
        units = columns.units
        port_limit = np.minimum(
            columns["rf_read_ports"] / programs.reads_per_instruction,
            columns["rf_write_ports"] / programs.dest_fraction,
        )
        fu_limit = np.full_like(width, np.inf)
        with np.errstate(divide="ignore"):
            for count, fraction in (
                (units["int_alu"], mix.int_alu),
                (units["int_mul"], mix.int_mul),
                (units["fp_alu"], mix.fp_alu),
                (units["fp_mul"], mix.fp_mul),
                (units["dcache_ports"], mix.memory),
            ):
                fu_limit = np.minimum(fu_limit, count / fraction)
        return np.minimum(width, np.minimum(port_limit, fu_limit))

    def _evaluate(self, profile: WorkloadProfile, columns: _Columns):
        """One program over a whole batch -> (cycles, energy, breakdown),
        each a 1-D array over the configurations: the P = 1 case of
        :meth:`_evaluate_programs`."""
        cycles, energy, breakdown = self._evaluate_programs(
            stacked((profile,)), columns
        )
        return cycles[0], energy[0], {
            name: values[0] for name, values in breakdown.items()
        }

    def _evaluate_programs(self, programs: WorkloadProfile, columns: _Columns):
        """Core vectorised evaluation of a :func:`stacked` profile ->
        (cycles, energy, breakdown), each (P, rows)."""
        fixed = self.fixed
        mix = programs.mix
        instructions = programs.instructions

        window = self._effective_window(programs, columns)
        ipc_window = np.asarray(programs.ilp(window), dtype=float)
        ipc_struct = self._structural_ipc(programs, columns)
        # Smooth minimum: both limits bind gradually, as in real machines.
        p = _SOFT_MIN_POWER
        ipc_base = (ipc_window**-p + ipc_struct**-p) ** (-1.0 / p)
        ipc_base = np.maximum(ipc_base, 1e-3)

        # Branches ---------------------------------------------------------
        branches = branch_penalties(
            programs.branches,
            mix.branch,
            columns["gshare_size"],
            columns["btb_size"],
        )
        resolve = window / (2.0 * ipc_base)
        mispredict_penalty = branches.mispredicts_per_instruction * (
            fixed.frontend_depth + fixed.branch_redirect_penalty + resolve
        )
        btb_penalty = branches.btb_bubbles_per_instruction * (
            fixed.branch_redirect_penalty + 1.0
        )

        # Instruction fetch -------------------------------------------------
        capacity = columns.capacity
        imiss = effective_miss_ratios(
            programs.instruction_locality, capacity["icache"], capacity["l2"]
        )
        fetches_per_instruction = 1.0 / _INSTRUCTIONS_PER_FETCH
        icache_penalty = fetches_per_instruction * (
            imiss.l1 * (1.0 - imiss.l2_local) * fixed.l2_latency * 0.7
            + imiss.l2_global * fixed.memory_latency * 0.8
        )

        # Data memory ---------------------------------------------------------
        dmiss = effective_miss_ratios(
            programs.data_locality, capacity["dcache"], capacity["l2"]
        )
        hide = np.exp(-window / programs.latency_hiding_scale)
        l2_hit_penalty = (
            mix.load * dmiss.l1 * (1.0 - dmiss.l2_local) * fixed.l2_latency * hide
        )
        misses_in_window = window * mix.load * dmiss.l2_global
        mlp = np.minimum(
            programs.mlp_max,
            np.minimum(1.0 + misses_in_window, float(fixed.mshr_entries)),
        )
        mlp = np.maximum(mlp, 1.0)
        memory_penalty = (
            mix.load * dmiss.l2_global * fixed.memory_latency / mlp
        )
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
        cycles = cpi * instructions * self._factors(
            programs.idiosyncrasy_performance, columns
        )

        # Energy -------------------------------------------------------------
        energy = self._energy(
            programs, columns, instructions, cycles, ipc_base, resolve,
            branches, imiss, dmiss,
        )
        energy = energy * self._factors(programs.idiosyncrasy_energy, columns)

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

    @staticmethod
    def _factors(idiosyncrasies, columns: _Columns) -> np.ndarray:
        """(P, rows) idiosyncrasy factors: one RBF evaluation per program
        (each draws its own bumps) per :data:`_FACTOR_ROWS` rows."""
        unit = columns.unit
        factors = np.empty((len(idiosyncrasies), len(unit)))
        for start in range(0, len(unit), _FACTOR_ROWS):
            stop = start + _FACTOR_ROWS
            for row, idiosyncrasy in enumerate(idiosyncrasies):
                factors[row, start:stop] = idiosyncrasy.factor(unit[start:stop])
        return factors

    def _energy(
        self,
        programs: WorkloadProfile,
        columns: _Columns,
        instructions: np.ndarray,
        cycles: np.ndarray,
        ipc_base: np.ndarray,
        resolve: np.ndarray,
        branches,
        imiss,
        dmiss,
    ) -> np.ndarray:
        """Wattch-style energy: activity x per-access energy + overheads.

        The per-access energies and the per-cycle overhead come from the
        column build; only the activity counts read the programs.
        """
        mix = programs.mix
        e = columns.energies

        # Wrong-path inflation: speculatively fetched/renamed work that a
        # misprediction discards.
        wasted = np.clip(
            branches.mispredicts_per_instruction * ipc_base * resolve * 0.5,
            0.0,
            1.5,
        )
        spec = 1.0 + wasted

        alu_energy = energy_model.ALU_ENERGY
        alu = (
            mix.int_alu * alu_energy["int_alu"]
            + mix.int_mul * alu_energy["int_mul"]
            + mix.fp_alu * alu_energy["fp_alu"]
            + mix.fp_mul * alu_energy["fp_mul"]
        )
        per_instruction = (
            (1.0 / _INSTRUCTIONS_PER_FETCH) * e.icache_access * spec
            + mix.branch * (2.0 * e.gshare_access + e.btb_access) * spec
            + e.rename_access * spec
            + (e.rob_write + e.rob_read) * spec
            + (e.iq_write + e.iq_wakeup) * spec
            + programs.reads_per_instruction * e.rf_read * spec
            + programs.dest_fraction * e.rf_write * spec
            + mix.memory * (e.lsq_write + e.dcache_access) * spec
            + mix.load * e.lsq_search * spec
            + alu * spec
            + (imiss.l1 / _INSTRUCTIONS_PER_FETCH + mix.memory * dmiss.l1)
            * e.l2_access
        )
        return instructions * per_instruction + cycles * columns.overhead_per_cycle


def simulate(
    profile: WorkloadProfile,
    config: Configuration,
    space: Optional[DesignSpace] = None,
) -> SimulationResult:
    """Convenience wrapper: simulate one (program, configuration) pair."""
    return IntervalSimulator(space).simulate(profile, config)

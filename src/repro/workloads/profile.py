"""Statistical workload profiles — the benchmark substrate.

The paper runs SPEC CPU 2000 and MiBench binaries on a cycle-accurate
simulator.  Those binaries are licensed and unavailable, so this package
substitutes *statistical workload profiles*: each benchmark is described
by the program characteristics that first-order superscalar performance
models and statistical simulators use — instruction mix, an ILP-vs-window
curve, branch-predictability curves, working-set locality mixtures and
memory-level parallelism.  The simulators in :mod:`repro.sim` consume
these profiles, either analytically (interval model) or by synthesising
an instruction trace (pipeline model).

Crucially for the paper's thesis, the profiles share a common mechanistic
structure with per-program parameters *plus* a per-program idiosyncratic
non-linear term over the configuration space, so the per-program design
spaces are individually non-linear yet largely expressible as linear
combinations of one another — with deliberate outliers (art, mcf) that
are not.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, fields, replace
from typing import Dict, Tuple

import numpy as np

#: Exponents for which numpy computes ``x ** e`` with one scalar ``e``
#: by a shortcut (``1 / x``, ``sqrt(x)``, ``x * x``) that can round
#: differently from its general ``power`` loop.
_SHORTCUT_EXPONENTS = frozenset((-1.0, 0.5, 2.0))


def _power(base, exponent):
    """``base ** exponent`` for a scalar exponent, or for a (P, 1)
    column of per-program exponents against (n,) or (P, n) bases.

    Each row of a column's result equals that row's scalar power bit
    for bit.  numpy takes its scalar shortcuts for a column exponent
    only in some loop orders, so a row whose exponent has one is
    recomputed with its scalar.
    """
    result = base ** exponent
    if np.ndim(exponent) == 2:
        rows = exponent[:, 0].tolist()
        if not _SHORTCUT_EXPONENTS.isdisjoint(rows):
            base = np.broadcast_to(base, result.shape)
            for row, value in enumerate(rows):
                if value in _SHORTCUT_EXPONENTS:
                    result[row] = base[row] ** value
    return result


@dataclass(frozen=True)
class InstructionMix:
    """Fractions of committed instructions by class (must sum to 1)."""

    int_alu: float
    int_mul: float
    fp_alu: float
    fp_mul: float
    load: float
    store: float
    branch: float

    def __post_init__(self) -> None:
        total = sum(self.as_tuple())
        if any(f < 0 for f in self.as_tuple()):
            raise ValueError("instruction-mix fractions must be non-negative")
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"instruction mix must sum to 1, got {total}")

    def as_tuple(self) -> Tuple[float, ...]:
        """The seven class fractions in canonical order."""
        return (
            self.int_alu,
            self.int_mul,
            self.fp_alu,
            self.fp_mul,
            self.load,
            self.store,
            self.branch,
        )

    @property
    def memory(self) -> float:
        """Fraction of instructions that access data memory."""
        return self.load + self.store

    @property
    def fp(self) -> float:
        """Fraction of floating-point computation instructions."""
        return self.fp_alu + self.fp_mul

    def normalised(self) -> "InstructionMix":
        """Return a copy rescaled to sum exactly to 1."""
        total = sum(self.as_tuple())
        return InstructionMix(*(f / total for f in self.as_tuple()))


@dataclass(frozen=True)
class BranchBehaviour:
    """Branch-predictability model of a program.

    The misprediction rate of a gshare predictor with ``entries`` entries
    is modelled as ``floor + scale * (entries / 1024) ** -alpha`` — a
    power-law approach to an irreducible floor, the shape measured across
    predictor-size studies.  The BTB contributes an additional miss term
    for taken branches.
    """

    floor: float
    scale: float
    alpha: float
    btb_floor: float
    btb_scale: float
    taken_fraction: float
    static_branches: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("floor must be a probability")
        if self.scale < 0 or self.btb_scale < 0:
            raise ValueError("scales must be non-negative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.taken_fraction < 1.0:
            raise ValueError("taken_fraction must be in (0, 1)")
        if self.static_branches < 1:
            raise ValueError("static_branches must be at least 1")

    def mispredict_rate(self, gshare_entries) -> np.ndarray | float:
        """Misprediction probability for a gshare of the given size
        (per program and size, for a :func:`stacked` behaviour)."""
        entries = np.asarray(gshare_entries, dtype=float)
        rate = self.floor + self.scale * _power(entries / 1024.0, -self.alpha)
        return np.clip(rate, 0.0, 0.5)

    def btb_miss_rate(self, btb_entries) -> np.ndarray | float:
        """BTB miss probability for taken branches."""
        entries = np.asarray(btb_entries, dtype=float)
        rate = self.btb_floor + self.btb_scale * (entries / 1024.0) ** (-0.8)
        return np.clip(rate, 0.0, 1.0)


@dataclass(frozen=True)
class LocalityModel:
    """Working-set mixture locality model for a reference stream.

    The miss ratio of a cache of effective capacity ``C`` bytes is::

        miss(C) = cold + sum_i weight_i * exp(-(C / ws_i) ** sharpness)

    i.e. each working set ``ws_i`` (bytes) contributes misses until the
    cache is comfortably larger than it.  This is the smooth analogue of
    a reuse-distance CDF and is monotonically non-increasing in ``C``,
    which the hierarchy model relies on.
    """

    working_sets: Tuple[Tuple[float, float], ...]
    cold: float
    sharpness: float = 1.0

    def __post_init__(self) -> None:
        if not self.working_sets:
            raise ValueError("at least one working set is required")
        for size, weight in self.working_sets:
            if size <= 0 or weight < 0:
                raise ValueError("working sets need size > 0 and weight >= 0")
        if not 0.0 <= self.cold < 1.0:
            raise ValueError("cold miss rate must be a probability")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        total = self.cold + sum(w for _, w in self.working_sets)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"cold + working-set weights must not exceed 1, got {total}"
            )

    def miss_ratio(self, capacity_bytes) -> np.ndarray | float:
        """Miss ratio of a cache with the given effective capacity
        (per program and capacity, for a :func:`stacked` model)."""
        capacity = np.asarray(capacity_bytes, dtype=float)
        miss = self.cold
        for size, weight in self.working_sets:
            miss = miss + weight * np.exp(-_power(capacity / size, self.sharpness))
        return np.clip(miss, 0.0, 1.0)

    @property
    def footprint(self) -> float:
        """Largest working set (bytes) — the stream's total footprint."""
        return max(size for size, _ in self.working_sets)


@dataclass(frozen=True)
class Idiosyncrasy:
    """Per-program smooth non-linear quirk over the configuration space.

    Real programs respond to microarchitectural interactions in ways no
    shared mechanistic model captures.  We model that residual as a sum
    of ``bumps`` Gaussian radial basis functions over the normalised
    13-vector, deterministically seeded per program, multiplying the
    mechanistic metric by ``1 + amplitude * phi(x)`` with
    ``phi in [-1, 1]``.  This term is what makes a program's space not
    exactly a linear combination of other programs' spaces, and its
    amplitude controls the irreducible error of the architecture-centric
    predictor (large for outliers like art).
    """

    amplitude: float
    seed: int
    bumps: int = 6
    width: float = 0.45
    active_dimensions: int = 4

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if self.bumps < 0:
            raise ValueError("bumps must be non-negative")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.active_dimensions < 1:
            raise ValueError("active_dimensions must be at least 1")

    def _bump_parameters(
        self, dims: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centres, signs and the sparse dimension mask of each bump.

        Each bump responds to a random subset of the parameters (real
        program quirks are interactions of a few parameters, not all
        thirteen); restricting the distance to that subset keeps the
        gaussians from vanishing in high dimension.  The draws are
        cached by what they depend on, so profiles rebuilt from JSON
        and fresh simulators reuse them.
        """
        return _bump_draws(self.seed, self.bumps, self.active_dimensions, dims)

    def factor(self, unit_features: np.ndarray) -> np.ndarray:
        """Multiplicative factor for configurations in unit coordinates.

        Args:
            unit_features: (n, d) matrix with each feature scaled to
                [0, 1] over its grid.

        Returns:
            Length-n array of factors ``1 + amplitude * phi(x)`` with
            ``phi`` in [-1, 1].
        """
        features = np.atleast_2d(np.asarray(unit_features, dtype=float))
        if self.bumps == 0 or self.amplitude == 0.0:
            return np.ones(features.shape[0])
        centres, signs, masks = self._bump_parameters(features.shape[1])
        # (n, bumps) squared distances over each bump's active subset.
        deltas = features[:, None, :] - centres[None, :, :]
        sq = np.sum(deltas * deltas * masks[None, :, :], axis=2)
        phi = np.sum(signs * np.exp(-sq / (2.0 * self.width**2)), axis=1)
        phi = np.tanh(phi)  # keep within [-1, 1]
        return 1.0 + self.amplitude * phi


@functools.lru_cache(maxsize=512)
def _bump_draws(
    seed: int, bumps: int, active_dimensions: int, dims: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded bump draws of :meth:`Idiosyncrasy._bump_parameters`,
    returned read-only because every caller shares them."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, size=(bumps, dims))
    signs = rng.choice((-1.0, 1.0), size=bumps)
    active = min(active_dimensions, dims)
    masks = np.zeros((bumps, dims))
    for bump in range(bumps):
        chosen = rng.choice(dims, size=active, replace=False)
        masks[bump, chosen] = 1.0
    for array in (centres, signs, masks):
        array.flags.writeable = False
    return centres, signs, masks


def stable_seed(*parts: str) -> int:
    """Deterministic 32-bit seed from string parts (stable across runs)."""
    digest = hashlib.sha256("/".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class WorkloadProfile:
    """Complete statistical description of one benchmark program.

    Attributes:
        name: Benchmark name (e.g. ``"applu"``).
        suite: Suite name (``"spec2000"`` or ``"mibench"``).
        category: Sub-category (``"int"``/``"fp"`` or a MiBench group).
        mix: Instruction mix.
        ilp_max: Asymptotic ILP with an unbounded instruction window.
        ilp_window_scale: Window size (instructions) at which roughly
            63 percent of the asymptotic ILP is extracted.
        iq_pressure: Fraction of in-flight instructions resident in the
            issue queue while waiting for operands.
        dest_fraction: Fraction of instructions producing a register
            result (drives rename-register demand).
        reads_per_instruction: Average register source operands.
        branches: Branch-predictability model.
        data_locality: Locality of the data reference stream.
        instruction_locality: Locality of the instruction fetch stream.
        mlp_max: Program-inherent memory-level parallelism cap.
        latency_hiding_scale: Window size scale over which out-of-order
            execution hides L2-hit latency.
        idiosyncrasy_performance: Non-linear residual applied to cycles.
        idiosyncrasy_energy: Non-linear residual applied to energy.
        instructions: Nominal dynamic instruction count per phase (the
            paper's SimPoint intervals are 10 M instructions).
    """

    name: str
    suite: str
    category: str
    mix: InstructionMix
    ilp_max: float
    ilp_window_scale: float
    iq_pressure: float
    dest_fraction: float
    reads_per_instruction: float
    branches: BranchBehaviour
    data_locality: LocalityModel
    instruction_locality: LocalityModel
    mlp_max: float
    latency_hiding_scale: float
    idiosyncrasy_performance: Idiosyncrasy
    idiosyncrasy_energy: Idiosyncrasy
    instructions: int = 10_000_000

    def __post_init__(self) -> None:
        if self.ilp_max <= 0:
            raise ValueError("ilp_max must be positive")
        if self.ilp_window_scale <= 0:
            raise ValueError("ilp_window_scale must be positive")
        if not 0.0 < self.iq_pressure <= 1.0:
            raise ValueError("iq_pressure must be in (0, 1]")
        if not 0.0 < self.dest_fraction <= 1.0:
            raise ValueError("dest_fraction must be in (0, 1]")
        if self.reads_per_instruction <= 0:
            raise ValueError("reads_per_instruction must be positive")
        if self.mlp_max < 1.0:
            raise ValueError("mlp_max must be at least 1")
        if self.latency_hiding_scale <= 0:
            raise ValueError("latency_hiding_scale must be positive")
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")

    def ilp(self, window) -> np.ndarray | float:
        """Extractable ILP (instructions/cycle) for a given window size."""
        window = np.asarray(window, dtype=float)
        return self.ilp_max * (1.0 - np.exp(-window / self.ilp_window_scale))

    def with_overrides(self, **overrides) -> "WorkloadProfile":
        """Return a copy with some fields replaced (used by phases)."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, float]:
        """Compact numeric summary used in reports and tests."""
        return {
            "memory_fraction": self.mix.memory,
            "branch_fraction": self.mix.branch,
            "fp_fraction": self.mix.fp,
            "ilp_max": self.ilp_max,
            "data_footprint_kb": self.data_locality.footprint / 1024.0,
            "mlp_max": self.mlp_max,
        }


@functools.lru_cache(maxsize=64)
def stacked(profiles: Tuple[WorkloadProfile, ...]) -> WorkloadProfile:
    """P profiles as one, each numeric parameter a (P, 1) column.

    The model's formulas are the profile classes' own methods
    (:meth:`WorkloadProfile.ilp`, :meth:`BranchBehaviour.mispredict_rate`,
    :meth:`LocalityModel.miss_ratio`, :attr:`InstructionMix.memory`, ...).
    On the stacked profile they broadcast its (P, 1) columns against a
    batch's configuration columns, so one pass evaluates all P programs,
    each row bit for bit what that program's own scalars give.

    Names and idiosyncrasies are kept as P-tuples.  A locality's working
    sets are padded to the largest count among the P with weightless
    sets, each of which adds an exact 0.0.  The stacked instances skip
    ``__post_init__``: each of the P profiles was checked when built.
    Cached by the profiles, so a campaign's chunks stack their suite
    once; the columns are read-only, since every caller shares them.
    """
    if not profiles:
        raise ValueError("stacking needs at least one profile")
    kept = {
        name: tuple(getattr(profile, name) for profile in profiles)
        for name in ("name", "suite", "category",
                     "idiosyncrasy_performance", "idiosyncrasy_energy")
    }
    return _stack(
        profiles,
        mix=_stack([profile.mix for profile in profiles]),
        branches=_stack([profile.branches for profile in profiles]),
        data_locality=_stack_locality(
            [profile.data_locality for profile in profiles]
        ),
        instruction_locality=_stack_locality(
            [profile.instruction_locality for profile in profiles]
        ),
        **kept,
    )


def _stack(instances, **given):
    """One instance of the instances' dataclass holding, in each field,
    ``given``'s value or else the P instances' values as a (P, 1) float
    column."""
    stacked_instance = object.__new__(type(instances[0]))
    for item in fields(stacked_instance):
        value = given.get(item.name)
        if value is None:
            value = np.array(
                [getattr(instance, item.name) for instance in instances],
                dtype=float,
            )[:, None]
            value.flags.writeable = False
        object.__setattr__(stacked_instance, item.name, value)
    return stacked_instance


def _stack_locality(localities) -> LocalityModel:
    """:func:`_stack` for localities: the i-th working set's size and
    weight columns, padded with (1 byte, weight 0) sets."""
    count = max(len(locality.working_sets) for locality in localities)
    padded = [
        locality.working_sets
        + ((1.0, 0.0),) * (count - len(locality.working_sets))
        for locality in localities
    ]
    columns = np.array(padded, dtype=float).transpose(1, 2, 0)[..., None]
    columns.flags.writeable = False
    return _stack(
        localities,
        working_sets=tuple((size, weight) for size, weight in columns),
    )

"""Analytic cache hierarchy model.

Derives L1 and L2 miss ratios for a workload's reference stream from its
:class:`~repro.workloads.profile.LocalityModel`.  The treatment follows
the standard stack-distance argument: the probability a reference misses
in a cache of effective capacity ``C`` equals the probability its reuse
distance exceeds ``C``; for an inclusive two-level hierarchy the *local*
L2 miss ratio is the ratio of the two capacity-miss probabilities
(a reference reaching L2 has, by construction, reuse distance beyond the
L1's capacity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.profile import LocalityModel


def effective_capacity(capacity_bytes, associativity: int) -> np.ndarray:
    """Fully associative capacity equivalent of a set-associative cache.

    Limited associativity wastes part of the capacity to conflicts; the
    usual rule of thumb converges to the full capacity as associativity
    grows (direct-mapped keeps roughly 65 percent).
    """
    if associativity < 1:
        raise ValueError("associativity must be at least 1")
    capacity = np.asarray(capacity_bytes, dtype=float)
    return capacity * (1.0 - 0.35 / associativity)


@dataclass(frozen=True)
class HierarchyMissRatios:
    """Miss ratios of a two-level hierarchy for one reference stream.

    Attributes:
        l1: Misses per L1 access.
        l2_local: Misses per L2 access (i.e. per L1 miss).
        l2_global: Misses per original reference (``l1 * l2_local``).
    """

    l1: np.ndarray
    l2_local: np.ndarray
    l2_global: np.ndarray


def hierarchy_miss_ratios(
    locality: LocalityModel,
    l1_capacity_bytes,
    l2_capacity_bytes,
    l1_associativity: int = 2,
    l2_associativity: int = 8,
) -> HierarchyMissRatios:
    """Miss ratios of an inclusive L1/L2 pair for one reference stream.

    Accepts scalars or numpy arrays for the capacities (broadcast
    together), so a whole batch of configurations evaluates in one call.
    """
    return effective_miss_ratios(
        locality,
        effective_capacity(l1_capacity_bytes, l1_associativity),
        effective_capacity(l2_capacity_bytes, l2_associativity),
    )


def effective_miss_ratios(
    locality: LocalityModel, l1_effective, l2_effective
) -> HierarchyMissRatios:
    """:func:`hierarchy_miss_ratios` from the caches' effective
    capacities (:func:`effective_capacity`), which depend on the
    configuration alone and so can be computed once per batch.  A
    stacked locality (:func:`repro.workloads.profile.stacked`) gives
    (P, rows) ratios."""
    l1_miss = np.asarray(locality.miss_ratio(l1_effective), dtype=float)
    l2_capacity_miss = np.asarray(locality.miss_ratio(l2_effective), dtype=float)
    # An inclusive L2 smaller than its L1 would be degenerate; the design
    # space forbids it, but guard the division regardless.
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.where(l1_miss > 0.0, l2_capacity_miss / l1_miss, 0.0)
    local = np.clip(local, 0.0, 1.0)
    return HierarchyMissRatios(
        l1=l1_miss, l2_local=local, l2_global=l1_miss * local
    )


def misses_per_kilo_instruction(
    miss_ratio, accesses_per_instruction: float
) -> np.ndarray:
    """Convert a per-access miss ratio into MPKI."""
    if accesses_per_instruction < 0:
        raise ValueError("accesses_per_instruction must be non-negative")
    return np.asarray(miss_ratio, dtype=float) * accesses_per_instruction * 1000.0

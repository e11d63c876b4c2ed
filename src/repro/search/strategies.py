"""Classic predictor-guided search strategies.

The original one-shot strategies — candidate-scan ranking,
steepest-descent hill climbing, simulated annealing and the two-metric
Pareto sweep — living in the search subsystem beside their gym-style
successors (:mod:`repro.search.env` + :mod:`repro.search.agents`).

All strategies work with anything exposing ``predict(configs)`` — the
architecture-centric predictor, a program-specific predictor, or (for
oracle studies) a thin wrapper around a simulator.

Relative to the historical versions, frontier extraction now *fails
loudly* on malformed metric values: NaN/infinite predictions raise
``ValueError`` naming the offending index instead of silently
mis-ranking the frontier (NaN compares false with everything, so a
single bad value used to poison the sweep order unpredictably).
Exact duplicate points are deduplicated deterministically — the first
occurrence wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.designspace.configuration import Configuration
from repro.designspace.sampling import sample_configurations
from repro.designspace.space import DesignSpace

__all__ = [
    "Predictor",
    "RankedCandidate",
    "SearchResult",
    "TradeOffPoint",
    "dominated_fraction",
    "hill_climb",
    "pareto_front",
    "predicted_best",
    "simulated_annealing",
]


class Predictor(Protocol):
    """Anything that maps configurations to predicted metric values."""

    def predict(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Predicted metric values, one per configuration."""
        ...


@dataclass(frozen=True)
class RankedCandidate:
    """A candidate configuration with its predicted (and, if verified,
    simulated) metric value."""

    configuration: Configuration
    predicted: float
    simulated: Optional[float] = None


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a predictor-guided search."""

    best: RankedCandidate
    shortlist: Tuple[RankedCandidate, ...]
    candidates_scanned: int
    simulations_spent: int


def _require_finite(values: np.ndarray, label: str) -> None:
    """Raise ``ValueError`` naming the first non-finite entry."""
    bad = ~np.isfinite(values)
    if bad.any():
        index = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"non-finite {label} value {values[index]!r} at index {index}; "
            "frontier extraction needs finite metrics"
        )


def predicted_best(
    predictor: Predictor,
    space: DesignSpace,
    candidates: int = 10_000,
    shortlist: int = 10,
    seed: Optional[int] = None,
    verify: Optional[Callable[[Configuration], float]] = None,
) -> SearchResult:
    """Scan a random candidate set; optionally verify the short-list.

    Args:
        predictor: Fitted predictor for the target metric (lower=better).
        space: The design space to sample candidates from.
        candidates: Size of the random candidate set.
        shortlist: How many predicted-best candidates to keep/verify.
        seed: Sampling seed.
        verify: Optional ``config -> simulated value`` callable; when
            given, the short-list is re-ranked by simulated values (this
            is where the handful of real simulations is spent).
    """
    if shortlist < 1 or shortlist > candidates:
        raise ValueError("shortlist must be in [1, candidates]")
    pool = sample_configurations(space, candidates, seed=seed)
    predictions = np.asarray(predictor.predict(pool), dtype=float)
    order = np.argsort(predictions)[:shortlist]
    ranked = [
        RankedCandidate(pool[i], float(predictions[i])) for i in order
    ]
    simulations = 0
    if verify is not None:
        ranked = [
            RankedCandidate(
                candidate.configuration,
                candidate.predicted,
                float(verify(candidate.configuration)),
            )
            for candidate in ranked
        ]
        simulations = len(ranked)
        ranked.sort(key=lambda candidate: candidate.simulated)
    best = ranked[0]
    return SearchResult(
        best=best,
        shortlist=tuple(ranked),
        candidates_scanned=candidates,
        simulations_spent=simulations,
    )


def hill_climb(
    predictor: Predictor,
    space: DesignSpace,
    start: Optional[Configuration] = None,
    max_steps: int = 100,
) -> SearchResult:
    """Steepest-descent local search over single-parameter steps.

    Starts from ``start`` (default: the baseline machine) and repeatedly
    moves to the best-predicted legal neighbour until no neighbour
    improves or ``max_steps`` is exhausted.  Purely prediction-driven:
    zero simulations.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    current = start if start is not None else space.baseline
    space.validate(current)
    current_value = float(predictor.predict([current])[0])
    scanned = 1
    path = [RankedCandidate(current, current_value)]
    for _ in range(max_steps):
        neighbours = space.neighbours(current)
        if not neighbours:
            break
        values = np.asarray(predictor.predict(neighbours), dtype=float)
        scanned += len(neighbours)
        best_index = int(np.argmin(values))
        if values[best_index] >= current_value:
            break
        current = neighbours[best_index]
        current_value = float(values[best_index])
        path.append(RankedCandidate(current, current_value))
    return SearchResult(
        best=path[-1],
        shortlist=tuple(path),
        candidates_scanned=scanned,
        simulations_spent=0,
    )


def simulated_annealing(
    predictor: Predictor,
    space: DesignSpace,
    start: Optional[Configuration] = None,
    steps: int = 400,
    initial_temperature: float = 0.15,
    seed: Optional[int] = None,
) -> SearchResult:
    """Simulated annealing over single-parameter moves.

    Escapes the local optima that :func:`hill_climb` gets stuck in:
    each step proposes a random legal neighbour and accepts it with the
    Metropolis probability ``exp(-relative_worsening / temperature)``,
    with the temperature decaying geometrically to ~1 percent of its
    initial value over the run.  Purely prediction-driven.

    Args:
        predictor: Fitted predictor (lower = better).
        space: The design space.
        start: Starting configuration (default: the baseline machine).
        steps: Proposal count.
        initial_temperature: Relative-worsening scale accepted at the
            start (0.15 = a 15 percent worse neighbour is accepted with
            probability 1/e initially).
        seed: Proposal/acceptance seed.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if initial_temperature <= 0:
        raise ValueError("initial_temperature must be positive")
    rng = np.random.default_rng(seed)
    current = start if start is not None else space.baseline
    space.validate(current)
    current_value = float(predictor.predict([current])[0])
    best = RankedCandidate(current, current_value)
    scanned = 1
    decay = 0.01 ** (1.0 / steps)
    temperature = initial_temperature
    for _ in range(steps):
        neighbours = space.neighbours(current)
        if not neighbours:
            break
        proposal = neighbours[int(rng.integers(0, len(neighbours)))]
        value = float(predictor.predict([proposal])[0])
        scanned += 1
        worsening = (value - current_value) / max(current_value, 1e-12)
        if worsening <= 0 or rng.random() < np.exp(-worsening / temperature):
            current, current_value = proposal, value
            if current_value < best.predicted:
                best = RankedCandidate(current, current_value)
        temperature *= decay
    return SearchResult(
        best=best,
        shortlist=(best,),
        candidates_scanned=scanned,
        simulations_spent=0,
    )


@dataclass(frozen=True)
class TradeOffPoint:
    """One point of a two-metric trade-off frontier."""

    configuration: Configuration
    cycles: float
    energy: float


def pareto_front(
    cycles_predictor: Predictor,
    energy_predictor: Predictor,
    space: DesignSpace,
    candidates: int = 10_000,
    seed: Optional[int] = None,
) -> List[TradeOffPoint]:
    """Predicted cycles/energy Pareto frontier over a random sample.

    Returns the non-dominated points sorted by cycles (ascending);
    walking the list trades performance for energy.  Exact duplicate
    (cycles, energy) points keep their first occurrence only.

    Raises:
        ValueError: if either predictor emits a NaN or infinite value
            (a single NaN would silently poison the sweep's ordering).
    """
    pool = sample_configurations(space, candidates, seed=seed)
    cycles = np.asarray(cycles_predictor.predict(pool), dtype=float)
    energy = np.asarray(energy_predictor.predict(pool), dtype=float)
    _require_finite(cycles, "cycles")
    _require_finite(energy, "energy")
    order = np.lexsort((energy, cycles))
    front: List[TradeOffPoint] = []
    best_energy = np.inf
    for index in order:
        if energy[index] < best_energy:
            best_energy = energy[index]
            front.append(
                TradeOffPoint(
                    pool[index], float(cycles[index]), float(energy[index])
                )
            )
    return front


def dominated_fraction(
    front: Sequence[TradeOffPoint], points: Sequence[TradeOffPoint]
) -> float:
    """Fraction of ``points`` dominated by some member of ``front``.

    A quality measure for predicted frontiers against simulated truth.

    Raises:
        ValueError: if ``points`` is empty, or any coordinate on either
            side is NaN/infinite (NaN comparisons are silently false,
            which would undercount domination).
    """
    if not points:
        raise ValueError("points must be non-empty")
    for label, group in (("front", front), ("points", points)):
        values = np.asarray(
            [(p.cycles, p.energy) for p in group], dtype=float
        )
        if values.size:
            _require_finite(values.ravel(), label)
    dominated = 0
    for point in points:
        for member in front:
            if (
                member.cycles <= point.cycles
                and member.energy <= point.energy
                and (member.cycles < point.cycles
                     or member.energy < point.energy)
            ):
                dominated += 1
                break
    return dominated / len(points)

"""Multi-objective Pareto machinery: fronts, archives, hypervolume.

The closed-loop optimizer needs three primitives over any number of
objectives:

* :func:`pareto_indices` — the non-dominated subset of an arbitrary
  (n, k) objective matrix, with *validated* input: NaN/Inf metric
  values and degenerate single-axis inputs raise clear errors instead
  of silently mis-ranking, and exact duplicate rows keep only their
  first occurrence.
* :class:`ParetoArchive` — an incremental frontier that absorbs one
  evaluated design at a time, discarding dominated entries as it goes.
  The search environment owns one, so every agent shares identical
  frontier bookkeeping.
* :func:`hypervolume` — the volume dominated by a frontier up to a
  reference point, the standard scalar quality measure for comparing
  frontiers produced at equal budget (``BENCH_search.json`` plots it
  against predictor-call budget).

All objectives are *minimised*; a point ``p`` dominates ``q`` when
``p <= q`` in every objective and ``p < q`` in at least one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.designspace.configuration import Configuration

__all__ = [
    "FrontierPoint",
    "ParetoArchive",
    "dominated_fraction_nd",
    "hypervolume",
    "pareto_indices",
    "suggest_reference",
]


def _as_objective_matrix(values, *, context: str = "values") -> np.ndarray:
    """Validate and coerce an (n, k) objective matrix.

    Raises:
        ValueError: on non-2-D input (a 1-D vector is the classic
            single-objective degenerate case — its "frontier" is a
            scalar argmin, not a trade-off) or on NaN/Inf entries,
            which would silently mis-rank under ``<=`` comparisons.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(
            f"{context} must be a 2-D (points x objectives) matrix; got "
            f"{arr.ndim}-D input.  A single-objective problem has a "
            "scalar optimum — use argmin, not a Pareto front"
        )
    if arr.shape[1] < 1:
        raise ValueError(f"{context} needs at least one objective column")
    if arr.size and not np.isfinite(arr).all():
        bad = int(np.sum(~np.isfinite(arr)))
        first = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValueError(
            f"{context} contains {bad} NaN/Inf entr(y/ies), first at "
            f"index {first}; non-finite metrics cannot be ranked — "
            "check the predictor or simulation backend"
        )
    return arr


def _validate_reference(reference, objectives: int) -> np.ndarray:
    """Validate a hypervolume reference point against the objective count."""
    ref = np.asarray(reference, dtype=float).reshape(-1)
    if ref.shape[0] != objectives:
        raise ValueError(
            f"reference point has {ref.shape[0]} coordinates for "
            f"{objectives} objectives"
        )
    if not np.isfinite(ref).all():
        raise ValueError("reference point must be finite")
    return ref


def pareto_indices(values) -> np.ndarray:
    """Indices of the non-dominated rows of an (n, k) objective matrix.

    Exact duplicate rows keep only their first occurrence (a duplicated
    design adds nothing to a frontier); otherwise equal-valued distinct
    rows never dominate each other.  Indices come back sorted ascending,
    so the selection is deterministic for any input order.

    Raises:
        ValueError: for 1-D (single-objective degenerate) input or any
            NaN/Inf metric value — see :func:`_as_objective_matrix`.
    """
    arr = _as_objective_matrix(values)
    n = arr.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)
    dominated = np.zeros(n, dtype=bool)
    # Chunked pairwise domination test: memory stays O(chunk * n).
    chunk = 256
    for start in range(0, n, chunk):
        block = arr[start:start + chunk]
        leq = (arr[None, :, :] <= block[:, None, :]).all(axis=2)
        lt = (arr[None, :, :] < block[:, None, :]).any(axis=2)
        dominated[start:start + chunk] = (leq & lt).any(axis=1)
    keep = np.flatnonzero(~dominated)
    # Drop exact duplicates, keeping the earliest index of each row.
    _, first = np.unique(arr[keep], axis=0, return_index=True)
    return np.sort(keep[np.sort(first)])


def dominated_fraction_nd(front, points) -> float:
    """Fraction of ``points`` dominated by at least one ``front`` row.

    Raises:
        ValueError: on empty ``points``, mismatched objective counts,
            or non-finite entries in either matrix.
    """
    front_arr = _as_objective_matrix(front, context="front")
    points_arr = _as_objective_matrix(points, context="points")
    if points_arr.shape[0] == 0:
        raise ValueError("points must be non-empty")
    if front_arr.shape[0] == 0:
        return 0.0
    if front_arr.shape[1] != points_arr.shape[1]:
        raise ValueError(
            f"front has {front_arr.shape[1]} objectives, points have "
            f"{points_arr.shape[1]}"
        )
    leq = (front_arr[None, :, :] <= points_arr[:, None, :]).all(axis=2)
    lt = (front_arr[None, :, :] < points_arr[:, None, :]).any(axis=2)
    return float((leq & lt).any(axis=1).mean())


def suggest_reference(values, margin: float = 0.1) -> np.ndarray:
    """A hypervolume reference point dominating every row of ``values``.

    Per objective: ``hi + margin * span`` (with a tiny absolute floor
    when an objective is constant), so every observed point contributes
    positive volume.  To compare frontiers from *different* runs,
    stack all their observed points and derive one shared reference —
    hypervolumes are only comparable against a common reference.
    """
    arr = _as_objective_matrix(values, context="observed values")
    if arr.shape[0] == 0:
        raise ValueError("cannot derive a reference from zero points")
    if margin <= 0:
        raise ValueError("margin must be positive")
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = hi - lo
    pad = margin * np.where(span > 0, span, np.maximum(np.abs(hi), 1.0))
    return hi + pad


def hypervolume(points, reference) -> float:
    """Volume dominated by ``points`` and bounded by ``reference``.

    Objectives are minimised: the hypervolume is the measure of the
    region ``{x : exists p with p <= x <= reference}``.  Points not
    strictly below the reference in every objective contribute nothing
    (standard practice, so a shared reference can score frontiers whose
    stragglers poke past it).  Computed exactly by recursive slicing on
    the first objective — fine for the few-hundred-point frontiers the
    search produces; the tests pin it against a brute-force grid count.

    Raises:
        ValueError: on malformed or non-finite inputs (and a 1-D
            ``points`` vector, the single-objective degenerate case).
    """
    arr = _as_objective_matrix(points, context="points")
    ref = _validate_reference(reference, arr.shape[1])
    if arr.shape[0] == 0:
        return 0.0
    inside = (arr < ref).all(axis=1)
    arr = arr[inside]
    if arr.shape[0] == 0:
        return 0.0
    front = arr[pareto_indices(arr)]
    return _hypervolume_recursive(front, ref)


def _hypervolume_recursive(front: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume of a non-dominated set strictly below ``ref``."""
    k = front.shape[1]
    if k == 1:
        return float(ref[0] - front[:, 0].min())
    # Slice along the first objective: between consecutive cuts the
    # dominated cross-section is constant, so the volume is the slab
    # width times the (k-1)-dimensional hypervolume of the active set.
    cuts = np.unique(front[:, 0])
    total = 0.0
    for i, cut in enumerate(cuts):
        upper = cuts[i + 1] if i + 1 < len(cuts) else ref[0]
        active = front[front[:, 0] <= cut][:, 1:]
        sub = active[pareto_indices(active)] if active.shape[0] else active
        total += float(upper - cut) * _hypervolume_recursive(sub, ref[1:])
    return total


@dataclass(frozen=True)
class FrontierPoint:
    """One member of a Pareto frontier: a design and its objectives."""

    configuration: Configuration
    objectives: Tuple[float, ...]

    def to_payload(self) -> Dict:
        """JSON-ready dict (parameter mapping plus objective vector)."""
        return {
            "configuration": self.configuration.as_dict(),
            "objectives": list(self.objectives),
        }


class ParetoArchive:
    """An incremental non-dominated archive of evaluated designs.

    Every evaluated (configuration, objective-vector) pair is offered
    to the archive; it keeps exactly the current Pareto set.  Dominated
    offers are rejected, accepted offers evict the members they
    dominate, and re-offering an already archived configuration is a
    no-op — the dedup that keeps a random agent from padding its
    frontier with repeats.

    Args:
        objectives: Number of objective coordinates (>= 1; one objective
            degenerates to best-so-far tracking, which the
            single-metric ``/search`` serving endpoint relies on).
    """

    def __init__(self, objectives: int) -> None:
        if objectives < 1:
            raise ValueError("an archive needs at least one objective")
        self._objectives = objectives
        self._configs: List[Configuration] = []
        self._values: List[Tuple[float, ...]] = []
        self._members: Dict[Configuration, Tuple[float, ...]] = {}

    @property
    def objectives(self) -> int:
        """Number of objective coordinates per entry."""
        return self._objectives

    def __len__(self) -> int:
        return len(self._configs)

    def __contains__(self, configuration: Configuration) -> bool:
        return configuration in self._members

    def insert(self, configuration: Configuration, values) -> bool:
        """Offer one evaluated design; True if it joined the frontier.

        Raises:
            ValueError: on an objective-count mismatch or NaN/Inf
                objective values (clear errors beat silent mis-ranking).
        """
        vec = np.asarray(values, dtype=float).reshape(-1)
        if vec.shape[0] != self._objectives:
            raise ValueError(
                f"expected {self._objectives} objective values, got "
                f"{vec.shape[0]}"
            )
        if not np.isfinite(vec).all():
            raise ValueError(
                f"non-finite objective values {vec.tolist()} for "
                f"{configuration}; refusing to rank NaN/Inf metrics"
            )
        if configuration in self._members:
            return False
        candidate = tuple(float(v) for v in vec)
        survivors_c: List[Configuration] = []
        survivors_v: List[Tuple[float, ...]] = []
        for config, existing in zip(self._configs, self._values):
            if _dominates(existing, candidate):
                return False
            if not _dominates(candidate, existing):
                survivors_c.append(config)
                survivors_v.append(existing)
        for gone in set(self._configs) - set(survivors_c):
            del self._members[gone]
        survivors_c.append(configuration)
        survivors_v.append(candidate)
        self._configs = survivors_c
        self._values = survivors_v
        self._members[configuration] = candidate
        return True

    def update(self, configurations: Sequence[Configuration], values) -> int:
        """Offer a batch; returns how many joined the frontier."""
        matrix = _as_objective_matrix(values, context="batch values")
        if matrix.shape[0] != len(configurations):
            raise ValueError(
                f"{len(configurations)} configurations for "
                f"{matrix.shape[0]} objective rows"
            )
        return sum(
            self.insert(config, row)
            for config, row in zip(configurations, matrix)
        )

    def front(self) -> Tuple[FrontierPoint, ...]:
        """The current frontier, sorted by objective vector (ascending)."""
        order = sorted(
            range(len(self._configs)), key=lambda i: self._values[i]
        )
        return tuple(
            FrontierPoint(self._configs[i], self._values[i]) for i in order
        )

    def values_matrix(self) -> np.ndarray:
        """The frontier's objective vectors as an (n, k) matrix."""
        if not self._values:
            return np.empty((0, self._objectives), dtype=float)
        return np.asarray(sorted(self._values), dtype=float)

    def hypervolume(self, reference: Optional[Sequence[float]] = None) -> float:
        """Frontier hypervolume against ``reference``.

        With no reference given one is derived from the frontier itself
        via :func:`suggest_reference` — fine for a standalone score,
        wrong for comparing runs (derive a shared reference from the
        union of observed points instead).
        """
        matrix = self.values_matrix()
        if matrix.shape[0] == 0:
            return 0.0
        ref = (
            suggest_reference(matrix)
            if reference is None
            else _validate_reference(reference, self._objectives)
        )
        return hypervolume(matrix, ref)


def _dominates(p: Tuple[float, ...], q: Tuple[float, ...]) -> bool:
    """True when ``p`` dominates ``q`` (minimisation, strict somewhere)."""
    return all(a <= b for a, b in zip(p, q)) and any(
        a < b for a, b in zip(p, q)
    )

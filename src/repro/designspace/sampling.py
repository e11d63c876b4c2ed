"""Sampling the legal design space.

The paper uses uniform random sampling to draw 3,000 legal configurations
per benchmark (Section 3.3); the predictors' training sets (``T``
simulations per training program) and the responses from a new program
(``R`` simulations) are drawn the same way.  Sampling is rejection-based:
draw uniformly from the raw grid cross product, keep points that satisfy
the legality constraints.  Because the legal fraction is about 30 percent
this terminates quickly, and rejection preserves uniformity over the
legal subspace.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .configuration import Configuration
from .space import DesignSpace, meets_constraints


def _rng(seed: Optional[int] | np.random.Generator) -> np.random.Generator:
    """Coerce an int seed or a Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_configurations(
    space: DesignSpace,
    count: int,
    seed: Optional[int] | np.random.Generator = None,
    unique: bool = True,
) -> List[Configuration]:
    """Draw ``count`` legal configurations uniformly at random.

    Args:
        space: The design space to sample from.
        count: Number of configurations to return.
        seed: Integer seed or numpy Generator; ``None`` for entropy.
        unique: When true (the default) the returned configurations are
            distinct, matching the paper's protocol of 3,000 distinct
            sampled architectures.

    Returns:
        A list of ``count`` legal configurations.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = _rng(seed)
    grids = [parameter.values for parameter in space.parameters]
    chosen: List[Configuration] = []
    seen = set()
    # Draw in vectorised batches; rejection keeps the legal rows, in
    # draw order.
    batch = max(64, 4 * count)
    while len(chosen) < count:
        columns = [rng.choice(grid, size=batch) for grid in grids]
        legal = meets_constraints(columns)
        rows = np.column_stack([column[legal] for column in columns])
        for values in rows.tolist():
            config = Configuration(*values)
            if unique:
                if config in seen:
                    continue
                seen.add(config)
            chosen.append(config)
            if len(chosen) == count:
                break
    return chosen


def split_responses(
    configs: Sequence[Configuration],
    response_count: int,
    seed: Optional[int] | np.random.Generator = None,
) -> tuple[List[Configuration], List[Configuration]]:
    """Split sampled configurations into (responses, held-out rest).

    The paper characterises a new program by simulating ``R`` of the
    sampled configurations (the *responses*) and validates predictions on
    the remaining sampled points.

    Returns:
        ``(responses, held_out)`` — disjoint, covering ``configs``.
    """
    if response_count < 0 or response_count > len(configs):
        raise ValueError(
            f"response_count must be in [0, {len(configs)}], "
            f"got {response_count}"
        )
    rng = _rng(seed)
    order = rng.permutation(len(configs))
    response_indices = set(order[:response_count].tolist())
    responses = [c for i, c in enumerate(configs) if i in response_indices]
    held_out = [c for i, c in enumerate(configs) if i not in response_indices]
    return responses, held_out


def stratified_sample(
    space: DesignSpace,
    count: int,
    parameter_name: str,
    seed: Optional[int] | np.random.Generator = None,
) -> List[Configuration]:
    """Sample stratified on one parameter's grid.

    Each value of ``parameter_name`` receives an (almost) equal share of
    the draws.  Used by the response-selection ablation bench.
    """
    rng = _rng(seed)
    parameter = space.parameter(parameter_name)
    per_value = [count // parameter.cardinality] * parameter.cardinality
    for i in range(count % parameter.cardinality):
        per_value[i] += 1
    result: List[Configuration] = []
    for value, quota in zip(parameter.values, per_value):
        picked = 0
        while picked < quota:
            candidate = sample_configurations(space, 1, rng, unique=False)[0]
            pinned = candidate.replace(**{parameter_name: value})
            if space.satisfies_constraints(pinned):
                result.append(pinned)
                picked += 1
    return result


def corner_biased_sample(
    space: DesignSpace,
    count: int,
    seed: Optional[int] | np.random.Generator = None,
    corner_fraction: float = 0.5,
) -> List[Configuration]:
    """Sample biased towards the corners of each parameter's grid.

    With probability ``corner_fraction`` a parameter draws its extreme
    values, otherwise any grid value.  Used by the response-selection
    ablation to test whether extreme responses characterise a program
    better than uniform ones.
    """
    if not 0.0 <= corner_fraction <= 1.0:
        raise ValueError("corner_fraction must be in [0, 1]")
    rng = _rng(seed)
    result: List[Configuration] = []
    while len(result) < count:
        values = [
            int(rng.choice(
                (p.minimum, p.maximum) if rng.random() < corner_fraction
                else p.values
            ))
            for p in space.parameters
        ]
        if meets_constraints(values):
            result.append(Configuration(*values))
    return result

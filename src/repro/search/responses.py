"""Active-learning response selection for fitting new programs.

The paper fits the architecture-centric combiner on R = 32 responses
drawn *uniformly at random* (Section 5.3).  This module is the search
subsystem's front door to the smarter policy: choose the response
configurations where the offline per-program models *disagree* most
(greedy, with a diversity term so picks spread out), which is exactly
where simulating the new program buys the most information.  The
underlying greedy selector lives in :mod:`repro.core.active`; here it
gains the stacked-ensemble fast path (one batched forward pass instead
of N per-model loops, bit-identical per the ensemble's contract) and a
strategy switch so experiments can compare policies at equal budget.

``bench_ablation_response_selection`` and ``bench_search`` both lean on
this module to show the disagreement picker beating the paper's random
choice at R = 32.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.active import select_responses
from repro.designspace.configuration import Configuration

__all__ = [
    "RESPONSE_STRATEGIES",
    "pick_response_indices",
]

#: Strategies accepted by :func:`pick_response_indices`.
RESPONSE_STRATEGIES = ("disagreement", "random", "hybrid")


def pick_response_indices(
    models: Sequence,
    candidates: Sequence[Configuration],
    count: int,
    strategy: str = "disagreement",
    seed: Optional[int] = None,
    diversity_weight: float = 0.5,
) -> List[int]:
    """Pick ``count`` response configurations out of ``candidates``.

    Args:
        models: The offline-trained program models whose disagreement
            guides the informed strategies.
        candidates: Configurations to choose from (e.g. the sampled
            pool an experiment shares).
        count: Number of responses (the paper's R).
        strategy: One of :data:`RESPONSE_STRATEGIES` —
            ``"disagreement"`` is the greedy uncertainty+diversity
            picker, ``"random"`` reproduces the paper's uniform draw,
            and ``"hybrid"`` spends half the budget on each (random
            half first, disagreement filling the rest without
            duplicates).
        seed: Seed for the random draws and greedy tie-breaks; a fixed
            seed makes every strategy fully deterministic.
        diversity_weight: Spread/informativeness trade-off forwarded to
            the greedy picker.

    Returns:
        ``count`` distinct indices into ``candidates``.

    Raises:
        ValueError: on an unknown strategy or an out-of-range count.
    """
    if strategy not in RESPONSE_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; "
            f"known: {', '.join(RESPONSE_STRATEGIES)}"
        )
    if count < 1 or count > len(candidates):
        raise ValueError(f"count must be in [1, {len(candidates)}]")
    if strategy == "disagreement":
        return select_responses(
            models,
            candidates,
            count,
            diversity_weight=diversity_weight,
            seed=seed,
        )
    rng = np.random.default_rng(seed)
    if strategy == "random":
        picks = rng.choice(len(candidates), size=count, replace=False)
        return [int(i) for i in picks]
    # hybrid: random half first, then greedy disagreement over the rest.
    random_count = count // 2
    informed_count = count - random_count
    random_picks = set(
        int(i)
        for i in rng.choice(len(candidates), size=random_count, replace=False)
    ) if random_count else set()
    remaining = [
        i for i in range(len(candidates)) if i not in random_picks
    ]
    informed_local = select_responses(
        models,
        [candidates[i] for i in remaining],
        informed_count,
        diversity_weight=diversity_weight,
        seed=seed,
    )
    return sorted(random_picks) + [remaining[i] for i in informed_local]

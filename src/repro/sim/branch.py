"""Analytic branch prediction model.

Combines a workload's :class:`~repro.workloads.profile.BranchBehaviour`
with a machine's predictor sizing into the quantities the interval model
charges: the misprediction rate of the sized gshare, the BTB miss rate
for taken branches, and the front-end bubble each costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.profile import BranchBehaviour


@dataclass(frozen=True)
class BranchPenalties:
    """Per-instruction branch cost components (cycles and rates)."""

    mispredict_rate: np.ndarray
    btb_miss_rate: np.ndarray
    mispredicts_per_instruction: np.ndarray
    btb_bubbles_per_instruction: np.ndarray


def branch_penalties(
    behaviour: BranchBehaviour,
    branch_fraction: float,
    gshare_entries,
    btb_entries,
) -> BranchPenalties:
    """Evaluate the branch cost model for (batches of) predictor sizes.

    Args:
        behaviour: The program's branch-predictability model.
        branch_fraction: Fraction of instructions that are branches:
            a scalar, or with a stacked ``behaviour`` a (P, 1) column.
        gshare_entries: Scalar or array of gshare table sizes.
        btb_entries: Scalar or array of BTB sizes.
    """
    if not np.all((0.0 <= branch_fraction) & (branch_fraction < 1.0)):
        raise ValueError("branch_fraction must be a probability")
    mispredict = np.asarray(
        behaviour.mispredict_rate(gshare_entries), dtype=float
    )
    btb_miss = np.asarray(behaviour.btb_miss_rate(btb_entries), dtype=float)
    return BranchPenalties(
        mispredict_rate=mispredict,
        btb_miss_rate=btb_miss,
        mispredicts_per_instruction=branch_fraction * mispredict,
        btb_bubbles_per_instruction=(
            branch_fraction * behaviour.taken_fraction * btb_miss
        ),
    )

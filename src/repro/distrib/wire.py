"""JSON codecs for everything that crosses the coordinator/worker wire.

Campaign tasks and results must travel between hosts as plain JSON, and
the distributed guarantee — a distributed run is *bit-identical* to a
serial one — hinges on these codecs being exact round trips:

* **Configurations** travel as 13-integer lists in Table 1 order.
* **Workload profiles** travel as nested field dicts mirroring the
  frozen dataclasses in :mod:`repro.workloads.profile`; reconstruction
  re-runs every ``__post_init__`` validator, so a tampered profile is
  rejected at decode time.
* **Batch results** travel as float lists.  Python's ``json`` emits
  ``repr(float)`` — the shortest string that parses back to the exact
  same IEEE-754 double — so metric arrays survive the wire bit-for-bit
  (``allow_nan=False`` everywhere; non-finite metrics are a backend
  bug caught by ``validate_batch`` long before encoding).
* **Retry policies** travel field-by-field so every worker backs off
  exactly like the serial loop would.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Sequence

import numpy as np

from repro.designspace.configuration import Configuration
# A result's wire digest is the per-cell digest the campaign journals.
from repro.runtime.integrity import batch_checksum
from repro.runtime.retry import RetryPolicy
from repro.sim.interval import BatchResult
from repro.workloads.profile import (
    BranchBehaviour,
    Idiosyncrasy,
    InstructionMix,
    LocalityModel,
    WorkloadProfile,
)

__all__ = [
    "batch_checksum",
    "batch_from_wire",
    "batch_to_wire",
    "configs_from_wire",
    "configs_to_wire",
    "policy_from_wire",
    "policy_to_wire",
    "profile_from_wire",
    "profile_to_wire",
]

_BATCH_FIELDS = ("cycles", "energy", "ed", "edd")


# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------
def configs_to_wire(configs: Sequence[Configuration]) -> List[List[int]]:
    """Encode configurations as integer lists in Table 1 order."""
    return [[int(v) for v in config.values()] for config in configs]


def configs_from_wire(wire: Sequence[Sequence[int]]) -> List[Configuration]:
    """Decode :func:`configs_to_wire` output back to configurations."""
    return [
        Configuration.from_values(tuple(int(v) for v in values))
        for values in wire
    ]


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------
def profile_to_wire(profile: WorkloadProfile) -> Dict:
    """Encode a workload profile as a nested plain dict."""
    return asdict(profile)


def profile_from_wire(wire: Dict) -> WorkloadProfile:
    """Rebuild a :class:`WorkloadProfile` from :func:`profile_to_wire`.

    Every nested dataclass constructor re-runs its validators, so a
    malformed or tampered profile raises ``ValueError``/``TypeError``
    here instead of producing garbage simulations.
    """
    data = dict(wire)
    try:
        return WorkloadProfile(
            name=str(data["name"]),
            suite=str(data["suite"]),
            category=str(data["category"]),
            mix=InstructionMix(**data["mix"]),
            ilp_max=float(data["ilp_max"]),
            ilp_window_scale=float(data["ilp_window_scale"]),
            iq_pressure=float(data["iq_pressure"]),
            dest_fraction=float(data["dest_fraction"]),
            reads_per_instruction=float(data["reads_per_instruction"]),
            branches=BranchBehaviour(**data["branches"]),
            data_locality=_locality_from_wire(data["data_locality"]),
            instruction_locality=_locality_from_wire(
                data["instruction_locality"]
            ),
            mlp_max=float(data["mlp_max"]),
            latency_hiding_scale=float(data["latency_hiding_scale"]),
            idiosyncrasy_performance=Idiosyncrasy(
                **data["idiosyncrasy_performance"]
            ),
            idiosyncrasy_energy=Idiosyncrasy(**data["idiosyncrasy_energy"]),
            instructions=int(data["instructions"]),
        )
    except KeyError as error:
        raise ValueError(
            f"wire profile is missing field {error.args[0]!r}"
        ) from error


def _locality_from_wire(data: Dict) -> LocalityModel:
    return LocalityModel(
        working_sets=tuple(
            (float(size), float(weight))
            for size, weight in data["working_sets"]
        ),
        cold=float(data["cold"]),
        sharpness=float(data["sharpness"]),
    )


# ----------------------------------------------------------------------
# Batch results
# ----------------------------------------------------------------------
def batch_to_wire(batch: BatchResult) -> Dict[str, List[float]]:
    """Encode the four metric arrays as float lists."""
    return {
        field: [float(v) for v in getattr(batch, field)]
        for field in _BATCH_FIELDS
    }


def batch_from_wire(wire: Dict[str, Sequence[float]]) -> BatchResult:
    """Decode :func:`batch_to_wire` output back to a :class:`BatchResult`."""
    try:
        arrays = {
            field: np.asarray(wire[field], dtype=np.float64)
            for field in _BATCH_FIELDS
        }
    except KeyError as error:
        raise ValueError(
            f"wire batch is missing metric {error.args[0]!r}"
        ) from error
    lengths = {field: len(array) for field, array in arrays.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"wire batch arrays disagree on length: {lengths}")
    return BatchResult(**arrays)


# ----------------------------------------------------------------------
# Retry policies
# ----------------------------------------------------------------------
def policy_to_wire(policy: RetryPolicy) -> Dict:
    """Encode a retry policy field-by-field."""
    return {
        "max_attempts": policy.max_attempts,
        "base_delay": policy.base_delay,
        "multiplier": policy.multiplier,
        "jitter": policy.jitter,
        "timeout": policy.timeout,
        "jitter_mode": policy.jitter_mode,
    }


def policy_from_wire(wire: Dict) -> RetryPolicy:
    """Decode :func:`policy_to_wire` output (validators re-run)."""
    timeout = wire.get("timeout")
    return RetryPolicy(
        max_attempts=int(wire["max_attempts"]),
        base_delay=float(wire["base_delay"]),
        multiplier=float(wire["multiplier"]),
        jitter=float(wire["jitter"]),
        timeout=None if timeout is None else float(timeout),
        jitter_mode=str(wire.get("jitter_mode", "proportional")),
    )

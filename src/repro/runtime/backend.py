"""The simulation backend interface campaigns run against.

Campaigns never touch :class:`~repro.sim.interval.IntervalSimulator`
directly: they call a :class:`SimulationBackend`, an interface with a
single ``simulate_batch`` method.  That indirection is what lets the
fault-injecting wrapper, future sharded or asynchronous backends, and
remote simulator farms all slot under the same retry/checkpoint
machinery without the campaign layer changing.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.designspace.configuration import Configuration
from repro.sim.interval import BatchResult, IntervalSimulator
from repro.workloads.profile import WorkloadProfile


class SimulationError(RuntimeError):
    """Base class for failures raised by or around a backend call."""


class CorruptResultError(SimulationError):
    """A backend returned non-finite metric values."""


@runtime_checkable
class SimulationBackend(Protocol):
    """Anything that can simulate one program over a batch of configs.

    Backends may additionally offer the program-major 2-D fast path
    (:class:`SuiteBackend`); callers discover it with
    :func:`supports_suite` and fall back to per-profile
    ``simulate_batch`` calls when it is absent.
    """

    def simulate_batch(
        self, profile: WorkloadProfile, configs: Sequence[Configuration]
    ) -> BatchResult:
        """Return the four metric arrays for ``profile`` at ``configs``."""
        ...


@runtime_checkable
class SuiteBackend(Protocol):
    """A backend with the program-major ``simulate_suite`` fast path."""

    def simulate_suite(
        self,
        profiles: Sequence[WorkloadProfile],
        configs: Sequence[Configuration],
    ) -> List[BatchResult]:
        """One :class:`BatchResult` per profile, in order."""
        ...


def supports_suite(backend: object) -> bool:
    """True if ``backend`` offers the ``simulate_suite`` fast path.

    Capability discovery is duck-typed on purpose: wrappers that proxy
    an inner backend (fault injection, retry shims, remote stubs)
    advertise the fast path only when they actually implement it, and
    campaigns run every other backend one cell per call.
    """
    return isinstance(backend, SuiteBackend)


class IntervalBackend:
    """The interval simulator behind the backend interface.

    Args:
        simulator: The wrapped simulator (a default one over the full
            Table 1 space is built if absent).
    """

    def __init__(self, simulator: Optional[IntervalSimulator] = None) -> None:
        self.simulator = (
            simulator if simulator is not None else IntervalSimulator()
        )

    @property
    def space(self):
        """The design space the wrapped simulator operates over."""
        return self.simulator.space

    def simulate_batch(
        self, profile: WorkloadProfile, configs: Sequence[Configuration]
    ) -> BatchResult:
        """Delegate straight to :meth:`IntervalSimulator.simulate_batch`."""
        return self.simulator.simulate_batch(profile, configs)

    def simulate_suite(
        self,
        profiles: Sequence[WorkloadProfile],
        configs: Sequence[Configuration],
    ) -> List[BatchResult]:
        """Program-major fast path: one column build for all profiles.

        Bit-identical to per-profile :meth:`simulate_batch` calls (see
        :meth:`IntervalSimulator.simulate_suite`).
        """
        return self.simulator.simulate_suite(profiles, configs)


def validate_batch(result: BatchResult, context: str = "") -> BatchResult:
    """Reject batches containing NaN/Inf metric values.

    Backends are trusted to return *finite* positive metrics; anything
    else (a corrupted response, an overflowed model) must fail loudly
    here rather than poison a ridge fit three layers up.

    Raises:
        CorruptResultError: if any metric array contains a non-finite
            value.
    """
    for name, values in (
        ("cycles", result.cycles),
        ("energy", result.energy),
        ("ed", result.ed),
        ("edd", result.edd),
    ):
        bad = ~np.isfinite(values)
        if np.any(bad):
            where = " " + context if context else ""
            raise CorruptResultError(
                f"backend returned {int(bad.sum())} non-finite {name} "
                f"value(s){where}"
            )
    return result

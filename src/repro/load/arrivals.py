"""Seeded deterministic arrival processes for the open-loop load plane.

An open-loop load generator schedules request *arrival times* before
the run starts and never waits for completions — so when the server
slows down, requests queue up exactly as real independent users would
pile on, and the measured latency includes the queueing delay a
closed-loop generator hides (coordinated omission).

Every process here is a pure function of its parameters (plus, for
Poisson, a caller-supplied :class:`numpy.random.Generator`): the same
plan and seed always produce the same schedule, so a below-knee run
replays bit-identically.

Arrival kinds:

* ``constant`` — evenly spaced at ``1/rate``: the harshest steady
  load, no lucky gaps for the server to catch its breath in.
* ``poisson`` — exponential inter-arrival gaps: the classic model of
  many independent users, with natural bursts.
* ``burst`` — a square-wave intensity: each ``burst_period`` seconds
  spends ``burst_fraction`` of the cycle at ``burst_factor`` times the
  base intensity, with the off-phase rate chosen so the *mean* rate
  stays ``rate``.  Stresses queue absorption and admission control.
* ``ramp`` — intensity rises linearly from ``ramp_from`` to ``rate``
  over the stage: the canonical knee-finding sweep inside one stage.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

__all__ = ["ARRIVAL_KINDS", "arrival_offsets"]

#: The supported arrival process names, in documentation order.
ARRIVAL_KINDS = ("constant", "poisson", "burst", "ramp")


def arrival_offsets(
    kind: str,
    rate: float,
    duration: float,
    rng: Optional[np.random.Generator] = None,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.25,
    burst_period: float = 1.0,
    ramp_from: float = 0.0,
) -> np.ndarray:
    """Arrival offsets (seconds from stage start) for one stage.

    Args:
        kind: One of :data:`ARRIVAL_KINDS`.
        rate: Mean arrival rate in requests/second (the ramp's *end*
            rate).
        duration: Stage length in seconds; every offset lands in
            ``[0, duration)``.
        rng: Required for ``poisson`` (deterministic given the same
            generator state); the other kinds are draw-free.
        burst_factor / burst_fraction / burst_period: Square-wave shape
            for ``burst`` (see the module docstring).
        ramp_from: Starting rate for ``ramp``.

    Returns:
        A sorted float64 array of offsets.
    """
    if kind not in ARRIVAL_KINDS:
        raise ValueError(
            f"unknown arrival kind {kind!r}; expected one of "
            f"{', '.join(ARRIVAL_KINDS)}"
        )
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if kind == "constant":
        return _even(0.0, duration, rate)
    if kind == "poisson":
        if rng is None:
            raise ValueError("the poisson process needs an rng")
        return _poisson(rate, duration, rng)
    if kind == "burst":
        return _burst(
            rate, duration, burst_factor, burst_fraction, burst_period
        )
    return _ramp(rate, duration, ramp_from)


def _even(start: float, end: float, rate: float) -> np.ndarray:
    """Evenly spaced arrivals at ``rate`` over ``[start, end)``."""
    count = int(math.floor((end - start) * rate + 1e-9))
    if count <= 0:
        return np.empty(0, dtype=float)
    return start + np.arange(count, dtype=float) / rate


def _poisson(
    rate: float, duration: float, rng: np.random.Generator
) -> np.ndarray:
    chunks = []
    clock = 0.0
    # Draw gaps in bulk and keep going until the process crosses the
    # stage end; the expected draw count is rate*duration, so one or
    # two chunks almost always suffice.
    chunk = max(16, int(rate * duration * 1.25) + 16)
    while True:
        times = clock + np.cumsum(rng.exponential(1.0 / rate, size=chunk))
        chunks.append(times[times < duration])
        if times[-1] >= duration:
            break
        clock = float(times[-1])
    return np.concatenate(chunks)


def _burst(
    rate: float,
    duration: float,
    factor: float,
    fraction: float,
    period: float,
) -> np.ndarray:
    if factor < 1.0:
        raise ValueError("burst_factor must be at least 1")
    if not 0.0 < fraction < 1.0:
        raise ValueError("burst_fraction must be within (0, 1)")
    if period <= 0:
        raise ValueError("burst_period must be positive")
    if factor * fraction > 1.0 + 1e-12:
        raise ValueError(
            "burst_factor * burst_fraction must be <= 1 so the "
            "off-phase rate stays non-negative"
        )
    # Off-phase rate that keeps the cycle mean at `rate`.
    base = rate * (1.0 - fraction * factor) / (1.0 - fraction)
    pieces = []
    start = 0.0
    while start < duration - 1e-12:
        on_end = min(start + fraction * period, duration)
        pieces.append(_even(start, on_end, rate * factor))
        off_end = min(start + period, duration)
        if base > 0 and off_end > on_end:
            pieces.append(_even(on_end, off_end, base))
        start += period
    if not pieces:
        return np.empty(0, dtype=float)
    return np.concatenate(pieces)


def _ramp(rate: float, duration: float, ramp_from: float) -> np.ndarray:
    if ramp_from < 0:
        raise ValueError("ramp_from must be non-negative")
    r0, r1 = float(ramp_from), float(rate)
    if abs(r1 - r0) < 1e-12:
        return _even(0.0, duration, r1)
    # Inversion of the cumulative intensity
    # lambda(t) = r0*t + (r1-r0)*t^2/(2T): arrival k happens when the
    # expected count first reaches k.
    slope = (r1 - r0) / duration
    total = (r0 + r1) * duration / 2.0
    count = int(math.floor(total + 1e-9))
    if count <= 0:
        return np.empty(0, dtype=float)
    targets = np.arange(count, dtype=float)
    offsets = (np.sqrt(r0 * r0 + 2.0 * slope * targets) - r0) / slope
    return np.clip(offsets, 0.0, np.nextafter(duration, 0.0))

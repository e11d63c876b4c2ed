"""The immutable configuration value object.

A :class:`Configuration` is one point of the microarchitectural design
space: a concrete assignment of the 13 varied parameters of Table 1.
It is a named tuple of those 13 values in canonical order, so it is its
own value row: it hashes, compares, iterates and converts to numpy as
that tuple, and keys caches of simulation results and predictions.
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Tuple

#: Canonical ordering of the 13 varied parameters.  This is the order of
#: Table 1 and of the paper's feature-vector encoding.
PARAMETER_ORDER: Tuple[str, ...] = (
    "width",
    "rob_size",
    "iq_size",
    "lsq_size",
    "rf_size",
    "rf_read_ports",
    "rf_write_ports",
    "gshare_size",
    "btb_size",
    "max_branches",
    "icache_kb",
    "dcache_kb",
    "l2cache_kb",
)


class Configuration(NamedTuple):
    """One point in the 13-parameter design space.

    Attributes:
        width: Pipeline width (instructions fetched/issued/committed per
            cycle).
        rob_size: Reorder buffer entries.
        iq_size: Issue queue entries.
        lsq_size: Load/store queue entries.
        rf_size: Physical integer/FP register file size (registers per
            file; the paper varies both files together).
        rf_read_ports: Register file read ports.
        rf_write_ports: Register file write ports.
        gshare_size: Gshare branch predictor table entries.
        btb_size: Branch target buffer entries.
        max_branches: Maximum in-flight (speculated) branches.
        icache_kb: Level-1 instruction cache capacity in KB.
        dcache_kb: Level-1 data cache capacity in KB.
        l2cache_kb: Unified level-2 cache capacity in KB.
    """

    width: int
    rob_size: int
    iq_size: int
    lsq_size: int
    rf_size: int
    rf_read_ports: int
    rf_write_ports: int
    gshare_size: int
    btb_size: int
    max_branches: int
    icache_kb: int
    dcache_kb: int
    l2cache_kb: int

    def as_dict(self) -> Dict[str, int]:
        """Return the configuration as an ordered parameter->value dict."""
        return dict(zip(PARAMETER_ORDER, self))

    def values(self) -> Tuple[int, ...]:
        """Return the raw parameter values in canonical order, as a
        plain tuple."""
        return tuple(self)

    def replace(self, **overrides: int) -> "Configuration":
        """Return a copy with some parameters replaced."""
        merged = self.as_dict()
        unknown = set(overrides) - set(merged)
        if unknown:
            raise ValueError(f"unknown parameters: {sorted(unknown)}")
        merged.update(overrides)
        return Configuration(**merged)

    @classmethod
    def from_values(cls, values: Mapping[str, int] | Tuple[int, ...]) -> "Configuration":
        """Build a configuration from a mapping or a canonical tuple."""
        if isinstance(values, Mapping):
            return cls(*(values[name] for name in PARAMETER_ORDER))
        if len(values) != len(PARAMETER_ORDER):
            raise ValueError(
                f"expected {len(PARAMETER_ORDER)} values, got {len(values)}"
            )
        return cls(*values)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"Configuration({inner})"

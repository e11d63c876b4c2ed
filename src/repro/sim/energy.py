"""Cacti-style array energy/area model and Wattch-style accounting.

The paper derives per-structure energies from Cacti 4.0 and integrates
them with Wattch-style activity counting.  This module reimplements that
pipeline analytically:

* :func:`array_read_energy` / :func:`array_area` — a simplified Cacti:
  an SRAM array's access energy decomposes into decoder, wordline,
  bitline and sense-amp terms driven by the array geometry, and port
  replication lengthens wires (energy grows with port count) and blows
  up area quadratically.
* :func:`cam_search_energy` — fully associative tag match (issue-queue
  wakeup, LSQ disambiguation) charges every entry's comparator.
* :func:`cache_access_energy` — a set-associative cache probes ``assoc``
  tag + data ways per access.
* :func:`structure_energies` / :func:`core_area` — every structure's
  access energy and the core's area, for one machine or a whole batch of
  configurations at once (the interval model builds them once per batch).
* :class:`EnergyModel` — per-machine table of access energies plus total
  leakage power (leakage is proportional to area, so big idle structures
  hurt exactly the way Section 3.4 describes).

Units are nanojoules and nanojoules/cycle (leakage).  Absolute values are
calibrated only loosely to published Wattch breakdowns; the experiments
rely on relative behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from .machine import FixedParameters, MachineSpec, functional_units

# Technology calibration constants (loosely 70 nm-class, arbitrary units
# scaled so a baseline core spends a few nJ per instruction).
_E_BITLINE = 0.00009  # nJ per (column x sqrt(row)) unit swung
_E_WORDLINE = 0.00006
_E_DECODER = 0.0006  # nJ per address bit decoded
_E_SENSE = 0.00035  # nJ per column sensed
_E_CAM_BIT = 0.00025  # nJ per tag bit compared across one entry
_PORT_WIRE_FACTOR = 0.18  # wire-length energy growth per extra port
_AREA_CELL = 1.0  # relative area of a 1-bit 1-port cell
_PORT_AREA_FACTOR = 0.35  # cell pitch growth per extra port (squared)
LEAKAGE_PER_AREA = 4.0e-8  # nJ/cycle per unit area

#: Dynamic energy of one ALU operation, by class (nJ).
ALU_ENERGY = {
    "int_alu": 0.008,
    "int_mul": 0.030,
    "fp_alu": 0.025,
    "fp_mul": 0.060,
}

#: Per-cycle clock-tree energy coefficient (scaled by sqrt of core area).
CLOCK_ENERGY_COEFF = 2.0e-5


def _port_energy_factor(ports):
    """Wire-length energy growth from replicating ports."""
    if np.any(np.asarray(ports) < 1):
        raise ValueError("a structure needs at least one port")
    return 1.0 + _PORT_WIRE_FACTOR * (np.asarray(ports, dtype=float) - 1)


def _port_area_factor(ports):
    """Cell area growth from port replication (pitch grows per port,
    area with its square)."""
    if np.any(np.asarray(ports) < 1):
        raise ValueError("a structure needs at least one port")
    return (1.0 + _PORT_AREA_FACTOR * (np.asarray(ports, dtype=float) - 1)) ** 2


def array_read_energy(entries, bits, ports=1):
    """Energy (nJ) of one read access to an SRAM array.

    The array is organised as close to square as the word width allows;
    bitline energy scales with the column count times the wordline/
    bitline length (~ sqrt of entries), the decoder with the address
    width, and everything with the port-replication wire factor.
    All arguments are numpy-polymorphic (scalars or arrays).
    """
    entries = np.asarray(entries, dtype=float)
    if np.any(entries < 1) or np.any(np.asarray(bits) < 1):
        raise ValueError("entries and bits must be positive")
    rows = np.maximum(1.0, np.sqrt(entries))
    decoder = _E_DECODER * np.maximum(1.0, np.log2(entries))
    wordline = _E_WORDLINE * bits
    bitline = _E_BITLINE * bits * rows
    sense = _E_SENSE * bits
    return (decoder + wordline + bitline + sense) * _port_energy_factor(ports)


def array_write_energy(entries, bits, ports=1):
    """Energy (nJ) of one write access (full bitline swing, no sense)."""
    entries = np.asarray(entries, dtype=float)
    if np.any(entries < 1) or np.any(np.asarray(bits) < 1):
        raise ValueError("entries and bits must be positive")
    rows = np.maximum(1.0, np.sqrt(entries))
    decoder = _E_DECODER * np.maximum(1.0, np.log2(entries))
    wordline = _E_WORDLINE * bits
    bitline = 1.4 * _E_BITLINE * bits * rows
    return (decoder + wordline + bitline) * _port_energy_factor(ports)


def cam_search_energy(entries, tag_bits):
    """Energy (nJ) of one fully associative search (every entry compares)."""
    if np.any(np.asarray(entries) < 1) or np.any(np.asarray(tag_bits) < 1):
        raise ValueError("entries and tag_bits must be positive")
    return _E_CAM_BIT * np.asarray(entries, dtype=float) * tag_bits


def array_area(entries, bits, ports=1):
    """Relative area of an SRAM array (drives leakage)."""
    if np.any(np.asarray(entries) < 1) or np.any(np.asarray(bits) < 1):
        raise ValueError("entries and bits must be positive")
    return _AREA_CELL * np.asarray(entries, dtype=float) * bits * _port_area_factor(ports)


def cache_access_energy(capacity_bytes, line_bytes, associativity):
    """Energy (nJ) of one cache access.

    All ``associativity`` ways probe their tag arrays and read a line
    from the data array; bigger caches pay longer bitlines.
    """
    capacity = np.asarray(capacity_bytes, dtype=float)
    if np.any(capacity < line_bytes):
        raise ValueError("cache smaller than one line")
    lines = capacity // line_bytes
    sets = np.maximum(1, lines // associativity)
    tag_bits = 28
    tag = associativity * array_read_energy(sets, tag_bits)
    data = array_read_energy(sets, line_bytes * 8) * math.sqrt(associativity)
    return tag + data


def cache_area(capacity_bytes):
    """Relative area of a cache (tag overhead folded into the constant)."""
    return _AREA_CELL * np.asarray(capacity_bytes, dtype=float) * 8 * 1.08


@dataclass(frozen=True)
class StructureEnergies:
    """Per-access energies (nJ) of every major structure of a machine.

    :func:`structure_energies` fills the fields with scalars for one
    machine or with arrays for a batch of configurations.
    """

    rob_read: float
    rob_write: float
    iq_write: float
    iq_wakeup: float
    lsq_search: float
    lsq_write: float
    rf_read: float
    rf_write: float
    gshare_access: float
    btb_access: float
    icache_access: float
    dcache_access: float
    l2_access: float
    rename_access: float


def structure_energies(
    columns: Mapping, fixed: FixedParameters
) -> StructureEnergies:
    """Per-access energies of every structure of one or many machines.

    Args:
        columns: Each Table 1 parameter name mapped to its value, or to
            an array of values (one per configuration); the energies
            come back with the same shape.
        fixed: The fixed line sizes and associativities of the caches.
    """
    width = columns["width"]
    rf_ports = columns["rf_read_ports"] + columns["rf_write_ports"]
    return StructureEnergies(
        rob_read=array_read_energy(columns["rob_size"], 76, 2 * width),
        rob_write=array_write_energy(columns["rob_size"], 76, 2 * width),
        iq_write=array_write_energy(columns["iq_size"], 48, width),
        iq_wakeup=cam_search_energy(columns["iq_size"], 10),
        lsq_search=cam_search_energy(columns["lsq_size"], 40),
        lsq_write=array_write_energy(columns["lsq_size"], 72, width),
        rf_read=array_read_energy(columns["rf_size"], 64, rf_ports),
        rf_write=array_write_energy(columns["rf_size"], 64, rf_ports),
        gshare_access=array_read_energy(columns["gshare_size"], 2),
        btb_access=array_read_energy(columns["btb_size"], 60),
        icache_access=cache_access_energy(
            columns["icache_kb"] * 1024.0,
            fixed.l1_line_bytes,
            fixed.l1_associativity,
        ),
        dcache_access=cache_access_energy(
            columns["dcache_kb"] * 1024.0,
            fixed.l1_line_bytes,
            fixed.l1_associativity,
        ),
        l2_access=cache_access_energy(
            columns["l2cache_kb"] * 1024.0,
            fixed.l2_line_bytes,
            fixed.l2_associativity,
        ),
        rename_access=array_read_energy(64, 8, 2 * width),
    )


def core_area(columns: Mapping, units: Mapping):
    """Relative core area (drives leakage and the clock tree).

    The arrays, both register files, the caches and the ALUs; ``units``
    holds the width-scaled functional-unit counts of Table 2(b).
    Shape-polymorphic like :func:`structure_energies`.
    """
    width = columns["width"]
    rf_ports = columns["rf_read_ports"] + columns["rf_write_ports"]
    alu_area = 1.6e5 * (
        units["int_alu"]
        + 2.0 * units["int_mul"]
        + 2.5 * units["fp_alu"]
        + 4.0 * units["fp_mul"]
    )
    return (
        array_area(columns["rob_size"], 76, 2 * width)
        + array_area(columns["iq_size"], 48, width)
        + array_area(columns["lsq_size"], 72, width)
        + 2.0 * array_area(columns["rf_size"], 64, rf_ports)  # int + fp
        + array_area(columns["gshare_size"], 2)
        + array_area(columns["btb_size"], 60)
        + cache_area(columns["icache_kb"] * 1024.0)
        + cache_area(columns["dcache_kb"] * 1024.0)
        + cache_area(columns["l2cache_kb"] * 1024.0)
        + alu_area
    )


class EnergyModel:
    """Energy model of one machine configuration.

    Exposes the per-access energy table, total leakage power, and the
    Wattch-style aggregation from an activity-count dictionary.
    """

    def __init__(self, spec: MachineSpec) -> None:
        self.spec = spec
        columns = spec.configuration.as_dict()
        width = columns["width"]
        self.energies = structure_energies(columns, spec.fixed)
        self.area = core_area(columns, functional_units(width))
        #: Leakage power in nJ per cycle.
        self.leakage_power = self.area * LEAKAGE_PER_AREA
        #: Clock-tree energy in nJ per cycle.
        self.clock_energy_per_cycle = CLOCK_ENERGY_COEFF * math.sqrt(self.area) * width

    def alu_energy(self, op_class: str) -> float:
        """Dynamic energy of one ALU operation of the given class."""
        try:
            return ALU_ENERGY[op_class]
        except KeyError:
            raise KeyError(
                f"unknown ALU class {op_class!r}; known: {sorted(ALU_ENERGY)}"
            ) from None

    def total_energy(self, activity: Dict[str, float], cycles: float) -> float:
        """Total energy (nJ) from activity counts and elapsed cycles.

        Args:
            activity: Counts per activity name.  Structure activities use
                the :class:`StructureEnergies` field names; ALU activities
                use the :data:`ALU_ENERGY` class names.
            cycles: Total cycles, charged leakage + clock every cycle.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        dynamic = 0.0
        for name, count in activity.items():
            if count < 0:
                raise ValueError(f"negative activity count for {name!r}")
            if name in ALU_ENERGY:
                dynamic += count * ALU_ENERGY[name]
            else:
                dynamic += count * getattr(self.energies, name)
        overhead = cycles * (self.leakage_power + self.clock_energy_per_cycle)
        return dynamic + overhead

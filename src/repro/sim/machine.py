"""The full machine specification: varied + fixed parameters (Table 2).

A :class:`~repro.designspace.configuration.Configuration` covers the 13
varied parameters of Table 1.  Everything else about the simulated core —
latencies, associativities, line sizes, and the functional-unit counts
that Table 2(b) derives from the pipeline width — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.designspace.configuration import Configuration


@dataclass(frozen=True)
class FixedParameters:
    """Table 2(a): core parameters held constant across the space.

    Latencies are in cycles; line sizes in bytes.
    """

    frontend_depth: int = 10
    int_alu_latency: int = 1
    int_mul_latency: int = 3
    fp_alu_latency: int = 2
    fp_mul_latency: int = 4
    l1_latency: int = 2
    l2_latency: int = 12
    memory_latency: int = 200
    l1_line_bytes: int = 32
    l2_line_bytes: int = 64
    l1_associativity: int = 2
    l2_associativity: int = 8
    mshr_entries: int = 8
    fetch_buffer_entries: int = 8
    architected_registers: int = 32
    branch_redirect_penalty: int = 2

    def as_rows(self) -> List[Tuple[str, str]]:
        """(name, value) rows for Table 2(a) rendering."""
        return [
            ("Front-end pipeline depth", f"{self.frontend_depth} stages"),
            ("Int ALU / Int multiply latency",
             f"{self.int_alu_latency} / {self.int_mul_latency} cycles"),
            ("FP ALU / FP multiply latency",
             f"{self.fp_alu_latency} / {self.fp_mul_latency} cycles"),
            ("L1 hit / L2 hit / memory latency",
             f"{self.l1_latency} / {self.l2_latency} / "
             f"{self.memory_latency} cycles"),
            ("L1 / L2 line size",
             f"{self.l1_line_bytes} / {self.l2_line_bytes} bytes"),
            ("L1 / L2 associativity",
             f"{self.l1_associativity} / {self.l2_associativity} way"),
            ("MSHR entries", str(self.mshr_entries)),
            ("Fetch buffer", f"{self.fetch_buffer_entries} entries"),
            ("Architected registers per file",
             str(self.architected_registers)),
        ]


def functional_units(
    width: Union[int, np.ndarray],
) -> Dict[str, Union[int, np.ndarray]]:
    """Table 2(b): functional-unit counts scaled from the width.

    The paper's example: a four-way machine has four integer ALUs, two
    integer multipliers, two FP ALUs and one FP multiplier/divider.
    Data-cache ports scale as width/2.  Ceiling division keeps an int
    width's counts ints and applies elementwise to an array of widths.
    """
    if np.any(width < 1):
        raise ValueError("width must be at least 1")
    half = -(-width // 2)
    return {
        "int_alu": width,
        "int_mul": half,
        "fp_alu": half,
        "fp_mul": -(-width // 4),
        "dcache_ports": half,
    }


def width_scaling_rows() -> List[Tuple[str, str]]:
    """(unit, rule) rows for Table 2(b) rendering."""
    return [
        ("Integer ALUs", "width"),
        ("Integer multipliers", "ceil(width / 2)"),
        ("FP ALUs", "ceil(width / 2)"),
        ("FP multiplier/dividers", "ceil(width / 4)"),
        ("D-cache ports", "ceil(width / 2)"),
    ]


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine: one configuration plus the fixed parameters."""

    configuration: Configuration
    fixed: FixedParameters = field(default_factory=FixedParameters)

    @property
    def units(self) -> Dict[str, int]:
        """Functional-unit counts for this machine's width."""
        return functional_units(self.configuration.width)

    @property
    def rename_registers(self) -> int:
        """Physical registers available for renaming (per file)."""
        return max(
            0, self.configuration.rf_size - self.fixed.architected_registers
        )

    def mispredict_penalty(self, resolve_cycles: float) -> float:
        """Cycles lost to one mispredicted branch.

        Front-end refill plus the time the wrong-path speculation lived
        (``resolve_cycles``) and the redirect bubble.
        """
        return (
            self.fixed.frontend_depth
            + self.fixed.branch_redirect_penalty
            + resolve_cycles
        )

"""Tests for the machine specification (Table 2)."""

import numpy as np
import pytest

from repro.sim import FixedParameters, MachineSpec, functional_units
from repro.sim.machine import width_scaling_rows


class TestFunctionalUnits:
    def test_papers_four_way_example(self):
        """Table 2(b): 4-way = 4 int ALUs, 2 int mul, 2 FP ALUs, 1 FP mul."""
        units = functional_units(4)
        assert units["int_alu"] == 4
        assert units["int_mul"] == 2
        assert units["fp_alu"] == 2
        assert units["fp_mul"] == 1

    def test_two_way(self):
        units = functional_units(2)
        assert units["int_alu"] == 2
        assert units["fp_mul"] == 1

    def test_eight_way(self):
        units = functional_units(8)
        assert units["int_alu"] == 8
        assert units["int_mul"] == 4
        assert units["fp_mul"] == 2

    def test_monotone_in_width(self):
        for unit in ("int_alu", "int_mul", "fp_alu", "fp_mul", "dcache_ports"):
            counts = [functional_units(w)[unit] for w in (2, 4, 6, 8)]
            assert counts == sorted(counts)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            functional_units(0)
        with pytest.raises(ValueError):
            functional_units(np.array([4.0, 0.0]))

    def test_width_column_matches_each_width(self):
        widths = list(range(1, 17))
        column = functional_units(np.array(widths, dtype=float))
        for i, width in enumerate(widths):
            units = functional_units(width)
            for unit, count in units.items():
                assert type(count) is int
                assert column[unit].dtype == float
                assert column[unit][i] == count, (width, unit)


class TestMachineSpec:
    def test_rename_registers(self, space):
        spec = MachineSpec(space.baseline)
        assert spec.rename_registers == 96 - 32

    def test_rename_registers_never_negative(self, space):
        config = space.baseline.replace(rf_size=40)
        assert MachineSpec(config).rename_registers == 8

    def test_units_follow_width(self, space):
        spec = MachineSpec(space.baseline.replace(width=8, rf_read_ports=16,
                                                  rf_write_ports=8))
        assert spec.units["int_alu"] == 8

    def test_mispredict_penalty(self, space):
        spec = MachineSpec(space.baseline)
        penalty = spec.mispredict_penalty(resolve_cycles=10.0)
        assert penalty == (
            spec.fixed.frontend_depth
            + spec.fixed.branch_redirect_penalty
            + 10.0
        )


class TestFixedParameters:
    def test_table2a_rows_cover_the_core(self):
        rows = dict(FixedParameters().as_rows())
        assert "MSHR entries" in rows
        assert "Front-end pipeline depth" in rows

    def test_table2b_rows(self):
        rows = dict(width_scaling_rows())
        assert rows["Integer ALUs"] == "width"

    def test_defaults_are_sane(self):
        fixed = FixedParameters()
        assert fixed.l1_latency < fixed.l2_latency < fixed.memory_latency
        assert fixed.l1_line_bytes <= fixed.l2_line_bytes

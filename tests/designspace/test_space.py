"""Tests for the 13-parameter design space (Table 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designspace import Configuration, DesignSpace, restrict
from repro.designspace.configuration import PARAMETER_ORDER
from repro.designspace.space import meets_constraints

TABLE1 = DesignSpace()


@st.composite
def raw_configurations(draw):
    """A configuration of grid values with up to three replaced by
    anything a caller might pass: an off-grid int, an integral,
    fractional or non-finite float, an ``np.int64``, a numeric string,
    a boolean or ``None``."""
    values = [draw(st.sampled_from(p.values)) for p in TABLE1.parameters]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(values) - 1))
        grid = TABLE1.parameters[j].values
        values[j] = draw(st.one_of(
            st.integers(-10, 5000),
            st.integers(-(10**20), 10**20),
            st.sampled_from(grid).map(float),
            st.sampled_from(grid).map(lambda v: v + 0.5),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(grid).map(np.int64),
            st.sampled_from(grid).map(str),
            st.booleans(),
            st.none(),
        ))
    return Configuration(*values)


class TestSize:
    def test_thirteen_parameters(self, space):
        assert space.dimensions == 13
        assert tuple(p.name for p in space.parameters) == PARAMETER_ORDER

    def test_raw_size_is_the_papers_63_billion(self, space):
        assert space.raw_size == 62_668_800_000

    def test_legal_size_is_the_papers_18_billion(self, space):
        # The paper reports "18 billion" after filtering.
        assert space.legal_size == 18_952_704_000

    def test_legal_smaller_than_raw(self, space):
        assert space.legal_size < space.raw_size

    def test_legal_count_matches_sampling_rate(self, space):
        """The factored count must agree with rejection sampling."""
        rng = np.random.default_rng(0)
        grids = [p.values for p in space.parameters]
        names = [p.name for p in space.parameters]
        trials = 6000
        legal = 0
        for _ in range(trials):
            config = Configuration(
                **{
                    name: int(rng.choice(grid))
                    for name, grid in zip(names, grids)
                }
            )
            if space.satisfies_constraints(config):
                legal += 1
        expected = space.legal_size / space.raw_size
        observed = legal / trials
        assert abs(observed - expected) < 0.03


class TestBaseline:
    def test_baseline_is_legal(self, space):
        assert space.is_legal(space.baseline)

    def test_baseline_encodes_to_the_papers_vector(self, space):
        encoded = space.encode(space.baseline)
        expected = [4, 96, 32, 48, 96, 8, 4, 16, 4, 16, 32, 32, 2]
        assert np.allclose(encoded, expected)


class TestConstraints:
    def test_rob_smaller_than_iq_is_illegal(self, space):
        config = space.baseline.replace(rob_size=32, iq_size=64)
        assert not space.satisfies_constraints(config)

    def test_rob_smaller_than_lsq_is_illegal(self, space):
        config = space.baseline.replace(rob_size=32, lsq_size=64)
        assert not space.satisfies_constraints(config)

    def test_excess_read_ports_are_illegal(self, space):
        config = space.baseline.replace(width=2, rf_read_ports=8)
        assert not space.satisfies_constraints(config)

    def test_excess_write_ports_are_illegal(self, space):
        config = space.baseline.replace(width=2, rf_write_ports=4)
        assert not space.satisfies_constraints(config)

    def test_undersized_l2_is_illegal(self, space):
        config = space.baseline.replace(dcache_kb=128, l2cache_kb=256)
        assert not space.satisfies_constraints(config)

    def test_off_grid_value_is_not_legal(self, space):
        config = space.baseline.replace(rob_size=100)
        assert not space.is_legal(config)

    def test_validate_names_the_offending_parameter(self, space):
        config = space.baseline.replace(rob_size=100)
        with pytest.raises(ValueError, match="rob_size"):
            space.validate(config)

    def test_validate_shows_a_string_value_as_a_string(self, space):
        with pytest.raises(ValueError) as refused:
            space.validate(space.baseline.replace(width="4"))
        assert str(refused.value) == "width='4' is off the grid (2, 4, 6, 8)"
        with pytest.raises(ValueError) as refused:
            space.validate(space.baseline.replace(width=5))
        assert str(refused.value) == "width=5 is off the grid (2, 4, 6, 8)"

    def test_validate_accepts_baseline(self, space):
        space.validate(space.baseline)  # must not raise


class TestEncoding:
    def test_encode_decode_roundtrip(self, space, configs):
        for config in configs[:50]:
            assert space.decode(space.encode(config)) == config

    def test_encode_many_shape(self, space, configs):
        matrix = space.encode_many(list(configs[:10]))
        assert matrix.shape == (10, 13)

    def test_encode_many_empty(self, space):
        assert space.encode_many([]).shape == (0, 13)

    def test_encode_many_equals_row_by_row_encode(self, space, configs):
        rows = list(configs)
        expected = np.stack([space.encode(c) for c in rows])
        assert np.array_equal(space.encode_many(rows), expected)
        assert np.array_equal(space.encode_many(iter(rows)), expected)
        # Values of another integer type hash and compare like ints.
        numpy_ints = [
            Configuration.from_values(tuple(np.int64(v) for v in c.values()))
            for c in rows[:20]
        ]
        assert np.array_equal(space.encode_many(numpy_ints), expected[:20])

    def test_encode_many_off_grid_mid_batch_raises_encodes_error(
        self, space, configs
    ):
        rows = list(configs[:10])
        rows[4] = rows[4].replace(rob_size=33)
        rows[7] = rows[7].replace(width=5)
        with pytest.raises(ValueError) as expected:
            space.encode(rows[4])
        with pytest.raises(ValueError) as produced:
            space.encode_many(rows)
        assert str(produced.value) == str(expected.value)
        assert "rob_size" in str(produced.value)

    def test_encode_many_uses_its_own_grids(self, space):
        from repro.designspace import sample_configurations
        from repro.designspace.restrict import embedded_space

        embedded = embedded_space(space)
        rows = sample_configurations(embedded, 50, seed=5)
        assert np.array_equal(
            embedded.encode_many(rows),
            np.stack([embedded.encode(c) for c in rows]),
        )
        wide = space.baseline.replace(width=8)
        with pytest.raises(ValueError, match="width"):
            embedded.encode_many([rows[0], wide])

    def test_value_tuples_encode_like_their_configurations(
        self, space, configs
    ):
        rows = list(configs[:50])
        tuples = [c.values() for c in rows]
        assert np.array_equal(
            space.encode_many(tuples), space.encode_many(rows)
        )
        assert np.array_equal(space.encode(tuples[3]), space.encode(rows[3]))
        off_grid = rows[4].replace(rob_size=33)
        with pytest.raises(ValueError) as expected:
            space.encode_many([rows[0], off_grid])
        with pytest.raises(ValueError) as produced:
            space.encode_many([tuples[0], off_grid.values()])
        assert str(produced.value) == str(expected.value)

    @pytest.mark.parametrize("length", [0, 12, 14])
    def test_a_row_of_the_wrong_length_is_refused(self, space, length):
        row = (list(space.baseline.values()) + [4])[:length]
        expected = f"expected 13 values, got {length}"
        with pytest.raises(ValueError, match=expected):
            space.encode_many([space.baseline.values(), tuple(row)])

    def test_decode_wrong_length_rejected(self, space):
        with pytest.raises(ValueError, match="13"):
            space.decode([1.0, 2.0])

    def test_feature_bounds_cover_encodings(self, space, configs):
        lo, hi = space.feature_bounds()
        matrix = space.encode_many(list(configs[:100]))
        assert np.all(matrix >= lo - 1e-9)
        assert np.all(matrix <= hi + 1e-9)


class TestNeighbours:
    def test_neighbours_are_legal(self, space):
        for neighbour in space.neighbours(space.baseline):
            assert space.is_legal(neighbour)

    def test_neighbours_differ_in_one_parameter(self, space):
        base = space.baseline.values()
        for neighbour in space.neighbours(space.baseline):
            differences = sum(
                1 for a, b in zip(base, neighbour.values()) if a != b
            )
            assert differences == 1

    def test_parameter_lookup_unknown_name(self, space):
        with pytest.raises(KeyError, match="unknown parameter"):
            space.parameter("nonsense")


class TestEnumeration:
    def test_full_space_refused(self, space):
        with pytest.raises(ValueError, match="restrict"):
            next(space.enumerate())

    def test_restricted_space_enumerates_exactly(self, space):
        from repro.designspace import restrict
        tiny = restrict(
            space,
            width=(2, 2), rob_size=(32, 48), iq_size=(8, 32),
            lsq_size=(8, 32), rf_size=(40, 48), rf_read_ports=(2, 4),
            rf_write_ports=(1, 2), gshare_size=(1024, 2048),
            btb_size=(1024, 1024), max_branches=(8, 8),
            icache_kb=(8, 8), dcache_kb=(8, 8), l2cache_kb=(256, 256),
        )
        configs = list(tiny.enumerate())
        assert len(configs) == tiny.legal_size
        assert len(set(configs)) == len(configs)
        assert all(tiny.is_legal(c) for c in configs)


class TestIsLegal:
    """``is_legal`` reads the encode tables; it must answer exactly
    what the grid test and the constraints answer together."""

    @given(config=raw_configurations(), narrow=st.booleans())
    @settings(max_examples=600, deadline=None)
    def test_equals_on_grid_and_constraints(self, config, narrow):
        space = NARROW if narrow else TABLE1
        for row in (config, config.values(), list(config)):
            expected = space.is_on_grid(row) and space.satisfies_constraints(row)
            assert space.is_legal(row) == expected

    def test_reads_a_plain_row(self, space):
        assert space.is_legal(list(space.baseline))
        assert not space.is_legal(space.baseline.replace(width=5).values())
        deep = space.baseline.replace(rob_size=160).values()
        assert space.is_legal(deep) and not NARROW.is_legal(deep)

    def test_unhashable_value_is_off_the_grid(self, space):
        row = space.baseline.replace(width=[4])
        assert not space.is_on_grid(row)
        assert space.is_legal(row) is False


class TestBatchValidation:
    """``validate_many`` applies ``validate``'s rules to a batch."""

    @given(config=raw_configurations())
    @settings(max_examples=400, deadline=None)
    def test_raises_exactly_when_validate_raises(self, config):
        try:
            TABLE1.validate(config)
        except ValueError as refused:
            expected = str(refused)
        else:
            values = TABLE1.validate_many([config])
            assert values.dtype == float and values.shape == (1, 13)
            assert values[0].tolist() == [float(v) for v in config]
            return
        if expected.startswith("configuration violates"):
            expected = f"config[0] violates legality constraints: {config}"
        else:
            expected = f"config[0]: {expected}"
        with pytest.raises(ValueError) as refused:
            TABLE1.validate_many([config])
        assert str(refused.value) == expected

    def test_names_the_first_offender_by_index_then_parameter(self, space):
        base = space.baseline
        rows = [base, base.replace(rob_size=32, iq_size=80),
                base.replace(width="4"), base.replace(iq_size=None, width=5)]
        with pytest.raises(ValueError) as refused:
            space.validate_many(rows)
        assert str(refused.value) == (
            "config[2]: width='4' is off the grid (2, 4, 6, 8)"
        )
        with pytest.raises(ValueError) as refused:
            space.validate_many(rows[:2])
        assert str(refused.value) == (
            f"config[1] violates legality constraints: {rows[1]}"
        )

    def test_returns_the_value_matrix(self, space, configs):
        values = space.validate_many(configs)
        assert np.array_equal(
            values, np.array([c.values() for c in configs], dtype=float)
        )

    @given(
        batch=st.lists(raw_configurations(), min_size=0, max_size=4),
        narrow=st.booleans(),
    )
    @settings(max_examples=600, deadline=None)
    def test_grid_table_agrees_with_the_isin_check(self, batch, narrow):
        space = NARROW if narrow else TABLE1
        outcomes = []
        for check in (isin_validate_many, DesignSpace.validate_many):
            try:
                outcomes.append(check(space, batch))
            except ValueError as refused:
                outcomes.append(str(refused))
        expected, produced = outcomes
        if isinstance(expected, str):
            assert produced == expected
        else:
            assert produced.dtype == expected.dtype
            assert np.array_equal(produced, expected)


#: A restricted window: its grid table must refuse what Table 1 allows.
NARROW = restrict(TABLE1, width=(4, 6), rob_size=(64, 128),
                  l2cache_kb=(1024, 2048), rf_write_ports=(1, 4))


def isin_validate_many(space, configs):
    """``DesignSpace.validate_many`` as it stood before its grid table:
    one ``np.isin`` per parameter column, kept as the oracle."""
    values = np.array([config.values() for config in configs])
    if values.dtype.kind not in "biuf" or not all(
        np.isin(column, p.values).all()
        for column, p in zip(values.astype(float).T, space.parameters)
    ):
        for index, config in enumerate(configs):
            if not space.is_on_grid(config):
                try:
                    space.validate(config)
                except ValueError as error:
                    raise ValueError(f"config[{index}]: {error}") from None
    values = values.astype(float).reshape(len(configs), space.dimensions)
    legal = meets_constraints(values.T)
    if not legal.all():
        index = int(np.argmin(legal))
        raise ValueError(
            f"config[{index}] violates legality constraints: "
            f"{configs[index]}"
        )
    return values


class TestConstraintExpression:
    @pytest.mark.parametrize("dtype", [np.int64, float])
    def test_columns_match_satisfies_constraints_row_by_row(
        self, space, dtype
    ):
        rng = np.random.default_rng(23)
        columns = [
            rng.choice(p.values, size=4000).astype(dtype)
            for p in space.parameters
        ]
        mask = meets_constraints(columns)
        expected = [
            space.satisfies_constraints(Configuration(*map(int, row)))
            for row in zip(*columns)
        ]
        assert mask.dtype == bool
        assert mask.tolist() == expected
        assert 0.1 < mask.mean() < 0.5  # most raw draws are illegal
        assert np.array_equal(
            meets_constraints(np.column_stack(columns).T), mask
        )

    def test_one_tuple_gives_a_bool(self, space):
        assert meets_constraints(space.baseline.values()) is True
        illegal = space.baseline.replace(rf_write_ports=8)
        assert meets_constraints(illegal.values()) is False


class TestUnitCube:
    def test_full_space_frame_is_its_feature_bounds(self, space, configs):
        low, high = space.feature_bounds()
        unit = space.unit_cube(space.validate_many(configs))
        assert np.array_equal(
            unit, (space.encode_many(configs) - low) / (high - low)
        )
        assert unit.min() >= 0.0 and unit.max() <= 1.0

    def test_restricted_space_keeps_table1_frame(self, space):
        narrow = restrict(space, width=(4, 4), l2cache_kb=(1024, 2048))
        values = narrow.validate_many([narrow.baseline])
        assert np.array_equal(
            narrow.unit_cube(values),
            space.unit_cube(space.validate_many([narrow.baseline])),
        )
        assert np.isfinite(narrow.unit_cube(values)).all()

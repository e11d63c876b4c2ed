"""Tests for the Configuration value object."""

import pickle

import numpy as np
import pytest

from repro.designspace import Configuration
from repro.designspace.configuration import PARAMETER_ORDER
from repro.serve.batching import LRUCache


def _baseline() -> Configuration:
    return Configuration(
        width=4, rob_size=96, iq_size=32, lsq_size=48, rf_size=96,
        rf_read_ports=8, rf_write_ports=4, gshare_size=16384,
        btb_size=4096, max_branches=16, icache_kb=32, dcache_kb=32,
        l2cache_kb=2048,
    )


class TestConfiguration:
    def test_values_follow_canonical_order(self):
        config = _baseline()
        values = config.values()
        assert values[0] == config.width
        assert values[-1] == config.l2cache_kb
        assert len(values) == len(PARAMETER_ORDER)

    def test_as_dict_round_trips(self):
        config = _baseline()
        assert Configuration.from_values(config.as_dict()) == config

    def test_from_values_tuple(self):
        config = _baseline()
        assert Configuration.from_values(config.values()) == config

    def test_from_values_wrong_length(self):
        with pytest.raises(ValueError, match="13"):
            Configuration.from_values((1, 2, 3))

    def test_replace(self):
        config = _baseline().replace(width=8)
        assert config.width == 8
        assert config.rob_size == 96

    def test_replace_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown"):
            _baseline().replace(cache_levels=3)

    def test_hashable_and_equal(self):
        assert _baseline() == _baseline()
        assert hash(_baseline()) == hash(_baseline())
        assert len({_baseline(), _baseline().replace(width=8)}) == 2

    def test_iter(self):
        assert tuple(_baseline()) == _baseline().values()

    def test_str_mentions_parameters(self):
        text = str(_baseline())
        assert "width=4" in text
        assert "l2cache_kb=2048" in text

    def test_immutable(self):
        with pytest.raises(AttributeError):
            _baseline().width = 8


class TestOneRowType:
    """A configuration is the tuple of its 13 values."""

    def test_is_a_named_tuple_of_the_canonical_fields(self):
        assert issubclass(Configuration, tuple)
        assert Configuration._fields == PARAMETER_ORDER

    def test_values_is_a_plain_tuple(self):
        assert type(_baseline().values()) is tuple

    def test_equals_and_hashes_like_its_values(self):
        config = _baseline()
        values = config.values()
        assert config == values and values == config
        assert hash(config) == hash(values)
        assert config != _baseline().replace(width=8).values()

    def test_finds_its_values_entry_and_the_reverse(self):
        config, other = _baseline(), _baseline().replace(width=8)
        assert {config.values(): "a"}[config] == "a"
        assert {config: "b"}[config.values()] == "b"
        assert config in {config.values()}
        assert config.values() in {config}
        assert other not in {config.values()}

    def test_finds_its_values_entry_in_the_serving_cache(self):
        config = _baseline()
        cache = LRUCache(4)
        cache.put(config.values(), 1.5)
        assert cache.get(config) == 1.5
        cache.put(config.replace(width=8), 2.5)
        assert cache.get(config.replace(width=8).values()) == 2.5
        assert cache.get(config.replace(width=2)) is cache.miss_sentinel()

    def test_survives_a_pickle_round_trip(self):
        config = _baseline()
        restored = pickle.loads(pickle.dumps(config))
        assert type(restored) is Configuration
        assert restored == config
        assert str(restored) == str(config)

    def test_tuple_and_numpy_give_the_canonical_order(self):
        config = _baseline()
        expected = (4, 96, 32, 48, 96, 8, 4, 16384, 4096, 16, 32, 32, 2048)
        assert tuple(config) == expected
        matrix = np.array([config, config.replace(width=8)])
        assert matrix.shape == (2, len(PARAMETER_ORDER))
        assert matrix[0].tolist() == list(expected)
        assert matrix[1, 0] == 8

    def test_from_values_takes_a_mapping_in_any_order(self):
        config = _baseline()
        shuffled = dict(reversed(list(config.as_dict().items())))
        assert Configuration.from_values(shuffled) == config
        assert type(Configuration.from_values(config.values())) is Configuration

    def test_str_keeps_its_format(self):
        assert str(_baseline()) == (
            "Configuration(width=4, rob_size=96, iq_size=32, lsq_size=48, "
            "rf_size=96, rf_read_ports=8, rf_write_ports=4, "
            "gshare_size=16384, btb_size=4096, max_branches=16, "
            "icache_kb=32, dcache_kb=32, l2cache_kb=2048)"
        )

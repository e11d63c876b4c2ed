"""``/predict``'s row parse: JSON rows become value tuples directly.

A canonical row (13 exact ints, on the grid, legal; or a mapping of
known names filled from the baseline) becomes its value tuple with no
:class:`Configuration`; every other row goes through the per-row
normalise-or-400 path.  The tests pin what that split must not change:

* every 400's status and text, recorded at the commit before the split;
* the rows or the message, against the per-row parse it replaced, kept
  here as the oracle;
* that a canonical request builds no configuration at all.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designspace import Configuration, DesignSpace, sample_configurations
from repro.designspace.configuration import PARAMETER_ORDER
from repro.obs.http import BadRequest
from repro.serve import PredictionServer
from repro.sim import Metric

SPACE = DesignSpace()
BASE = list(SPACE.baseline.values())


class _Unfitted:
    """Enough of a predictor for a server that only parses."""

    metric = Metric.CYCLES


def _server(predictor=None) -> PredictionServer:
    return PredictionServer(predictor or _Unfitted())


def _dispatch(server, body: bytes):
    status, payload, _, _ = asyncio.run(
        server._dispatch("POST", "/predict", body)
    )
    return status, json.loads(payload)


# ----------------------------------------------------------------------
# The 400 table
# ----------------------------------------------------------------------
def _row(**changes):
    values = dict(zip(PARAMETER_ORDER, BASE))
    values.update(changes)
    return list(values.values())


def _bodies():
    """(case, body) pairs; each bad value comes in list and mapping form."""
    good = _row()
    cases = [
        ("not-json", b"{nope"),
        ("not-utf8", b"\xff\xfe"),
        ("not-an-object", b"[1, 2]"),
        ("configs-not-a-list", {"configs": {"width": 4}}),
        ("no-key", {"cfg": [good]}),
        ("empty-list", {"configs": []}),
        ("too-many-rows", {"configs": [good] * 10_001}),
        ("unknown-names", {"configs": [{"width": 4, "warp": 9, "alpha": 1}]}),
        ("too-short", {"configs": [[4, 96, 32]]}),
        ("too-long", {"configs": [good + [1]]}),
        ("int-row", {"configs": [42]}),
        ("string-row", {"configs": ["abc"]}),
        ("null-row", {"configs": [None]}),
        ("config-shorthand-bad", {"config": [1, 2]}),
    ]
    bad_values = [
        ("inf", "width", float("inf")),
        ("minus-inf", "width", float("-inf")),
        ("nan", "rob_size", float("nan")),
        ("fraction", "rf_write_ports", 4.9),
        ("true", "rf_write_ports", True),
        ("string", "width", "8"),
        ("null", "iq_size", None),
        ("nested", "lsq_size", [48]),
        ("huge", "l2cache_kb", 10**30),
        ("off-grid", "width", 5),
        ("off-grid-rob", "rob_size", 33),
    ]
    for name, parameter, value in bad_values:
        row = _row(**{parameter: value})
        cases.append((f"{name}-list", {"configs": [row]}))
        cases.append((f"{name}-mapping", {"configs": [{parameter: value}]}))
    illegal = {"rob_size": 32, "iq_size": 80}
    cases.append(("illegal-list", {"configs": [_row(**illegal)]}))
    cases.append(("illegal-mapping", {"configs": [illegal]}))
    middle = [good, _row(width=6), _row(width=5), good, _row(**illegal)]
    cases.append(("bad-row-mid-list", {"configs": middle}))
    cases.append((
        "bad-row-mid-mapping",
        {"configs": [{}, {"width": 6}, {"rob_size": 33}, {}, illegal]},
    ))
    cases.append(("config-shorthand-illegal", {"config": illegal}))
    return [
        (case, body if isinstance(body, bytes) else json.dumps(body).encode())
        for case, body in cases
    ]


_ILLEGAL_TEXT = (
    "illegal configuration: configuration violates legality constraints: "
    "Configuration(width=4, rob_size=32, iq_size=80, lsq_size=48, "
    "rf_size=96, rf_read_ports=8, rf_write_ports=4, gshare_size=16384, "
    "btb_size=4096, max_branches=16, icache_kb=32, dcache_kb=32, "
    "l2cache_kb=2048)"
)

#: Each case's 400 text, recorded at the commit before the row parse.
RECORDED = {
    "not-json": (
        "request body is not JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)"
    ),
    "not-utf8": (
        "request body is not JSON: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte"
    ),
    "not-an-object": "request body must be a JSON object",
    "configs-not-a-list": '"configs" must be a list',
    "no-key": 'request needs a "configs" or "config" key',
    "empty-list": "at least one configuration is required",
    "too-many-rows": "at most 10000 configurations per request",
    "unknown-names": "unknown parameters: ['alpha', 'warp']",
    "too-short": "a configuration list needs 13 values, got 3",
    "too-long": "a configuration list needs 13 values, got 14",
    "int-row": (
        "each configuration must be a parameter mapping or a "
        "13-integer list"
    ),
    "string-row": (
        "each configuration must be a parameter mapping or a "
        "13-integer list"
    ),
    "null-row": (
        "each configuration must be a parameter mapping or a "
        "13-integer list"
    ),
    "config-shorthand-bad": "a configuration list needs 13 values, got 2",
    "inf-list": (
        "bad configuration values: cannot convert float infinity to "
        "integer"
    ),
    "inf-mapping": (
        "bad configuration values: cannot convert float infinity to "
        "integer"
    ),
    "minus-inf-list": (
        "bad configuration values: cannot convert float infinity to "
        "integer"
    ),
    "minus-inf-mapping": (
        "bad configuration values: cannot convert float infinity to "
        "integer"
    ),
    "nan-list": (
        "bad configuration values: cannot convert float NaN to integer"
    ),
    "nan-mapping": (
        "bad configuration values: cannot convert float NaN to integer"
    ),
    "fraction-list": (
        "bad configuration values: rf_write_ports=4.9 is not an integer"
    ),
    "fraction-mapping": (
        "bad configuration values: rf_write_ports=4.9 is not an integer"
    ),
    "true-list": (
        "bad configuration values: rf_write_ports=True is not an integer"
    ),
    "true-mapping": (
        "bad configuration values: rf_write_ports=True is not an integer"
    ),
    "string-list": "bad configuration values: width='8' is not an integer",
    "string-mapping": "bad configuration values: width='8' is not an integer",
    "null-list": (
        "bad configuration values: int() argument must be a string, a "
        "bytes-like object or a real number, not 'NoneType'"
    ),
    "null-mapping": (
        "bad configuration values: int() argument must be a string, a "
        "bytes-like object or a real number, not 'NoneType'"
    ),
    "nested-list": (
        "bad configuration values: int() argument must be a string, a "
        "bytes-like object or a real number, not 'list'"
    ),
    "nested-mapping": (
        "bad configuration values: int() argument must be a string, a "
        "bytes-like object or a real number, not 'list'"
    ),
    "huge-list": (
        "illegal configuration: l2cache_kb=1000000000000000000000000000000 "
        "is off the grid (256, 512, 1024, 2048, 4096)"
    ),
    "huge-mapping": (
        "illegal configuration: l2cache_kb=1000000000000000000000000000000 "
        "is off the grid (256, 512, 1024, 2048, 4096)"
    ),
    "off-grid-list": (
        "illegal configuration: width=5 is off the grid (2, 4, 6, 8)"
    ),
    "off-grid-mapping": (
        "illegal configuration: width=5 is off the grid (2, 4, 6, 8)"
    ),
    "off-grid-rob-list": (
        "illegal configuration: rob_size=33 is off the grid (32, 40, 48, "
        "56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160)"
    ),
    "off-grid-rob-mapping": (
        "illegal configuration: rob_size=33 is off the grid (32, 40, 48, "
        "56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160)"
    ),
    "illegal-list": _ILLEGAL_TEXT,
    "illegal-mapping": _ILLEGAL_TEXT,
    "bad-row-mid-list": (
        "illegal configuration: width=5 is off the grid (2, 4, 6, 8)"
    ),
    "bad-row-mid-mapping": (
        "illegal configuration: rob_size=33 is off the grid (32, 40, 48, "
        "56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144, 152, 160)"
    ),
    "config-shorthand-illegal": _ILLEGAL_TEXT,
}


BODIES = _bodies()


@pytest.mark.parametrize("case,body", BODIES, ids=[c for c, _ in BODIES])
def test_every_400_says_what_it_said(case, body):
    status, payload = _dispatch(_server(), body)
    assert status == 400
    assert payload["error"] == RECORDED[case]


def test_the_table_covers_every_recorded_case():
    assert {case for case, _ in BODIES} == set(RECORDED)


# ----------------------------------------------------------------------
# The per-row parse it replaced, as the oracle
# ----------------------------------------------------------------------
def per_row_parse(space: DesignSpace, body: bytes):
    """``PredictionServer._parse_configs`` before the row parse, with
    each ``Configuration`` read back as its value tuple."""
    try:
        request = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BadRequest(f"request body is not JSON: {error}") from error
    if not isinstance(request, dict):
        raise BadRequest("request body must be a JSON object")
    if "configs" in request:
        raw_list = request["configs"]
        if not isinstance(raw_list, list):
            raise BadRequest('"configs" must be a list')
    elif "config" in request:
        raw_list = [request["config"]]
    else:
        raise BadRequest('request needs a "configs" or "config" key')
    if not raw_list:
        raise BadRequest("at least one configuration is required")
    if len(raw_list) > 10_000:
        raise BadRequest("at most 10000 configurations per request")
    return [_per_row_config(space, raw).values() for raw in raw_list]


def _per_row_config(space: DesignSpace, raw) -> Configuration:
    if isinstance(raw, dict):
        unknown = set(raw) - set(PARAMETER_ORDER)
        if unknown:
            raise BadRequest(f"unknown parameters: {sorted(unknown)}")
        try:
            overrides = {name: int(value) for name, value in raw.items()}
            if overrides != raw or bool in map(type, raw.values()):
                raise _inexact(raw.items())
            config = space.baseline.replace(**overrides)
        except (TypeError, ValueError, OverflowError) as error:
            raise BadRequest(f"bad configuration values: {error}") from error
    elif isinstance(raw, list):
        if len(raw) != len(PARAMETER_ORDER):
            raise BadRequest(
                f"a configuration list needs "
                f"{len(PARAMETER_ORDER)} values, got {len(raw)}"
            )
        try:
            values = list(map(int, raw))
            if values != raw or bool in map(type, raw):
                raise _inexact(zip(PARAMETER_ORDER, raw))
            config = Configuration.from_values(tuple(values))
        except (TypeError, ValueError, OverflowError) as error:
            raise BadRequest(f"bad configuration values: {error}") from error
    else:
        raise BadRequest(
            "each configuration must be a parameter mapping or a "
            f"{len(PARAMETER_ORDER)}-integer list"
        )
    try:
        space.validate(config)
    except ValueError as error:
        raise BadRequest(f"illegal configuration: {error}") from error
    return config


def _inexact(pairs) -> ValueError:
    name, value = next(
        (name, value) for name, value in pairs
        if type(value) is bool or int(value) != value
    )
    return ValueError(f"{name}={value!r} is not an integer")


LEGAL = [c.values() for c in sample_configurations(SPACE, 64, seed=3)]


@st.composite
def values_for(draw, index):
    grid = SPACE.parameters[index].values
    return draw(st.one_of(
        st.sampled_from(grid),
        st.integers(-10, 5000),
        st.integers(-(10**20), 10**20),
        st.sampled_from(grid).map(float),
        st.sampled_from(grid).map(lambda v: v + 0.5),
        st.floats(allow_nan=True, allow_infinity=True),
        st.booleans(),
        st.none(),
        st.sampled_from(grid).map(str),
        st.lists(st.integers(0, 9), max_size=2),
    ))


@st.composite
def raw_rows(draw):
    """A list row, a mapping row or a stray item; most rows start legal."""
    values = list(draw(st.sampled_from(LEGAL)))
    for _ in range(draw(st.integers(0, 2))):
        index = draw(st.integers(0, 12))
        values[index] = draw(values_for(index))
    form = draw(st.sampled_from(
        ["list", "list", "mapping", "short", "long", "stray"]
    ))
    if form == "list":
        return values
    if form == "short":
        return values[:draw(st.integers(0, 12))]
    if form == "long":
        return values + [draw(values_for(0))]
    if form == "stray":
        return draw(st.one_of(st.integers(), st.text(max_size=3), st.none()))
    names = draw(st.sets(st.integers(0, 12)))
    row = {PARAMETER_ORDER[i]: values[i] for i in sorted(names)}
    if draw(st.integers(0, 9)) == 0:
        row["warp"] = 1
    return row


@st.composite
def request_bodies(draw):
    rows = draw(st.lists(raw_rows(), min_size=1, max_size=5))
    if len(rows) == 1 and draw(st.booleans()):
        return json.dumps({"config": rows[0]}).encode()
    return json.dumps({"configs": rows}).encode()


def _outcome(parse, body):
    try:
        return "rows", parse(body)
    except BadRequest as refused:
        return "400", str(refused)


@given(body=request_bodies())
@settings(max_examples=800, deadline=None)
def test_same_rows_or_same_message_as_the_per_row_parse(body):
    server = _server()
    expected = _outcome(lambda b: per_row_parse(SPACE, b), body)
    produced = _outcome(server._parse_configs, body)
    assert produced == expected
    if produced[0] == "rows":
        assert all(type(row) is tuple for row in produced[1])
        assert all(type(v) is int for row in produced[1] for v in row)


def test_a_restricted_space_keeps_its_window():
    from repro.designspace import restrict

    narrow = restrict(SPACE, width=(4, 6))
    server = PredictionServer(_Unfitted(), space=narrow)
    inside = json.dumps({"configs": [_row(width=6), {"width": 4}]}).encode()
    assert server._parse_configs(inside) == [
        tuple(_row(width=6)), tuple(BASE)
    ]
    for row in (_row(width=8), {"width": 2}):
        body = json.dumps({"configs": [row]}).encode()
        with pytest.raises(BadRequest) as refused:
            server._parse_configs(body)
        assert str(refused.value) == str(
            _outcome(lambda b: per_row_parse(narrow, b), body)[1]
        )


# ----------------------------------------------------------------------
# A canonical request builds no Configuration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("form", ["list", "mapping"])
def test_canonical_request_builds_no_configuration(
    fitted_predictor, holdout_configs, monkeypatch, form
):
    configs = list(holdout_configs[:64])
    baseline = SPACE.baseline.as_dict()
    rows = [
        list(c.values()) if form == "list"
        else {k: v for k, v in c.as_dict().items() if v != baseline[k]}
        for c in configs
    ]
    body = json.dumps({"configs": rows}).encode()
    expected = fitted_predictor.predict_invariant(configs)
    server = PredictionServer(fitted_predictor)
    calls = {"from_values": 0, "validate": 0, "__new__": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    from_values = Configuration.from_values.__func__
    monkeypatch.setattr(
        Configuration, "from_values",
        classmethod(counted("from_values", from_values)),
    )
    monkeypatch.setattr(
        Configuration, "__new__", counted("__new__", Configuration.__new__)
    )
    monkeypatch.setattr(
        DesignSpace, "validate", counted("validate", DesignSpace.validate)
    )

    async def scenario():
        await server.batcher.start()
        try:
            return await server._dispatch("POST", "/predict", body)
        finally:
            await server.batcher.stop()

    status, payload, _, _ = asyncio.run(scenario())
    assert status == 200
    assert np.array_equal(json.loads(payload)["predictions"], expected)
    assert calls == {"from_values": 0, "validate": 0, "__new__": 0}

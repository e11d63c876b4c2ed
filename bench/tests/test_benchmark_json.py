"""``BENCHMARK.json`` is well formed and matches what ``run.py`` emits."""

import json
import pathlib
import re

import pytest

import workloads

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRICS = SPEC["end_to_end"] + SPEC["per_layer"]


def test_top_level_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m["name"])
def test_every_metric_has_a_name_unit_and_direction(metric):
    assert NAME.match(metric["name"])
    assert UNIT.match(metric["unit"])
    assert metric["better"] in ("higher", "lower")


def test_end_to_end_metrics_have_bounds():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_setup_time_has_the_largest_bound():
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_names_are_unique():
    names = [m["name"] for m in METRICS] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))


def test_workloads_are_the_ones_run_py_knows():
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

"""The layer wrappers: restoration, rollup arithmetic and exact counts."""

import asyncio
import inspect
import os
import sys
import types

import pytest

import layers


class Target:
    def method(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return (cls, value)

    @staticmethod
    def pure(value):
        return value * 2

    async def wait(self, value):
        await asyncio.sleep(0)
        return value


def _module():
    module = types.ModuleType("bench_layers_fixture")
    module.function = lambda value: value - 1
    module.Target = Target
    sys.modules[module.__name__] = module
    return module


def _hooks(module):
    name = module.__name__
    return [
        layers.Hook(f"{name}:function", "f"),
        layers.Hook(f"{name}:Target.method", "m"),
        layers.Hook(f"{name}:Target.build", "b"),
        layers.Hook(f"{name}:Target.pure", "p"),
        layers.Hook(f"{name}:Target.wait", "w"),
    ]


def _originals(hooks):
    return {
        hook.target: inspect.getattr_static(*layers._resolve(hook.target))
        for hook in hooks
    }


def test_wrappers_are_installed_then_restored_even_on_error():
    module = _module()
    hooks = _hooks(module)
    before = _originals(hooks)
    rollup = layers.Rollup()
    with pytest.raises(RuntimeError):
        with layers.installed(rollup, hooks):
            assert module.function(3) == 2
            target = Target()
            assert target.method(1) == 2
            assert Target.build(5) == (Target, 5)
            assert Target.pure(4) == 8
            assert asyncio.run(target.wait(9)) == 9
            assert _originals(hooks) != before
            raise RuntimeError("abort the traced run")
    assert _originals(hooks) == before
    assert rollup.calls == {"f": 1, "m": 1, "b": 1, "p": 1, "w": 1}


@pytest.mark.parametrize("table", ["CAMPAIGN", "LOO", "SERVE"])
def test_every_hook_table_restores_the_program(table):
    hooks = getattr(layers, table)
    before = _originals(hooks)
    with layers.installed(layers.Rollup(), hooks):
        pass
    assert _originals(hooks) == before
    assert os.fsync.__module__ == "posix"


def test_self_time_is_busy_time_minus_wrapped_children(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(layers.time, "perf_counter", lambda: clock[0])
    module = types.ModuleType("bench_rollup_fixture")
    sys.modules[module.__name__] = module

    def leaf(amount):
        clock[0] += amount

    def middle():
        clock[0] += 1.0
        module.leaf(2.0)
        module.leaf(3.0)
        clock[0] += 0.5

    def outer():
        clock[0] += 4.0
        module.middle()

    module.leaf, module.middle, module.outer = leaf, middle, outer
    name = module.__name__
    rollup = layers.Rollup()
    hooks = [layers.Hook(f"{name}:{fn}", fn) for fn in ("leaf", "middle", "outer")]
    with layers.installed(rollup, hooks):
        module.outer()
        module.leaf(0.25)  # a second root call
    assert rollup.busy == pytest.approx(
        {"outer": 10.5, "middle": 6.5, "leaf": 5.25}
    )
    assert rollup.self_time == pytest.approx(
        {"outer": 4.0, "middle": 1.5, "leaf": 5.25}
    )
    assert sum(rollup.self_time.values()) == pytest.approx(rollup.root_s)
    assert rollup.root_s == pytest.approx(10.75)
    per_call = layers.scale(rollup.snapshot(), 0.5)
    assert per_call["self"]["outer"] == pytest.approx(2.0)
    assert layers.delta(rollup.snapshot(), rollup.snapshot())["root_s"] == 0


def test_campaign_hooks_count_fsyncs_and_suite_calls_exactly(tmp_path):
    from repro.designspace import sample_configurations
    from repro.runtime import CampaignRunner, IntervalBackend
    from repro.sim import IntervalSimulator
    from repro.workloads import spec2000_suite

    profiles = list(spec2000_suite().profiles)[:3]
    configs = sample_configurations(IntervalSimulator().space, 300, seed=1)
    rollup = layers.Rollup()
    with layers.installed(rollup, layers.CAMPAIGN):
        result = CampaignRunner(
            IntervalBackend(), tmp_path / "ck", chunk_size=128
        ).run(profiles, configs)
    cells = result.total_cells
    assert cells == 3 * 3
    # One fsync for the cell file and one for its journal record.
    assert rollup.calls["runtime.fsync"] == 2 * cells
    assert rollup.calls["sim.interval.suite"] == 3
    assert rollup.calls["runtime.campaign.store"] == cells
    assert rollup.root_s == pytest.approx(
        rollup.busy["runtime.campaign.other"]
    )
    assert sum(rollup.self_time.values()) == pytest.approx(rollup.root_s)

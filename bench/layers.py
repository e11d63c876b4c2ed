"""Timing wrappers around the layers' public functions, and their rollup.

The traced run installs one wrapper per layer boundary listed in a
workload's hook table (``CAMPAIGN``, ``LOO``, ``SERVE``) and restores
the originals afterwards; no file of the program changes.  Each wrapper
records the call's busy time and count under its layer name.  A layer's
*self* time is its busy time minus the busy time of wrapped calls it
made on the same thread, so self times partition the time the wrapped
calls cover, and ``root_s`` (the time of calls made with no wrapped
caller) is the share of wall time the layers account for.

Coroutine functions are timed without taking part in the self-time
stack: concurrent coroutines interleave on one thread, so nesting says
nothing about who waited for whom.

Hook targets are named as ``"module:Class.attr"`` strings and resolved
one by one at install time, so a hook can wrap a function before a
later hook's module imports it by name (``dump_json`` is wrapped before
``repro.serve.server`` binds it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Hook:
    """One wrapped function.

    Attributes:
        target: ``"module:attr"`` or ``"module:Class.attr"``.
        layer: The layer name its time is recorded under.
        count: Optional ``(args, result) -> {name: amount}`` of exact
            counts to add after each call (rows encoded, epochs run).
        when: Optional ``(args) -> bool`` evaluated before the call; a
            call it rejects is run but not recorded.
        stamp: Also keep each call's ``(start, end)`` perf-counter pair,
            for per-call latency distributions.
    """

    target: str
    layer: str
    count: Optional[Callable] = None
    when: Optional[Callable] = None
    stamp: bool = False


class Rollup:
    """Busy time, self time, calls and counts per layer."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.stamps: Dict[str, list] = defaultdict(list)
        self.root_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, start: float, end: float, child: float,
               nested: bool, stamp: bool = False) -> None:
        """Fold one finished call into the totals."""
        busy = end - start
        with self._lock:
            if stamp:
                self.stamps[layer].append((start, end))
            self.busy[layer] += busy
            self.self_time[layer] += busy - child
            self.calls[layer] += 1
            if not nested:
                self.root_s += busy

    def add(self, counts: Dict[str, float]) -> None:
        with self._lock:
            for name, amount in counts.items():
                self.counts[name] += amount

    def snapshot(self) -> dict:
        """A plain copy of the totals (safe to take from a signal
        handler: each ``dict`` copy is one C call under the GIL)."""
        return {
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "root_s": self.root_s,
        }


def delta(after: dict, before: dict) -> dict:
    """``after - before`` for two :meth:`Rollup.snapshot` results."""
    out = {}
    for key in ("busy", "self", "calls", "counts"):
        names = set(after[key]) | set(before[key])
        out[key] = {
            name: after[key].get(name, 0) - before[key].get(name, 0)
            for name in names
        }
    out["root_s"] = after["root_s"] - before["root_s"]
    return out


def scale(snapshot: dict, factor: float) -> dict:
    """Every total in ``snapshot`` multiplied by ``factor``."""
    out = {
        key: {name: value * factor for name, value in snapshot[key].items()}
        for key in ("busy", "self", "calls", "counts")
    }
    out["root_s"] = snapshot["root_s"] * factor
    return out


def _timed(rollup: Rollup, hook: Hook, fn: Callable) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def timed_async(*args, **kwargs):
            if hook.when is not None and not hook.when(args):
                return await fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                rollup.record(hook.layer, start, time.perf_counter(), 0.0,
                              nested=True, stamp=hook.stamp)
            if hook.count is not None:
                rollup.add(hook.count(args, result))
            return result

        return timed_async

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if hook.when is not None and not hook.when(args):
            return fn(*args, **kwargs)
        stack = rollup._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            child = stack.pop()
            if stack:
                stack[-1] += end - start
            rollup.record(hook.layer, start, end, child, nested=bool(stack),
                          stamp=hook.stamp)
        if hook.count is not None:
            rollup.add(hook.count(args, result))
        return result

    return timed


def _resolve(target: str) -> Tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _wrap(rollup: Rollup, hook: Hook, raw):
    if isinstance(raw, classmethod):
        return classmethod(_timed(rollup, hook, raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(_timed(rollup, hook, raw.__func__))
    return _timed(rollup, hook, raw)


@contextmanager
def installed(rollup: Rollup, hooks: Sequence[Hook]) -> Iterator[Rollup]:
    """Install ``hooks`` in order; restore every original on exit."""
    originals = []
    try:
        for hook in hooks:
            owner, attr = _resolve(hook.target)
            raw = inspect.getattr_static(owner, attr)
            originals.append((owner, attr, raw))
            setattr(owner, attr, _wrap(rollup, hook, raw))
        yield rollup
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Hook tables, one per user path
# ----------------------------------------------------------------------
def _rows(args, result) -> Dict[str, float]:
    return {"designspace.encode_rows": float(len(result))}


def _epochs(args, result) -> Dict[str, float]:
    return {"ml.mlp.epochs": float(args[0].training_record_.epochs_run)}


def _cache_miss(args) -> bool:
    batcher, config = args[0], args[1]
    # LRUCache.get only refreshes recency on a hit, and predict_one
    # repeats the same get immediately, so this probe changes nothing.
    return batcher.cache.get(config.values()) is batcher.cache.miss_sentinel()


CAMPAIGN = (
    Hook("repro.runtime.campaign:CampaignRunner.run",
         "runtime.campaign.other"),
    Hook("repro.runtime.campaign:CampaignRunner.plan",
         "runtime.campaign.plan"),
    Hook("repro.runtime.campaign:CampaignRunner.resume_cell",
         "runtime.campaign.resume"),
    Hook("repro.runtime.campaign:CampaignRunner.store_cell",
         "runtime.campaign.store"),
    Hook("repro.runtime.journal:CampaignJournal.append",
         "runtime.journal.append"),
    Hook("repro.runtime.campaign:file_checksum", "runtime.integrity.checksum"),
    Hook("os:fsync", "runtime.fsync"),
    Hook("repro.runtime.backend:IntervalBackend.simulate_suite",
         "sim.interval.suite"),
)

LOO = (
    Hook("repro.core.crossval:leave_one_out", "core.crossval.other"),
    Hook("repro.ml.mlp:MultilayerPerceptron.fit", "ml.mlp.fit",
         count=_epochs),
    Hook("repro.core.predictor:ArchitectureCentricPredictor.fit_responses",
         "core.predictor.fit_responses"),
    Hook("repro.ml.ensemble:StackedEnsemble.maybe_from_models",
         "ml.ensemble.stack"),
    Hook("repro.ml.ensemble:StackedEnsemble.predict_features",
         "ml.ensemble.forward"),
    Hook("repro.designspace.space:DesignSpace.encode_many",
         "designspace.encode", count=_rows),
    Hook("repro.ml.linear:LinearRegressor.predict", "ml.linear.combine"),
)

#: Server-side layers.  ``dump_json`` comes first: ``repro.serve.server``
#: binds it by name at import, which the later hooks trigger.
SERVE = (
    Hook("repro.obs.http:dump_json", "obs.http.serialise"),
    Hook("repro.designspace.configuration:Configuration.from_values",
         "designspace.parse"),
    Hook("repro.designspace.space:DesignSpace.validate", "designspace.parse"),
    Hook("repro.core.predictor:ArchitectureCentricPredictor.predict_invariant",
         "serve.forward"),
    Hook("repro.ml.ensemble:StackedEnsemble.predict_features_invariant",
         "ml.ensemble.invariant"),
    Hook("repro.designspace.space:DesignSpace.encode_many",
         "designspace.encode", count=_rows),
    Hook("repro.ml.linear:LinearRegressor.predict_invariant",
         "ml.linear.combine"),
    Hook("repro.serve.batching:PredictionBatcher.predict_one",
         "serve.batcher.wait", when=_cache_miss),
)

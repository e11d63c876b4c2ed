"""Declarative load plans: seeded, validated, JSON on disk.

A :class:`LoadPlan` is a small, strict JSON document that fully
determines a load generator run.  Stages execute back to back; each
names an arrival process (:mod:`repro.load.arrivals`), a mean request
rate, a client-thread count, and a traffic *mix* over three request
kinds:

* ``predict_hot`` — ``/predict`` over a small pool of configurations
  drawn zipf-skewed (exponent ``zipf_s``), the traffic shape that
  rides the server's LRU cache;
* ``predict_cold`` — ``/predict`` cycling a large pool of distinct
  configurations, the cache-busting flood;
* ``search`` — bounded ``POST /search`` runs, the expensive mixed-in
  workload.

Example::

    {
      "seed": 2007,
      "description": "mixed below-knee smoke",
      "stages": [
        {"name": "steady", "duration": 5.0, "rate": 50.0,
         "arrival": "poisson", "clients": 8,
         "mix": {"predict_hot": 0.7, "predict_cold": 0.28,
                 "search": 0.02}}
      ]
    }

Unknown keys are rejected loudly — a typo'd option must fail the run,
not silently change the experiment.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .arrivals import ARRIVAL_KINDS

__all__ = ["LoadPlan", "LoadStage", "MIX_KINDS"]

#: The request kinds a stage mix may name.
MIX_KINDS = ("predict_hot", "predict_cold", "search")

_STAGE_KEYS = {
    "name", "duration", "rate", "arrival", "mix", "clients", "zipf_s",
    "hot_configs", "cold_configs", "search_agent", "search_budget",
    "burst_factor", "burst_fraction", "burst_period", "ramp_from",
}

_PLAN_KEYS = {"seed", "description", "stages"}


@dataclass(frozen=True)
class LoadStage:
    """One phase of a load plan (see the module docstring).

    Args:
        name: Unique stage identifier; seeds the stage's random
            streams, so renaming a stage reshuffles only that stage.
        duration: Stage length in seconds.
        rate: Mean offered load in requests/second.
        arrival: Arrival process (:data:`~repro.load.arrivals.ARRIVAL_KINDS`).
        mix: ``(kind, weight)`` pairs over :data:`MIX_KINDS`; weights
            are normalised, so any positive scale works.
        clients: Client threads (each owns one keep-alive connection);
            arrivals are dealt round-robin across them.
        zipf_s: Zipf exponent for ``predict_hot`` pool picks (larger
            is more skewed).
        hot_configs / cold_configs: Pool sizes for the hot and cold
            request kinds.
        search_agent / search_budget: Parameters for ``search``
            requests.
        burst_factor / burst_fraction / burst_period / ramp_from:
            Arrival-process shape knobs (ignored by kinds that do not
            use them).
    """

    name: str
    duration: float
    rate: float
    arrival: str = "poisson"
    mix: Tuple[Tuple[str, float], ...] = (("predict_hot", 1.0),)
    clients: int = 4
    zipf_s: float = 1.1
    hot_configs: int = 64
    cold_configs: int = 512
    search_agent: str = "hill"
    search_budget: int = 32
    burst_factor: float = 4.0
    burst_fraction: float = 0.25
    burst_period: float = 1.0
    ramp_from: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("a stage needs a non-empty name")
        if self.duration <= 0:
            raise ValueError(f"stage {self.name!r}: duration must be positive")
        if self.rate <= 0:
            raise ValueError(f"stage {self.name!r}: rate must be positive")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"stage {self.name!r}: unknown arrival {self.arrival!r}; "
                f"expected one of {', '.join(ARRIVAL_KINDS)}"
            )
        if not self.mix:
            raise ValueError(f"stage {self.name!r}: the mix is empty")
        for kind, weight in self.mix:
            if kind not in MIX_KINDS:
                raise ValueError(
                    f"stage {self.name!r}: unknown mix kind {kind!r}; "
                    f"expected one of {', '.join(MIX_KINDS)}"
                )
            if not weight > 0:
                raise ValueError(
                    f"stage {self.name!r}: mix weight for {kind!r} must "
                    "be positive"
                )
        if len({kind for kind, _ in self.mix}) != len(self.mix):
            raise ValueError(f"stage {self.name!r}: duplicate mix kinds")
        # Canonical mix order: the schedule's kind stream draws from
        # the mix in sequence, so `{"a": .5, "b": .5}` and its
        # reordering must produce the same plan (JSON objects are
        # unordered).
        object.__setattr__(
            self, "mix",
            tuple(sorted(
                ((kind, float(weight)) for kind, weight in self.mix),
                key=lambda pair: MIX_KINDS.index(pair[0]),
            )),
        )
        if self.clients < 1:
            raise ValueError(f"stage {self.name!r}: clients must be >= 1")
        if self.zipf_s <= 0:
            raise ValueError(f"stage {self.name!r}: zipf_s must be positive")
        if self.hot_configs < 1 or self.cold_configs < 1:
            raise ValueError(
                f"stage {self.name!r}: config pools must hold at least "
                "one entry"
            )
        if not 2 <= self.search_budget <= 4096:
            raise ValueError(
                f"stage {self.name!r}: search_budget must be in [2, 4096]"
            )

    @property
    def weights(self) -> Dict[str, float]:
        """The mix normalised to sum to one."""
        total = sum(weight for _, weight in self.mix)
        return {kind: weight / total for kind, weight in self.mix}

    def to_dict(self) -> Dict:
        """The JSON form (mix as a mapping)."""
        raw = dataclasses.asdict(self)
        raw["mix"] = {kind: weight for kind, weight in self.mix}
        return raw

    @classmethod
    def from_dict(cls, raw: Mapping) -> "LoadStage":
        """Build one stage from its JSON form; unknown keys are errors."""
        if not isinstance(raw, Mapping):
            raise ValueError("each stage must be a JSON object")
        unknown = set(raw) - _STAGE_KEYS
        if unknown:
            raise ValueError(
                f"unknown stage keys: {sorted(unknown)} "
                f"(known: {sorted(_STAGE_KEYS)})"
            )
        for key in ("name", "duration", "rate"):
            if key not in raw:
                raise ValueError(f'a stage needs a "{key}"')
        mix = raw.get("mix", {"predict_hot": 1.0})
        if isinstance(mix, Mapping):
            mix_pairs = tuple(
                (str(kind), float(weight)) for kind, weight in mix.items()
            )
        else:
            raise ValueError('"mix" must be a {kind: weight} mapping')
        return cls(
            name=str(raw["name"]),
            duration=float(raw["duration"]),
            rate=float(raw["rate"]),
            arrival=str(raw.get("arrival", "poisson")),
            mix=mix_pairs,
            clients=int(raw.get("clients", 4)),
            zipf_s=float(raw.get("zipf_s", 1.1)),
            hot_configs=int(raw.get("hot_configs", 64)),
            cold_configs=int(raw.get("cold_configs", 512)),
            search_agent=str(raw.get("search_agent", "hill")),
            search_budget=int(raw.get("search_budget", 32)),
            burst_factor=float(raw.get("burst_factor", 4.0)),
            burst_fraction=float(raw.get("burst_fraction", 0.25)),
            burst_period=float(raw.get("burst_period", 1.0)),
            ramp_from=float(raw.get("ramp_from", 0.0)),
        )


@dataclass(frozen=True)
class LoadPlan:
    """A seeded sequence of load stages.

    Args:
        stages: Executed back to back in order.
        seed: Root seed; every per-stage random stream is derived from
            ``(seed, stage name, purpose)``, so the same plan file
            replays the same schedule bit for bit.
        description: Free-form annotation echoed in reports.
    """

    stages: Tuple[LoadStage, ...]
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a load plan needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("the plan seed must be an integer")

    @property
    def total_duration(self) -> float:
        """Seconds of scheduled traffic across every stage."""
        return sum(stage.duration for stage in self.stages)

    def with_seed(self, seed: int) -> "LoadPlan":
        """The same plan under a different root seed."""
        return dataclasses.replace(self, seed=int(seed))

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "description": self.description,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "LoadPlan":
        if not isinstance(raw, Mapping):
            raise ValueError("a load plan must be a JSON object")
        unknown = set(raw) - _PLAN_KEYS
        if unknown:
            raise ValueError(
                f"unknown plan keys: {sorted(unknown)} "
                f"(known: {sorted(_PLAN_KEYS)})"
            )
        stages = raw.get("stages")
        if not isinstance(stages, (list, tuple)):
            raise ValueError('a load plan needs a "stages" list')
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError("the plan seed must be an integer")
        return cls(
            stages=tuple(LoadStage.from_dict(stage) for stage in stages),
            seed=seed,
            description=str(raw.get("description", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "LoadPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"the load plan is not JSON: {error}") from error
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "LoadPlan":
        """Read and validate a plan file."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def save(self, path) -> None:
        """Write the canonical JSON form."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

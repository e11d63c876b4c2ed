"""repro.load — the open-loop load plane for the serving subsystem.

The paper's pitch is answering design-space queries 4–5 orders of
magnitude faster than simulation; this package proves the serving
layer can absorb that query volume.  A seeded declarative JSON
plan (:class:`LoadPlan`) drives deterministic arrival processes
(:mod:`~repro.load.arrivals` — constant, Poisson, burst, ramp) and
traffic mixes (zipf-skewed hot configurations, cold-miss floods,
mixed ``/predict`` + ``/search`` suites), and an **open-loop**
generator (:class:`LoadGenerator`) replays the schedule without ever
waiting for completions — so measured latency includes queueing delay
instead of hiding it (no coordinated omission).

Per-request outcomes land in the process metrics registry
(``load_requests{stage,kind,outcome}``, ``load_request_seconds``), so
``repro load --slo`` (or ``repro slo check`` on its ``--metrics-out``
export) gates a load run the same way it gates a campaign.
``repro load --plan`` is the CLI entry.
"""

from .arrivals import ARRIVAL_KINDS, arrival_offsets
from .generator import (
    LoadGenerator,
    LoadReport,
    RequestRecord,
    ScheduledRequest,
    StageSummary,
    build_schedule,
)
from .plan import MIX_KINDS, LoadPlan, LoadStage

__all__ = [
    "ARRIVAL_KINDS",
    "LoadGenerator",
    "LoadPlan",
    "LoadReport",
    "LoadStage",
    "MIX_KINDS",
    "RequestRecord",
    "ScheduledRequest",
    "StageSummary",
    "arrival_offsets",
    "build_schedule",
]

"""Declarative SLOs evaluated from metrics — and enforced as exit codes.

SLO tracking (p99 latency budgets, error burn rates) is computed from
the telemetry the package already exports.  The policy is
*declarative*: objectives live in a small JSON config::

    {"objectives": [
      {"name": "chunk-p99", "kind": "latency",
       "metric": "campaign.chunk.seconds", "quantile": 0.99,
       "threshold": 30.0},
      {"name": "load-error-rate", "kind": "error_rate",
       "numerator": "load.requests",
       "numerator_labels": {"outcome": "error"},
       "denominator": "load.requests", "threshold": 0.01}
    ]}

and :class:`SLOTracker` evaluates them against either of two sources:

* a live :class:`~repro.obs.metrics.MetricsRegistry` (in-process, as
  ``repro load --slo`` does);
* a Prometheus text export parsed by
  :meth:`MetricsView.from_prometheus` — so ``repro slo check`` works
  headlessly on the ``--metrics-out`` artifacts a CI run already has.

Each objective reports a *burn rate*: observed value divided by its
threshold, so 1.0 is exactly on budget and anything above it is a
violation.  ``repro slo check`` turns ``ok`` into the process exit
code, which is the whole enforcement story a CI leg needs.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .metrics import Histogram, MetricsRegistry

__all__ = ["MetricsView", "SLObjective", "SLOTracker", "histogram_quantile"]

#: Objective kinds.  ``drop_rate`` is semantically identical to
#: ``error_rate`` (numerator/denominator ratio); the distinct name
#: keeps configs self-describing.
_KINDS = ("latency", "error_rate", "drop_rate")

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LINE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$")
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

LabelPairs = Tuple[Tuple[str, str], ...]


def _normalize(name: str) -> str:
    """Metric names as Prometheus spells them (dots become underscores),
    so dotted registry names and parsed exports compare equal."""
    return _PROM_NAME.sub("_", name)


def _pairs(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    return tuple(sorted((k, str(v)) for k, v in (labels or {}).items()))


def _unescape(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def histogram_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """The ``q``-quantile estimated from histogram buckets.

    Mirrors Prometheus' ``histogram_quantile``: linear interpolation
    inside the bucket the rank falls in, a lower edge of 0 for the
    first bucket, and the highest *finite* bound when the rank lands in
    the +Inf bucket (an estimate can't exceed what was measured).

    Args:
        bounds: Finite bucket upper bounds, strictly increasing.
        counts: Per-bucket counts, one longer than ``bounds`` (the last
            slot is the implicit +Inf bucket).
    Returns:
        The estimate, or NaN for an empty histogram (or one with no
        finite buckets).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be within [0, 1]")
    counts = [int(c) for c in counts]
    if len(counts) != len(bounds) + 1:
        raise ValueError(
            f"need {len(bounds) + 1} bucket counts for {len(bounds)} "
            f"bounds, got {len(counts)}"
        )
    if any(c < 0 for c in counts):
        raise ValueError("bucket counts must be non-negative")
    total = sum(counts)
    if total == 0:
        return math.nan
    rank = q * total
    cumulative = 0
    previous = 0.0
    for bound, count in zip(bounds, counts):
        if count > 0 and cumulative + count >= rank:
            if rank <= cumulative:
                return previous
            fraction = (rank - cumulative) / count
            return previous + (bound - previous) * fraction
        cumulative += count
        previous = bound
    # The rank falls in the +Inf bucket; the highest finite bound is
    # the best (and the Prometheus-compatible) answer.
    return bounds[-1] if bounds else math.nan


@dataclass(frozen=True)
class SLObjective:
    """One declarative objective.

    Args:
        name: Short identifier shown in reports and gauge labels.
        kind: ``latency`` (a histogram quantile must stay under
            ``threshold``) or ``error_rate``/``drop_rate`` (the ratio
            ``numerator / denominator`` must stay under ``threshold``).
        threshold: The budget; burn rate is ``value / threshold``.
        metric: Histogram name (latency objectives).
        quantile: Which quantile of ``metric`` (latency objectives).
        numerator / denominator: Counter names (rate objectives); both
            sum across every label set matching their label filters.
        labels / numerator_labels / denominator_labels: Label subsets
            the matched instruments must carry.
        description: Free-form note echoed in reports.
    """

    name: str
    kind: str
    threshold: float
    metric: str = ""
    quantile: float = 0.99
    numerator: str = ""
    denominator: str = ""
    labels: LabelPairs = ()
    numerator_labels: LabelPairs = ()
    denominator_labels: LabelPairs = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an objective needs a name")
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown objective kind {self.kind!r}; expected one "
                f"of {_KINDS}"
            )
        if self.threshold <= 0:
            raise ValueError(f"{self.name}: threshold must be positive")
        if self.kind == "latency":
            if not self.metric:
                raise ValueError(
                    f"{self.name}: a latency objective needs a metric"
                )
            if not 0.0 <= self.quantile <= 1.0:
                raise ValueError(
                    f"{self.name}: quantile must be within [0, 1]"
                )
        else:
            if not self.numerator or not self.denominator:
                raise ValueError(
                    f"{self.name}: a {self.kind} objective needs a "
                    "numerator and a denominator"
                )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "SLObjective":
        """Build one objective from its JSON form (labels as dicts)."""
        if not isinstance(raw, Mapping):
            raise ValueError("each objective must be a JSON object")
        known = {
            "name", "kind", "threshold", "metric", "quantile",
            "numerator", "denominator", "labels", "numerator_labels",
            "denominator_labels", "description",
        }
        name = raw.get("name", "?")
        unknown = set(raw) - known
        if unknown:
            raise ValueError(
                f"objective {name!r} has unknown key(s): {sorted(unknown)}"
            )
        for key in ("threshold", "quantile"):
            value = raw.get(key, 0.0)
            # float() would take "inf" and true.
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(
                    f"objective {name!r}: {key} must be a finite number, "
                    f"got {value!r}"
                )
        for key in ("labels", "numerator_labels", "denominator_labels"):
            labels = raw.get(key)
            if labels is not None and not (
                isinstance(labels, Mapping)
                and all(isinstance(v, str) for v in labels.values())
            ):
                raise ValueError(
                    f"objective {name!r}: {key} must be an object of "
                    f"strings, got {labels!r}"
                )
        return cls(
            name=str(raw.get("name", "")),
            kind=str(raw.get("kind", "")),
            threshold=float(raw.get("threshold", 0.0)),
            metric=str(raw.get("metric", "")),
            quantile=float(raw.get("quantile", 0.99)),
            numerator=str(raw.get("numerator", "")),
            denominator=str(raw.get("denominator", "")),
            labels=_pairs(raw.get("labels")),
            numerator_labels=_pairs(raw.get("numerator_labels")),
            denominator_labels=_pairs(raw.get("denominator_labels")),
            description=str(raw.get("description", "")),
        )


class MetricsView:
    """A uniform, source-agnostic read view over metric values.

    Holds scalar values per ``(name, labels)`` plus histogram states as
    *per-bucket* counts, whether they came from a live registry or a
    parsed Prometheus text export — so an SLO evaluates identically
    against either.
    """

    def __init__(self) -> None:
        self._values: Dict[Tuple[str, LabelPairs], float] = {}
        # (bounds, per-bucket counts incl. +Inf slot)
        self._hists: Dict[
            Tuple[str, LabelPairs], Tuple[Tuple[float, ...], List[int]]
        ] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "MetricsView":
        """Snapshot a live registry."""
        view = cls()
        for (name, labels), instrument in registry:
            key = (_normalize(name), labels)
            if isinstance(instrument, Histogram):
                view._hists[key] = (
                    tuple(instrument.buckets),
                    list(instrument.bucket_counts),
                )
            else:
                view._values[key] = float(instrument.value)
        return view

    @classmethod
    def from_prometheus(cls, text: str) -> "MetricsView":
        """Parse a text exposition (``--metrics-out metrics.prom``).

        Reconstructs histograms from their cumulative ``_bucket``
        series; ``_sum``/``_count`` lines and plain samples land as
        scalar values.  Unparseable lines are skipped, not fatal — a
        foreign exporter's exotic lines must not break an SLO check.

        Raises:
            ValueError: when no line parses as a sample (a JSON export,
                say): every objective would read "no data" and pass.
        """
        view = cls()
        buckets: Dict[Tuple[str, LabelPairs], Dict[float, float]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            match = _PROM_LINE.match(line)
            if match is None:
                continue
            name, _, raw_labels, raw_value = match.groups()
            try:
                value = float(raw_value)
            except ValueError:
                continue
            labels = {
                k: _unescape(v)
                for k, v in _PROM_LABEL.findall(raw_labels or "")
            }
            if name.endswith("_bucket") and "le" in labels:
                le = labels.pop("le")
                bound = math.inf if le == "+Inf" else float(le)
                key = (name[: -len("_bucket")], _pairs(labels))
                buckets.setdefault(key, {})[bound] = value
            else:
                view._values[(name, _pairs(labels))] = value
        if not view._values and not buckets:
            raise ValueError("no Prometheus text samples found")
        for key, by_bound in buckets.items():
            bounds = sorted(by_bound)
            finite = tuple(b for b in bounds if math.isfinite(b))
            counts: List[int] = []
            previous = 0.0
            for bound in bounds:
                cumulative = by_bound[bound]
                counts.append(int(round(cumulative - previous)))
                previous = cumulative
            if math.inf not in by_bound:
                counts.append(0)  # tolerate a missing +Inf line
            view._hists[key] = (finite, counts)
        return view

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def total(self, name: str, labels: LabelPairs = ()) -> float:
        """Sum of scalar values matching ``name`` + label subset.

        NaN when nothing matches (no data is distinct from zero).
        """
        name = _normalize(name)
        wanted = set(labels)
        matched = [
            value
            for (metric, metric_labels), value in self._values.items()
            if metric == name and wanted.issubset(set(metric_labels))
        ]
        return sum(matched) if matched else math.nan

    def quantile(
        self, name: str, q: float, labels: LabelPairs = ()
    ) -> float:
        """Bucket-interpolated quantile over matching histograms."""
        name = _normalize(name)
        wanted = set(labels)
        bounds: Optional[Tuple[float, ...]] = None
        merged: Optional[List[int]] = None
        for (metric, metric_labels), state in self._hists.items():
            if metric != name or not wanted.issubset(set(metric_labels)):
                continue
            if bounds is None:
                bounds = state[0]
                merged = [0] * len(state[1])
            elif state[0] != bounds:
                raise ValueError(
                    f"histogram {name!r} label sets use different "
                    "buckets; quantiles cannot merge them"
                )
            for index, count in enumerate(state[1]):
                merged[index] += count  # type: ignore[index]
        if bounds is None or merged is None:
            return math.nan
        return histogram_quantile(bounds, merged, q)


@dataclass
class SLOStatus:
    """One objective's evaluation result (JSON-ready via
    :meth:`to_payload`)."""

    objective: SLObjective
    value: float
    burn: float
    ok: bool
    no_data: bool

    def to_payload(self) -> Dict:
        return {
            "name": self.objective.name,
            "kind": self.objective.kind,
            "threshold": self.objective.threshold,
            "value": None if math.isnan(self.value) else round(self.value, 6),
            "burn": None if math.isnan(self.burn) else round(self.burn, 4),
            "ok": self.ok,
            "no_data": self.no_data,
            "description": self.objective.description,
        }


class SLOTracker:
    """Evaluate a set of objectives against any metrics source.

    An objective with *no data* (the metric never appeared, or a rate's
    denominator is still zero) evaluates as ``ok`` with ``no_data``
    flagged — a campaign that has not started must not page anyone.
    """

    def __init__(self, objectives: Sequence[SLObjective]) -> None:
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")
        self.objectives: Tuple[SLObjective, ...] = tuple(objectives)

    @classmethod
    def from_config(
        cls, source: Union[str, pathlib.Path, Mapping, Sequence]
    ) -> "SLOTracker":
        """Load objectives from a JSON file, dict or bare list."""
        if isinstance(source, (str, pathlib.Path)):
            raw = json.loads(pathlib.Path(source).read_text("utf-8"))
        else:
            raw = source
        if isinstance(raw, Mapping):
            raw = raw.get("objectives", [])
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ValueError(
                'SLO config must be {"objectives": [...]} or a list'
            )
        return cls([SLObjective.from_dict(entry) for entry in raw])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, source: Union[MetricsView, MetricsRegistry]
    ) -> List[SLOStatus]:
        """Evaluate every objective at this point in time."""
        if isinstance(source, MetricsRegistry):
            source = MetricsView.from_registry(source)
        return [
            self._status(objective, self._from_view(objective, source))
            for objective in self.objectives
        ]

    def check(
        self, source: Union[MetricsView, MetricsRegistry]
    ) -> Tuple[bool, List[SLOStatus]]:
        """``(all objectives ok, statuses)`` — the exit-code shape."""
        statuses = self.evaluate(source)
        return all(status.ok for status in statuses), statuses

    @staticmethod
    def _from_view(objective: SLObjective, view: MetricsView) -> float:
        if objective.kind == "latency":
            return view.quantile(
                objective.metric, objective.quantile, objective.labels
            )
        numerator = view.total(
            objective.numerator, objective.numerator_labels
        )
        denominator = view.total(
            objective.denominator, objective.denominator_labels
        )
        return _ratio(numerator, denominator)

    @staticmethod
    def _status(objective: SLObjective, value: float) -> SLOStatus:
        no_data = math.isnan(value)
        burn = math.nan if no_data else value / objective.threshold
        ok = no_data or burn <= 1.0
        return SLOStatus(
            objective=objective,
            value=value,
            burn=burn,
            ok=ok,
            no_data=no_data,
        )


def _ratio(numerator: float, denominator: float) -> float:
    if math.isnan(denominator) or denominator <= 0:
        return math.nan
    if math.isnan(numerator):
        numerator = 0.0  # the numerator counter simply never fired
    return numerator / denominator

"""Parameter-value frequency in the extremes of the space (Figs. 2, 3).

Section 3.4 of the paper: for each benchmark, take the best and worst
one percent of the sampled configurations by a metric, and count how
often each value of each parameter occurs there.  A value that occurs
far more often than chance strongly contributes to (very good or very
bad) behaviour — e.g. 81 percent of the worst-cycles configurations have
the smallest register file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.designspace.configuration import Configuration
from repro.designspace.space import DesignSpace
from repro.sim.metrics import Metric

from repro.exploration.dataset import DesignSpaceDataset


@dataclass(frozen=True)
class ExtremeFrequencies:
    """Value-occurrence frequencies in one tail of the space.

    Attributes:
        metric: The ranking metric.
        tail: ``"best"`` (lowest metric) or ``"worst"``.
        fraction: Tail size as a fraction of the sample (paper: 0.01).
        frequencies: parameter name -> {value: frequency in [0, 1]}.
            Frequencies are averaged over the suite's programs, each
            program contributing its own tail, as in the paper.
    """

    metric: Metric
    tail: str
    fraction: float
    frequencies: Dict[str, Dict[int, float]]
    marginals: Dict[str, Dict[int, float]]

    def top_value(self, parameter: str) -> Tuple[int, float]:
        """The most frequent value of a parameter and its frequency."""
        values = self.frequencies[parameter]
        value = max(values, key=lambda v: values[v])
        return value, values[value]

    def lift(self, parameter: str, value: int) -> float:
        """Tail frequency of a value relative to its whole-sample share.

        Legality constraints skew the marginals (e.g. wide machines admit
        more port combinations, so width 8 is over half of all *legal*
        points); lift > 1 means a value is genuinely over-represented in
        the tail rather than just common everywhere.
        """
        marginal = self.marginals[parameter][value]
        if marginal == 0.0:
            return 0.0
        return self.frequencies[parameter][value] / marginal


def _tail_indices(
    values: np.ndarray, fraction: float, tail: str
) -> np.ndarray:
    count = max(1, int(round(len(values) * fraction)))
    order = np.argsort(values)
    if tail == "best":
        return order[:count]
    if tail == "worst":
        return order[-count:]
    raise ValueError(f"tail must be 'best' or 'worst', got {tail!r}")


def extreme_frequencies(
    dataset: DesignSpaceDataset,
    metric: Metric,
    tail: str,
    fraction: float = 0.01,
) -> ExtremeFrequencies:
    """Compute per-parameter value frequencies in one tail of the space.

    Each program of the dataset contributes its own best/worst
    ``fraction`` of the shared configuration sample; the frequencies are
    the average over programs of the per-program value shares.
    """
    if not 0.0 < fraction <= 0.5:
        raise ValueError("fraction must be in (0, 0.5]")
    space = dataset.simulator.space
    parameters = space.parameters
    accumulators: Dict[str, Dict[int, float]] = {
        p.name: {value: 0.0 for value in p.values} for p in parameters
    }
    raw = np.array(dataset.configs)
    names = [p.name for p in parameters]

    programs = dataset.programs
    for program in programs:
        values = dataset.values(program, metric)
        indices = _tail_indices(values, fraction, tail)
        tail_size = len(indices)
        for column, name in enumerate(names):
            chosen, counts = np.unique(
                raw[indices, column], return_counts=True
            )
            for value, count in zip(chosen, counts):
                accumulators[name][int(value)] += count / tail_size
    for name in names:
        for value in accumulators[name]:
            accumulators[name][value] /= len(programs)

    marginals: Dict[str, Dict[int, float]] = {}
    sample_size = raw.shape[0]
    for column, name in enumerate(names):
        counts = {value: 0.0 for value in space.parameter(name).values}
        chosen, occurrences = np.unique(raw[:, column], return_counts=True)
        for value, count in zip(chosen, occurrences):
            counts[int(value)] = count / sample_size
        marginals[name] = counts

    return ExtremeFrequencies(
        metric=metric,
        tail=tail,
        fraction=fraction,
        frequencies=accumulators,
        marginals=marginals,
    )


def dominant_values(
    frequencies: ExtremeFrequencies,
    threshold: float = 0.3,
    minimum_lift: float = 1.25,
) -> List[Tuple[str, int, float]]:
    """Parameters with one value dominating a tail.

    A value counts as dominant when its tail frequency reaches
    ``threshold`` *and* it is over-represented relative to its share of
    the whole sample (``lift >= minimum_lift``).  Returns (parameter,
    value, frequency) sorted by frequency — the paper's 'register file 40
    occurs in 81 percent of the worst one percent' style statement.
    """
    result = []
    for parameter, values in frequencies.frequencies.items():
        value, frequency = max(values.items(), key=lambda item: item[1])
        if (
            frequency >= threshold
            and frequencies.lift(parameter, value) >= minimum_lift
        ):
            result.append((parameter, value, frequency))
    result.sort(key=lambda item: -item[2])
    return result

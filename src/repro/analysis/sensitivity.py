"""Per-parameter sensitivity analysis of the design space.

A quantitative companion to the paper's Section 3.4 frequency plots:
how much of a program's metric variation does each parameter explain?
Two complementary measures over the shared configuration sample:

* :func:`main_effects` — the variance of the per-value conditional means
  (a one-way ANOVA main effect), normalised by the total variance;
* :func:`parameter_correlations` — the rank correlation between each
  (encoded) parameter and the metric, signed, so "bigger L2 helps" and
  "more width costs energy" are readable directly.

Both operate on log-metric values so heavy-tailed metrics (EDD) do not
let a few extreme configurations dominate.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.sim.metrics import Metric

from repro.exploration.dataset import DesignSpaceDataset


def _log_values(dataset: DesignSpaceDataset, program: str,
                metric: Metric) -> np.ndarray:
    return np.log10(dataset.values(program, metric))


def _raw_columns(dataset: DesignSpaceDataset) -> Dict[str, np.ndarray]:
    names = [p.name for p in dataset.simulator.space.parameters]
    raw = np.array(dataset.configs)
    return {name: raw[:, i] for i, name in enumerate(names)}


def main_effects(
    dataset: DesignSpaceDataset, program: str, metric: Metric
) -> Dict[str, float]:
    """Fraction of metric variance explained by each parameter alone.

    For each parameter, group the sample by parameter value and compute
    ``Var(E[y | value]) / Var(y)`` — the classic main-effect (first-order
    Sobol) index estimated on the random sample.  Values sum to at most
    ~1 plus interaction effects.

    Caveat: the sample is uniform over the *legal* space, whose
    constraints correlate parameters (e.g. a small L2 forces small L1s),
    so a main effect here measures association under realistic designs,
    not a causal one-factor sweep — use the interval simulator directly
    for causal what-if questions.
    """
    y = _log_values(dataset, program, metric)
    total = y.var()
    if total == 0.0:
        return {
            p.name: 0.0 for p in dataset.simulator.space.parameters
        }
    effects = {}
    for name, column in _raw_columns(dataset).items():
        means = []
        weights = []
        for value in np.unique(column):
            mask = column == value
            means.append(y[mask].mean())
            weights.append(mask.sum())
        means = np.array(means)
        weights = np.array(weights, dtype=float)
        weights /= weights.sum()
        grand = float((weights * means).sum())
        between = float((weights * (means - grand) ** 2).sum())
        effects[name] = between / total
    return effects


def parameter_correlations(
    dataset: DesignSpaceDataset, program: str, metric: Metric
) -> Dict[str, float]:
    """Signed Spearman correlation of each parameter with the metric.

    Negative means growing the parameter lowers (improves) the metric.
    """
    y = _log_values(dataset, program, metric)
    y_ranks = np.argsort(np.argsort(y)).astype(float)
    correlations = {}
    for name, column in _raw_columns(dataset).items():
        x_ranks = np.argsort(np.argsort(column)).astype(float)
        x_std = x_ranks.std()
        y_std = y_ranks.std()
        if x_std == 0.0 or y_std == 0.0:
            correlations[name] = 0.0
            continue
        covariance = np.mean(
            (x_ranks - x_ranks.mean()) * (y_ranks - y_ranks.mean())
        )
        correlations[name] = float(covariance / (x_std * y_std))
    return correlations


def ranked_sensitivities(
    dataset: DesignSpaceDataset, program: str, metric: Metric
) -> Tuple[Tuple[str, float, float], ...]:
    """(parameter, main effect, signed rank correlation), most
    influential first — the one-call summary used in reports."""
    effects = main_effects(dataset, program, metric)
    correlations = parameter_correlations(dataset, program, metric)
    rows = [
        (name, effects[name], correlations[name]) for name in effects
    ]
    rows.sort(key=lambda row: -row[1])
    return tuple(rows)


def suite_main_effects(
    dataset: DesignSpaceDataset, metric: Metric
) -> Dict[str, float]:
    """Main effects averaged across the suite's programs."""
    accumulator: Dict[str, float] = {}
    for program in dataset.programs:
        for name, effect in main_effects(dataset, program, metric).items():
            accumulator[name] = accumulator.get(name, 0.0) + effect
    return {
        name: value / len(dataset.programs)
        for name, value in accumulator.items()
    }

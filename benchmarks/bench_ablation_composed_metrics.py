"""Ablation A7: direct vs composed prediction of ED and EDD.

The paper trains a separate predictor per metric and reports the
heavier products are the hardest (EDD ~21 % vs ~7 % for cycles).  Since
ED/EDD are algebraic products of cycles and energy, an obvious
alternative is to predict the two easy base metrics from the same 32
responses and compose.  This ablation measures both routes.
"""

import numpy as np

from scale import RESPONSES, SAMPLE_SIZE, TRAINING_SIZE

from repro.core import PoolMatrix, evaluate_on_program
from repro.core.multimetric import MultiMetricPredictor
from repro.exploration import format_table, scale_banner
from repro.ml import correlation, rmae
from repro.sim import Metric
from repro.workloads.profile import stable_seed

PROGRAMS = ("gzip", "applu", "swim", "art", "crafty", "mesa")


def test_ablation_composed_metrics(benchmark, spec_dataset, pools,
                                   record_artifact):
    cycles_pool = pools(Metric.CYCLES)
    energy_pool = pools(Metric.ENERGY)
    matrices = {
        metric: PoolMatrix(pools(metric).models(), spec_dataset.configs)
        for metric in (Metric.ED, Metric.EDD)
    }

    def run():
        composed = {Metric.ED: [], Metric.EDD: []}
        direct = {Metric.ED: [], Metric.EDD: []}
        for program in PROGRAMS:
            seed = stable_seed("a7", program)
            response_idx, holdout_idx = spec_dataset.split_indices(
                RESPONSES, seed=seed
            )
            response_configs = spec_dataset.subset_configs(response_idx)
            holdout_configs = spec_dataset.subset_configs(holdout_idx)

            predictor = MultiMetricPredictor(
                cycles_pool.models(exclude=[program]),
                energy_pool.models(exclude=[program]),
            )
            predictor.fit_responses(
                response_configs,
                spec_dataset.subset_values(
                    program, Metric.CYCLES, response_idx
                ),
                spec_dataset.subset_values(
                    program, Metric.ENERGY, response_idx
                ),
            )
            for metric, matrix in matrices.items():
                actual = spec_dataset.subset_values(
                    program, metric, holdout_idx
                )
                prediction = predictor.predict(holdout_configs, metric)
                composed[metric].append(
                    (rmae(prediction, actual),
                     correlation(prediction, actual))
                )
                score = evaluate_on_program(
                    matrix.select(exclude=[program]), spec_dataset, program,
                    responses=RESPONSES, seed=seed,
                )
                direct[metric].append((score.rmae, score.correlation))
        return composed, direct

    composed, direct = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    means = {}
    for metric in (Metric.ED, Metric.EDD):
        for label, data in (("composed", composed), ("direct", direct)):
            mean_rmae = float(np.mean([s[0] for s in data[metric]]))
            mean_corr = float(np.mean([s[1] for s in data[metric]]))
            means[(metric, label)] = (mean_rmae, mean_corr)
            rows.append(
                (metric.value, label, round(mean_rmae, 1),
                 round(mean_corr, 3))
            )
    text = (
        scale_banner(
            "Ablation A7 — composed (cycles x energy) vs direct "
            "prediction of ED/EDD",
            samples=SAMPLE_SIZE, T=TRAINING_SIZE, R=RESPONSES,
            programs=len(PROGRAMS),
        )
        + "\n"
        + format_table(("metric", "route", "rmae%", "corr"), rows)
    )
    record_artifact("ablation_composed_metrics", text)

    # Composition must at least match the direct route on both products
    # (it reuses the easy base targets), and the shared-response design
    # means it costs half the response simulations of two direct fits.
    for metric in (Metric.ED, Metric.EDD):
        assert (means[(metric, "composed")][0]
                < 1.2 * means[(metric, "direct")][0])

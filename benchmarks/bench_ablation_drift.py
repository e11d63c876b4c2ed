"""Ablation A4: accuracy degradation as new programs drift off-suite.

Beyond the paper: the cross-suite experiment (Fig. 12) shows the model
transfers to MiBench, but how far can a new program drift from the
training population before the 32-response characterisation stops
working?  We generate random programs at increasing drift from the
SPEC-like envelope and track accuracy and — crucially — whether the
training-error confidence signal keeps flagging the failures.
"""

import numpy as np

from scale import RESPONSES, SAMPLE_SIZE, TRAINING_SIZE

from repro.core import PoolMatrix, evaluate_on_program
from repro.exploration import DesignSpaceDataset, format_table, scale_banner
from repro.sim import Metric
from repro.workloads import drift_study_suites

DRIFTS = (0.0, 0.5, 1.0)
PROGRAMS_PER_LEVEL = 5


def test_ablation_drift(benchmark, spec_dataset, pools, record_artifact):
    pool = pools(Metric.CYCLES)
    matrix = PoolMatrix(pool.models(), spec_dataset.configs)
    suites = drift_study_suites(PROGRAMS_PER_LEVEL, drifts=DRIFTS, seed=99)

    def run():
        per_level = {}
        for drift, suite in suites.items():
            dataset = DesignSpaceDataset(
                suite, spec_dataset.configs, spec_dataset.simulator
            )
            scores = [
                evaluate_on_program(
                    matrix, dataset, program, responses=RESPONSES,
                    seed=777 + int(drift * 100),
                )
                for program in suite.programs
            ]
            per_level[drift] = scores
        return per_level

    per_level = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    summary = {}
    for drift, scores in per_level.items():
        mean_rmae = float(np.mean([s.rmae for s in scores]))
        mean_corr = float(np.mean([s.correlation for s in scores]))
        mean_train = float(np.mean([s.training_error for s in scores]))
        summary[drift] = (mean_rmae, mean_corr, mean_train)
        rows.append(
            (drift, round(mean_rmae, 1), round(mean_corr, 3),
             round(mean_train, 1))
        )
    text = (
        scale_banner(
            "Ablation A4 — accuracy vs workload drift from the training "
            "population",
            samples=SAMPLE_SIZE, T=TRAINING_SIZE, R=RESPONSES,
            programs_per_level=PROGRAMS_PER_LEVEL,
        )
        + "\n"
        + format_table(
            ("drift", "rmae%", "corr", "training err%"), rows
        )
    )
    record_artifact("ablation_drift", text)

    # In-distribution synthetic programs predict about as well as SPEC.
    assert summary[0.0][0] < 15.0
    # Accuracy degrades with drift...
    assert summary[1.0][0] > summary[0.0][0]
    # ...and the confidence signal rises along with the failure.
    assert summary[1.0][2] > summary[0.0][2]

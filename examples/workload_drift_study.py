"""How far can a new workload drift before the predictor breaks?

A robustness study beyond the paper: generate random programs at
increasing *drift* from the SPEC-like training population and watch
three things —

1. prediction error rises with drift,
2. correlation (the exploration-critical quantity) degrades gracefully,
3. the predictor's own training error rises in lock-step, so the
   architect is warned exactly when not to trust the model.

Run:  python examples/workload_drift_study.py
"""

import numpy as np

from repro import (
    DesignSpaceDataset,
    Metric,
    PoolMatrix,
    TrainingPool,
    evaluate_on_program,
    spec2000_suite,
)
from repro.workloads import drift_study_suites

DRIFTS = (0.0, 0.25, 0.5, 0.75, 1.0)
PROGRAMS_PER_LEVEL = 6


def main() -> None:
    spec = spec2000_suite()
    spec_dataset = DesignSpaceDataset.sampled(spec, sample_size=1000, seed=17)
    pool = TrainingPool(spec_dataset, Metric.CYCLES, training_size=512,
                        seed=0)
    models = pool.models()
    print(f"Offline pool: {len(models)} SPEC-trained models\n")
    # Every drift level shares the SPEC dataset's configurations, so one
    # matrix of the pool's predictions serves them all.
    matrix = PoolMatrix(models, spec_dataset.configs)

    suites = drift_study_suites(PROGRAMS_PER_LEVEL, drifts=DRIFTS, seed=23)
    print(f"{'drift':>5} | {'rmae':>6} | {'corr':>6} | {'train err':>9} | "
          "verdict")
    print("-" * 55)
    for drift, suite in suites.items():
        dataset = DesignSpaceDataset(
            suite, spec_dataset.configs, spec_dataset.simulator
        )
        scores = [
            evaluate_on_program(matrix, dataset, program, responses=32,
                                seed=31)
            for program in suite.programs
        ]
        rmae = np.mean([s.rmae for s in scores])
        corr = np.mean([s.correlation for s in scores])
        train = np.mean([s.training_error for s in scores])
        verdict = ("ok" if train < 5.0
                   else "caution: behaviour drifting off the training population")
        print(f"{drift:>5.2f} | {rmae:>5.1f}% | {corr:>6.3f} | "
              f"{train:>8.1f}% | {verdict}")

    print(
        "\nThe training error (computed from the 32 responses alone, no "
        "extra simulation)\nrises together with the true error: the model "
        "knows when it is out of its depth."
    )


if __name__ == "__main__":
    main()

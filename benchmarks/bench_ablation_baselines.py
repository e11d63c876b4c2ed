"""Ablation A6: the related-work baseline family under equal budgets.

Section 9.4 of the paper groups the prior program-specific predictors
into linear-regression, spline-regression and ANN families and argues
all of them share the same flaw: they need many simulations *per
program*.  This ablation fits all three families at increasing budgets
and places the architecture-centric model (at its fixed 32 responses)
on the same axis.
"""

import numpy as np

from scale import RESPONSES, SAMPLE_SIZE, TRAINING_SIZE

from repro.core import (
    LinearBaselinePredictor,
    PoolMatrix,
    SplineBaselinePredictor,
    evaluate_on_program,
)
from repro.core.program_model import ProgramSpecificPredictor
from repro.exploration import format_series, scale_banner
from repro.ml import correlation, rmae
from repro.sim import Metric
from repro.workloads.profile import stable_seed

PROGRAMS = ("gzip", "applu", "swim", "art")
BUDGETS = (32, 128, 512)

_FAMILIES = {
    "linear (Joseph et al.)": LinearBaselinePredictor,
    "spline (Lee & Brooks)": SplineBaselinePredictor,
    "ANN (Ipek et al.)": ProgramSpecificPredictor,
}


def test_ablation_baselines(benchmark, spec_dataset, pools, record_artifact):
    pool = pools(Metric.CYCLES)
    space = spec_dataset.simulator.space

    def run():
        series = {name: [] for name in _FAMILIES}
        corr_series = {name: [] for name in _FAMILIES}
        for budget in BUDGETS:
            for name, family in _FAMILIES.items():
                errors, correlations = [], []
                for program in PROGRAMS:
                    train_idx, test_idx = spec_dataset.split_indices(
                        budget,
                        seed=stable_seed("a6", program, str(budget)),
                    )
                    kwargs = {}
                    if family is ProgramSpecificPredictor:
                        kwargs["seed"] = stable_seed("a6-net", program)
                    model = family(
                        space, Metric.CYCLES, program, **kwargs
                    ).fit(
                        spec_dataset.subset_configs(train_idx),
                        spec_dataset.subset_values(
                            program, Metric.CYCLES, train_idx
                        ),
                    )
                    predictions = model.predict(
                        spec_dataset.subset_configs(test_idx)
                    )
                    actual = spec_dataset.subset_values(
                        program, Metric.CYCLES, test_idx
                    )
                    errors.append(rmae(predictions, actual))
                    correlations.append(correlation(predictions, actual))
                series[name].append(float(np.mean(errors)))
                corr_series[name].append(float(np.mean(correlations)))

        matrix = PoolMatrix(pool.models(), spec_dataset.configs)
        ours = [
            evaluate_on_program(
                matrix.select(exclude=[program]), spec_dataset, program,
                responses=RESPONSES,
                seed=stable_seed("a6-ours", program),
            )
            for program in PROGRAMS
        ]
        ours_rmae = float(np.mean([score.rmae for score in ours]))
        ours_corr = float(np.mean([score.correlation for score in ours]))
        return series, corr_series, ours_rmae, ours_corr

    series, corr_series, ours_rmae, ours_corr = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    text = (
        scale_banner(
            "Ablation A6 — program-specific families vs budget "
            "(architecture-centric fixed at 32 responses)",
            samples=SAMPLE_SIZE, T=TRAINING_SIZE, programs=len(PROGRAMS),
        )
        + "\n\nrmae (%)\n"
        + format_series("sims", list(BUDGETS), series)
        + "\n\ncorrelation\n"
        + format_series("sims", list(BUDGETS), corr_series)
        + f"\n\narchitecture-centric @ {RESPONSES} responses: "
        f"rmae {ours_rmae:.1f}%, corr {ours_corr:.3f}"
    )
    record_artifact("ablation_baselines", text)

    # At a 32-simulation budget every program-specific family loses to
    # the architecture-centric model.
    for name in _FAMILIES:
        assert ours_rmae < series[name][0]
        assert ours_corr > corr_series[name][0]
    # The spline family beats plain linear (as its authors report).
    assert series["spline (Lee & Brooks)"][-1] < series["linear (Joseph et al.)"][-1]

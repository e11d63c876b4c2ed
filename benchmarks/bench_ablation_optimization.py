"""Ablation A5: predicting recompiled binaries (the intro's use case).

The paper's introduction argues that under program-specific predictors
"there is a large overhead even if the designer just wants to compile
with a different optimization level".  This ablation plays the scenario
out: the offline pool holds the standard (-O2-class) SPEC binaries; the
new programs are -O0/-O3/unrolled rebuilds of pool members.  The
architecture-centric model should characterise each rebuild from 32
responses far better than a fresh program-specific model can.
"""

import numpy as np

from scale import RESPONSES, SAMPLE_SIZE, TRAINING_SIZE

from repro.core import (
    PoolMatrix,
    evaluate_on_program,
    program_specific_score,
)
from repro.exploration import DesignSpaceDataset, format_table, scale_banner
from repro.sim import Metric
from repro.workloads import BenchmarkSuite, optimization_variant

BASES = ("gzip", "applu", "crafty")
LEVELS = ("O0", "O3", "unrolled")


def test_ablation_optimization(benchmark, spec_dataset, pools,
                               record_artifact):
    pool = pools(Metric.CYCLES)

    variants = [
        optimization_variant(spec_dataset.suite[base], level)
        for base in BASES
        for level in LEVELS
    ]
    variant_suite = BenchmarkSuite("rebuilds", variants)
    variant_dataset = DesignSpaceDataset(
        variant_suite, spec_dataset.configs, spec_dataset.simulator
    )
    matrix = PoolMatrix(pool.models(), spec_dataset.configs)

    def run():
        rows = []
        for profile in variants:
            ours = evaluate_on_program(
                matrix, variant_dataset, profile.name,
                responses=RESPONSES, seed=808,
            )
            theirs = program_specific_score(
                variant_dataset, profile.name, Metric.CYCLES,
                RESPONSES, seed=808,
            )
            rows.append((profile.name, ours, theirs))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ("rebuild", "ours rmae%", "ours corr", "ps rmae%", "ps corr"),
        [
            (name, round(ours.rmae, 1), round(ours.correlation, 3),
             round(theirs.rmae, 1), round(theirs.correlation, 3))
            for name, ours, theirs in rows
        ],
    )
    ours_mean = float(np.mean([ours.rmae for _, ours, _ in rows]))
    theirs_mean = float(np.mean([theirs.rmae for _, _, theirs in rows]))
    text = (
        scale_banner(
            "Ablation A5 — predicting recompiled binaries at 32 "
            "simulations",
            samples=SAMPLE_SIZE, T=TRAINING_SIZE, R=RESPONSES,
            rebuilds=len(rows),
        )
        + "\n"
        + table
        + f"\n\nmean rmae: ours {ours_mean:.1f}%  "
        f"program-specific {theirs_mean:.1f}%"
    )
    record_artifact("ablation_optimization", text)

    # The intro's claim: recompilation is cheap for our model, expensive
    # for the program-specific one.
    assert ours_mean < 0.6 * theirs_mean
    ours_corr = np.mean([ours.correlation for _, ours, _ in rows])
    theirs_corr = np.mean([theirs.correlation for _, _, theirs in rows])
    assert ours_corr > theirs_corr + 0.2

"""Smoke tests for the per-figure experiment runners (tiny scale)."""

import pytest

from repro.exploration import (
    DesignSpaceDataset,
    comparison_sweep,
    motivation_experiment,
    response_sweep,
    training_programs_sweep,
    training_size_sweep,
)
from repro.exploration.experiments import (
    SweepPoint,
    mibench_experiment,
    spec_error_experiment,
)
from repro.sim import Metric
from tests import numeric_env

#: The environment the exact sweep values below were recorded under.
#: Their last bits follow the BLAS kernel and the SIMD loops numpy
#: dispatches to (see ``TestFig11Guard`` in ``tests/core/test_crossval.py``),
#: so they are asserted only here; the tests' own checks hold everywhere.
RECORDED_ENVIRONMENT = {
    "numpy": "2.4.6",
    "blas": ("scipy-openblas", "0.3.31.188.0"),
    "blas_core": "SkylakeX",
    "simd": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
}


def assert_exact_points(result, *points):
    """``result.points`` equal ``points``' (budget, rmae mean, rmae std,
    correlation mean, correlation std) rows exactly, under the recorded
    environment."""
    if numeric_env.matches(RECORDED_ENVIRONMENT):
        assert result.points == tuple(SweepPoint(*row) for row in points)


class TestMotivation:
    def test_architecture_centric_wins(self, small_dataset):
        result = motivation_experiment(
            small_dataset, "applu", Metric.ENERGY,
            responses=32, training_size=256,
        )
        assert result.architecture_centric_rmae < result.program_specific_rmae

    def test_series_sorted_by_actual(self, small_dataset):
        result = motivation_experiment(
            small_dataset, "applu", Metric.ENERGY,
            responses=32, training_size=256,
        )
        assert list(result.actual) == sorted(result.actual)
        assert len(result.actual) == len(small_dataset) - 32


class TestSweeps:
    def test_training_size_sweep_improves(self, small_dataset):
        result = training_size_sweep(
            small_dataset, Metric.CYCLES, sizes=(16, 256),
            repeats=1, programs=["applu", "swim"],
        )
        assert result.points[0].rmae_mean > result.points[1].rmae_mean
        assert result.points[1].correlation_mean > result.points[0].correlation_mean
        assert_exact_points(
            result,
            (16, 29.911777115469157, 2.91614244964002,
             0.42562124227819953, 0.09829799128273928),
            (256, 20.35342780117464, 0.6958174359795404,
             0.6608368984127477, 0.019856049966445355),
        )

    def test_response_sweep_runs(self, small_dataset):
        result = response_sweep(
            small_dataset, Metric.CYCLES, counts=(8, 32),
            training_size=256, repeats=1, programs=["applu"],
        )
        assert result.budgets() == [8, 32]
        assert all(p.rmae_mean > 0 for p in result.points)
        assert_exact_points(
            result,
            (8, 19.377236194448912, 0.0, 0.7295020668355355, 0.0),
            (32, 17.092385707775055, 0.0, 0.7167070013088964, 0.0),
        )

    def test_comparison_sweep_headline(self, small_dataset):
        result = comparison_sweep(
            small_dataset, Metric.CYCLES, budgets=(32,),
            training_size=256, repeats=1, programs=["applu", "swim"],
        )
        ours = result.architecture_centric.points[0]
        theirs = result.program_specific.points[0]
        assert ours.rmae_mean < theirs.rmae_mean
        assert ours.correlation_mean > theirs.correlation_mean
        assert_exact_points(
            result.architecture_centric,
            (32, 16.317239179460973, 0.7751465283140808,
             0.7815849108860808, 0.06487790957718442),
        )
        assert_exact_points(
            result.program_specific,
            (32, 29.40315743929731, 3.8335355350214186,
             0.4869477723257397, 0.055224537655830214),
        )

    def test_crossover_detection(self, small_dataset):
        result = comparison_sweep(
            small_dataset, Metric.CYCLES, budgets=(32, 256),
            training_size=256, repeats=1, programs=["applu"],
        )
        crossover = result.crossover_budget()
        assert crossover is None or crossover in (32, 256)
        assert_exact_points(
            result.architecture_centric,
            (32, 17.092385707775055, 0.0, 0.7167070013088964, 0.0),
            (256, 17.91542385811212, 0.0, 0.7281536448148899, 0.0),
        )
        assert_exact_points(
            result.program_specific,
            (32, 33.23669297431873, 0.0, 0.43172323466990953, 0.0),
            (256, 19.116664859190085, 0.0, 0.6913977879690565, 0.0),
        )

    def test_training_programs_sweep(self, small_dataset):
        result = training_programs_sweep(
            small_dataset, Metric.CYCLES, pool_sizes=(2, 4),
            training_size=256, responses=32, repeats=1,
        )
        assert [p.budget for p in result.points] == [2, 4]
        assert_exact_points(
            result,
            (2, 20.248456545372772, 4.136592010262911,
             0.6935154703159101, 0.04293072021378683),
            (4, 16.441833867138754, 1.2519783117219205,
             0.7284093820754294, 0.04853360461721079),
        )

    def test_training_programs_sweep_bounds(self, small_dataset):
        with pytest.raises(ValueError):
            training_programs_sweep(
                small_dataset, Metric.CYCLES,
                pool_sizes=(len(small_dataset.programs),),
            )


class TestCrossValidationWrappers:
    def test_spec_error_experiment(self, small_dataset):
        result = spec_error_experiment(small_dataset, Metric.CYCLES,
                                       repeats=1, training_size=256)
        assert set(result.summaries) == set(small_dataset.programs)

    def test_mibench_experiment(self, small_dataset, mibench, configs,
                                simulator):
        target = DesignSpaceDataset(
            mibench.subset(["sha", "fft"]), configs, simulator
        )
        result = mibench_experiment(small_dataset, target, Metric.CYCLES,
                                    repeats=1, training_size=256)
        assert set(result.summaries) == {"sha", "fft"}


class TestRobustnessSweeps:
    def test_noise_sweep_degrades_gracefully(self, small_dataset):
        from repro.exploration import noise_sweep
        result = noise_sweep(
            small_dataset, Metric.CYCLES, noise_levels=(0.0, 0.3),
            training_size=256, responses=24, programs=["applu"],
        )
        assert [p.budget for p in result.points] == [0, 30]
        assert result.points[1].rmae_mean > result.points[0].rmae_mean
        assert_exact_points(
            result,
            (0, 21.58759299155745, 0.0, 0.6942889384348285, 0.0),
            (30, 22.32660097595342, 0.0, 0.6790149710448433, 0.0),
        )

    def test_noise_sweep_rejects_negative_noise(self, small_dataset):
        from repro.exploration import noise_sweep
        with pytest.raises(ValueError):
            noise_sweep(small_dataset, Metric.CYCLES,
                        noise_levels=(-0.1,), training_size=256)

    def test_drift_sweep_runs(self, small_dataset):
        from repro.exploration import drift_sweep
        result = drift_sweep(
            small_dataset, Metric.CYCLES, drifts=(0.0, 1.0),
            programs_per_level=2, training_size=256, responses=24,
        )
        assert [p.budget for p in result.points] == [0, 100]
        assert all(p.rmae_mean > 0 for p in result.points)
        assert_exact_points(
            result,
            (0, 12.565193011406851, 3.377287335725751,
             0.793143581220612, 0.03901199036003494),
            (100, 10.89236097365781, 0.6995005402986223,
             0.6644200164595411, 0.03645551545831299),
        )

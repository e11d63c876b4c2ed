"""Tests for the cross-validation harnesses (at reduced scale, plus one
leave-one-out guard at the paper's scale)."""

import numpy as np
import pytest

from repro.core import (
    cross_suite,
    evaluate_on_program,
    leave_one_out,
    program_specific_score,
)
from repro.exploration import DesignSpaceDataset
from repro.sim import Metric
from repro.workloads import spec2000_suite


class TestEvaluateOnProgram:
    def test_score_fields(self, cycles_pool, small_dataset):
        models = cycles_pool.models(exclude=["swim"])
        score = evaluate_on_program(models, small_dataset, "swim",
                                    responses=32, seed=5)
        assert score.program == "swim"
        assert score.metric is Metric.CYCLES
        assert score.responses == 32
        assert 0 <= score.rmae < 100
        assert -1 <= score.correlation <= 1

    def test_seed_changes_split(self, cycles_pool, small_dataset):
        models = cycles_pool.models(exclude=["swim"])
        a = evaluate_on_program(models, small_dataset, "swim", seed=1)
        b = evaluate_on_program(models, small_dataset, "swim", seed=2)
        assert a.rmae != b.rmae


class TestLeaveOneOut:
    @pytest.fixture(scope="class")
    def result(self, small_dataset):
        return leave_one_out(
            small_dataset, Metric.CYCLES, training_size=128,
            responses=32, repeats=2, seed=0,
        )

    def test_covers_every_program(self, result, small_dataset):
        assert set(result.summaries) == set(small_dataset.programs)

    def test_repeats_recorded(self, result):
        assert all(len(s.scores) == 2 for s in result.summaries.values())

    def test_mean_rmae_reasonable(self, result):
        assert 0 < result.mean_rmae < 60

    def test_correlation_positive(self, result):
        assert result.mean_correlation > 0.5

    def test_art_is_harder_than_average(self, result):
        """The outlier must show elevated error (Section 7.2)."""
        assert result.program("art").mean_rmae > result.mean_rmae

    def test_program_lookup_unknown(self, result):
        with pytest.raises(KeyError):
            result.program("doom")

    def test_restricted_targets(self, small_dataset):
        result = leave_one_out(
            small_dataset, Metric.CYCLES, training_size=128,
            responses=16, repeats=1, programs=["gzip"],
        )
        assert set(result.summaries) == {"gzip"}


class TestFig11Guard:
    """Leave-one-out on all 26 SPEC programs at the paper's scale: 3,000
    sampled configurations, T = 512 training simulations per program
    and R = 32 responses for the left-out one (fig. 11)."""

    #: Exact (mean rmae %, mean correlation) per seed, recorded with
    #: numpy 2.4.6 on OpenBLAS 0.3.31.  BLAS kernels differ across CPUs
    #: and numpy builds, and CI installs whatever numpy pip resolves, so
    #: the exact pair is asserted only under the recorded numpy version;
    #: the band holds everywhere.
    RECORDED_NUMPY = "2.4.6"
    EXACT = {
        2007: (8.241904658055915, 0.9242415672718197),
        11: (7.8359371640831075, 0.9318034465729904),
    }

    @pytest.mark.parametrize("seed", sorted(EXACT))
    def test_paper_scale_accuracy(self, seed):
        dataset = DesignSpaceDataset.sampled(spec2000_suite(), 3000, seed=seed)
        result = leave_one_out(
            dataset, Metric.CYCLES, training_size=512, responses=32,
            repeats=1, seed=seed,
        )
        # The benchmark's fig. 11 guard (the paper reports ~7% / 0.95).
        assert result.mean_rmae <= 9.0
        assert result.mean_correlation >= 0.91
        # art is the suite's outlier (Section 7.2).
        assert result.program("art").mean_rmae > result.mean_rmae
        if np.__version__ == self.RECORDED_NUMPY:
            assert (result.mean_rmae, result.mean_correlation) == self.EXACT[seed]


class TestCrossSuite:
    def test_spec_predicts_mibench(self, small_dataset, mibench, configs,
                                   simulator):
        target = DesignSpaceDataset(
            mibench.subset(["qsort", "sha", "fft"]), configs, simulator
        )
        result = cross_suite(
            small_dataset, target, Metric.CYCLES,
            training_size=128, responses=32, repeats=1, seed=3,
        )
        assert set(result.summaries) == {"qsort", "sha", "fft"}
        assert result.mean_correlation > 0.5


class TestProgramSpecificScore:
    def test_large_training_beats_small(self, small_dataset):
        small = program_specific_score(small_dataset, "gzip",
                                       Metric.CYCLES, 16, seed=9)
        large = program_specific_score(small_dataset, "gzip",
                                       Metric.CYCLES, 256, seed=9)
        assert large.rmae < small.rmae
        assert large.correlation > small.correlation

    def test_training_error_reported(self, small_dataset):
        score = program_specific_score(small_dataset, "gzip",
                                       Metric.CYCLES, 64, seed=9)
        assert score.training_error >= 0

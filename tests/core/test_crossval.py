"""Tests for the cross-validation harnesses (at reduced scale, plus one
leave-one-out guard at the paper's scale)."""

import numpy as np
import pytest

from repro.core import (
    PoolMatrix,
    cross_suite,
    evaluate_on_program,
    leave_one_out,
    program_specific_score,
)
from repro.exploration import DesignSpaceDataset
from repro.sim import Metric
from repro.workloads import spec2000_suite
from tests import numeric_env


@pytest.fixture(scope="module")
def cycles_matrix(cycles_pool, small_dataset):
    return PoolMatrix(cycles_pool.models(), small_dataset.configs)


class TestEvaluateOnProgram:
    def test_score_fields(self, cycles_matrix, small_dataset):
        models = cycles_matrix.select(exclude=["swim"])
        score = evaluate_on_program(models, small_dataset, "swim",
                                    responses=32, seed=5)
        assert score.program == "swim"
        assert score.metric is Metric.CYCLES
        assert score.responses == 32
        assert 0 <= score.rmae < 100
        assert -1 <= score.correlation <= 1

    def test_seed_changes_split(self, cycles_matrix, small_dataset):
        models = cycles_matrix.select(exclude=["swim"])
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

    #: Exact (mean rmae %, mean correlation) per seed, recorded under
    #: ``RECORDED_ENVIRONMENT``.  The last bits follow the BLAS kernel
    #: OpenBLAS picks for the CPU at run time and the SIMD loops numpy
    #: dispatches to, and CI installs whatever numpy pip resolves on
    #: whatever runner it gets, so the exact pair is asserted only under
    #: the recorded environment; the band holds everywhere.
    RECORDED_ENVIRONMENT = {
        "numpy": "2.4.6",
        "blas": ("scipy-openblas", "0.3.31.188.0"),
        "blas_core": "SkylakeX",
        "simd": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
    }
    EXACT = {
        2007: (8.241904658055914, 0.9242415672718194),
        11: (7.835937164083104, 0.9318034465729904),
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
        if numeric_env.matches(self.RECORDED_ENVIRONMENT):
            assert (result.mean_rmae, result.mean_correlation) == self.EXACT[seed]

    def test_unreadable_blas_core_never_matches(self, monkeypatch):
        monkeypatch.setattr(numeric_env, "openblas_core", lambda: None)
        unreadable = numeric_env.numerical_environment()
        assert unreadable["blas_core"] is None
        assert not numeric_env.matches(unreadable)


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

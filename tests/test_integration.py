"""End-to-end integration tests: the paper's headline claims in miniature.

These run the full stack — workload profiles through the interval
simulator into the learning pipeline — at reduced scale and assert the
*shape* results the paper reports (Section 5 of DESIGN.md).
"""

import numpy as np
import pytest

from repro import (
    ArchitectureCentricPredictor,
    Metric,
    PoolMatrix,
    TrainingPool,
    evaluate_on_program,
    program_specific_score,
)


class TestHeadlineClaim:
    """Architecture-centric beats program-specific at 32 simulations."""

    @pytest.fixture(scope="class")
    def scores(self, small_dataset, cycles_pool):
        ours, theirs = [], []
        matrix = PoolMatrix(cycles_pool.models(), small_dataset.configs)
        for program in small_dataset.programs:
            ours.append(
                evaluate_on_program(matrix.select(exclude=[program]),
                                    small_dataset, program,
                                    responses=32, seed=31)
            )
            theirs.append(
                program_specific_score(small_dataset, program,
                                       Metric.CYCLES, 32, seed=31)
            )
        return ours, theirs

    def test_error_is_substantially_lower(self, scores):
        ours, theirs = scores
        our_mean = np.mean([s.rmae for s in ours])
        their_mean = np.mean([s.rmae for s in theirs])
        assert our_mean < 0.65 * their_mean

    def test_correlation_is_substantially_higher(self, scores):
        ours, theirs = scores
        our_mean = np.mean([s.correlation for s in ours])
        their_mean = np.mean([s.correlation for s in theirs])
        assert our_mean > their_mean + 0.1
        assert our_mean > 0.8

    def test_training_error_predicts_testing_error(self, scores):
        """Section 7.2: ranking by training error correlates with the
        testing-error ranking."""
        ours, _ = scores
        train = np.array([s.training_error for s in ours])
        test = np.array([s.rmae for s in ours])
        train_ranks = np.argsort(np.argsort(train))
        test_ranks = np.argsort(np.argsort(test))
        spearman = np.corrcoef(train_ranks, test_ranks)[0, 1]
        assert spearman > 0.3


class TestPredictorComposition:
    def test_weights_reflect_similarity(self, small_dataset, cycles_pool):
        """Predicting swim (memory-streaming fp) must lean on the
        memory-bound programs; exact attribution is not unique because
        the model columns are collinear, so assert the aggregate."""
        models = cycles_pool.models(exclude=["swim"])
        predictor = ArchitectureCentricPredictor(models)
        idx, _ = small_dataset.split_indices(32, seed=41)
        predictor.fit_responses(
            small_dataset.subset_configs(idx),
            small_dataset.subset_values("swim", Metric.CYCLES, idx),
        )
        weights = predictor.program_weights
        memory_bound = max(abs(weights["applu"]), abs(weights["art"]))
        assert memory_bound > 0.1

    def test_predicting_program_in_pool_is_near_exact(
        self, small_dataset, cycles_pool
    ):
        """If the 'new' program was in the training pool the combination
        should essentially pick its own model."""
        models = cycles_pool.models()  # includes gzip itself
        predictor = ArchitectureCentricPredictor(models)
        idx, rest = small_dataset.split_indices(32, seed=43)
        predictor.fit_responses(
            small_dataset.subset_configs(idx),
            small_dataset.subset_values("gzip", Metric.CYCLES, idx),
        )
        scores = predictor.evaluate(
            small_dataset.subset_configs(rest),
            small_dataset.subset_values("gzip", Metric.CYCLES, rest),
        )
        solo = program_specific_score(
            small_dataset, "gzip", Metric.CYCLES, 256, seed=43
        )
        assert scores["rmae"] < solo.rmae * 1.5


class TestMetricOrdering:
    def test_heavier_metrics_are_harder(self, small_dataset):
        """Error ordering: cycles/energy < ED < EDD (Section 6.2)."""
        errors = {}
        for metric in (Metric.ENERGY, Metric.ED, Metric.EDD):
            pool = TrainingPool(small_dataset, metric,
                                training_size=256, seed=7)
            matrix = PoolMatrix(pool.models(), small_dataset.configs)
            scores = [
                evaluate_on_program(
                    matrix.select(exclude=[p]), small_dataset, p,
                    responses=32, seed=47,
                ).rmae
                for p in ("applu", "swim", "mesa")
            ]
            errors[metric] = np.mean(scores)
        assert errors[Metric.ENERGY] < errors[Metric.ED] < errors[Metric.EDD]

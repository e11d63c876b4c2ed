"""The pool matrix against the per-fold algorithm it replaces.

Before the pool matrix, every fold encoded its own response and
held-out configurations and ran its models over them.  That algorithm
is kept here as the oracle: run with the row-pure pass
(``log_model_matrix_invariant``) on each fold's own configurations it
must equal the indexed fold exactly, and run through the BLAS path
(``fit_responses`` / ``predict``) within the last bits.
"""

import numpy as np
import pytest

from repro.core import (
    ArchitectureCentricPredictor,
    PoolMatrix,
    PredictionScore,
    TrainingPool,
    cross_suite,
    evaluate_on_program,
    leave_one_out,
)
from repro.core import crossval
from repro.designspace import DesignSpace, sample_configurations
from repro.exploration import DesignSpaceDataset, experiments
from repro.ml.ensemble import StackedEnsemble
from repro.ml.metrics import correlation, rmae
from repro.sim import Metric

RESPONSE_COUNTS = (2, 3, 5, 31, 32, 33)


def per_fold_score(models, dataset, program, responses, seed, invariant):
    """The fold as it ran before the pool matrix: one encode and one
    forward pass over the fold's own configurations, per fold."""
    metric = models[0].metric
    response_idx, holdout_idx = dataset.split_indices(responses, seed=seed)
    response_configs = dataset.subset_configs(response_idx)
    holdout_configs = dataset.subset_configs(holdout_idx)
    response_values = dataset.subset_values(program, metric, response_idx)
    predictor = ArchitectureCentricPredictor(models)
    if invariant:
        ensemble = StackedEnsemble.from_models(models)
        predictor.fit_design(
            ensemble.log_model_matrix_invariant(response_configs),
            response_values,
        )
        predictions = predictor.predict_design(
            ensemble.log_model_matrix_invariant(holdout_configs)
        )
    else:
        predictor.fit_responses(response_configs, response_values)
        predictions = predictor.predict(holdout_configs)
    actual = dataset.subset_values(program, metric, holdout_idx)
    return PredictionScore(
        program=program,
        metric=metric,
        rmae=rmae(predictions, actual),
        correlation=correlation(predictions, actual),
        training_error=predictor.training_error,
        responses=responses,
    )


@pytest.fixture(scope="module")
def wide_dataset(small_suite, space, simulator):
    """1,001 configurations: two full 512-row blocks would not fit."""
    return DesignSpaceDataset(
        small_suite, sample_configurations(space, 1001, seed=303), simulator
    )


@pytest.fixture(scope="module")
def wide_pool(wide_dataset):
    return TrainingPool(wide_dataset, Metric.CYCLES, training_size=128,
                        seed=5).train_all()


@pytest.fixture(scope="module")
def cases(small_dataset, cycles_pool, wide_dataset, wide_pool, mibench,
          space, simulator):
    """(models, matrix, dataset, program) per fold kind and dataset."""
    target = DesignSpaceDataset(
        mibench.subset(["qsort", "sha", "fft"]),
        sample_configurations(space, 1001, seed=404), simulator,
    )
    folds = []
    for dataset, pool in ((small_dataset, cycles_pool),
                          (wide_dataset, wide_pool)):
        matrix = PoolMatrix(pool.models(), dataset.configs)
        for program in dataset.programs:  # leave-one-out
            folds.append((pool.models(exclude=[program]),
                          matrix.select(exclude=[program]), dataset, program))
        chosen = ["mesa", "gzip", "art"]  # a fig. 14 draw, in draw order
        for program in ("crafty", "applu", "swim"):
            folds.append((pool.models(include=chosen),
                          matrix.select(include=chosen), dataset, program))
        # cross_suite: the pool's own configurations are not the target's
        suite_matrix = PoolMatrix(pool.models(), target.configs)
        for program in target.programs:
            folds.append((pool.models(), suite_matrix, target, program))
    return folds


class TestFoldOracle:
    @pytest.mark.parametrize("responses", RESPONSE_COUNTS)
    def test_equals_per_fold_row_pure_pass_exactly(self, cases, responses):
        for models, matrix, dataset, program in cases:
            seed = len(dataset) + responses
            got = evaluate_on_program(matrix, dataset, program,
                                      responses=responses, seed=seed)
            want = per_fold_score(models, dataset, program, responses,
                                  seed, invariant=True)
            assert got == want, (len(dataset), program, responses)

    @pytest.mark.parametrize("responses", RESPONSE_COUNTS)
    def test_within_last_bits_of_per_fold_blas_pass(self, cases, responses):
        for models, matrix, dataset, program in cases:
            seed = len(dataset) + responses
            got = evaluate_on_program(matrix, dataset, program,
                                      responses=responses, seed=seed)
            want = per_fold_score(models, dataset, program, responses,
                                  seed, invariant=False)
            for field in ("rmae", "correlation", "training_error"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-12, abs=0.0
                ), (len(dataset), program, responses, field)


class TestPoolMatrix:
    @pytest.fixture(scope="class")
    def many_configs(self, space):
        return sample_configurations(space, 3000, seed=17)

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 3000])
    def test_blocks_equal_one_pass(self, cycles_pool, many_configs, rows):
        models = cycles_pool.models()
        matrix = PoolMatrix(models, many_configs[:rows])
        whole = StackedEnsemble.from_models(models).log_model_matrix_invariant(
            many_configs[:rows]
        )
        assert np.array_equal(matrix.values, whole)
        assert matrix.values.dtype == np.float64
        assert matrix.values.flags.c_contiguous
        assert not matrix.values.flags.writeable
        assert matrix.programs == tuple(m.program for m in models)

    def test_select_shares_values_in_include_order(self, cycles_pool,
                                                   small_dataset):
        matrix = PoolMatrix(cycles_pool.models(), small_dataset.configs)
        chosen = ["swim", "gzip", "art"]
        fold = matrix.select(include=chosen)
        assert fold.values is matrix.values
        assert fold.programs == tuple(chosen)
        assert fold.configs is matrix.configs
        # Member-pure: a column has the same bits whatever else stacks.
        alone = PoolMatrix(cycles_pool.models(include=chosen),
                           small_dataset.configs)
        rows = np.arange(len(small_dataset))
        assert np.array_equal(fold.rows(rows), alone.rows(rows))
        gathered = fold.rows([4, 0, 4])
        assert gathered.flags.c_contiguous
        columns = [matrix.programs.index(name) for name in chosen]
        assert np.array_equal(
            gathered, matrix.values[[4, 0, 4]][:, columns]
        )
        assert matrix.select(exclude=["swim"]).programs == tuple(
            name for name in small_dataset.programs if name != "swim"
        )

    def test_select_unknown_program(self, cycles_pool, small_dataset):
        matrix = PoolMatrix(cycles_pool.models(), small_dataset.configs)
        with pytest.raises(KeyError, match="doom"):
            matrix.select(include=["gzip", "doom"])
        with pytest.raises(KeyError, match="doom"):
            matrix.select(exclude=["doom"])

    def test_unstackable_pool_rejected(self, cycles_pool, small_dataset):
        with pytest.raises(ValueError, match="stack"):
            PoolMatrix([], small_dataset.configs)
        narrow = TrainingPool(small_dataset, Metric.CYCLES, training_size=32,
                              hidden_neurons=4, seed=1)
        mixed = [cycles_pool.model("gzip"), narrow.model("art")]
        with pytest.raises(ValueError, match="stack"):
            PoolMatrix(mixed, small_dataset.configs)

    def test_other_configuration_set_refused(self, cycles_pool,
                                             small_dataset):
        models = cycles_pool.models(exclude=["gzip"])
        partial = PoolMatrix(models, small_dataset.configs[:100])
        with pytest.raises(ValueError, match="configuration set"):
            evaluate_on_program(partial, small_dataset, "gzip")
        # An equal configuration tuple is the same set.
        copied = PoolMatrix(models, list(small_dataset.configs))
        shared = PoolMatrix(models, small_dataset.configs)
        assert (evaluate_on_program(copied, small_dataset, "gzip")
                == evaluate_on_program(shared, small_dataset, "gzip"))


class TestBuildLevels:
    """Each protocol builds its matrices at the level they depend on,
    and no fold encodes a configuration or runs a forward pass."""

    @pytest.fixture
    def probe(self, monkeypatch):
        counts = {"builds": 0, "folds": 0, "in_fold_calls": 0}
        in_fold = []
        build = PoolMatrix.__init__

        def counted_build(self, *args, **kwargs):
            counts["builds"] += 1
            build(self, *args, **kwargs)

        monkeypatch.setattr(PoolMatrix, "__init__", counted_build)

        fold = crossval.evaluate_on_program

        def traced_fold(*args, **kwargs):
            counts["folds"] += 1
            in_fold.append(True)
            try:
                return fold(*args, **kwargs)
            finally:
                in_fold.pop()

        for module in (crossval, experiments):
            monkeypatch.setattr(module, "evaluate_on_program", traced_fold)

        def forbidden_in_fold(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if in_fold:
                    counts["in_fold_calls"] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        forbidden_in_fold(StackedEnsemble, "predict_features")
        forbidden_in_fold(StackedEnsemble, "predict_features_invariant")
        forbidden_in_fold(DesignSpace, "encode_many")
        return counts

    def test_leave_one_out_builds_once_per_repeat(self, probe,
                                                  small_dataset):
        leave_one_out(small_dataset, Metric.CYCLES, training_size=64,
                      responses=16, repeats=2, seed=1)
        assert probe == {"builds": 2, "folds": 12, "in_fold_calls": 0}

    def test_cross_suite_builds_once_per_repeat(self, probe, small_dataset,
                                                mibench, configs,
                                                simulator):
        target = DesignSpaceDataset(mibench.subset(["qsort", "sha"]),
                                    configs[:300], simulator)
        cross_suite(small_dataset, target, Metric.CYCLES, training_size=64,
                    responses=16, repeats=2, seed=1)
        assert probe == {"builds": 2, "folds": 4, "in_fold_calls": 0}

    def test_response_sweep_builds_once_per_pool(self, probe,
                                                 small_dataset):
        experiments.response_sweep(
            small_dataset, Metric.CYCLES, counts=(4, 8, 16),
            training_size=64, repeats=2, programs=["gzip", "art"],
        )
        assert probe == {"builds": 2, "folds": 12, "in_fold_calls": 0}

    def test_training_programs_sweep_builds_once(self, probe,
                                                 small_dataset):
        experiments.training_programs_sweep(
            small_dataset, Metric.CYCLES, pool_sizes=(2, 3),
            training_size=64, responses=16, repeats=2,
        )
        assert probe == {"builds": 1, "folds": 14, "in_fold_calls": 0}

    def test_drift_sweep_builds_once(self, probe, small_dataset):
        experiments.drift_sweep(
            small_dataset, Metric.CYCLES, drifts=(0.0, 0.5),
            programs_per_level=2, training_size=64, responses=16,
        )
        assert probe == {"builds": 1, "folds": 4, "in_fold_calls": 0}

"""Tests for the offline training pool."""

import pytest

from repro.core import TrainingPool
from repro.sim import Metric


class TestTrainingPool:
    def test_models_lazy_and_cached(self, small_dataset):
        pool = TrainingPool(small_dataset, Metric.CYCLES,
                            training_size=64, seed=1)
        first = pool.model("gzip")
        second = pool.model("gzip")
        assert first is second

    def test_train_all_covers_suite(self, cycles_pool, small_dataset):
        models = cycles_pool.models()
        assert len(models) == len(small_dataset.programs)

    def test_exclude(self, cycles_pool, small_dataset):
        models = cycles_pool.models(exclude=["art"])
        assert len(models) == len(small_dataset.programs) - 1
        assert all(model.program != "art" for model in models)

    def test_include(self, cycles_pool):
        models = cycles_pool.models(include=["gzip", "art"])
        assert [model.program for model in models] == ["gzip", "art"]

    def test_unknown_program_rejected(self, cycles_pool):
        with pytest.raises(KeyError):
            cycles_pool.models(include=["doom"])
        with pytest.raises(KeyError):
            cycles_pool.models(exclude=["doom"])

    def test_models_trained_at_requested_size(self, cycles_pool):
        assert cycles_pool.model("gzip").training_size_ == 400

    def test_oversized_training_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="exceeds"):
            TrainingPool(small_dataset, Metric.CYCLES,
                         training_size=len(small_dataset) + 1)

    def test_undersized_training_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            TrainingPool(small_dataset, Metric.CYCLES, training_size=1)

    def test_seed_changes_models(self, small_dataset):
        a = TrainingPool(small_dataset, Metric.CYCLES,
                         training_size=64, seed=1).model("gzip")
        b = TrainingPool(small_dataset, Metric.CYCLES,
                         training_size=64, seed=2).model("gzip")
        config = small_dataset.configs[0]
        assert a.predict_one(config) != b.predict_one(config)

    def test_same_seed_reproduces(self, small_dataset):
        a = TrainingPool(small_dataset, Metric.CYCLES,
                         training_size=64, seed=1).model("gzip")
        b = TrainingPool(small_dataset, Metric.CYCLES,
                         training_size=64, seed=1).model("gzip")
        config = small_dataset.configs[0]
        assert a.predict_one(config) == b.predict_one(config)


class TestParallelTraining:
    """The process pool must be a pure performance knob: any worker
    count yields bit-identical models."""

    def test_parallel_weights_bit_identical_to_serial(self, small_dataset):
        import numpy as np

        serial = TrainingPool(small_dataset, Metric.CYCLES,
                              training_size=64, seed=3).train_all()
        parallel = TrainingPool(small_dataset, Metric.CYCLES,
                                training_size=64, seed=3,
                                n_jobs=4).train_all()
        for program in small_dataset.programs:
            a = serial.model(program).network_weights()
            b = parallel.model(program).network_weights()
            assert a.keys() == b.keys()
            for key in a:
                assert np.array_equal(np.asarray(a[key]),
                                      np.asarray(b[key])), (program, key)

    def test_parallel_predictions_bit_identical(self, small_dataset):
        import numpy as np

        serial = TrainingPool(small_dataset, Metric.CYCLES,
                              training_size=64, seed=3).train_all()
        parallel = TrainingPool(small_dataset, Metric.CYCLES,
                                training_size=64, seed=3,
                                n_jobs=2).train_all()
        batch = small_dataset.configs[:40]
        for program in small_dataset.programs:
            assert np.array_equal(serial.model(program).predict(batch),
                                  parallel.model(program).predict(batch))

    def test_train_all_jobs_override(self, small_dataset):
        pool = TrainingPool(small_dataset, Metric.CYCLES,
                            training_size=64, seed=3)
        pool.train_all(n_jobs=2)
        assert len(pool.models()) == len(small_dataset.programs)

    def test_parallel_training_records_preserved(self, small_dataset):
        serial = TrainingPool(small_dataset, Metric.CYCLES,
                              training_size=64, seed=3).train_all()
        parallel = TrainingPool(small_dataset, Metric.CYCLES,
                                training_size=64, seed=3,
                                n_jobs=2).train_all()
        for program in small_dataset.programs:
            a = serial.model(program)._network.training_record_
            b = parallel.model(program)._network.training_record_
            assert a == b

    def test_fit_spans_and_counter_report_epochs(self, small_dataset):
        """Serial and pooled fits tag each ``train.fit`` span with the
        fit's epoch count and add it to the ``train.epochs`` counter."""
        from repro.obs import scoped_registry, scoped_tracer

        seen = []
        for jobs in (1, 2):
            with scoped_registry() as registry, scoped_tracer() as tracer:
                pool = TrainingPool(small_dataset, Metric.CYCLES,
                                    training_size=64, seed=3,
                                    n_jobs=jobs).train_all()
            epochs = {s["attrs"]["program"]: s["attrs"]["epochs"]
                      for s in tracer.spans if s["name"] == "train.fit"}
            assert epochs == {
                name: pool.model(name).training_record.epochs_run
                for name in small_dataset.programs
            }
            assert registry.value("train.epochs") == sum(epochs.values())
            seen.append(epochs)
        assert seen[0] == seen[1]

    def test_invalid_n_jobs_rejected(self, small_dataset):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="n_jobs"):
                TrainingPool(small_dataset, Metric.CYCLES,
                             training_size=64, n_jobs=bad)

    def test_all_cpus_shorthand(self):
        from repro.parallel import resolve_jobs

        assert resolve_jobs(-1) >= 1
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3

"""Tests for the budget-surrogate calibration."""

import numpy as np
import pytest

from repro.exploration import AccuracyModel, fit_accuracy_model
from repro.exploration.calibration import (
    _nonnegative_least_squares,
    measure_operating_points,
)
from repro.sim import Metric


class TestAccuracyModel:
    def test_monotone_in_all_axes(self):
        model = AccuracyModel(
            base=4.0, training_coefficient=50.0, pool_coefficient=25.0,
            response_coefficient=30.0, residual_rmse=0.5, measurements=6,
        )
        assert model.expected_rmae(512, 10, 32) < model.expected_rmae(64, 10, 32)
        assert model.expected_rmae(512, 20, 32) < model.expected_rmae(512, 5, 32)
        assert model.expected_rmae(512, 10, 64) < model.expected_rmae(512, 10, 8)

    def test_invalid_operating_point_rejected(self):
        model = AccuracyModel(4.0, 50.0, 25.0, 30.0, 0.5, 6)
        with pytest.raises(ValueError):
            model.expected_rmae(1, 10, 32)


class TestFitting:
    @pytest.fixture(scope="class")
    def fitted(self, small_dataset):
        # Tiny designed measurement over the 6-program fixture suite.
        points = ((64, 3, 8), (64, 4, 32), (256, 3, 32), (256, 4, 8),
                  (400, 3, 16))
        return fit_accuracy_model(
            small_dataset, Metric.CYCLES, points=points, seed=1
        )

    def test_fit_reports_residual(self, fitted):
        assert fitted.residual_rmse >= 0.0
        assert fitted.measurements == 5

    def test_fitted_model_predicts_measurements_roughly(self, fitted,
                                                        small_dataset):
        measured = measure_operating_points(
            small_dataset, Metric.CYCLES, [(256, 4, 8)], seed=1
        )[0]
        predicted = fitted.expected_rmae(256, 4, 8)
        assert abs(predicted - measured) < max(6.0, 0.6 * measured)

    def test_too_few_points_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="four"):
            fit_accuracy_model(
                small_dataset, Metric.CYCLES,
                points=((64, 3, 8), (256, 3, 8)),
            )

    def test_oversized_pool_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="pool_size"):
            measure_operating_points(
                small_dataset, Metric.CYCLES,
                [(64, len(small_dataset.programs), 8)],
            )


class TestNonNegativeFit:
    """Every coefficient is >= 0, so the surrogate never predicts a
    negative error and never rises with more T, N or R."""

    @pytest.fixture(scope="class")
    def planning_model(self):
        # examples/budget_planning.py's calibration, whose unbounded
        # fit had a base of -9.95 and predicted -2.6% at (1024, 25, 128).
        from repro import DesignSpaceDataset, spec2000_suite

        suite = spec2000_suite().subset(
            ["gzip", "crafty", "applu", "swim", "mesa", "galgel", "vpr",
             "ammp"]
        )
        dataset = DesignSpaceDataset.sampled(suite, sample_size=800, seed=31)
        return fit_accuracy_model(
            dataset, Metric.CYCLES,
            points=((64, 4, 8), (64, 6, 32), (256, 4, 32), (256, 6, 8),
                    (512, 5, 16)),
            seed=2,
        )

    def test_coefficients_and_predictions_non_negative(self, planning_model):
        model = planning_model
        assert model.base >= 0.0
        assert model.training_coefficient >= 0.0
        assert model.pool_coefficient >= 0.0
        assert model.response_coefficient >= 0.0
        for point in ((512, 25, 32), (512, 25, 64), (1024, 25, 128)):
            assert model.expected_rmae(*point) >= 0.0

    def test_non_increasing_in_every_axis(self, planning_model):
        model = planning_model
        grid = [(t, n, r) for t in (64, 512, 4096) for n in (1, 5, 25)
                for r in (2, 32, 256)]
        for t, n, r in grid:
            here = model.expected_rmae(t, n, r)
            assert model.expected_rmae(2 * t, n, r) <= here
            assert model.expected_rmae(t, n + 1, r) <= here
            assert model.expected_rmae(t, n, 2 * r) <= here

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_nnls(self, seed):
        from scipy.optimize import nnls

        rng = np.random.default_rng(seed)
        rows = int(rng.integers(4, 9))
        design = np.column_stack(
            [np.ones(rows), rng.uniform(0.0, 1.0, (rows, 3))]
        )
        target = rng.normal(5.0, 4.0, rows)
        produced = _nonnegative_least_squares(design, target)
        expected, _ = nnls(design, target)
        assert (produced >= 0.0).all()
        assert np.linalg.norm(design @ produced - target) <= (
            np.linalg.norm(design @ expected - target) + 1e-9
        )
        assert np.allclose(produced, expected, atol=1e-7)

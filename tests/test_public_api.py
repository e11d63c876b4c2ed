"""The top-level package exposes the documented public surface."""

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self, small_dataset, cycles_pool, space):
        """The README quickstart, condensed."""
        models = cycles_pool.models(exclude=["applu"])
        predictor = repro.ArchitectureCentricPredictor(models)
        responses, _ = small_dataset.split_indices(32, seed=1)
        predictor.fit_responses(
            small_dataset.subset_configs(responses),
            small_dataset.subset_values("applu", repro.Metric.CYCLES,
                                        responses),
        )
        prediction = predictor.predict_one(space.baseline)
        actual = small_dataset.simulator.simulate(
            small_dataset.suite["applu"], space.baseline
        ).cycles
        assert abs(prediction - actual) / actual < 0.5

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.designspace
        import repro.exploration
        import repro.ml
        import repro.runtime
        import repro.search
        import repro.serve
        import repro.sim
        import repro.sim.pipeline
        import repro.workloads

    def test_non_serving_packages_do_not_import_asyncio(self):
        """Campaign and leave-one-out processes never load ``asyncio``:
        only ``repro.serve`` and ``repro.load`` need it."""
        import os
        import pathlib
        import subprocess
        import sys

        src_dir = pathlib.Path(repro.__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "import repro.runtime, repro.core, repro.exploration, "
             "repro.cli\n"
             "print('asyncio' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src_dir)},
        )
        assert probe.stdout.strip() == "False"

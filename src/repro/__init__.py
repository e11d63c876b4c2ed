"""repro — architecture-centric microarchitectural design space exploration.

A from-scratch reproduction of Dubach, Jones and O'Boyle,
*Microarchitectural Design Space Exploration Using An Architecture-
Centric Approach* (MICRO-40, 2007; extended in IEEE TC 60(10), 2011).

Quick start::

    from repro import (
        DesignSpace, DesignSpaceDataset, Metric, TrainingPool,
        ArchitectureCentricPredictor, spec2000_suite,
    )

    suite = spec2000_suite()
    dataset = DesignSpaceDataset.sampled(suite, sample_size=1000, seed=0)
    pool = TrainingPool(dataset, Metric.CYCLES, training_size=512)
    models = pool.models(exclude=["applu"])  # offline, once

    predictor = ArchitectureCentricPredictor(models)
    responses, _ = dataset.split_indices(32, seed=1)
    predictor.fit_responses(
        dataset.subset_configs(responses),
        dataset.subset_values("applu", Metric.CYCLES, responses),
    )
    prediction = predictor.predict_one(dataset.simulator.space.baseline)

The subpackages:

* :mod:`repro.designspace` — the 13-parameter space of Table 1.
* :mod:`repro.workloads` — synthetic SPEC CPU 2000 / MiBench substrate.
* :mod:`repro.sim` — interval and pipeline simulators, energy model.
* :mod:`repro.ml` — MLP, linear regression, rmae/correlation.
* :mod:`repro.core` — the architecture-centric predictor itself.
* :mod:`repro.analysis` — space characterisation and clustering.
* :mod:`repro.exploration` — datasets and per-figure experiment runners.
* :mod:`repro.search` — closed-loop design-space search: gym-style
  environment, seeded agents, Pareto frontiers and hypervolume.
* :mod:`repro.runtime` — fault-tolerant, resumable campaign execution.
* :mod:`repro.serve` — model registry and batched HTTP prediction server.
* :mod:`repro.load` — seeded open-loop load generation for the server.
* :mod:`repro.obs` — logging, metrics, tracing, SLOs and run manifests.
"""

from repro.core import (
    ArchitectureCentricPredictor,
    PoolMatrix,
    ProgramSpecificPredictor,
    TrainingPool,
    cross_suite,
    evaluate_on_program,
    leave_one_out,
    program_specific_score,
)
from repro.designspace import Configuration, DesignSpace, sample_configurations
from repro.exploration import DesignSpaceDataset
from repro.ml import correlation, rmae
from repro.sim import IntervalSimulator, Metric
from repro.workloads import mibench_suite, spec2000_suite

__version__ = "1.0.0"

__all__ = [
    "ArchitectureCentricPredictor",
    "Configuration",
    "DesignSpace",
    "DesignSpaceDataset",
    "IntervalSimulator",
    "Metric",
    "PoolMatrix",
    "ProgramSpecificPredictor",
    "TrainingPool",
    "correlation",
    "cross_suite",
    "evaluate_on_program",
    "leave_one_out",
    "mibench_suite",
    "program_specific_score",
    "rmae",
    "sample_configurations",
    "spec2000_suite",
]

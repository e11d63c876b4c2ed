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

import importlib

__version__ = "1.0.0"

#: Each top-level name and the subpackage that defines it.  A name is
#: imported on first access (PEP 562), so ``import repro.sim`` or
#: ``from repro.designspace import ...`` compiles no other subpackage.
_EXPORTS = {
    "ArchitectureCentricPredictor": "repro.core",
    "PoolMatrix": "repro.core",
    "ProgramSpecificPredictor": "repro.core",
    "TrainingPool": "repro.core",
    "cross_suite": "repro.core",
    "evaluate_on_program": "repro.core",
    "leave_one_out": "repro.core",
    "program_specific_score": "repro.core",
    "Configuration": "repro.designspace",
    "DesignSpace": "repro.designspace",
    "sample_configurations": "repro.designspace",
    "DesignSpaceDataset": "repro.exploration",
    "correlation": "repro.ml",
    "rmae": "repro.ml",
    "IntervalSimulator": "repro.sim",
    "Metric": "repro.sim",
    "mibench_suite": "repro.workloads",
    "spec2000_suite": "repro.workloads",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

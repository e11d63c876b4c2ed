"""Saving and loading simulated datasets.

Simulating a dataset is cheap with the interval model but not free, and
downstream users may want to version, share or diff the exact data an
experiment ran on.  A dataset round-trips through a single ``.npz``
archive holding the raw configuration matrix and every cached metric
matrix; loading restores a fully usable
:class:`~repro.exploration.dataset.DesignSpaceDataset` whose values are
served from the archive instead of being re-simulated.

Archives are written through the shared checksummed artifact writer
(:mod:`repro.runtime.artifact`), the same layer behind model pools and
the serving registry: a SHA-256 content digest over every entry is
embedded at save time and verified at load time, so a truncated
download, a bit flip or a hand-edited matrix fails loudly with
:class:`ValueError` — a corrupted archive can never hydrate into a
plausible-looking dataset.  Only the current format version loads.
"""

from __future__ import annotations

import pathlib
from typing import Union

import numpy as np

from repro.designspace.configuration import Configuration
from repro.runtime.artifact import read_archive, write_archive
from repro.sim.interval import IntervalSimulator
from repro.sim.metrics import Metric
from repro.workloads.suite import BenchmarkSuite

from .dataset import DesignSpaceDataset

#: The dataset archive schema; the only version this code reads.
_FORMAT_VERSION = 3


def save_dataset(
    dataset: DesignSpaceDataset, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write a dataset (configurations + all metric matrices) to ``.npz``.

    Every program's metrics are materialised first, so the archive is
    complete regardless of what the caller already touched, and a
    content checksum is embedded so corruption is caught on load.
    """
    payload = {
        "suite_name": np.array(dataset.suite.name),
        "programs": np.array(list(dataset.programs)),
        "configs": np.array(dataset.configs, dtype=np.int64),
    }
    for metric in Metric.all():
        payload[f"metric_{metric.value}"] = dataset.matrix(metric)
    return write_archive(path, payload, _FORMAT_VERSION)


def load_dataset(
    path: Union[str, pathlib.Path],
    suite: BenchmarkSuite,
    simulator: IntervalSimulator | None = None,
) -> DesignSpaceDataset:
    """Load a dataset saved by :func:`save_dataset`.

    Args:
        path: The ``.npz`` archive.
        suite: The suite the archive was built from (profiles are not
            serialised; the caller must supply the same suite, which is
            validated by name and program list).
        simulator: Optional simulator for the restored dataset (used
            only for the design space / any future re-simulation).

    Raises:
        ValueError: if the archive is truncated or otherwise unreadable,
            fails its content checksum, or does not match the supplied
            suite.
    """
    payload = read_archive(path, _FORMAT_VERSION, label="dataset archive")
    suite_name = str(payload["suite_name"])
    programs = [str(name) for name in payload["programs"]]
    if suite.name != suite_name:
        raise ValueError(
            f"archive was built from suite {suite_name!r}, "
            f"got {suite.name!r}"
        )
    if list(suite.programs) != programs:
        raise ValueError(
            "archive program list does not match the supplied suite"
        )
    config_matrix = payload["configs"]
    matrices = []
    for metric in Metric.all():
        matrix = payload[f"metric_{metric.value}"]
        if matrix.shape != (len(programs), len(config_matrix)):
            raise ValueError(
                f"metric matrix {metric.value} has shape {matrix.shape}, "
                f"expected {(len(programs), len(config_matrix))}"
            )
        matrices.append(matrix)
    configs = [Configuration(*row) for row in config_matrix.tolist()]
    dataset = DesignSpaceDataset(suite, configs, simulator)
    for metric, matrix in zip(Metric.all(), matrices):
        for row, program in enumerate(programs):
            dataset.hydrate(program, metric, matrix[row])
    return dataset

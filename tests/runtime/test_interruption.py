"""An interrupted campaign computes only what it journals, and resumes
from any journal record boundary.

The kill-and-resume guarantee is that at most the group in flight is
lost: a run stopped after ``max_cells`` cells must not have asked the
backend for more, and a journal cut after any of its records must
resume into matrices bit-identical to an uninterrupted run.  Both hold
for the serial loop over a suite backend, for ``--jobs 2`` and for a
batch-only fault-injecting backend.
"""

from __future__ import annotations

import shutil

import pytest

from repro.runtime import CampaignRunner, FaultInjectingBackend, RetryPolicy
from repro.sim import Metric

POLICY = RetryPolicy(max_attempts=8, base_delay=0.0)


class CountingBackend:
    """Log one line per profile the wrapped backend computes.

    A log file rather than a counter: process-pool children run pickled
    copies of the backend, and their appends still land in one place.
    """

    def __init__(self, inner, log):
        self.inner = inner
        self.log = log

    def _count(self, profiles) -> None:
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write("".join(f"{p.name}\n" for p in profiles))

    def simulate_batch(self, profile, configs):
        self._count([profile])
        return self.inner.simulate_batch(profile, configs)


class CountingSuiteBackend(CountingBackend):
    def simulate_suite(self, profiles, configs):
        self._count(profiles)
        return self.inner.simulate_suite(profiles, configs)


def _computed(log) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


#: name -> (backend factory over (inner, log), n_jobs)
EXECUTORS = {
    "serial-suite": (CountingSuiteBackend, 1),
    "jobs2-suite": (CountingSuiteBackend, 2),
    # Transient faults fire before the inner backend computes anything,
    # so the log still counts each cell's one successful computation.
    "serial-faulty-batch": (
        lambda inner, log: FaultInjectingBackend(
            CountingBackend(inner, log), seed=13, transient_rate=0.3
        ),
        1,
    ),
}


def _runner(name, backend, directory, log):
    make, n_jobs = EXECUTORS[name]
    return CampaignRunner(
        make(backend, log), directory, chunk_size=16, n_jobs=n_jobs,
        retry_policy=POLICY,
    )


@pytest.mark.parametrize("name", sorted(EXECUTORS))
@pytest.mark.parametrize("max_cells", [1, 2, 4, 5, 9, 11])
def test_interrupted_campaign_computes_only_what_it_journals(
    name, max_cells, backend, tiny_suite, tiny_configs, tmp_path
):
    log = tmp_path / "computed.log"
    runner = _runner(name, backend, tmp_path / "ck", log)
    result = runner.run(tiny_suite, tiny_configs, max_cells=max_cells)
    assert result.simulated_cells == max_cells
    assert len(result.pending_cells) == result.total_cells - max_cells
    assert len(runner.journal.records()) == max_cells
    assert _computed(log) == max_cells


@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_resume_from_every_journal_record_boundary(
    name, backend, tiny_suite, tiny_configs, tmp_path
):
    full_dir = tmp_path / "full"
    full = _runner(name, backend, full_dir, tmp_path / "full.log").run(
        tiny_suite, tiny_configs
    )
    assert full.complete
    total = full.total_cells
    records = (full_dir / "journal.jsonl").read_text().splitlines(
        keepends=True
    )
    assert len(records) == total
    for kept in range(total + 1):
        directory = tmp_path / f"cut{kept}"
        shutil.copytree(full_dir, directory)
        (directory / "journal.jsonl").write_text("".join(records[:kept]))
        log = tmp_path / f"cut{kept}.log"
        resumed = _runner(name, backend, directory, log).run(
            tiny_suite, tiny_configs, resume=True
        )
        assert resumed.complete
        assert resumed.resumed_cells == kept
        assert resumed.simulated_cells == total - kept
        assert _computed(log) == total - kept
        for metric in Metric.all():
            assert resumed.matrix(metric).tobytes() == full.matrix(
                metric
            ).tobytes(), f"{metric} diverged after a cut at {kept}"

"""Chunked, journalled, resumable simulation campaigns.

A campaign is the cross product of programs and a shared configuration
sample — exactly the shape of the paper's offline builds (T = 512
simulations for each of 26 training programs).  The runner splits every
program's configurations into fixed chunks and simulates each (program,
chunk) *cell* behind the retry/breaker machinery.  Cells are committed
a group at a time: one uncompressed ``.npz`` of (cells x
configurations) metric matrices, fsynced and renamed into place, then
one journal write of one line per cell carrying the cell's content
digest, fsynced once.  Interrupt the process at any point and a rerun
resumes from the journal: cells whose rows still match their digests
are loaded from disk, unfinished ones are re-simulated, and the
assembled matrices are bit-identical to an uninterrupted run.

Both executors (the serial loop and the ``--jobs`` process pool) run
the same unit of work, a :class:`CellGroup` of one chunk's unfinished
cells, through :func:`run_group`.  Backends advertising the
program-major ``simulate_suite`` fast path (see
:func:`repro.runtime.backend.supports_suite`) are called once per group;
any other backend gets groups of one cell.  Either way the journal holds
exactly the same cells with exactly the same arrays.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import pathlib
import struct
import time
import uuid
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.designspace.configuration import Configuration
from repro.obs import (
    build_manifest,
    get_logger,
    get_registry,
    get_tracer,
    scoped_registry,
    scoped_tracer,
    span,
    write_manifest,
)
from repro.parallel import resolve_jobs
from repro.sim.interval import BatchResult
from repro.sim.metrics import Metric
from repro.workloads.profile import WorkloadProfile, stable_seed

from .backend import (
    SimulationBackend,
    SimulationError,
    supports_suite,
    validate_batch,
)
from .integrity import array_checksum, batch_checksum
# No caller left here; the benchmark still hooks it.  It goes when the
# benchmark hooks commit_group instead (ROADMAP item 1).
from .integrity import file_checksum  # noqa: F401
from .journal import CampaignJournal
from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy, call_with_retry

if TYPE_CHECKING:  # lazy import keeps runtime free of exploration
    from repro.exploration.dataset import DesignSpaceDataset
    from repro.workloads.suite import BenchmarkSuite

#: Checkpoint layout version: 2 is one file per committed group and
#: one journal line per cell carrying its content digest.
_MANIFEST_VERSION = 2
_METRIC_FIELDS = ("cycles", "energy", "ed", "edd")

_log = get_logger(__name__)


@dataclass(frozen=True)
class CellGroup:
    """The unfinished cells of one chunk: the unit both executors run.

    The serial loop and the process pool both hand groups to
    :func:`run_group`.  A backend with the program-major
    ``simulate_suite`` path simulates a whole group in one call; any
    other backend gets groups of exactly one cell.

    Attributes:
        cells: Cell ids, one per profile.
        profiles: The cells' workload profiles.
        configs: The chunk's configurations, shared by every cell.
        chunk_index: Index of the chunk in the campaign.
        retry_seed: Seed of the group's retry jitter (its first cell's).
    """

    cells: Tuple[str, ...]
    profiles: Tuple[WorkloadProfile, ...]
    configs: Tuple[Configuration, ...]
    chunk_index: int
    retry_seed: int


@dataclass(frozen=True)
class GroupOutcome:
    """What one :func:`run_group` call produced.

    Attributes:
        batches: One result per cell in group order, or ``None`` when
            the group failed.
        attempts: Backend calls made (retries included).
        error: The permanent failure, or ``None``.
        telemetry: With ``capture``, the call's metrics snapshot and
            spans for the caller to merge; otherwise ``None``.
    """

    batches: Optional[List[BatchResult]]
    attempts: int
    error: Optional[SimulationError]
    telemetry: Optional[dict] = None


def run_group(
    group: CellGroup,
    backend: SimulationBackend,
    policy: RetryPolicy,
    *,
    breaker: Optional[CircuitBreaker] = None,
    sleep=None,
    clock=None,
    capture: bool = False,
) -> GroupOutcome:
    """Simulate one group behind one retry loop.

    A single :func:`~repro.runtime.retry.call_with_retry` covers the
    backend call, the validation of every cell's batch and the attempt
    count: one corrupted batch discards and retries the whole group.
    Each cell gets one ``simulate.chunk`` span; the first one times the
    backend call and carries its attempts, the others report
    ``attempts=0``.  ``campaign.chunk.seconds`` is observed once.

    Module-level so a process pool can pickle it.

    Args:
        group: The cells to simulate.
        backend: Where they run.
        policy: The retry policy.
        breaker: Circuit breaker shared across calls; a private one by
            default.
        sleep: Backoff sleep hook.
        clock: Timeout-guard clock hook.
        capture: Record into a fresh registry and tracer and return
            their contents as :attr:`GroupOutcome.telemetry` (a process
            pool child's globals die with the process); otherwise
            record into the current global registry and tracer.
    """
    with contextlib.ExitStack() as stack:
        if capture:
            registry = stack.enter_context(scoped_registry())
            tracer = stack.enter_context(scoped_tracer())
        else:
            registry, tracer = get_registry(), get_tracer()
        attempts = 0

        def attempt() -> List[BatchResult]:
            nonlocal attempts
            attempts += 1
            if supports_suite(backend):
                return backend.simulate_suite(
                    list(group.profiles), list(group.configs)
                )
            (profile,) = group.profiles
            return [backend.simulate_batch(profile, list(group.configs))]

        def check(results: List[BatchResult]) -> List[BatchResult]:
            if len(results) != len(group.cells):
                raise SimulationError(
                    f"backend returned {len(results)} batch(es) for "
                    f"{len(group.cells)} cell(s)"
                )
            for cell, result in zip(group.cells, results):
                validate_batch(result, f"for cell {cell}")
            return results

        batches, error = None, None
        outcome = "ok"
        start = time.perf_counter()
        with tracer.span(
            "simulate.chunk", program=group.profiles[0].name,
            chunk=group.chunk_index,
        ) as first:
            try:
                batches = call_with_retry(
                    attempt,
                    policy,
                    seed=group.retry_seed,
                    breaker=breaker if breaker is not None
                    else CircuitBreaker(),
                    validate=check,
                    sleep=sleep,
                    clock=clock,
                )
            except SimulationError as failure:
                error = failure
                outcome = (
                    "circuit-open"
                    if isinstance(failure, CircuitOpenError) else "failed"
                )
            if first is not None:
                first["attrs"].update(attempts=attempts, outcome=outcome)
        registry.histogram("campaign.chunk.seconds").observe(
            time.perf_counter() - start
        )
        for profile in group.profiles[1:]:
            with tracer.span(
                "simulate.chunk", program=profile.name,
                chunk=group.chunk_index,
            ) as served:
                if served is not None:
                    served["attrs"].update(attempts=0, outcome=outcome)
        telemetry = (
            {"metrics": registry.snapshot(), "spans": list(tracer.spans)}
            if capture else None
        )
    return GroupOutcome(batches, attempts, error, telemetry)


@dataclass(frozen=True)
class CampaignCell:
    """One (program, chunk) unit of campaign work.

    Attributes:
        cell: The cell id, ``"<program>:<chunk_index>"``.
        profile: The program's workload profile.
        chunk_index: Index into the campaign's chunk bounds.
        start: First configuration index of the chunk (inclusive).
        stop: One past the last configuration index (exclusive).
    """

    cell: str
    profile: WorkloadProfile
    chunk_index: int
    start: int
    stop: int


@dataclass(frozen=True)
class CampaignPlan:
    """The resolved shape of a campaign before any cell is simulated.

    Produced by :meth:`CampaignRunner.plan` and shared by both
    execution strategies — the serial loop and the process pool iterate
    the same cells against the same journal, which is what makes their
    outputs interchangeable.

    Attributes:
        programs: Program names in campaign order.
        profiles: The matching workload profiles.
        configs: The shared configuration sample.
        configs_checksum: Checksum of the sample's value matrix, as the
            checkpoint manifest and the run manifest record it.
        chunks: ``(start, stop)`` bounds of each configuration chunk.
        cells: Every (program, chunk) cell, chunk-major.
        completed: Journalled cells whose stored rows still match their
            digests, mapped to those verified metric arrays.
    """

    programs: Tuple[str, ...]
    profiles: Tuple[WorkloadProfile, ...]
    configs: Tuple[Configuration, ...]
    configs_checksum: str
    chunks: Tuple[Tuple[int, int], ...]
    cells: Tuple[CampaignCell, ...]
    completed: Dict[str, BatchResult]

    @property
    def remaining(self) -> Tuple[CampaignCell, ...]:
        """Cells not yet journalled (the work an executor must run)."""
        return tuple(c for c in self.cells if c.cell not in self.completed)


@dataclass(frozen=True)
class CampaignResult:
    """Assembled matrices plus an accounting of how the run went.

    Attributes:
        programs: Program names in campaign order.
        configs: The shared configuration sample.
        total_cells: Number of (program, chunk) cells in the campaign.
        simulated_cells: Cells simulated by *this* run.
        resumed_cells: Cells restored from the checkpoint journal.
        failed_cells: Cell ids whose retries were exhausted.
        pending_cells: Cell ids never attempted (early stop or an open
            circuit breaker).
        attempts: Backend calls made by this run (retries included).
    """

    programs: Tuple[str, ...]
    configs: Tuple[Configuration, ...]
    total_cells: int
    simulated_cells: int
    resumed_cells: int
    failed_cells: Tuple[str, ...]
    pending_cells: Tuple[str, ...]
    attempts: int
    _values: Dict[Tuple[str, Metric], np.ndarray]

    @property
    def complete(self) -> bool:
        """True when every cell of every program finished."""
        return not self.failed_cells and not self.pending_cells

    def values(self, program: str, metric: Metric) -> np.ndarray:
        """One program's metric vector (NaN where cells are missing)."""
        try:
            return self._values[(program, metric)]
        except KeyError:
            raise KeyError(f"program {program!r} is not in this campaign")

    def matrix(self, metric: Metric) -> np.ndarray:
        """(programs, configurations) metric matrix in campaign order."""
        return np.stack(
            [self.values(program, metric) for program in self.programs]
        )

    def to_dataset(
        self,
        suite: "BenchmarkSuite",
        simulator=None,
    ) -> "DesignSpaceDataset":
        """Hydrate a :class:`DesignSpaceDataset` from the campaign.

        Args:
            suite: The suite the campaign simulated (must contain every
                campaign program).
            simulator: Optional simulator for the dataset.

        Raises:
            ValueError: if the campaign is incomplete or the suite does
                not cover the campaign's programs.
        """
        from repro.exploration.dataset import DesignSpaceDataset

        if not self.complete:
            missing = len(self.failed_cells) + len(self.pending_cells)
            raise ValueError(
                f"cannot build a dataset from an incomplete campaign "
                f"({missing} unfinished cell(s)); resume it first"
            )
        if tuple(suite.programs) != self.programs:
            raise ValueError(
                "suite program list does not match the campaign "
                f"({list(suite.programs)} vs {list(self.programs)})"
            )
        dataset = DesignSpaceDataset(suite, self.configs, simulator)
        for program in self.programs:
            for metric in Metric.all():
                dataset.hydrate(
                    program, metric, self.values(program, metric)
                )
        return dataset


class CampaignRunner:
    """Execute a (programs x configurations) campaign with checkpoints.

    Args:
        backend: Where simulations run (any :class:`SimulationBackend`).
        checkpoint_dir: Directory for the journal, the manifest and the
            per-group result files.
        chunk_size: Configurations per cell — the unit of retry, of
            checkpointing and of loss on interruption.
        retry_policy: Per-cell retry policy (defaults to
            :class:`RetryPolicy()`).
        breaker_threshold: Consecutive cell failures that trip the
            campaign-wide circuit breaker.
        seed: Base seed of the deterministic retry jitter.
        n_jobs: Worker processes simulating cells concurrently.  1 (the
            default) runs the serial loop; -1 uses one worker per CPU.
            The parallel path requires a picklable backend, gives each
            group a private circuit breaker (the campaign-wide breaker
            and the ``sleep``/``clock`` hooks apply to the serial loop
            only) and assembles matrices bit-identical to a serial run
            for deterministic backends.
        sleep: Sleep hook shared by backoff delays (injectable for
            tests).
        clock: Monotonic clock hook for the per-call timeout guard.
    """

    def __init__(
        self,
        backend: SimulationBackend,
        checkpoint_dir: Union[str, pathlib.Path],
        chunk_size: int = 128,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_threshold: int = 8,
        seed: int = 0,
        n_jobs: Optional[int] = None,
        sleep=None,
        clock=None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.backend = backend
        self.checkpoint_dir = pathlib.Path(checkpoint_dir)
        self.chunk_size = chunk_size
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.breaker_threshold = breaker_threshold
        self.seed = seed
        self.n_jobs = resolve_jobs(n_jobs)
        self._sleep = sleep
        self._clock = clock
        self.journal = CampaignJournal(self.checkpoint_dir / "journal.jsonl")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        profiles: Union["BenchmarkSuite", Sequence[WorkloadProfile]],
        configs: Sequence[Configuration],
        resume: bool = True,
        max_cells: Optional[int] = None,
        fail_fast: bool = False,
    ) -> CampaignResult:
        """Run (or resume) the campaign.

        Args:
            profiles: A benchmark suite or an explicit profile sequence.
            configs: The shared configuration sample.
            resume: Reuse a compatible existing checkpoint; ``False``
                refuses to run over one.
            max_cells: Stop after simulating this many cells (leaves the
                rest pending; the test hook for interruption).
            fail_fast: Re-raise the first permanent cell failure instead
                of recording it and moving on.

        Raises:
            ValueError: on an incompatible or unexpected checkpoint.
            SimulationError: with ``fail_fast``, the first permanent
                failure.

        Every run also leaves a ``run_manifest.json`` next to the
        journal — run id, seed, git sha, configuration checksum, cell
        accounting and a per-stage timing summary — so a checkpoint
        directory documents its own provenance.
        """
        plan = self.plan(profiles, configs, resume)
        started = time.time()
        tracer = get_tracer()
        trace_start = tracer.mark()
        # One trace id per campaign: process-pool children's spans are
        # adopted trace-id-less and stamped with this on merge, so a
        # --jobs campaign lands in one trace like a serial one.
        tracer.ensure_trace_id()
        _log.info(
            "campaign start: %d program(s) x %d configuration(s) = "
            "%d cell(s), %d already journalled, n_jobs=%d",
            len(plan.programs), len(configs), len(plan.cells),
            len(plan.completed), self.n_jobs,
            extra={"event": "campaign.start", "cells": len(plan.cells),
                   "journalled": len(plan.completed),
                   "n_jobs": self.n_jobs},
        )
        try:
            with span(
                "campaign.run",
                programs=len(plan.programs),
                configs=len(configs),
                cells=len(plan.cells),
                n_jobs=self.n_jobs,
            ):
                result = self._execute(plan, max_cells, fail_fast)
        except BaseException as error:
            # SIGTERM (SystemExit), Ctrl-C (KeyboardInterrupt) or a
            # crash: the checkpoint directory must still document what
            # happened — journalled cells are safe, and the next
            # --resume needs the provenance, not a missing manifest.
            self._write_interrupted_manifest(error, trace_start, started)
            raise
        self._finalize(result, plan.configs_checksum, trace_start, started)
        return result

    def plan(
        self,
        profiles: Union["BenchmarkSuite", Sequence[WorkloadProfile]],
        configs: Sequence[Configuration],
        resume: bool = True,
    ) -> CampaignPlan:
        """Resolve the campaign's cells and what the journal already holds.

        Validates the inputs, checks (or creates) the checkpoint
        manifest, reads each journalled group file once and checks every
        cell's rows against its digest — everything :meth:`run` does
        before simulating, with no simulation.

        Raises:
            ValueError: on empty inputs or an incompatible checkpoint.
        """
        profile_list = self._profiles(profiles)
        if not configs:
            raise ValueError("a campaign needs at least one configuration")
        programs = tuple(profile.name for profile in profile_list)
        checksum = self._config_checksum(configs)
        self._check_manifest(programs, len(configs), checksum, resume)
        chunks = tuple(self._chunk_bounds(len(configs)))
        cells = tuple(
            CampaignCell(
                cell=f"{profile.name}:{index}",
                profile=profile,
                chunk_index=index,
                start=start,
                stop=stop,
            )
            for index, (start, stop) in enumerate(chunks)
            for profile in profile_list
        )
        return CampaignPlan(
            programs=programs,
            profiles=tuple(profile_list),
            configs=tuple(configs),
            configs_checksum=checksum,
            chunks=chunks,
            cells=cells,
            completed=self._verified_completed_cells(),
        )

    def _groups(self, cells: Sequence[CampaignCell],
                configs: Sequence[Configuration]) -> List[CellGroup]:
        """Split chunk-major ``cells`` into the groups executors run.

        A suite-capable backend gets one group per chunk; any other
        backend gets one group per cell.
        """
        suite = supports_suite(self.backend)
        runs = (
            [list(run) for _, run in itertools.groupby(
                cells, key=lambda cell: cell.chunk_index
            )]
            if suite else [[cell] for cell in cells]
        )
        return [
            CellGroup(
                cells=tuple(cell.cell for cell in run),
                profiles=tuple(cell.profile for cell in run),
                configs=tuple(configs[run[0].start : run[0].stop]),
                chunk_index=run[0].chunk_index,
                retry_seed=stable_seed(
                    "campaign-retry", run[0].cell, str(self.seed)
                ),
            )
            for run in runs
        ]

    def _execute(
        self,
        plan: CampaignPlan,
        max_cells: Optional[int],
        fail_fast: bool,
    ) -> CampaignResult:
        """Restore journalled cells, then run the rest group by group.

        Groups run chunk-major, so an interrupted run has computed only
        what it journalled plus the group in flight.  ``n_jobs == 1``
        maps :func:`run_group` in process with the campaign-wide
        breaker and the ``sleep``/``clock`` hooks; ``n_jobs > 1`` maps
        it over a process pool, each task with a private breaker and
        its telemetry shipped back for merging.  Each group is committed
        by :meth:`commit_group` in group order either way.
        """
        registry = get_registry()
        tracer = get_tracer()
        values: Dict[Tuple[str, Metric], np.ndarray] = {
            (program, metric): np.full(len(plan.configs), np.nan)
            for program in plan.programs
            for metric in Metric.all()
        }
        resumed = 0
        for cell in plan.cells:
            if cell.cell in plan.completed:
                resumed += 1
                with span("resume.chunk", program=cell.profile.name,
                          chunk=cell.chunk_index):
                    batch = self.resume_cell(
                        cell.cell, plan.completed[cell.cell],
                        cell.stop - cell.start,
                    )
                self.fill_values(
                    values, cell.profile.name, cell.start, cell.stop, batch
                )
        todo = list(plan.remaining)
        pending = (
            [cell.cell for cell in todo[max_cells:]]
            if max_cells is not None else []
        )
        todo = todo[:max_cells]
        groups = self._groups(todo, plan.configs)
        by_id = {cell.cell: cell for cell in todo}
        simulated, attempts = 0, 0
        failed: List[str] = []
        with contextlib.ExitStack() as stack:
            if self.n_jobs > 1 and groups:
                pool = stack.enter_context(ProcessPoolExecutor(
                    max_workers=min(self.n_jobs, len(groups))
                ))
                outcomes = pool.map(functools.partial(
                    run_group, backend=self.backend,
                    policy=self.retry_policy, capture=True,
                ), groups)
            else:
                outcomes = map(functools.partial(
                    run_group, backend=self.backend,
                    policy=self.retry_policy,
                    breaker=CircuitBreaker(self.breaker_threshold),
                    sleep=self._sleep, clock=self._clock,
                ), groups)
            for index, (group, outcome) in enumerate(zip(groups, outcomes)):
                attempts += outcome.attempts
                if outcome.telemetry is not None:
                    registry.merge(outcome.telemetry["metrics"])
                    tracer.adopt(outcome.telemetry["spans"])
                if isinstance(outcome.error, CircuitOpenError):
                    # The backend is down; stop burning attempts and
                    # leave everything from here on for a later resume.
                    pending[:0] = [
                        cell for later in groups[index:]
                        for cell in later.cells
                    ]
                    break
                if outcome.error is not None:
                    if fail_fast:
                        raise outcome.error
                    for cell in group.cells:
                        _log.warning(
                            "cell %s failed permanently: %s", cell,
                            outcome.error,
                            extra={"event": "campaign.cell_failed",
                                   "cell": cell},
                        )
                    failed.extend(group.cells)
                    continue
                self.commit_group(
                    group.chunk_index, group.cells, outcome.batches
                )
                for cell_id, batch in zip(group.cells, outcome.batches):
                    cell = by_id[cell_id]
                    self.fill_values(
                        values, cell.profile.name, cell.start, cell.stop,
                        batch,
                    )
                simulated += len(group.cells)
        return CampaignResult(
            programs=plan.programs,
            configs=plan.configs,
            total_cells=len(plan.cells),
            simulated_cells=simulated,
            resumed_cells=resumed,
            failed_cells=tuple(failed),
            pending_cells=tuple(pending),
            attempts=attempts,
            _values=values,
        )

    def _write_interrupted_manifest(
        self, error: BaseException, trace_start: int, started: float
    ) -> None:
        """Best-effort run manifest for a run that did not finish.

        Never raises: the manifest write must not mask the original
        interruption, and a half-created checkpoint directory is still
        created by :func:`write_manifest` itself.
        """
        try:
            manifest = build_manifest(
                run_id=uuid.uuid4().hex,
                seed=self.seed,
                extra={
                    "kind": "campaign",
                    "status": "interrupted",
                    "error": f"{type(error).__name__}: {error}",
                    "checkpoint_dir": str(self.checkpoint_dir),
                    "chunk_size": self.chunk_size,
                    "n_jobs": self.n_jobs,
                    "journal_records": len(self.journal.records()),
                },
                trace_start=trace_start,
                started=started,
            )
            write_manifest(self.run_manifest_path, manifest)
            _log.warning(
                "campaign interrupted (%s); manifest written to %s",
                type(error).__name__, self.run_manifest_path,
                extra={"event": "campaign.interrupted"},
            )
        except Exception:  # noqa: BLE001 - deliberately silent
            pass

    def _finalize(
        self, result: CampaignResult, configs_checksum: str,
        trace_start: int, started: float,
    ) -> None:
        """Record campaign-level metrics and write the run manifest."""
        registry = get_registry()
        registry.counter("campaign.cells.simulated").inc(
            result.simulated_cells
        )
        registry.counter("campaign.cells.resumed").inc(result.resumed_cells)
        registry.counter("campaign.cells.failed").inc(
            len(result.failed_cells)
        )
        registry.counter("campaign.cells.pending").inc(
            len(result.pending_cells)
        )
        registry.counter("campaign.attempts").inc(result.attempts)
        level = (
            "info" if result.complete else "warning"
        )
        getattr(_log, level)(
            "campaign done: %d simulated, %d resumed, %d failed, "
            "%d pending, %d backend attempt(s)",
            result.simulated_cells, result.resumed_cells,
            len(result.failed_cells), len(result.pending_cells),
            result.attempts,
            extra={"event": "campaign.done",
                   "simulated": result.simulated_cells,
                   "resumed": result.resumed_cells,
                   "failed": len(result.failed_cells),
                   "pending": len(result.pending_cells),
                   "attempts": result.attempts},
        )
        manifest = build_manifest(
            run_id=uuid.uuid4().hex,
            seed=self.seed,
            config_checksum=configs_checksum,
            extra={
                "kind": "campaign",
                "status": "complete" if result.complete else "incomplete",
                "checkpoint_dir": str(self.checkpoint_dir),
                "programs": list(result.programs),
                "config_count": len(result.configs),
                "chunk_size": self.chunk_size,
                "n_jobs": self.n_jobs,
                "total_cells": result.total_cells,
                "simulated_cells": result.simulated_cells,
                "resumed_cells": result.resumed_cells,
                "failed_cells": list(result.failed_cells),
                "pending_cells": list(result.pending_cells),
                "attempts": result.attempts,
                "journal_records": len(self.journal.records()),
            },
            trace_start=trace_start,
            started=started,
        )
        write_manifest(self.run_manifest_path, manifest)

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> pathlib.Path:
        return self.checkpoint_dir / "manifest.json"

    @property
    def run_manifest_path(self) -> pathlib.Path:
        """Provenance manifest of the most recent :meth:`run`."""
        return self.checkpoint_dir / "run_manifest.json"

    @property
    def chunks_dir(self) -> pathlib.Path:
        return self.checkpoint_dir / "chunks"

    @staticmethod
    def _profiles(
        profiles: Union["BenchmarkSuite", Sequence[WorkloadProfile]]
    ) -> List[WorkloadProfile]:
        items = list(
            profiles.profiles if hasattr(profiles, "profiles") else profiles
        )
        if not items:
            raise ValueError("a campaign needs at least one program")
        return items

    def _chunk_bounds(self, count: int) -> List[Tuple[int, int]]:
        return [
            (start, min(start + self.chunk_size, count))
            for start in range(0, count, self.chunk_size)
        ]

    def _config_checksum(self, configs: Sequence[Configuration]) -> str:
        return array_checksum(np.array(configs, dtype=np.int64))

    def _check_manifest(
        self,
        programs: Tuple[str, ...],
        config_count: int,
        configs_checksum: str,
        resume: bool,
    ) -> None:
        manifest = {
            "version": _MANIFEST_VERSION,
            "programs": list(programs),
            "config_count": config_count,
            "chunk_size": self.chunk_size,
            "configs_checksum": configs_checksum,
        }
        if self.manifest_path.exists():
            if not resume:
                raise ValueError(
                    f"checkpoint directory {self.checkpoint_dir} already "
                    "holds a campaign; resume it or start in a fresh "
                    "directory"
                )
            try:
                existing = json.loads(
                    self.manifest_path.read_text(encoding="utf-8")
                )
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"corrupt campaign manifest {self.manifest_path}"
                ) from error
            version = (
                existing.get("version") if isinstance(existing, dict)
                else None
            )
            if version != _MANIFEST_VERSION:
                raise ValueError(
                    f"checkpoint directory {self.checkpoint_dir} uses "
                    f"checkpoint layout version {version}; this release "
                    f"reads only layout version {_MANIFEST_VERSION}. "
                    "Run the campaign in a fresh directory"
                )
            if existing != manifest:
                raise ValueError(
                    "checkpoint directory belongs to a different campaign "
                    "(programs, configurations or chunk size changed)"
                )
            return
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )

    def _verified_completed_cells(self) -> Dict[str, BatchResult]:
        """Journalled cells whose stored rows still match their digests.

        Each group file is read once.  A file that does not load
        (missing, truncated, a broken zip) costs all of its cells; a
        digest mismatch costs only that cell.  A later record for a
        cell replaces an earlier one.
        """
        completed: Dict[str, BatchResult] = {}
        groups: Dict[str, Optional[Dict[str, np.ndarray]]] = {}
        for record in self.journal.records():
            cell = record.get("cell")
            filename = record.get("file")
            checksum = record.get("checksum")
            row = record.get("row")
            if not (cell and filename and checksum and isinstance(row, int)):
                continue
            if filename not in groups:
                groups[filename] = _read_group(self.checkpoint_dir / filename)
            arrays = groups[filename]
            if arrays is None or not 0 <= row < len(arrays["cycles"]):
                continue  # damaged or missing: re-simulate this cell
            batch = BatchResult(
                **{field: arrays[field][row] for field in _METRIC_FIELDS}
            )
            if batch_checksum(batch) == checksum:
                completed[cell] = batch
        return completed

    def commit_group(
        self,
        chunk_index: int,
        cells: Sequence[str],
        batches: Sequence[BatchResult],
        digests: Optional[Sequence[str]] = None,
    ) -> None:
        """Make one group's cells durable: one file, then one journal write.

        The (cells x configurations) matrices go to an uncompressed
        ``.npz`` scratch file that is fsynced and renamed into place;
        only then is one line per cell journalled, in one fsynced write.
        The file is named after the chunk and a hash of the cells'
        digests, so re-committing part of a group never replaces a file
        that journalled cells still point to; a name repeats only for
        equal arrays.

        Args:
            chunk_index: The chunk the cells belong to.
            cells: Cell ids, in row order.
            batches: One result per cell.
            digests: The cells' :func:`batch_checksum` values when the
                caller has already verified them; computed otherwise.
        """
        start = time.perf_counter()
        if digests is None:
            digests = [batch_checksum(batch) for batch in batches]
        name = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
        path = self.chunks_dir / f"{chunk_index:05d}-{name[:16]}.npz"
        scratch = path.with_suffix(".tmp")
        self.chunks_dir.mkdir(parents=True, exist_ok=True)
        try:
            with open(scratch, "wb") as handle:
                np.savez(handle, **{
                    field: np.stack([getattr(b, field) for b in batches])
                    for field in _METRIC_FIELDS
                })
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, path)
        except BaseException:
            scratch.unlink(missing_ok=True)
            raise
        relative = str(path.relative_to(self.checkpoint_dir))
        self.journal.append(*(
            {"cell": cell, "file": relative, "row": row, "checksum": digest}
            for row, (cell, digest) in enumerate(zip(cells, digests))
        ))
        get_registry().histogram("campaign.commit.seconds").observe(
            time.perf_counter() - start
        )
        for cell in cells:
            _log.debug(
                "journalled cell %s -> %s", cell, path.name,
                extra={"event": "campaign.cell_stored", "cell": cell},
            )

    def store_cell(
        self, cell: str, chunk_index: int, batch: BatchResult, digest: str
    ) -> None:
        """Commit one verified cell as a group of one.

        No caller left in the program; the benchmark still hooks it.  It
        goes when the benchmark hooks :meth:`commit_group` instead
        (ROADMAP item 1).
        """
        self.commit_group(chunk_index, [cell], [batch], [digest])

    def resume_cell(
        self, cell: str, batch: BatchResult, expected: int
    ) -> BatchResult:
        """Check a verified checkpointed cell's shape before it is used."""
        if len(batch) != expected:
            raise ValueError(
                f"checkpointed cell {cell} holds {len(batch)} "
                f"configurations, expected {expected}"
            )
        return batch

    @staticmethod
    def fill_values(
        values: Dict[Tuple[str, Metric], np.ndarray],
        program: str,
        start: int,
        stop: int,
        batch: BatchResult,
    ) -> None:
        """Write one cell's metric arrays into the campaign matrices."""
        for metric in Metric.all():
            values[(program, metric)][start:stop] = batch.metric(metric)


def _read_group(path: pathlib.Path) -> Optional[Dict[str, np.ndarray]]:
    """A group file's metric matrices, or ``None`` when it does not load.

    Each member is read from its stored bytes past the zip's CRC, so a
    flipped byte costs only the cells whose digests it breaks, not the
    whole group.
    """
    try:
        with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
            arrays = {}
            for field in _METRIC_FIELDS:
                info = archive.getinfo(f"{field}.npy")
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                # The local header is 30 bytes; its name and extra-field
                # lengths sit at offset 26 and the data follows them.
                handle.seek(info.header_offset + 26)
                name, extra = struct.unpack("<HH", handle.read(4))
                handle.seek(info.header_offset + 30 + name + extra)
                arrays[field] = np.lib.format.read_array(
                    handle, allow_pickle=False
                )
    except (OSError, ValueError, KeyError, EOFError, struct.error,
            zipfile.BadZipFile):
        return None
    shapes = {array.shape for array in arrays.values()}
    if len(shapes) != 1 or len(shapes.pop()) != 2:
        return None
    return arrays

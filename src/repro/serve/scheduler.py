"""The service core: priority scheduling with request coalescing.

One :class:`Scheduler` owns a result store, a bounded
``ProcessPoolExecutor`` and a priority queue of cell executions.  The
resolution path for every unit of every job:

1. **Coalesce** — if an identical cell (same content address) is
   already in flight, attach to its future; N concurrent submissions
   of a cold cell cost exactly one simulation.
2. **Store** — a warm cell is served straight from the result store
   (sub-millisecond, no queue, no worker).
3. **Queue** — a cold cell is enqueued with its job's priority.
   Interactive (single-cell) jobs sort ahead of bulk sweep cells, so a
   user poking at one configuration is not stuck behind a 40-cell
   sweep; FIFO order breaks ties within a priority class.  Admission
   priority only — a cell already on a worker runs to completion.

Jobs submitted with ``predict: true`` take the tier-0 path instead: a
warm cell is still served exact from the store, but a cold cell gets an
instant analytical answer (flagged ``tier: "analytical"`` with error
bars) and a background refinement is enqueued at the lowest priority.
The refinement runs the normal exact pipeline — same worker entry
point, same ``store.put`` under the unchanged content address — so the
exact result supersedes the analytical one for every later request.
Analytical answers are never persisted, and refinements are best-effort:
queued ones are dropped at drain.

Every scheduling decision increments a counter or observes a histogram
on :class:`~repro.serve.metrics.ServeMetrics`, so the acceptance tests
assert "N submissions, 1 simulation" on counters, never wall clock.

The scheduler is pure asyncio (single event loop); the only threads are
the executor's worker processes.  State mutations happen between
awaits, so the coalescing map needs no locks.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor, ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.experiments.executor import Cell, simulate_cell
from repro.experiments.store import MemoryStore
from repro.gpu.simulator import SimResult
from repro.serve import jobs as jobstates
from repro.serve.jobs import Job, predict_unit, replay_unit
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    MODE_REPLAY,
    PRIORITY_REFINE,
    JobRequest,
    UnitSpec,
)
from repro.utils import wallclock


class DrainingError(RuntimeError):
    """Submission refused: the service is draining (HTTP 503)."""


class UnitExecutionError(RuntimeError):
    """One unit failed; carries the cell's content-addressed identity."""

    def __init__(self, spec: UnitSpec, key: str, cause: BaseException) -> None:
        self.spec = spec
        self.key = key
        self.cause = cause
        super().__init__(
            f"unit {spec.abbr}/{spec.scheme} ({key[:12]}) failed: "
            f"{type(cause).__name__}: {cause}"
        )

    def payload(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "unit": self.spec.describe(),
            "fingerprint": self.spec.fingerprint(),
            "error": f"{type(self.cause).__name__}: {self.cause}",
        }


class _CellEntry:
    """One in-flight cell execution, shared by all coalesced waiters."""

    __slots__ = ("key", "spec", "future", "subscribers", "enqueued_at",
                 "started", "abandoned", "predicted_at", "client",
                 "priority", "requeues", "pool_gen")

    def __init__(self, key: str, spec: UnitSpec,
                 future: "asyncio.Future[Dict[str, Any]]") -> None:
        self.key = key
        self.spec = spec
        self.future = future
        self.subscribers = 1
        self.enqueued_at = wallclock.monotonic()
        self.started = False
        self.abandoned = False      # every waiter cancelled before start
        #: When an analytical answer was returned for this cell (tier-0)
        #: — the exact result's arrival closes the supersede histogram.
        self.predicted_at: Optional[float] = None
        #: Submitting client identity (fair-scheduling tag) and the
        #: admission priority, recorded by ``_enqueue`` so a recovered
        #: cell re-enters the queue exactly where it would have been.
        self.client = "anonymous"
        self.priority = 0
        #: Crash-recovery bookkeeping: how many times this cell went
        #: back in the queue, and which pool generation ran it last.
        self.requeues = 0
        self.pool_gen = 0


class Scheduler:
    """Job admission, coalescing, and the worker pumps.

    Parameters
    ----------
    store:
        Result store (``MemoryStore`` default; pass a ``ResultStore``
        for warm restarts and cross-process sharing).
    workers:
        Worker processes — also the number of concurrent executions.
    trace_dir:
        Shared trace directory for replay units (record-once).
    engine:
        Replay engine the workers run for replay units (``reference``
        or ``fast``; timing cells always run the reference L1D).  A
        deployment-wide choice, never part of a unit's content address
        — the engines are bit-identical, so cells computed by either
        resolve (and warm) the same store entries.
    pool / sim_fn / replay_fn / predict_fn:
        Injection points for tests: a ``ThreadPoolExecutor`` plus stub
        work functions turn scheduling tests into fast, deterministic
        unit tests with no real simulations.
    """

    def __init__(self, store: Any = None, workers: int = 2,
                 trace_dir: Optional[Union[str, Path]] = None,
                 metrics: Optional[ServeMetrics] = None,
                 engine: str = "reference",
                 pool: Optional[Executor] = None,
                 sim_fn: Callable[[Cell], Dict[str, Any]] = simulate_cell,
                 replay_fn: Callable[
                     [Dict[str, Any], Optional[str]], Dict[str, Any]
                 ] = replay_unit,
                 predict_fn: Callable[
                     [Dict[str, Any], Optional[str]], Dict[str, Any]
                 ] = predict_unit) -> None:
        self.store = store if store is not None else MemoryStore()
        self.workers = max(1, int(workers))
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.engine = engine
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._sim_fn = sim_fn
        self._replay_fn = replay_fn
        self._predict_fn = predict_fn
        self._pool = pool
        self._owns_pool = pool is None
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._pumps: List[asyncio.Task] = []
        self._in_flight: Dict[str, _CellEntry] = {}
        self.jobs: Dict[str, Job] = {}
        self._job_seq = 0
        self._queue_seq = 0
        #: Bumped each time the worker pool is replaced after a crash
        #: (see ClusterScheduler); entries record the generation that
        #: ran them so one broken pool triggers exactly one restart.
        self._pool_gen = 0
        self.draining = False
        self.started_at = wallclock.monotonic()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._queue = asyncio.PriorityQueue()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._pumps = [
            asyncio.create_task(self._pump(i), name=f"serve-pump-{i}")
            for i in range(self.workers)
        ]

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, let active jobs finish, stop the pumps.

        Returns True if every job settled within ``timeout``.
        """
        self.draining = True
        pending = [
            job.task for job in self.jobs.values()
            if job.task is not None and not job.task.done()
        ]
        clean = True
        if pending:
            done, not_done = await asyncio.wait(pending, timeout=timeout)
            clean = not not_done
            for task in not_done:
                task.cancel()
            if not_done:
                await asyncio.gather(*not_done, return_exceptions=True)
        await self._stop_pumps()
        return clean

    async def shutdown(self) -> None:
        """Immediate teardown (tests): cancel everything, free the pool."""
        self.draining = True
        for job in self.jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()
        await asyncio.gather(
            *(j.task for j in self.jobs.values() if j.task is not None),
            return_exceptions=True,
        )
        await self._stop_pumps()

    async def _stop_pumps(self) -> None:
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps = []
        if self._owns_pool and self._pool is not None:
            # repro-check: allow(R009) final pool join during shutdown:
            # the pumps are cancelled and no client work remains, so
            # blocking the loop here is the intended drain barrier
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- admission -----------------------------------------------------

    def submit(self, request: JobRequest) -> Job:
        """Admit one job and start its driver task (sync, no awaits)."""
        if self.draining:
            self.metrics.jobs_rejected += 1
            raise DrainingError("service is draining; not accepting jobs")
        self._job_seq += 1
        job = Job(id=f"job-{self._job_seq:06d}", request=request)
        self.jobs[job.id] = job
        job.task = asyncio.create_task(self._run_job(job), name=job.id)
        self.metrics.jobs_submitted += 1
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; False if unknown or already settled."""
        job = self.jobs.get(job_id)
        if job is None or job.done or job.task is None:
            return False
        job.task.cancel()
        return True

    # -- job driver ----------------------------------------------------

    async def _run_job(self, job: Job) -> None:
        job.state = jobstates.RUNNING
        tasks = [
            asyncio.create_task(self._resolve_unit(
                unit, job.request.priority,
                predict=job.request.predict,
                client=job.request.client,
            ))
            for unit in job.request.units
        ]
        try:
            payloads = await asyncio.gather(*tasks)
            job.results = [
                {"unit": unit.describe(), "result": payload}
                for unit, payload in zip(job.request.units, payloads)
            ]
            job.state = jobstates.DONE
            self.metrics.jobs_done += 1
        except asyncio.CancelledError:
            job.state = jobstates.CANCELLED
            self.metrics.jobs_cancelled += 1
            await self._reap(tasks)
        except UnitExecutionError as exc:
            job.state = jobstates.FAILED
            job.error = exc.payload()
            self.metrics.jobs_failed += 1
            await self._reap(tasks)
        except Exception as exc:  # defensive: never lose a job silently
            job.state = jobstates.FAILED
            job.error = {"error": f"{type(exc).__name__}: {exc}"}
            self.metrics.jobs_failed += 1
            await self._reap(tasks)
        finally:
            job.finished_at = wallclock.now()

    @staticmethod
    async def _reap(tasks: List["asyncio.Task"]) -> None:
        """Cancel and drain a failed/cancelled job's remaining unit
        tasks so no orphan waiter outlives its job (coalesced peers on
        other jobs are unaffected — they hold their own subscriptions).
        """
        for task in tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    # -- unit resolution -----------------------------------------------

    async def _resolve_unit(self, unit: UnitSpec, priority: int,
                            predict: bool = False,
                            client: str = "anonymous") -> Dict[str, Any]:
        self.metrics.cells_requested += 1
        key = unit.key()
        if predict:
            return await self._resolve_predicted(unit, key, client)

        entry = self._in_flight.get(key)
        if entry is not None:
            self.metrics.cells_coalesced += 1
            entry.subscribers += 1
            return await self._await_entry(entry)

        cached = self.store.get(key)
        if cached is not None:
            self.metrics.cells_store_hits += 1
            return cached.to_dict()

        entry = _CellEntry(key, unit, asyncio.get_running_loop().create_future())
        self._in_flight[key] = entry
        self._enqueue(entry, priority, client)
        return await self._await_entry(entry)

    async def _resolve_predicted(self, unit: UnitSpec, key: str,
                                 client: str = "anonymous",
                                 ) -> Dict[str, Any]:
        """Tier-0: exact from the store if warm, else an instant
        analytical answer plus a background exact refinement."""
        cached = self.store.get(key)
        if cached is not None:
            self.metrics.cells_store_hits += 1
            payload = cached.to_dict()
            payload["tier"] = "exact"   # response-only; never stored
            return payload
        loop = asyncio.get_running_loop()
        attempts = 0
        while True:
            pool_gen = self._pool_gen
            try:
                payload = await loop.run_in_executor(
                    self._pool, self._predict_fn,
                    unit.worker_payload(), self.trace_dir,
                )
                break
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                if self._recover_predict(pool_gen, exc, attempts):
                    attempts += 1
                    continue
                self.metrics.cells_failed += 1
                raise UnitExecutionError(unit, key, exc) from exc
        self.metrics.predict_answers += 1
        self._ensure_refinement(unit, key, client)
        return payload

    def _ensure_refinement(self, unit: UnitSpec, key: str,
                           client: str = "anonymous") -> None:
        """Queue the exact execution behind an analytical answer (once
        per cell: a refinement or plain request already in flight is
        reused, and later plain requests coalesce onto it as usual)."""
        entry = self._in_flight.get(key)
        if entry is None:
            entry = _CellEntry(
                key, unit, asyncio.get_running_loop().create_future()
            )
            # the initial subscription is the refinement itself (it
            # never cancels, so coalesced waiters can come and go
            # without abandoning the entry); nothing awaits the future,
            # so consume a failure before it can log as unretrieved
            entry.future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            self._in_flight[key] = entry
            self._enqueue(entry, PRIORITY_REFINE, client)
            self.metrics.refinements += 1
        if entry.predicted_at is None:
            entry.predicted_at = wallclock.monotonic()

    async def _await_entry(self, entry: _CellEntry) -> Dict[str, Any]:
        try:
            return await asyncio.shield(entry.future)
        except asyncio.CancelledError:
            entry.subscribers -= 1
            if entry.subscribers <= 0 and not entry.started:
                # nobody wants it and no worker picked it up: abandon
                entry.abandoned = True
                self._in_flight.pop(entry.key, None)
            raise

    # -- queue discipline (override points for ClusterScheduler) -------

    def _enqueue(self, entry: _CellEntry, priority: int,
                 client: str) -> None:
        """Admit one cold cell to the execution queue."""
        entry.priority = priority
        entry.client = client
        assert self._queue is not None, "Scheduler.start() was never awaited"
        self._queue_seq += 1
        self._queue.put_nowait((priority, self._queue_seq, entry))

    async def _dequeue(self, index: int) -> _CellEntry:
        """Take the next cell for pump ``index`` (one pump per worker)."""
        assert self._queue is not None
        _priority, _seq, entry = await self._queue.get()
        return entry

    def _task_done(self, index: int) -> None:
        assert self._queue is not None
        self._queue.task_done()

    def _recover(self, entry: _CellEntry, exc: BaseException) -> bool:
        """Give a failed execution a second chance (crash recovery).

        Returns True when the cell was requeued and the failure must
        not settle its future.  The base scheduler never recovers;
        ClusterScheduler requeues cells whose worker process died.
        """
        return False

    def _recover_predict(self, pool_gen: int, exc: BaseException,
                         attempts: int) -> bool:
        """Same, for the in-loop tier-0 predict path."""
        return False

    # -- worker pumps --------------------------------------------------

    async def _pump(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            entry = await self._dequeue(index)
            try:
                if entry.abandoned:
                    continue
                entry.started = True
                self.metrics.queue_wait.observe(
                    wallclock.monotonic() - entry.enqueued_at
                )
                await self._execute(loop, entry)
            finally:
                self._task_done(index)

    async def _execute(self, loop: asyncio.AbstractEventLoop,
                       entry: _CellEntry) -> None:
        spec = entry.spec
        t0 = wallclock.monotonic()
        entry.pool_gen = self._pool_gen
        try:
            if spec.mode == MODE_REPLAY:
                worker_payload = dict(spec.worker_payload())
                worker_payload["engine"] = self.engine
                payload = await loop.run_in_executor(
                    self._pool, self._replay_fn,
                    worker_payload, self.trace_dir,
                )
            else:
                payload = await loop.run_in_executor(
                    self._pool, self._sim_fn, spec.cell()
                )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            if self._recover(entry, exc):
                return
            self.metrics.cells_failed += 1
            self._settle(entry,
                         error=UnitExecutionError(spec, entry.key, exc))
            return
        self.metrics.cells_simulated += 1
        self.metrics.sim_latency_for(spec.scheme).observe(
            wallclock.monotonic() - t0
        )
        self.store.put(entry.key, SimResult.from_dict(payload),
                       meta=spec.meta())
        if entry.predicted_at is not None:
            self.metrics.supersede_latency.observe(
                wallclock.monotonic() - entry.predicted_at
            )
        self._settle(entry, payload=payload)

    def _settle(self, entry: _CellEntry,
                payload: Optional[Dict[str, Any]] = None,
                error: Optional[BaseException] = None) -> None:
        self._in_flight.pop(entry.key, None)
        if entry.future.done():  # every waiter already detached
            return
        if error is not None:
            # consume the exception once so an all-waiters-cancelled
            # future never logs "exception was never retrieved"
            entry.future.add_done_callback(
                lambda f: f.exception() if not f.cancelled() else None
            )
            entry.future.set_exception(error)
        else:
            entry.future.set_result(payload)

    # -- introspection -------------------------------------------------

    def queue_depth(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def running_count(self) -> int:
        return sum(1 for e in self._in_flight.values() if e.started)

    def active_jobs(self) -> int:
        return sum(1 for j in self.jobs.values() if not j.done)

    def metrics_snapshot(self) -> Dict[str, Any]:
        store_stats = getattr(self.store, "stats", None)
        return self.metrics.snapshot(
            queued=self.queue_depth(),
            running=self.running_count(),
            jobs_active=self.active_jobs(),
            store_stats=store_stats.as_dict() if store_stats else None,
            draining=self.draining,
            uptime=wallclock.monotonic() - self.started_at,
            workers={"configured": self.workers},
        )

    def health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.draining else "ok",
            "workers": self.workers,
            "jobs_active": self.active_jobs(),
            "cells_queued": self.queue_depth(),
            "cells_running": self.running_count(),
        }

"""Policy replay engine: drive an L1D policy from a recorded trace.

The engine instantiates the real per-SM :class:`~repro.cache.l1d.L1DCache`
and the real policy objects — the exact protocol path of the paper's
Figure 1/8 flow, including PL decay on set queries, VTA insert/probe and
PDPT sampling — but services every fetch *immediately* instead of
through the timing machine.  Workload generation, coalescing, warp
scheduling and the memory system are all skipped: replaying a trace is
the functional equivalent of :func:`repro.experiments.cachesim`'s
characterisation path, extended from plain caches to full policies.

Replay semantics (and when they are valid — see EXPERIMENTS.md):

* fills are instantaneous, so lines are never left RESERVED between
  accesses and MSHR/miss-queue pressure never materialises — cache
  *contents* and policy decisions are exact, timing-induced stalls are
  not modelled;
* a STALL outcome is retried in place, re-querying the set exactly as
  the blocked pipeline register does in Section 2; each retry decays
  PLs, so protection policies always converge (bounded by the PL width);
* the returned :class:`~repro.gpu.simulator.SimResult` carries the full
  cache/policy counters with all timing fields zero.

Determinism: one recorded trace replayed through the same policy always
produces bit-identical counters, and replaying a recorded trace is
bit-identical to driving the policy from the live functional stream —
the differential oracle (`tests/trace/test_record_replay.py`) holds both.
"""

from __future__ import annotations

from collections import deque
from typing import (Deque, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.cache.l1d import L1DCache, L1DStats, MemAccess
from repro.core import make_policy
from repro.core.policy import CachePolicy
from repro.fastsim import validate_engine
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceFormatError, TraceReader, TraceRecord
from repro.utils.hashing import hash_pc
from repro.workloads.base import Workload

#: Retry bound for in-place stall retries.  A stalled protection policy
#: frees a line after at most ``pl_max`` (15) decaying re-queries; 4096
#: turns a model bug into a loud error instead of a hang.
MAX_STALL_RETRIES = 4096

#: Non-blocking replay: how many accesses a fetch stays outstanding
#: before its fill is applied.  The replay clock is *accesses*, not
#: cycles, so the window is the functional analogue of memory latency —
#: large enough to keep several misses in flight (exercising RESERVED
#: lines, MSHR merging and resource stalls), small enough that the
#: outstanding set stays bounded by ``min(window, mshr_entries)``.
NB_FILL_WINDOW = 24


class ReplayStallError(RuntimeError):
    """An access stalled without converging — a policy/model bug."""


class ReplayEngine:
    """Per-SM caches + policies consuming a record stream."""

    def __init__(
        self,
        config: GPUConfig,
        policy_factory,
    ) -> None:
        self.config = config
        self._insn_ids: Dict[int, int] = {}
        self.sent_fetches = 0
        self.sent_writes = 0
        self.caches: List[L1DCache] = []
        l1 = config.l1d
        self.non_blocking = l1.non_blocking
        for sm_id in range(config.num_sms):
            cache = L1DCache(
                l1.geometry(),
                policy_factory(),
                send_fn=self._count_send,
                mshr_entries=l1.mshr_entries,
                mshr_merge=l1.mshr_merge,
                miss_queue_depth=l1.miss_queue_depth,
                sm_id=sm_id,
                non_blocking=l1.non_blocking,
            )
            self.caches.append(cache)
        self.replayed_records = 0
        #: Records replayed per SM stream; :func:`replay_trace` checks
        #: this against the trace header's ``records_per_sm``.
        self.replayed_per_sm: List[int] = [0] * config.num_sms
        # Non-blocking replay state: per-SM FIFO of (issue_seq, block)
        # fetches awaiting their fill, plus a per-SM access counter that
        # serves as the replay clock (fills apply NB_FILL_WINDOW accesses
        # after issue, in issue order — deterministic wakeups).
        self._nb_outstanding: List[Deque[Tuple[int, int]]] = [
            deque() for _ in range(config.num_sms)
        ]
        self._nb_seq: List[int] = [0] * config.num_sms

    # -- plumbing ------------------------------------------------------

    def _count_send(self, fetch) -> None:
        if fetch.is_write:
            self.sent_writes += 1
        else:
            self.sent_fetches += 1

    def _insn_id(self, pc: int) -> int:
        cached = self._insn_ids.get(pc)
        if cached is None:
            cached = self._insn_ids[pc] = hash_pc(pc)
        return cached

    # -- replay --------------------------------------------------------

    def access(self, record: TraceRecord) -> None:
        """Push one record through its SM's cache, servicing fetches
        immediately (blocking mode) or after :data:`NB_FILL_WINDOW`
        accesses (non-blocking mode) and retrying stalls in place."""
        sm_id = record[0]
        cache = self.caches[sm_id]
        acc = MemAccess(
            block_addr=record[1],
            pc=record[2],
            insn_id=self._insn_id(record[2]),
            is_write=record[3],
            warp_id=record[4] if len(record) > 4 else 0,
            sm_id=sm_id,
        )
        if self.non_blocking:
            self._access_non_blocking(cache, acc, sm_id)
        else:
            self._access_blocking(cache, acc, sm_id)
        self.replayed_records += 1
        self.replayed_per_sm[sm_id] += 1

    def _access_blocking(self, cache: L1DCache, acc: MemAccess, sm_id: int) -> None:
        result = cache.access(acc)
        retries = 0
        while result.is_stall:
            retries += 1
            if retries > MAX_STALL_RETRIES:
                raise ReplayStallError(
                    f"SM{sm_id} access to block {acc.block_addr:#x} stalled "
                    f"{retries} times ({result.stall_reason}) without "
                    f"converging"
                )
            result = cache.access(acc)
        # Immediate service: drain queued fetches/write-throughs and fill
        # reserved lines, so no RESERVED state survives to the next access.
        while not cache.miss_queue.is_empty:
            fetch = cache.miss_queue.pop()
            if fetch.is_write:
                cache.stats.sent_writes += 1
                self.sent_writes += 1
            else:
                cache.stats.sent_fetches += 1
                self.sent_fetches += 1
                cache.fill(fetch.block_addr, 0)

    def _access_non_blocking(
        self, cache: L1DCache, acc: MemAccess, sm_id: int
    ) -> None:
        """Windowed service: fetches stay outstanding for
        :data:`NB_FILL_WINDOW` accesses, so RESERVED lines survive,
        secondary misses merge and MSHR/miss-queue pressure builds.
        Fills apply strictly in issue order (FIFO), keeping wakeups
        deterministic; a stalled access drains the oldest outstanding
        fill early, modelling the pipeline waiting for the response
        that frees its resource."""
        outstanding = self._nb_outstanding[sm_id]
        seq = self._nb_seq[sm_id]
        while outstanding and outstanding[0][0] + NB_FILL_WINDOW <= seq:
            cache.fill(outstanding.popleft()[1], 0)
        result = cache.access(acc)
        retries = 0
        while result.is_stall:
            retries += 1
            if retries > MAX_STALL_RETRIES:
                raise ReplayStallError(
                    f"SM{sm_id} access to block {acc.block_addr:#x} stalled "
                    f"{retries} times ({result.stall_reason}) without "
                    f"converging"
                )
            if outstanding:
                cache.fill(outstanding.popleft()[1], 0)
            result = cache.access(acc)
        while not cache.miss_queue.is_empty:
            fetch = cache.miss_queue.pop()
            if fetch.is_write:
                cache.stats.sent_writes += 1
                self.sent_writes += 1
            else:
                cache.stats.sent_fetches += 1
                self.sent_fetches += 1
                outstanding.append((seq, fetch.block_addr))
        self._nb_seq[sm_id] = seq + 1

    def flush(self) -> None:
        """Apply every fill still outstanding (end of stream)."""
        for sm_id, outstanding in enumerate(self._nb_outstanding):
            cache = self.caches[sm_id]
            while outstanding:
                cache.fill(outstanding.popleft()[1], 0)

    def run(self, records: Iterable[TraceRecord]) -> SimResult:
        for record in records:
            self.access(record)
        self.flush()
        return self.result()

    # -- collection ----------------------------------------------------

    def result(self) -> SimResult:
        total = L1DStats()
        per_sm = []
        for cache in self.caches:
            s = cache.stats
            per_sm.append(s.as_dict())
            total.loads += s.loads
            total.stores += s.stores
            total.hits += s.hits
            total.hit_reserved += s.hit_reserved
            total.misses += s.misses
            total.bypasses += s.bypasses
            total.write_hits += s.write_hits
            total.write_misses += s.write_misses
            total.evictions += s.evictions
            total.write_evicts += s.write_evicts
            total.fills += s.fills
            total.sent_fetches += s.sent_fetches
            total.sent_writes += s.sent_writes
            for reason, count in s.stalls.items():
                total.stalls[reason] = total.stalls.get(reason, 0) + count

        policy_total: Dict[str, float] = {}
        for cache in self.caches:
            for key, value in cache.policy.stats().items():
                policy_total[key] = policy_total.get(key, 0) + value

        return SimResult(
            cycles=0,
            thread_insns=0,
            warp_insns=0,
            l1d=total,
            interconnect={
                "total_requests": self.sent_fetches + self.sent_writes,
                "read_requests": self.sent_fetches,
                "write_requests": self.sent_writes,
            },
            l2={},
            dram={},
            policy=policy_total,
            per_sm_l1d=per_sm,
            ldst_stall_cycles=0,
            truncated=False,
        )


# ----------------------------------------------------------------------
# front doors
# ----------------------------------------------------------------------

def _resolve(scheme: Union[str, CachePolicy, None], config: GPUConfig,
             **policy_kwargs) -> Tuple[GPUConfig, object]:
    """Map a scheme name to (possibly resized config, policy factory),
    mirroring :func:`repro.experiments.runner.build_simulator`."""
    if callable(scheme) and not isinstance(scheme, str):
        return config, scheme
    name = scheme or "baseline"
    if name in ("32kb", "64kb"):
        config = config.with_l1d_size_kb(int(name[:-2]))
        name = "baseline"
    return config, (lambda: make_policy(name, **policy_kwargs))


def make_replay_engine(engine: str, config: GPUConfig,
                       factory) -> "ReplayEngine":
    """Build the selected replay engine (both share run()/result()).

    The packed engine replays blocking L1Ds only, so a non-blocking
    ``fast`` replay runs the reference engine."""
    if validate_engine(engine) == "fast" and not config.l1d.non_blocking:
        # Imported lazily: repro.fastsim.replay imports this module.
        from repro.fastsim.replay import FastReplayEngine

        return FastReplayEngine(config, factory)  # type: ignore[return-value]
    return ReplayEngine(config, factory)


def check_trace_fits(reader: TraceReader, config: GPUConfig) -> None:
    """Reject a machine the trace cannot replay on: fewer SMs than SM
    streams, or a different line size (block addresses are
    line-granular)."""
    if config.num_sms < reader.num_sms:
        raise ValueError(
            f"trace has {reader.num_sms} SM streams but config provides "
            f"only {config.num_sms} SMs"
        )
    if config.l1d.line_size != reader.line_size:
        raise ValueError(
            f"line-size mismatch: trace recorded at {reader.line_size} B, "
            f"config uses {config.l1d.line_size} B"
        )


def replay_records(
    records: Iterable[TraceRecord],
    config: GPUConfig,
    scheme: Union[str, object] = "baseline",
    engine: str = "reference",
    **policy_kwargs,
) -> SimResult:
    """Replay an in-memory record stream through one scheme."""
    config, factory = _resolve(scheme, config, **policy_kwargs)
    return make_replay_engine(engine, config, factory).run(records)


def replay_trace(
    trace: Union[TraceReader, str],
    scheme: Union[str, object] = "baseline",
    config: Optional[GPUConfig] = None,
    engine: str = "reference",
    **policy_kwargs,
) -> SimResult:
    """Replay a recorded trace file through one scheme.

    ``config`` defaults to the machine shape stored in the trace header
    (``num_sms`` SMs of the Table 1 core); when given, its line size
    must match the trace's — block addresses are line-granular.
    """
    reader = trace if isinstance(trace, TraceReader) else TraceReader(trace)
    if config is None:
        config = GPUConfig().scaled(reader.num_sms)
    check_trace_fits(reader, config)
    config, factory = _resolve(scheme, config, **policy_kwargs)
    replay_engine = make_replay_engine(engine, config, factory)
    # The reader itself, not an iterator over it: the fast engine
    # decodes a whole trace vectorized.
    result = replay_engine.run(reader)
    replayed = replay_engine.replayed_per_sm[: reader.num_sms]
    if replayed != reader.records_per_sm:
        bad = [
            f"SM{sm}: header says {want}, replayed {got}"
            for sm, (want, got) in enumerate(zip(reader.records_per_sm, replayed))
            if want != got
        ]
        raise TraceFormatError(
            f"{reader.path}: replayed record counts disagree with the "
            f"trace header ({'; '.join(bad)}) — the trace is corrupt or "
            f"its header was edited"
        )
    return result


def replay_lanes(
    source: Union[TraceReader, Sequence[TraceRecord]],
    lanes: Sequence[Tuple[Union[str, object], Dict[str, object]]],
    config: Optional[GPUConfig] = None,
    engine: str = "reference",
) -> List[SimResult]:
    """Replay each ``(scheme, policy_kwargs)`` lane over one source.

    Under the packed engine every lane runs in one
    :func:`~repro.batchsim.engine.replay_batch` pass over one decode of
    ``source``; under the reference engine the lanes replay one by one.
    ``source`` is a :class:`TraceReader` (``config`` defaults to its
    header's machine, as for :func:`replay_trace`) or an in-memory
    record sequence (``config`` required).  Results are in lane order
    and identical under either engine.
    """
    if config is None:
        if not isinstance(source, TraceReader):
            raise ValueError("replaying in-memory records needs a config")
        config = GPUConfig().scaled(source.num_sms)
    if validate_engine(engine) == "fast":
        # Imported lazily: repro.batchsim.engine imports this module.
        from repro.batchsim.engine import replay_batch

        return replay_batch(source, lanes, config)
    if isinstance(source, TraceReader):
        return [replay_trace(source, scheme, config, **kwargs)
                for scheme, kwargs in lanes]
    return [replay_records(iter(source), config, scheme, **kwargs)
            for scheme, kwargs in lanes]


def replay_workload(
    workload: Workload,
    config: Optional[GPUConfig] = None,
    scheme: Union[str, object] = "baseline",
    engine: str = "reference",
    **policy_kwargs,
) -> SimResult:
    """The functional path: drive a scheme from the live access stream
    (no trace file).  Bit-identical to recording then replaying."""
    from repro.trace.record import stream_records

    config = config or GPUConfig()
    return replay_records(
        stream_records(workload, config), config, scheme, engine=engine,
        **policy_kwargs
    )

"""Fast trace replay over the packed engine.

:class:`FastReplayEngine` is the drop-in counterpart of
:class:`repro.trace.replay.ReplayEngine` for ``--engine fast``: same
record streams in, bit-identical :class:`~repro.gpu.simulator.SimResult`
out.

A blocking replay of a fresh engine is the one-lane case of the batch
replay engine: the stream decodes to per-SM columns
(:mod:`repro.batchsim.decode`, vectorized when the source is a
:class:`~repro.trace.format.TraceReader`) and each SM's cache runs the
generated kernel for its policy (:mod:`repro.batchsim.kernels`).  The
kernels rely on the blocking-replay invariants the reference engine
documents — fills are immediate, so no RESERVED line survives between
accesses, pending-hit merges never occur and the MSHR/miss queue never
fill.  Non-blocking replays, where those invariants do not hold, and
reruns over already-warmed caches, which the kernels refuse, drive the
packed caches record by record through the reference engine's protocol
drivers instead.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List

from repro.fastsim.engine import FastL1DCache, PolicySpec
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceRecord
from repro.trace.replay import ReplayEngine


class FastReplayEngine:
    """Per-SM packed caches consuming a record stream.

    Constructor-compatible with :class:`ReplayEngine` (``config`` plus a
    policy factory); the factory is invoked once to extract the
    :class:`PolicySpec` every per-SM cache shares.
    """

    def __init__(self, config: GPUConfig, policy_factory) -> None:
        self.config = config
        spec = PolicySpec.from_policy(policy_factory())
        self._insn_ids: Dict[int, int] = {}
        self.sent_fetches = 0
        self.sent_writes = 0
        l1 = config.l1d
        self.non_blocking = l1.non_blocking
        self.caches: List[FastL1DCache] = [
            FastL1DCache(
                l1.geometry(),
                spec,
                mshr_entries=l1.mshr_entries,
                mshr_merge=l1.mshr_merge,
                miss_queue_depth=l1.miss_queue_depth,
                sm_id=sm_id,
                non_blocking=l1.non_blocking,
            )
            for sm_id in range(config.num_sms)
        ]
        self.replayed_records = 0
        self.replayed_per_sm: List[int] = [0] * config.num_sms
        self._nb_outstanding = [deque() for _ in range(config.num_sms)]
        self._nb_seq: List[int] = [0] * config.num_sms

    # Non-blocking replays and warmed reruns reuse the reference
    # engine's generic drivers verbatim (duck-typed: FastL1DCache exposes
    # access/fill/miss_queue/stats) — the per-record protocol then
    # touches the packed caches exactly as it touches the reference ones.
    access = ReplayEngine.access
    _access_blocking = ReplayEngine._access_blocking
    _access_non_blocking = ReplayEngine._access_non_blocking
    _insn_id = ReplayEngine._insn_id
    _count_send = ReplayEngine._count_send
    flush = ReplayEngine.flush

    def run(self, records: Iterable[TraceRecord]) -> SimResult:
        if self.non_blocking or any(
            c._stamp or c.stats.loads or c.stats.stores for c in self.caches
        ):
            return ReplayEngine.run(self, records)  # type: ignore[arg-type]
        # Imported lazily: repro.batchsim.engine builds on this module.
        from repro.batchsim import engine as batch

        batch.run_lane(self, batch.decode_source(records, self.config))
        return self.result()

    def result(self) -> SimResult:
        # Every send in replay lands in its cache's counters (bypasses at
        # issue, queued requests at drain), so the engine-level totals the
        # reference accumulates are exactly the per-cache sums.
        self.sent_fetches = sum(c.stats.sent_fetches for c in self.caches)
        self.sent_writes = sum(c.stats.sent_writes for c in self.caches)
        # Duck-typed reuse of the reference aggregation: self.caches
        # expose .stats and .policy.stats(), which is all it reads —
        # guaranteeing the assembled SimResult matches field for field.
        return ReplayEngine.result(self)  # type: ignore[arg-type]


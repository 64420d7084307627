"""Fast trace replay over the packed engine.

:class:`FastReplayEngine` is the packed counterpart of
:class:`repro.trace.replay.ReplayEngine` for blocking ``--engine fast``
replays: same record streams in, bit-identical
:class:`~repro.gpu.simulator.SimResult` out.

A fast replay is the one-lane case of the batch replay engine: the
stream decodes to per-SM columns (:mod:`repro.batchsim.decode`,
vectorized when the source is a :class:`~repro.trace.format.TraceReader`)
and each SM's cache runs the generated kernel for its policy
(:mod:`repro.batchsim.kernels`).  The kernels rely on the
blocking-replay invariants the reference engine documents — fills are
immediate, so no RESERVED line survives between accesses, pending-hit
merges never occur and the MSHR/miss queue never fill.  Non-blocking
replays, where those invariants do not hold, run the reference engine
(:func:`repro.trace.replay.make_replay_engine` picks it), and an engine
runs once: the kernels refuse an already-warmed cache.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.fastsim.engine import FastL1DCache, PolicySpec
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceRecord
from repro.trace.replay import ReplayEngine


class FastReplayEngine:
    """Per-SM packed caches consuming one blocking record stream.

    Constructor-compatible with :class:`ReplayEngine` (``config`` plus a
    policy factory); the factory is invoked once to read the
    :class:`PolicySpec` every per-SM cache shares.
    """

    def __init__(self, config: GPUConfig, policy_factory) -> None:
        if config.l1d.non_blocking:
            raise ValueError(
                "the packed engine replays blocking L1Ds only; non-blocking "
                "replays run the reference engine"
            )
        self.config = config
        geometry = config.l1d.geometry()
        spec = PolicySpec.from_policy(policy_factory(), geometry)
        self.sent_fetches = 0
        self.sent_writes = 0
        self.caches: List[FastL1DCache] = [
            FastL1DCache(geometry, spec) for _ in range(config.num_sms)
        ]
        self.replayed_records = 0
        self.replayed_per_sm: List[int] = [0] * config.num_sms

    def run(self, records: Iterable[TraceRecord]) -> SimResult:
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

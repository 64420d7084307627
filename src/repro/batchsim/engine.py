"""The batch replay engine: N policy lanes over one decoded trace.

:func:`replay_batch` is the multi-lane front door: it decodes and
partitions the trace once (:func:`decode_source`), then advances every
lane — a (scheme, policy_kwargs) variant — through the stream via the
specialized kernels in :mod:`repro.batchsim.kernels`.  Lanes whose
blocking-replay trajectories are provably identical (``baseline`` vs
``stall_bypass``, knobs the replay path never reads such as
``insn_sample_limit``) share one kernel run and the survivors get a
state copy, so a 17-cell ablation grid costs ~15 kernel passes plus one
decode instead of 17 full replays.

A solo ``--engine fast`` replay is the one-lane case:
:meth:`~repro.fastsim.replay.FastReplayEngine.run` decodes its stream
with :func:`decode_source` and drives its caches with
:func:`run_lane`.  Every lane is bit-identical to a solo replay through
the reference engine (:class:`~repro.trace.replay.ReplayEngine`), the
oracle of the differential suites in ``tests/batchsim`` and
``tests/fastsim``.  Non-blocking mode has no batch specialization —
fills in flight break the per-window set decomposition — so NB lanes
run the reference engine, one private engine per lane (no cross-lane
state by construction).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.fastsim.engine import KIND_DLP, FastL1DCache
from repro.fastsim.replay import FastReplayEngine
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import SimResult
from repro.trace.format import TraceReader, TraceRecord
from repro.trace.replay import ReplayEngine, _resolve, check_trace_fits

from repro.batchsim.decode import (
    TracePartitions,
    _columns_from_lists,
    decode_reader,
    decode_records,
)
from repro.batchsim.kernels import DLP, GLOBAL, UNPROTECTED, get_kernel, kernel_key

#: One lane: (scheme, policy kwargs) — the same pair ``repro sweep``
#: passes to :func:`repro.trace.replay.replay_trace`.
Lane = Tuple[Union[str, Any], Dict[str, Any]]

_COPY_INTS = (
    "_stamp", "samples_completed", "protected_bypasses",
    "_vta_hit_count", "_vta_insert_count", "_vta_stamp",
    "_g_tda", "_g_vta", "_gpd", "_gp_tda", "_gp_vta",
)
_COPY_LISTS = (
    "_st", "_blk", "_lru", "_iid", "_pli",
    "_pdt", "_pdv", "_pdl", "_pdu",
    "_vta_valid", "_vta_blk", "_vta_iid", "_vta_lru",
)


def _lane_key(cache: FastL1DCache) -> Tuple[Any, ...]:
    """Trajectory identity of one lane's blocking replay.

    Two lanes with equal keys take bit-identical paths through the
    stream: the key covers the geometry and every policy knob the
    blocking replay protocol reads.  ``insn_sample_limit`` is absent
    (replay never counts instructions) and ``baseline`` /
    ``stall_bypass`` collapse to one unprotected group (the only stall
    blocking replay can raise is one unprotected policies never hit).
    """
    geom = cache.geometry
    base: Tuple[Any, ...] = (geom.num_sets, geom.assoc, geom.index_fn)
    if not cache._protected:
        return base + (UNPROTECTED,)
    kind = DLP if cache._kind == KIND_DLP else GLOBAL
    return base + (kind, cache._bypass_enabled, cache._acc_limit,
                   cache._vta_assoc, cache._pl_max, cache._nasc)


def _copy_cache(src: FastL1DCache, dst: FastL1DCache) -> None:
    """Copy one cache's full observable end state onto a duplicate lane."""
    for name in _COPY_INTS:
        setattr(dst, name, getattr(src, name))
    for name in _COPY_LISTS:
        getattr(dst, name)[:] = getattr(src, name)
    dst.pd_updates = dict(src.pd_updates)
    for field, value in vars(src.stats).items():
        setattr(dst.stats, field,
                dict(value) if isinstance(value, dict) else value)


def run_lane(engine: FastReplayEngine, parts: TracePartitions) -> None:
    """Drive one lane's fresh per-SM caches through the shared partitions."""
    for sm_id, cache in enumerate(engine.caches):
        columns = parts.columns[sm_id]
        part = parts.get(sm_id, cache._num_sets, cache.geometry.index_fn)
        kernel = get_kernel(kernel_key(cache, parts.max_insn))
        if cache._protected:
            windows, full = part.windows(cache._acc_limit)
        else:
            windows, full = part.whole_stream()
        kernel(cache, windows, full, sm_id)
        engine.replayed_per_sm[sm_id] += columns.n
        engine.replayed_records += columns.n


def decode_source(
    source: Union[TraceReader, Iterable[TraceRecord]], config: GPUConfig
) -> TracePartitions:
    """Decode a replay source once into the partitions lanes share.

    A :class:`TraceReader` decodes vectorized (and must fit ``config``,
    as for :func:`~repro.trace.replay.replay_trace`); SMs the trace
    lacks replay empty streams.  Any other iterable is an in-memory
    record stream, bucketed per SM.
    """
    if not isinstance(source, TraceReader):
        return TracePartitions(decode_records(source, config.num_sms))
    check_trace_fits(source, config)
    columns = decode_reader(source)
    while len(columns) < config.num_sms:
        columns.append(_columns_from_lists(len(columns), [], [], [], []))
    return TracePartitions(columns)


def replay_batch(
    source: Union[TraceReader, Sequence[TraceRecord]],
    lanes: Sequence[Lane],
    config: Optional[GPUConfig] = None,
) -> List[SimResult]:
    """Replay every lane over one decode of ``source``.

    ``source`` is a :class:`TraceReader` (decoded vectorized) or an
    in-memory record sequence; ``lanes`` are (scheme, policy_kwargs)
    pairs.  Returns one :class:`SimResult` per lane, in order, each
    bit-identical to a solo ``replay_trace(..., engine="reference")``
    run of that lane.
    """
    if config is None:
        config = GPUConfig()
    parts = decode_source(source, config)

    engines: List[Union[FastReplayEngine, ReplayEngine]] = []
    done: Dict[Tuple[Any, ...], FastReplayEngine] = {}
    nb_records: List[TraceRecord] = []
    for scheme, policy_kwargs in lanes:
        lane_config, factory = _resolve(scheme, config, **policy_kwargs)
        if lane_config.l1d.non_blocking:
            # No batch specialization: fills in flight break the window
            # decomposition.  Each NB lane gets its own reference engine
            # pass over the shared decoded records — lane isolation by
            # construction.
            if not nb_records:
                for col in parts.columns:
                    nb_records.extend(col.records())
            reference = ReplayEngine(lane_config, factory)
            reference.run(iter(nb_records))
            engines.append(reference)
            continue
        engine = FastReplayEngine(lane_config, factory)
        engines.append(engine)
        key = _lane_key(engine.caches[0])
        prior = done.get(key)
        if prior is None:
            run_lane(engine, parts)
            done[key] = engine
        else:
            for src, dst in zip(prior.caches, engine.caches):
                _copy_cache(src, dst)
            engine.replayed_per_sm = list(prior.replayed_per_sm)
            engine.replayed_records = prior.replayed_records
    return [engine.result() for engine in engines]


__all__ = ["Lane", "decode_source", "replay_batch", "run_lane"]

"""Traced runs: spans and counts at the repo's layer boundaries.

:func:`instrument` wraps public functions of each layer from outside
the program (the program itself carries no tracing).  Every wrapped
call is timed; a layer's *self time* is its call's duration minus the
time of the wrapped calls it made.  Calls on hot paths (millions per
pass) are aggregated per name; coarse boundaries (cells, sweeps, store
operations, HTTP routes) also keep one span record each — name, start,
end, parent span, run id — held in memory and written out by
:meth:`Tracer.dump` when the run ends.

End-to-end numbers never come from a traced pass.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: List[Tuple[int, str, float, float, Optional[int], str]] = []
        # One frame per active wrapped call (see _enter).
        self._stack: List[list] = []
        self._next_span = 0

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn: Callable, record: bool = False,
             on_result: Optional[Callable[[Tuple, Dict, Any], None]] = None
             ) -> Callable:
        """A timed stand-in for ``fn``; ``record`` keeps one span per
        call, ``on_result(args, kwargs, result)`` updates counts."""
        calls = self.calls

        def timed(*args, **kwargs):
            frame = self._enter(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame)
                calls[name] += 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    def timed_iter(self, name: str, iterator):
        """Time every ``next()`` on ``iterator``; ``counts[name]`` is the
        number of items it yielded."""
        return _TimedIter(self, name, iter(iterator))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A recorded span around a block of the benchmark's own code."""
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, frame)
            self.calls[name] += 1

    def _enter(self, record: bool) -> list:
        """Push a frame: [child seconds, span id, parent span id, start]."""
        span_id = parent = None
        if record:
            parent = next((f[1] for f in reversed(self._stack)
                           if f[1] is not None), None)
            span_id = self._next_span
            self._next_span += 1
        frame = [0.0, span_id, parent, _clock()]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = _clock()
        elapsed = end - frame[3]
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        self.self_s[name] += elapsed - frame[0]
        if frame[1] is not None:
            self.spans.append(
                (frame[1], name, frame[3], end, frame[2], self.run_id))

    # -- results -----------------------------------------------------------

    def merge(self, doc: Dict[str, Any]) -> None:
        """Fold in another process's :meth:`to_dict` output (its span ids
        are renumbered after this tracer's own)."""
        for name, value in doc["self_s"].items():
            self.self_s[name] += value
        self.calls.update(doc["calls"])
        self.counts.update(doc["counts"])
        offset = self._next_span
        for span_id, name, start, end, parent, run_id in doc["spans"]:
            self.spans.append((
                span_id + offset, name, start, end,
                None if parent is None else parent + offset, run_id))
            self._next_span = max(self._next_span, span_id + offset + 1)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()))


class _TimedIter:
    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it) -> None:
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        frame = tracer._enter(False)
        try:
            item = next(self._it)
        finally:
            tracer._exit(self._name, frame)
        tracer.counts[self._name] += 1
        return item


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------

def instrument(tracer: Tracer, server_only: bool = False) -> Callable[[], None]:
    """Wrap every layer boundary the per-layer metrics read; returns a
    function that restores the originals.  ``server_only`` wraps just
    the layers a ``repro serve`` process runs in itself (store and
    serve; its worker processes are not traced)."""
    import repro.experiments.store as store_mod
    import repro.serve.cluster as cluster_mod
    import repro.serve.server as server_mod

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str, **kw: Any) -> None:
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **kw))

    def on_get(args, kwargs, result) -> None:
        if result is not None:
            tracer.counts["store.hits"] += 1

    patch(store_mod.ResultStore, "get", "store.get", record=True,
          on_result=on_get)
    patch(store_mod.ResultStore, "put", "store.put", record=True)
    patch(server_mod.ServeApp, "route", "serve.route", record=True)
    patch(cluster_mod.ClusterScheduler, "submit", "serve.submit")
    if server_only:
        return _restorer(patches)

    import repro.batchsim.engine as batch_engine
    import repro.cache.l1d as l1d_mod
    import repro.experiments.executor as executor_mod
    import repro.fastsim.replay as fast_replay
    import repro.gpu.kernel as kernel_mod
    import repro.gpu.ldst as ldst_mod
    import repro.gpu.scheduler as sched_mod
    import repro.gpu.simulator as sim_mod
    import repro.gpu.sm as sm_mod
    import repro.memory.interconnect as icnt_mod
    import repro.memory.partition as part_mod
    import repro.predict.executor as predict_exec
    import repro.trace.format as format_mod
    import repro.trace.record as record_mod
    import repro.trace.sweep as trace_sweep
    import repro.workloads.base as wl_base

    # workloads: kernel construction and lazily generated warp traces
    patch(wl_base.Workload, "kernels", "workloads.build")
    warp_trace = kernel_mod.Kernel.warp_trace
    patches.append((kernel_mod.Kernel, "warp_trace", warp_trace))
    kernel_mod.Kernel.warp_trace = (  # type: ignore[method-assign]
        lambda self, cta, warp: tracer.timed_iter(
            "workloads.trace", warp_trace(self, cta, warp)))

    # gpu: the event loop, SM cycles, warp scheduling, coalescing, LD/ST
    patch(executor_mod.SweepExecutor, "run_cell", "executor.cell",
          record=True)
    patch(sim_mod.GpuSimulator, "run", "gpu.loop", record=True)
    patch(sim_mod.GpuSimulator, "schedule", "gpu.schedule")
    patch(sm_mod.StreamingMultiprocessor, "step", "gpu.sm_step")

    def on_pick(args, kwargs, result) -> None:
        if result is None:
            tracer.counts["gpu.pick_idle"] += 1

    for cls in {sched_mod.GtoScheduler, sched_mod.LrrScheduler}:
        if "pick" in vars(cls):
            patch(cls, "pick", "gpu.pick", on_result=on_pick)
    patch(sm_mod, "coalesce", "gpu.coalesce")
    patch(ldst_mod.LdStUnit, "step", "gpu.ldst")

    # cache/core: the reference L1D and its policy hooks
    def on_access(args, kwargs, result) -> None:
        if result.is_stall:
            tracer.counts["cache.stalls"] += 1

    patch(l1d_mod.L1DCache, "access", "cache.access", on_result=on_access)
    patch(l1d_mod.L1DCache, "fill", "cache.fill")

    # memory: interconnect and memory partitions (L2 + DRAM)
    patch(icnt_mod.Interconnect, "send_request", "memory.icnt")
    patch(icnt_mod.Interconnect, "send_response", "memory.icnt")
    patch(part_mod.MemoryPartition, "receive", "memory.partition")

    # trace: capture and decode
    def on_record(args, kwargs, result) -> None:
        tracer.counts["trace.records"] += format_mod.TraceReader(
            result).total_records

    patch(record_mod, "record_workload", "trace.record", record=True,
          on_result=on_record)
    sm_stream = format_mod.TraceReader.sm_stream
    patches.append((format_mod.TraceReader, "sm_stream", sm_stream))
    format_mod.TraceReader.sm_stream = (  # type: ignore[method-assign]
        lambda self, sm_id: tracer.timed_iter(
            "trace.read", sm_stream(self, sm_id)))

    # fastsim: the packed solo replay
    fast_run = fast_replay.FastReplayEngine.run

    def counted_fast_run(self, records):
        before = self.replayed_records
        result = fast_run(self, records)
        tracer.counts["fastsim.records"] += self.replayed_records - before
        return result

    patches.append((fast_replay.FastReplayEngine, "run", fast_run))
    fast_replay.FastReplayEngine.run = tracer.wrap(  # type: ignore
        "fastsim.replay", counted_fast_run)
    patch(trace_sweep.ReplaySweepExecutor, "run_cell", "replay.cell",
          record=True)

    # batchsim: vectorised decode and the N-lane batch replay
    def on_batch(args, kwargs, result) -> None:
        tracer.counts["batchsim.lanes"] += len(result)

    patch(batch_engine, "decode_reader", "batchsim.decode")
    patch(batch_engine, "replay_batch", "batchsim.replay", record=True,
          on_result=on_batch)
    patch(trace_sweep.ReplaySweepExecutor, "run_grid", "replay.grid",
          record=True)

    # predict: profiling passes and the analytical model
    patch(predict_exec.PredictSweepExecutor, "profile_for",
          "predict.profile", record=True)
    patch(predict_exec, "predict", "predict.model")
    return _restorer(patches)


def _restorer(patches: List[Tuple[Any, str, Any]]) -> Callable[[], None]:
    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        patches.clear()
    return restore


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    """A share of work done; 0.0 when the layer did no work at all."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (times are self time)."""
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    return {
        "workloads.build_s": s["workloads.build"],
        "workloads.trace_s": s["workloads.trace"],
        "workloads.trace_ops": n["workloads.trace"],
        "gpu.loop_self_s": s["gpu.loop"],
        "gpu.events": c["gpu.schedule"],
        "gpu.sm_step_self_s": s["gpu.sm_step"],
        "gpu.sm_steps": c["gpu.sm_step"],
        "gpu.pick_self_s": s["gpu.pick"],
        "gpu.picks": c["gpu.pick"],
        "gpu.pick_idle_frac": _ratio(n["gpu.pick_idle"], c["gpu.pick"]),
        "gpu.coalesce_s": s["gpu.coalesce"],
        "gpu.coalesce_calls": c["gpu.coalesce"],
        "gpu.ldst_self_s": s["gpu.ldst"],
        "cache.access_self_s": s["cache.access"],
        "cache.accesses": c["cache.access"],
        "cache.stall_frac": _ratio(n["cache.stalls"], c["cache.access"]),
        "cache.fill_self_s": s["cache.fill"],
        "cache.fills": c["cache.fill"],
        "memory.icnt_self_s": s["memory.icnt"],
        "memory.icnt_msgs": c["memory.icnt"],
        "memory.partition_self_s": s["memory.partition"],
        "memory.partition_reqs": c["memory.partition"],
        "trace.record_s": s["trace.record"],
        "trace.records": n["trace.records"],
        "trace.read_s": s["trace.read"],
        "fastsim.replay_self_s": s["fastsim.replay"],
        "fastsim.records": n["fastsim.records"],
        "batchsim.decode_s": s["batchsim.decode"],
        "batchsim.replay_self_s": s["batchsim.replay"],
        "batchsim.lanes": n["batchsim.lanes"],
        "predict.profile_s": s["predict.profile"],
        "predict.model_s": s["predict.model"],
        "predict.cells": c["predict.model"],
        "store.put_s": s["store.put"],
        "store.puts": c["store.put"],
        "store.get_s": s["store.get"],
        "store.gets": c["store.get"],
        "store.hit_frac": _ratio(n["store.hits"], c["store.get"]),
        "serve.route_self_s": s["serve.route"],
        "serve.requests": c["serve.route"],
        "serve.submit_s": s["serve.submit"],
    }

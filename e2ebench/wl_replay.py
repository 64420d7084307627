"""Workload ``replay_sweeps``: the L1D replay engines, trace decode,
predict and the on-disk store.

Setup records all 18 traces at ``num_sms=2``, ``scale=0.5`` into a
scratch trace directory and resolves the first app's cells once into a
throwaway store (imports and generated batch kernels).  Each pass then uses a fresh on-disk
:class:`ResultStore` and, in order:

1. a Fig. 9-style frontier, ``ReplaySweepExecutor(engine="batch")
   .run_grid(app, "dlp", nasc=0:4 x pd_bits=2,4,6)`` per app (270 cells);
2. the ``repro sweep --replay --engine fast`` sweep, 18 apps x
   ``TRAFFIC_SCHEMES`` (72 cells), one ``run_cell`` at a time;
3. a cold ``PredictSweepExecutor(trace_dir=...)`` sweep of the same 72
   cells;
4. a warm re-read of all 342 stored cells through the same executors.

Why: the replay engines, decode, predict and the store (fsync'd puts
beside reads) do the work; the timing path runs only in setup.
"""

from __future__ import annotations

import shutil
from typing import Any, Dict, List

from common import LOCAL_PROBES, Span, digest, timed

NAME = "replay_sweeps"
MIN_PASSES = 2
SETUP_REPEATS = 2

FULL = {"apps": None, "num_sms": 2, "scale": 0.5,
        "axes": ("nasc=0:4", "pd_bits=2,4,6")}
SMOKE = {"apps": ("MM", "BFS"), "num_sms": 1, "scale": 0.1,
         "axes": ("nasc=0,4", "pd_bits=4")}


def spec(ctx) -> Dict[str, Any]:
    from repro.batchsim.grid import parse_grid_axis
    from repro.experiments.runner import TRAFFIC_SCHEMES
    from repro.workloads import ALL_APPS

    s = dict(SMOKE if ctx.smoke else FULL)
    s["apps"] = tuple(s["apps"] or ALL_APPS)
    s["schemes"] = TRAFFIC_SCHEMES
    s["axes"] = [parse_grid_axis(text) for text in s["axes"]]
    return s


def record_traces(ctx, trace_dir) -> None:
    """Record every app's stream where the replay executors look."""
    import repro.trace.record as record_mod
    from repro.experiments.store import trace_key
    from repro.gpu.config import GPUConfig
    from repro.trace.sweep import TraceStore
    from repro.workloads import make_workload

    s = spec(ctx)
    config = GPUConfig().scaled(s["num_sms"])
    traces = TraceStore(trace_dir)
    for app in s["apps"]:
        path = traces.path_for(
            trace_key(app, config, scale=s["scale"], seed=ctx.seed))
        record_mod.record_workload(
            make_workload(app, s["scale"], seed=ctx.seed), config, path)


def _warm_up(ctx, trace_dir) -> None:
    """Resolve one app's cells once into a throwaway store, so the lazy
    set-up (imports, generated batch kernels) is paid here and not by
    the first pass."""
    from repro.experiments.store import MemoryStore
    from repro.predict.executor import PredictSweepExecutor
    from repro.trace.sweep import ReplaySweepExecutor

    s = spec(ctx)
    app, kw = s["apps"][0], {"num_sms": s["num_sms"], "scale": s["scale"],
                             "seed": ctx.seed}
    store = MemoryStore()
    ReplaySweepExecutor(store=store, trace_dir=trace_dir,
                        engine="batch").run_grid(app, "dlp", s["axes"], **kw)
    fast = ReplaySweepExecutor(store=store, trace_dir=trace_dir, engine="fast")
    predictor = PredictSweepExecutor(trace_dir=trace_dir)
    for scheme in s["schemes"]:
        fast.run_cell(app, scheme, **kw)
        predictor.run_cell(app, scheme, **kw)


def _set_up(ctx, trace_dir) -> None:
    record_traces(ctx, trace_dir)
    _warm_up(ctx, trace_dir)


def setup(ctx, repeats: int = SETUP_REPEATS) -> List[Span]:
    spans: List[Span] = []
    for rep in range(repeats):
        trace_dir = ctx.work / f"traces-{rep}"
        timed(spans, _set_up, ctx, trace_dir)
        ctx.meter.probe(LOCAL_PROBES)
        if rep:
            shutil.rmtree(ctx.work / f"traces-{rep - 1}")
    ctx.trace_dir = ctx.work / f"traces-{repeats - 1}"
    return spans


def _sweeps(s, ctx, store, frontier_units: List[Span], cells: List[Span],
            meter=None):
    """The frontier (one timed unit per app), then the per-cell sweep
    (one per cell); returns both result maps and the two executors'
    stats.  ``meter`` probes the host speed before each unit,
    outside its timing."""
    from repro.trace.sweep import ReplaySweepExecutor

    kw = {"num_sms": s["num_sms"], "scale": s["scale"], "seed": ctx.seed}
    grid_ex = ReplaySweepExecutor(store=store, trace_dir=ctx.trace_dir,
                                  engine="batch")
    frontier = {}
    for app in s["apps"]:
        if meter is not None:
            meter.probe()
        frontier[app] = timed(frontier_units, grid_ex.run_grid, app, "dlp",
                              s["axes"], **kw)
    cell_ex = ReplaySweepExecutor(store=store, trace_dir=ctx.trace_dir,
                                  engine="fast")
    sweep = {}
    for app in s["apps"]:
        for scheme in s["schemes"]:
            if meter is not None:
                meter.probe()
            sweep[app, scheme] = timed(cells, cell_ex.run_cell, app, scheme,
                                       **kw)
    return frontier, sweep, (grid_ex.stats, cell_ex.stats)


def run_pass(ctx, ledger, tracer=None, sample: bool = False
             ) -> Dict[str, Any]:
    from repro.experiments.store import ResultStore
    from repro.predict.executor import PredictSweepExecutor

    s = spec(ctx)
    ctx.pass_index += 1
    store_dir = ctx.work / f"store-{ctx.pass_index}"
    store = ResultStore(store_dir)
    kw = {"num_sms": s["num_sms"], "scale": s["scale"], "seed": ctx.seed}

    frontier_units: List[Span] = []
    cells: List[Span] = []
    frontier, sweep, _ = _sweeps(s, ctx, store, frontier_units, cells,
                                 ctx.meter)
    predictor = PredictSweepExecutor(trace_dir=ctx.trace_dir)
    predicted, predict_units = {}, []
    for app in s["apps"]:
        ctx.meter.probe()
        for scheme in s["schemes"]:
            predicted[app, scheme] = timed(predict_units, predictor.run_cell,
                                           app, scheme, **kw)
    reread_units: List[Span] = []
    warm_frontier, warm_sweep, warm_stats = timed(
        reread_units, _sweeps, s, ctx, store, [], [])
    ctx.meter.probe(LOCAL_PROBES)
    stage = {"frontier_s": frontier_units, "replay_sweep_s": cells,
             "predict_s": predict_units, "reread_s": reread_units}

    cold = {}
    for app, grid in frontier.items():
        for label, result in grid.items():
            key = f"frontier/{app}/{label}"
            cold[key] = ledger.ok(key, result.to_dict())
    for (app, scheme), result in sweep.items():
        key = f"sweep/{app}/{scheme}"
        cold[key] = ledger.ok(key, result.to_dict())
    for (app, scheme), prediction in predicted.items():
        ledger.ok(f"predict/{app}/{scheme}", prediction.to_dict())
    # The batch lane at DLP's default knobs must equal the solo fast
    # replay of the default DLP cell.
    default = _default_label(s)
    for app in s["apps"]:
        if default in frontier[app] and (app, "dlp") in sweep:
            ledger.check(
                f"engines/{app}",
                cold[f"frontier/{app}/{default}"]
                == cold[f"sweep/{app}/dlp"],
                "batch frontier at default knobs differs from fast replay")

    warm = {f"frontier/{app}/{label}": result
            for app, grid in warm_frontier.items()
            for label, result in grid.items()}
    warm.update({f"sweep/{app}/{scheme}": result
                 for (app, scheme), result in warm_sweep.items()})
    replayed = sum(st.replayed for st in warm_stats)
    for key, result in warm.items():
        ledger.check(f"reread/{key}", digest(result.to_dict()) == cold[key],
                     "warm re-read differs from the cold result")
    if replayed:
        ledger.flag("reread", f"{replayed} cells replayed instead of read")
    shutil.rmtree(store_dir)

    units = [u for spans in stage.values() for u in spans]
    return {"units": units, "cells": cells,
            "sample_s": sum(d for _, d in units),
            "stage": {k: sum(d for _, d in v) for k, v in stage.items()}}


def _default_label(s) -> str:
    from repro.batchsim.grid import cell_label
    from repro.core.pdpt import PD_BITS
    from repro.gpu.config import GPUConfig

    assoc = GPUConfig().scaled(s["num_sms"]).l1d.geometry().assoc
    return cell_label({"nasc": assoc, "pd_bits": PD_BITS})


def traced_setup(ctx) -> None:
    """The traced run also records once, so trace capture and workload
    generation show in its layer table."""
    record_traces(ctx, ctx.work / "traces-traced")


"""Workload ``fig10_grid``: the Fig. 10 grid through the timing path.

18 apps x ``FIG10_SCHEMES`` (90 cells) at ``num_sms=2``, ``scale=0.1``
with the default engine.  Each pass uses a fresh in-memory
:class:`SweepExecutor` with ``jobs=1`` and resolves the cells one at a
time through ``run_cell`` in app-major order, so every cell simulates.
Why: the timing path (workloads, gpu, reference cache + core, memory)
does all of the work; trace, batchsim, predict, store and serve do none.
"""

from __future__ import annotations

import math
import subprocess
import sys
from typing import Any, Dict, List, Optional

from common import LOCAL_PROBES, Span, child_env, timed

NAME = "fig10_grid"
MIN_PASSES = 1
SETUP_REPEATS = 3
#: The traced run measures its overhead on the first apps of the grid
#: only, run untraced and traced: a whole untraced pass would double
#: the traced run's length.
SAMPLE_APPS = 2

FULL = {"apps": None, "schemes": None, "num_sms": 2, "scale": 0.1}
SMOKE = {"apps": ("MM", "BFS"), "schemes": ("baseline", "dlp"),
         "num_sms": 1, "scale": 0.05}

# What a user pays before the first cell: interpreter start, importing
# the timing stack and building every app's kernel list.
_SETUP = (
    "import sys\n"
    "from repro.experiments.executor import SweepExecutor\n"
    "from repro.workloads import make_workload\n"
    "for app in sys.argv[2:]:\n"
    "    make_workload(app, float(sys.argv[1])).kernels()\n"
)


def spec(ctx) -> Dict[str, Any]:
    from repro.experiments.runner import FIG10_SCHEMES
    from repro.workloads import ALL_APPS

    s = dict(SMOKE if ctx.smoke else FULL)
    s["apps"] = tuple(s["apps"] or ALL_APPS)
    s["schemes"] = tuple(s["schemes"] or FIG10_SCHEMES)
    return s


def setup(ctx, repeats: int = SETUP_REPEATS) -> List[Span]:
    s = spec(ctx)
    spans: List[Span] = []
    for _ in range(repeats):
        timed(spans, subprocess.run,
              [sys.executable, "-c", _SETUP, str(s["scale"]), *s["apps"]],
              cwd=ctx.root, env=child_env(ctx.root), check=True, timeout=120)
        ctx.meter.probe(LOCAL_PROBES)
    return spans


def run_pass(ctx, ledger, tracer=None, sample: bool = False
             ) -> Dict[str, Any]:
    """One pass over the grid; ``sample`` stops after the first
    :data:`SAMPLE_APPS` apps (a partial pass)."""
    from repro.experiments.executor import Cell, SweepExecutor
    from repro.gpu.simulator import SimResult

    s = spec(ctx)
    apps = s["apps"][:SAMPLE_APPS] if sample else s["apps"]
    executor = SweepExecutor(jobs=1)
    cells: List[Span] = []
    results = {}
    for app in apps:
        for scheme in s["schemes"]:
            ctx.meter.probe()
            results[app, scheme] = timed(cells, executor.run_cell, Cell.make(
                app, scheme, num_sms=s["num_sms"], scale=s["scale"],
                seed=ctx.seed))

    for (app, scheme), result in results.items():
        label = f"{app}/{scheme}"
        payload = result.to_dict()
        ledger.ok(label, payload)
        if result.truncated or result.cycles <= 0:
            ledger.flag(label, "truncated or empty simulation")
        if SimResult.from_dict(payload).to_dict() != payload:
            ledger.flag(label, "result does not round-trip through the store form")
    # The instruction stream does not depend on the cache scheme.  Only
    # at seed 0: a seeded cell derives its workload seed from its whole
    # key, scheme included, so each scheme then runs its own input.
    for app in apps if ctx.seed == 0 else ():
        insns = {(results[app, sch].thread_insns, results[app, sch].warp_insns)
                 for sch in s["schemes"]}
        if len(insns) != 1:
            ledger.flag(app, f"instruction counts differ across schemes: {insns}")

    return {
        "partial": sample,
        "units": cells,
        "cells": cells,
        "sample_s": sum(d for _, d in cells[:SAMPLE_APPS * len(s["schemes"])]),
        "stage": {},
        "warp_insns": sum(r.warp_insns for r in results.values()),
        "model": model_line(s, apps, results),
    }


def _geomean(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return math.exp(sum(math.log(v) for v in values) / len(values))


def model_line(s: Dict[str, Any], apps, results) -> str:
    """The modelled counts, for information only: they are exact for a
    fixed seed and are never gated."""
    from repro.workloads import CI_APPS, CS_APPS

    cycles = sum(r.cycles for r in results.values())
    warp_insns = sum(r.warp_insns for r in results.values())
    parts = [f"sim.cycles={cycles}", f"sim.warp_insns={warp_insns}"]
    if "dlp" in s["schemes"] and "baseline" in s["schemes"]:
        for group, members in (("CS", CS_APPS), ("CI", CI_APPS)):
            ratios = [results[a, "dlp"].ipc / results[a, "baseline"].ipc
                      for a in apps if a in members]
            g = _geomean(ratios)
            if g is not None:
                parts.append(f"dlp_over_baseline_ipc_geomean.{group}={g:.4f}")
    return (
        "model (simulated, not host time; num_sms=%d scale=%s): %s. "
        "The model is unvalidated against hardware: the repo holds no "
        "hardware measurements. Paper vs harness: see the Fig. 10 IPC "
        "row of EXPERIMENTS.md (DLP CI 1.44 in the paper vs 1.14 in the "
        "harness)." % (s["num_sms"], s["scale"], " ".join(parts))
    )


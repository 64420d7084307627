"""Workload ``serve_coldwarm``: the HTTP service, cold then warm.

Each pass starts ``repro serve --workers 1`` as its own process over an
empty store (the start is set-up, not timed in the pass).  One load
generator process drives it over 2 closed-loop connections, polling
job status every :data:`POLL_S` seconds, in two phases:

* cold: each of the 24 cells of the default ``loadtest.mix`` population
  once; all simulate and write the store;
* warm: 1200 zipfian repeats over the same population, all store hits.

Why: the serve and store-read layers do most of the warm work; the cold
phase puts timing cells and store writes behind the service.  Its times
are reported as measured, not scaled by host-speed probes: the work runs
in the server and worker processes while the load generator is busy, so
no probe can run beside it without disturbing it.  Cold and
warm requests are separate classes by construction, so no percentile
straddles the two.  Tier-0 predict requests are left out: their
background refinements would race the cold phase.
"""

from __future__ import annotations

import asyncio
import json
import select
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (BENCH_DIR, Span, child_env, digest,
                    median, peak_rss_mb_of, stop_group, tail_percentile,
                    timed)

NAME = "serve_coldwarm"
MIN_PASSES = 3
CONNECTIONS = 2
POLL_S = 0.02
REQUEST_TIMEOUT_S = 60.0

FULL = {"population": 24, "warm": 1200}
SMOKE = {"population": 4, "warm": 1000}


def spec(ctx) -> Dict[str, Any]:
    return dict(SMOKE if ctx.smoke else FULL)


def setup(ctx, repeats: int = 0) -> List[Span]:
    # The server is started fresh for every pass; its start times are
    # the set-up samples (see run_pass).  The load generator's imports
    # happen here, not in the first pass.
    import repro.loadtest.client  # noqa: F401
    import repro.serve.jobs  # noqa: F401

    ctx.setup_times = []
    return ctx.setup_times


def _start_server(ctx, store_dir, trace_out) -> Tuple[subprocess.Popen, int]:
    cmd = [sys.executable, str(BENCH_DIR / "serve_main.py")]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out), "--run-id", ctx.run_id]
    cmd += ["--", "--port", "0", "--workers", "1", "--store", str(store_dir)]
    errlog = open(ctx.work / "server.err", "ab")
    try:
        proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=child_env(ctx.root),
            stdout=subprocess.PIPE, stderr=errlog, start_new_session=True)
    finally:
        errlog.close()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 1.0)
        if ready:
            line = proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            if "listening on http://" in line:
                port = int(line.split("http://", 1)[1].split()[0]
                           .rsplit(":", 1)[1])
                return proc, port
    stop_group(proc)
    raise RuntimeError("repro serve did not start; see server.err")


class _Loadgen:
    """Closed-loop HTTP load over :data:`CONNECTIONS` connections."""

    def __init__(self, port: int) -> None:
        from repro.loadtest.client import AsyncServeClient

        self.client = AsyncServeClient("127.0.0.1", port,
                                       timeout=REQUEST_TIMEOUT_S, retries=0)
        self.polls = 0

    async def request(self, body: Dict[str, Any]
                      ) -> Tuple[float, Optional[float], Any]:
        """Submit one cell and poll it to the end; returns (start,
        latency, result payload), or (start, None, reason) on failure."""
        from repro.serve.jobs import TERMINAL_STATES

        start = time.perf_counter()
        try:
            status, doc = await self.client.request("POST", "/jobs", body)
            if status != 200 or not isinstance(doc, dict):
                return start, None, f"submit -> {status}"
            deadline = start + REQUEST_TIMEOUT_S
            while True:
                status, job = await self.client.request(
                    "GET", f"/jobs/{doc['id']}")
                self.polls += 1
                if status == 200 and job.get("state") in TERMINAL_STATES:
                    break
                if time.perf_counter() > deadline:
                    return start, None, "timed out"
                await asyncio.sleep(POLL_S)
        except Exception as exc:  # any transport failure is a failed request
            return start, None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if job.get("state") != "done":
            return start, None, f"job ended {job.get('state')!r}"
        return start, latency, job["results"][0]["result"]

    async def run(self, bodies: List[Tuple[int, Dict[str, Any]]]
                  ) -> List[Tuple[int, float, Optional[float], Any]]:
        queue = list(reversed(bodies))
        out: List[Tuple[int, float, Optional[float], Any]] = []

        async def connection() -> None:
            while queue:
                rank, body = queue.pop()
                out.append((rank, *await self.request(body)))

        await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
        return out

    async def metrics(self) -> Dict[str, Any]:
        status, doc = await self.client.request("GET", "/metrics")
        if status != 200 or not isinstance(doc, dict):
            raise RuntimeError(f"/metrics -> {status}")
        return doc


async def _drive(port: int, population, warm_ranks):
    loadgen = _Loadgen(port)
    phases: List[Span] = []
    cold = await _timed_async(
        phases, loadgen.run(list(enumerate(population))))
    warm = await _timed_async(
        phases, loadgen.run([(r, population[r]) for r in warm_ranks]))
    snapshot = await loadgen.metrics()
    return cold, warm, phases, loadgen.polls, snapshot


async def _timed_async(spans: List[Span], coro):
    start = time.perf_counter()
    result = await coro
    spans.append((start, time.perf_counter() - start))
    return result


def run_pass(ctx, ledger, tracer=None, sample: bool = False
             ) -> Dict[str, Any]:
    from repro.loadtest.mix import MixConfig, build_population, build_schedule

    s = spec(ctx)
    mix = MixConfig(population=s["population"], seed=ctx.seed)
    population = build_population(mix)
    warm_ranks = [rank for rank, _ in build_schedule(mix, s["warm"])]
    ctx.pass_index += 1
    store_dir = ctx.work / f"serve-store-{ctx.pass_index}"
    trace_out = (ctx.work / f"server-trace-{ctx.pass_index}.json"
                 if tracer is not None else None)

    proc, port = timed(ctx.setup_times, _start_server, ctx, store_dir,
                       trace_out)
    try:
        cpu0 = time.process_time()
        cold, warm, phases, polls, snapshot = asyncio.run(
            _drive(port, population, warm_ranks))
        loadgen_cpu_s = time.process_time() - cpu0
        rss_mb = peak_rss_mb_of(proc.pid)
    finally:
        stop_group(proc)
        proc.stdout.close()
    if trace_out is not None:
        tracer.merge(json.loads(trace_out.read_text()))

    cold_digest: Dict[int, str] = {}
    cold_lat: List[Span] = []
    for rank, start, latency, payload in sorted(cold, key=lambda r: r[0]):
        label = f"serve/{rank}"
        if latency is None:
            ledger.fail(label, str(payload))
            continue
        cold_digest[rank] = ledger.ok(label, payload)
        cold_lat.append((start, latency))
    warm_lat: List[float] = []
    for rank, _start, latency, payload in warm:
        label = f"warm/{rank}"
        if latency is None:
            ledger.fail(label, str(payload))
            continue
        same = digest(payload) == cold_digest.get(rank)
        ledger.check(label, same, "warm answer differs from the cold answer")
        if same:
            warm_lat.append(latency)

    done = len(cold_lat) + len(warm_lat)
    (_, cold_s), (_, warm_s) = phases
    pass_s = cold_s + warm_s
    cells = snapshot.get("cells", {})
    requested = cells.get("requested", 0)
    queue_wait = snapshot.get("queue_wait_seconds", {})
    sim = snapshot.get("sim_latency_seconds", {}).values()
    sim_count = sum(h["count"] for h in sim)
    return {
        "units": phases,
        "cells": cold_lat,
        "sample_s": pass_s,
        "peak_rss_mb": rss_mb,
        "stage": {
            "cold_phase_s": cold_s,
            "warm_phase_s": warm_s,
            "req_per_s": done / pass_s,
            "cold_p50_s": median(d for _, d in cold_lat) if cold_lat else None,
            "warm_p50_s": median(warm_lat) if warm_lat else None,
            "warm_p99_s": tail_percentile(warm_lat, 0.99),
        },
        "serve": {
            "serve.polls_per_req": polls / max(1, len(cold) + len(warm)),
            "serve.queue_wait_mean_s": (queue_wait.get("sum", 0.0)
                                        / max(1, queue_wait.get("count", 0))),
            "serve.sim_mean_s": (sum(h["sum"] for h in sim)
                                 / max(1, sim_count)),
            "serve.coalesced_frac": cells.get("coalesced", 0) / max(1, requested),
            "serve.store_hit_frac": cells.get("store_hits", 0) / max(1, requested),
            "loadgen.cpu_s": loadgen_cpu_s,
        },
    }


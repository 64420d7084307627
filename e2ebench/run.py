"""End-to-end benchmark of the DLP reproduction.

    python3 e2ebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src``.
Workloads (each run is one process, one workload):

* ``fig10_grid``      the Fig. 10 timing grid (see wl_fig10.py)
* ``replay_sweeps``   batch frontier, fast replay sweep, predict sweep
                      and warm store re-read (see wl_replay.py)
* ``serve_coldwarm``  ``repro serve`` driven cold then warm over HTTP
                      (see wl_serve.py)

A run sets up, then repeats whole passes until it has run at least the
workload's minimum number of passes and ``--seconds`` have elapsed,
collecting garbage between passes.

``--trace 0`` reports the end-to-end metrics (medians over passes).
Host times are reported at a reference host speed: measured seconds x
(reference / measured speed probe), where the probe
(common.speed_probe, a fixed pure-Python loop timed in thread CPU time)
runs between units of work, outside every timed region, and each unit
is scaled by the probes nearest to it.  A shared 2-core VM was measured
drifting by about 20 % in speed over minutes; the scaling cancels most
of that drift, and the measured seconds are printed beside the scaled
ones.  serve_coldwarm is not probed (its work runs in other processes)
and reports measured seconds.

``--trace 1`` runs one untraced pass (for fig10_grid a sample of it)
and one traced pass, and reports the per-layer metrics of the traced
one plus the tracing overhead on the same work.

Every result is digested and checked against ``digests.json`` at the
default seed 0; other seeds run without that oracle (they say so) but
keep every cross-check.  The last line of standard output is the JSON
result; metric names and units come from ``BENCHMARK.json``.

``--smoke`` shrinks every workload for the self-tests (test_bench.py);
``--write-digests`` re-commits the oracle from one seed-0 pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import common
from common import Ledger, SpeedMeter, load_oracle, log, median

WORKLOADS = ("fig10_grid", "replay_sweeps", "serve_coldwarm")


class Context:
    """Per-run state shared by a workload's setup and passes."""

    def __init__(self, root: Path, seed: int, smoke: bool, run_id: str,
                 work: Path) -> None:
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self.run_id = run_id
        self.work = work
        self.pass_index = 0
        self.trace_dir: Optional[Path] = None
        self.setup_times: List[common.Span] = []
        self.meter = SpeedMeter()


def workload_module(name: str):
    import wl_fig10
    import wl_replay
    import wl_serve

    return {m.NAME: m for m in (wl_fig10, wl_replay, wl_serve)}[name]


def declared_metrics(root: Path) -> Dict[str, Dict[str, str]]:
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        smoke: bool = False, expected: Any = "committed") -> Dict[str, Any]:
    """One run of one workload; returns the result document (the last
    output line) plus ``digests`` and ``traced_digests`` for tests."""
    wl = workload_module(name)
    oracle = load_oracle(name, seed) if expected == "committed" else expected
    if smoke and expected == "committed":
        oracle = None
    run_id = f"{name}-seed{seed}-pid{os.getpid()}"
    work = root / ".e2ebench_work" / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root, seed, smoke, run_id, work)
    ledger = Ledger(oracle)

    stamp = common.env_stamp(root)
    log(f"workload {name} seed {seed}: "
        + ("checked against the committed digests" if oracle is not None
           else "no oracle for this seed (cross-checks only)"))
    try:
        setup_times = wl.setup(ctx, **({"repeats": 1} if trace else {}))
        passes = _passes(wl, ctx, ledger, seconds, trace)
        if trace:
            traced_pass, tracer, cpu_s = _traced_pass(wl, ctx, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]
    log("env: " + json.dumps(stamp, sort_keys=True))
    for p in passes:
        if "model" in p:
            log(p["model"])
            break

    if not trace:
        meter = ctx.meter
        cells = [c for p in passes for c in p["cells"]]
        raw = {
            "setup_s": median(d for _, d in setup_times),
            "pass_s": median(sum(d for _, d in p["units"]) for p in passes),
            "cell_p50_s": median(d for _, d in cells) if cells else None,
        }
        values = {
            "setup_s": median(meter.scale(setup_times)),
            "pass_s": median(sum(meter.scale(p["units"])) for p in passes),
            "cell_p50_s": median(meter.scale(cells)) if cells else None,
        }
        probes = [cpu for _, cpu in meter.samples]
        log("host speed: " + (
            f"{len(probes)} probes, median {1e3 * median(probes):.3f} ms "
            f"CPU (min {1e3 * min(probes):.3f}, max {1e3 * max(probes):.3f}),"
            f" reference {1e3 * common.PROBE_REF_S:.3f} ms" if probes
            else "not probed; host times are as measured"))
        log(f"{len(passes)} passes; measured (unscaled) medians, "
            f"information, not gated:")
        for key, value in {**raw, **_stage_medians(passes)}.items():
            log(f"  {key:28s} " + ("absent (too few samples beyond it)"
                                  if value is None else f"{value:.6g}"))
        values["peak_rss_mb"] = (
            median(p["peak_rss_mb"] for p in passes)
            if "peak_rss_mb" in passes[0] else common.peak_rss_mb_self())
        section = "end_to_end"
    else:
        values = _layer_values(passes[0], traced_pass, tracer, cpu_s)
        section = "per_layer"

    log(f"{section} metrics:")
    metrics = report(values, declared_metrics(root)[section])
    if trace:
        log(f"tracing overhead: traced pass wall / untraced pass wall = "
            f"{values['trace.overhead_x']:.3f}x")
    for problem in ledger.problems:
        log(f"FAILED {problem}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
        "digests": ledger.passes[0],
        "traced_digests": ledger.passes[1] if trace else None,
    }


def _passes(wl, ctx: Context, ledger: Ledger, seconds: float,
            trace: bool) -> List[Dict[str, Any]]:
    """Whole untraced passes until the minimum count and ``seconds`` are
    reached; a traced run makes one (for fig10_grid a sample)."""
    passes: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        ledger.start_pass()
        passes.append(wl.run_pass(ctx, ledger, sample=trace))
        if not passes[-1].get("partial"):
            ledger.end_pass()
        if trace or (len(passes) >= wl.MIN_PASSES
                     and time.perf_counter() - start >= seconds):
            return passes


def _traced_pass(wl, ctx: Context, ledger: Ledger):
    """One pass with every layer boundary wrapped; checks that tracing
    changed no result and writes the spans out."""
    from layers import Tracer, instrument

    tracer = Tracer(ctx.run_id)
    restore = instrument(tracer)
    try:
        gc.collect()
        if hasattr(wl, "traced_setup"):
            wl.traced_setup(ctx)
        ledger.start_pass()
        cpu0 = time.process_time()
        with tracer.span("pass"):
            traced = wl.run_pass(ctx, ledger, tracer=tracer)
        cpu_s = time.process_time() - cpu0
        ledger.end_pass()
    finally:
        restore()
    untraced, traced_digests = ledger.passes[0], ledger.passes[1]
    for label, value in untraced.items():
        if traced_digests.get(label) != value:
            ledger.flag(label, "traced result differs from untraced")
    trace_file = ctx.root / ".e2ebench_work" / f"trace-{ctx.run_id}.json"
    tracer.dump(trace_file)
    log(f"spans and counts written to {trace_file.relative_to(ctx.root)}")
    return traced, tracer, cpu_s


def report(values: Dict[str, Any], units: Dict[str, str]
           ) -> Dict[str, Dict[str, Any]]:
    """Print every declared metric with its unit; a value of ``None``
    (a percentile without enough samples beyond it) is absent from the
    result, never reported as 0."""
    extra = sorted(set(values) - set(units))
    if extra:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {extra}")
    metrics = {}
    for metric, unit in units.items():
        value = values.get(metric)
        if value is None:
            log(f"  {metric:28s} absent")
            continue
        metrics[metric] = {"value": value, "unit": unit}
        log(f"  {metric:28s} {value:.6g} {unit}")
    return metrics


def _stage_medians(passes: List[Dict[str, Any]]) -> Dict[str, Optional[float]]:
    out: Dict[str, Optional[float]] = {}
    for key in passes[0]["stage"]:
        values = [p["stage"][key] for p in passes if p["stage"][key] is not None]
        out[key] = median(values) if values else None
    return out


def _layer_values(untraced, traced, tracer, cpu_s) -> Dict[str, Any]:
    from layers import layer_metrics

    values: Dict[str, Any] = dict(layer_metrics(tracer))
    # The serve-side figures the server process reports itself (its
    # workers are not traced), and the load generator's own cost.
    serve = traced.get("serve", {})
    for key in ("serve.polls_per_req", "serve.queue_wait_mean_s",
                "serve.sim_mean_s", "serve.coalesced_frac",
                "serve.store_hit_frac"):
        values[key] = serve.get(key, 0.0)
    # CPU seconds of the process that drives the traced pass: the load
    # generator for serve_coldwarm, the benchmark process otherwise.
    values["loadgen.cpu_s"] = serve.get("loadgen.cpu_s", cpu_s)
    warp_insns = untraced.get("warp_insns", 0)
    values["gpu.host_us_per_kinsn"] = (
        untraced["sample_s"] * 1e6 / (warp_insns / 1e3) if warp_insns else 0.0)
    # Same work untraced and traced: the whole pass, or for fig10_grid
    # the sample its untraced pass stopped after.
    values["trace.overhead_x"] = traced["sample_s"] / untraced["sample_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    if args.write_digests:
        if args.seed != common.ORACLE_SEED or args.smoke or args.trace:
            parser.error("--write-digests needs seed 0, no smoke, no trace")
        doc = run(args.workload, args.seed, 0.0, False, root, expected=None)
        from repro.experiments.store import SIM_VERSION

        common.write_oracle(args.workload, doc["digests"], SIM_VERSION)
        log(f"wrote {len(doc['digests'])} digests for {args.workload}")
        return 0

    doc = run(args.workload, args.seed, args.seconds, bool(args.trace), root,
              smoke=args.smoke)
    result = {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Bench: packed fast engine vs. reference, per access.

The fast engine's contract is "bit-identical, >=5x faster per access".
This bench replays the same captured streams through both engines under
every scheme, asserts the results identical and the speedup floor, and
writes ``benchmarks/BENCH_fastsim.json`` with the measured numbers.

Per-scheme per-access cost is the honest unit here: the reference
engine's cost scales with policy complexity (hook dispatch, PL decay
object walks), the fast engine's barely does.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import bench_once

from repro.analysis import ascii_table
from repro.experiments.runner import harness_config
from repro.trace import capture_records
from repro.trace.replay import replay_records
from repro.workloads import make_workload

APPS = ("BT", "KM")
SCHEMES = ("baseline", "stall_bypass", "global_protection", "dlp")
NUM_SMS = 2
SCALE = 0.5

#: The acceptance floor: the packed engine must beat the reference by
#: at least this per-access factor on every (app, scheme) cell.
MIN_SPEEDUP = 5.0

BENCH_JSON = Path(__file__).parent / "BENCH_fastsim.json"


def _time_replay(records, config, scheme, engine):
    t0 = time.perf_counter()
    result = replay_records(iter(records), config, scheme, engine=engine)
    return time.perf_counter() - t0, result


def collect():
    config = harness_config(NUM_SMS)
    out = {}
    for app in APPS:
        records = capture_records(make_workload(app, SCALE), config)
        # warm both code paths once so neither engine pays first-call
        # bytecode/alloc costs inside the timed region; the fast engine
        # generates one replay kernel per policy kind on first use, so
        # every scheme is warmed
        for engine in ("reference", "fast"):
            for scheme in SCHEMES:
                replay_records(iter(records), config, scheme, engine=engine)
        cells = {}
        for scheme in SCHEMES:
            ref_s, ref = _time_replay(records, config, scheme, "reference")
            fast_s, fast = _time_replay(records, config, scheme, "fast")
            assert fast.to_dict() == ref.to_dict(), \
                f"{app}/{scheme}: engines diverged"
            cells[scheme] = {
                "reference_s": round(ref_s, 4),
                "fast_s": round(fast_s, 4),
                "reference_us_per_access": round(
                    ref_s / len(records) * 1e6, 3),
                "fast_us_per_access": round(
                    fast_s / len(records) * 1e6, 3),
                "speedup": round(ref_s / fast_s, 2),
            }
        out[app] = {"records": len(records), "schemes": cells}
    return out


def test_fastsim_speedup(benchmark, show):
    data = bench_once(benchmark, collect)
    payload = {
        "schemes": list(SCHEMES),
        "num_sms": NUM_SMS,
        "scale": SCALE,
        "min_speedup": MIN_SPEEDUP,
        "apps": data,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    rows = [
        (app, scheme, str(d["records"]),
         f"{cell['reference_us_per_access']:.2f}",
         f"{cell['fast_us_per_access']:.2f}",
         f"{cell['speedup']:.1f}x")
        for app, d in data.items()
        for scheme, cell in d["schemes"].items()
    ]
    show(ascii_table(
        ["App", "Scheme", "Records", "ref us/acc", "fast us/acc", "speedup"],
        rows,
        title="Packed engine vs. reference (bit-identical replays)",
    ))
    for app, d in data.items():
        for scheme, cell in d["schemes"].items():
            assert cell["speedup"] >= MIN_SPEEDUP, (
                f"{app}/{scheme}: {cell['speedup']:.2f}x is below the "
                f"{MIN_SPEEDUP:.0f}x floor"
            )

"""Shared pieces of the end-to-end benchmark: digests and the oracle,
operation accounting, percentiles, host-speed probes, the environment
stamp and the process-management helpers the serve workload needs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_PATH = BENCH_DIR / "digests.json"
#: The seed the committed digests were made with.
ORACLE_SEED = 0
#: A tail percentile is reported only with at least this many samples
#: beyond it; otherwise it is absent (never a fabricated 0.0).
TAIL_MIN_BEYOND = 10


def digest(obj: Any) -> str:
    """sha256 of an object's canonical JSON form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: CPU seconds one :func:`speed_probe` takes on the reference host (a
#: shared 2-core x86 VM).  Host times are reported scaled to it.
PROBE_REF_S = 0.009


def speed_probe() -> float:
    """CPU seconds this thread spends on a fixed pure-Python loop.

    It measures how fast the host runs Python right now: on a shared
    host the CPU speed drifts by about 20 % over minutes, with whatever
    runs beside it.  Thread CPU time leaves out time spent waiting for
    other threads or processes, so they cannot inflate it by holding the
    CPU or the interpreter lock."""
    start = time.thread_time()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(60000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
    return time.thread_time() - start


#: How many probes nearest in time to a timed unit set its speed.
LOCAL_PROBES = 5

#: (perf_counter at start, seconds) of one timed unit of work.
Span = Tuple[float, float]


class SpeedMeter:
    """Speed probes taken between units of work, outside every timed
    region.  :meth:`scale` converts each measured unit to reference-host
    seconds using the probes taken nearest to it in time, so drift
    within a run is corrected where it happened."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append((time.perf_counter(), speed_probe()))

    def factor(self, at: float) -> float:
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - at))
        return PROBE_REF_S / median(cpu for _, cpu in nearest[:LOCAL_PROBES])

    def scale(self, spans: Iterable[Span]) -> List[float]:
        """Durations at reference speed; as measured if never probed."""
        if not self.samples:
            return [d for _, d in spans]
        return [d * self.factor(t + d / 2) for t, d in spans]


def timed(spans: List[Span], fn: Callable[..., Any], *args: Any,
          **kwargs: Any) -> Any:
    """Call ``fn`` and append its (start, duration) to ``spans``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    spans.append((start, time.perf_counter() - start))
    return result


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(values: Iterable[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or ``None`` when fewer than
    :data:`TAIL_MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return None
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    idx = min(idx, len(ordered) - 1)
    if len(ordered) - (idx + 1) < TAIL_MIN_BEYOND:
        return None
    return ordered[idx]


class Ledger:
    """Counts attempted and failed operations and collects result
    digests, checking each against the oracle when one applies.

    ``expected`` maps a result label to its committed digest (``None``
    = no oracle for this seed).  A digest that differs from the oracle,
    a label the oracle does not know, and an oracle label a pass never
    produced are each a failed operation; so is any operation the
    workload itself marks failed or a cross-check rejects.
    """

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        #: Digests of each pass, in order.
        self.passes: List[Dict[str, str]] = []
        self.problems: List[str] = []

    @property
    def digests(self) -> Dict[str, str]:
        """The current (or last) pass's digests."""
        return self.passes[-1]

    def start_pass(self) -> None:
        self.passes.append({})

    def end_pass(self) -> None:
        """Count every oracle result this pass did not produce."""
        if self.expected is None:
            return
        for label in sorted(set(self.expected) - set(self.digests)):
            self.fail(label, "result missing")

    def ok(self, label: str, obj: Any) -> str:
        """Record one produced result; returns its digest."""
        self.attempted += 1
        value = digest(obj)
        self.digests[label] = value
        if self.expected is not None:
            want = self.expected.get(label)
            if want != value:
                self._fail(label, "missing from oracle" if want is None
                           else "digest mismatch")
        return value

    def check(self, label: str, passed: bool, reason: str) -> None:
        """Record one operation whose correctness is ``passed``."""
        self.attempted += 1
        if not passed:
            self._fail(label, reason)

    def fail(self, label: str, reason: str) -> None:
        """Record one operation that produced no usable result."""
        self.check(label, False, reason)

    def flag(self, label: str, reason: str) -> None:
        """Mark an already-counted operation as failed (a cross-check
        found its result wrong)."""
        self._fail(label, reason)

    def _fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {reason}")


def load_oracle(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed digests for ``workload`` at the default seed; ``None``
    for any other seed (no oracle)."""
    if seed != ORACLE_SEED or not DIGESTS_PATH.exists():
        return None
    doc = json.loads(DIGESTS_PATH.read_text())
    return doc.get("workloads", {}).get(workload)


def write_oracle(workload: str, digests: Dict[str, str],
                 sim_version: str) -> None:
    doc: Dict[str, Any] = {"seed": ORACLE_SEED, "workloads": {}}
    if DIGESTS_PATH.exists():
        doc = json.loads(DIGESTS_PATH.read_text())
    doc["sim_version"] = sim_version
    doc["workloads"][workload] = dict(sorted(digests.items()))
    DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def git_rev(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown (not a git checkout)"


def env_stamp(root: Path) -> Dict[str, Any]:
    from repro.experiments.store import SIM_VERSION

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(root),
        "sim_version": SIM_VERSION,
        "loadavg_before": [round(x, 2) for x in os.getloadavg()],
    }


def child_env(root: Path) -> Dict[str, str]:
    """Environment for a child that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def stop_group(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM a child started with ``start_new_session=True``, wait for
    it, then make sure nothing of its process group survives."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    pgid = proc.pid
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            os.killpg(pgid, 0 if not killed else signal.SIGKILL)
        except ProcessLookupError:
            break
        if killed and time.monotonic() > deadline + 5.0:
            break  # only unreaped zombies can be left at this point
        if not killed and time.monotonic() > deadline:
            killed = True
        time.sleep(0.05)
    return proc.returncode


def log(*parts: Any) -> None:
    print(*parts, flush=True)
    sys.stdout.flush()

"""Benchmark harness configuration.

Every bench regenerates one of the paper's tables or figures and prints
the rows/series the paper reports.  Timing-simulation cells resolve
through the sweep executor against a shared on-disk result store
(default ``benchmarks/.store``; override with ``$REPRO_STORE``, set
``REPRO_JOBS`` for parallel simulation of cold cells), so the whole
harness simulates each (application, scheme) pair exactly once — and a
*re*-run of the harness against a warm store simulates nothing at all.

Run with::

    pytest benchmarks/ --benchmark-only -s

(the ``-s`` keeps the printed tables visible).
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from pathlib import Path

import pytest

from repro.experiments import runner


def pytest_configure(config):
    """Point the shared runner at the harness's warm store."""
    store_dir = os.environ.get(
        "REPRO_STORE", str(Path(__file__).parent / ".store")
    )
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    runner.configure(store=store_dir, jobs=jobs)


def timed(fn, repeats=3):
    """Median-of-``repeats`` wall clock of ``fn()`` and its last value:
    single-shot replay timings jitter with host noise."""
    times, value = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2], value


def bench_once(benchmark, fn):
    """Record one timed execution (figure generation is deterministic;
    re-running it five times would just quintuple harness wall-clock)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def show():
    """Print a rendered table/figure underneath the bench output."""

    def _show(text: str) -> None:
        print("\n" + text + "\n")

    return _show


@lru_cache(maxsize=None)
def fig3_cached():
    from repro.experiments.figures import fig3_data

    return fig3_data()


@lru_cache(maxsize=None)
def fig4_cached():
    from repro.experiments.figures import fig4_data

    return fig4_data()


@lru_cache(maxsize=None)
def fig7_cached():
    from repro.experiments.figures import fig7_data

    return fig7_data()

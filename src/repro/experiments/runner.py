"""Experiment runner: (workload, policy, config) -> SimResult.

This is the glue every figure driver uses.  Scheme names follow the
paper's figure legends; ``SCHEME_LABELS`` maps internal policy names to
them.  Results resolve through a module-level :class:`SweepExecutor`
(see :mod:`repro.experiments.executor`): by default an in-memory store
memoises cells per process — several figures share the same runs
(Fig. 10-13 all consume the baseline/SB/GP/DLP sweep) — and
:func:`configure` swaps in an on-disk store and/or a worker pool so
whole invocations share one warm store (``repro sweep --store DIR`` and
the benchmark harness do exactly that).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.core import make_policy
from repro.experiments.executor import Cell, SweepExecutor
from repro.experiments.store import open_store
from repro.gpu.config import GPUConfig
from repro.gpu.simulator import GpuSimulator, SimResult
from repro.workloads import make_workload

#: Paper legend names for each scheme.
SCHEME_LABELS: Dict[str, str] = {
    "baseline": "16KB(Baseline)",
    "stall_bypass": "Stall-Bypass",
    "global_protection": "Global-Protection",
    "dlp": "DLP",
    "32kb": "32KB",
    "64kb": "64KB",
}

#: Fig. 10's scheme set, in legend order.
FIG10_SCHEMES = ("baseline", "stall_bypass", "global_protection", "dlp", "32kb")

#: Fig. 11-13 compare the bypassing schemes on the 16 KB cache.
TRAFFIC_SCHEMES = ("baseline", "stall_bypass", "global_protection", "dlp")


def harness_config(num_sms: int = 4) -> GPUConfig:
    """The scaled configuration the benchmark harness runs (see
    EXPERIMENTS.md: per-SM machine identical to Table 1)."""
    return GPUConfig().scaled(num_sms)


def build_simulator(
    abbr: str,
    scheme: str = "baseline",
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    max_cycles: Optional[int] = None,
    seed: int = 0,
    **policy_kwargs,
) -> GpuSimulator:
    """Construct (but do not run) a simulator for one experiment cell."""
    config = config or harness_config()
    if scheme in ("32kb", "64kb"):
        config = config.with_l1d_size_kb(int(scheme[:-2]))
        policy_name = "baseline"
    else:
        policy_name = scheme
    workload = make_workload(abbr, scale, seed=seed)
    return GpuSimulator(
        workload.kernels(),
        config,
        policy_factory=lambda: make_policy(policy_name, **policy_kwargs),
        max_cycles=max_cycles,
    )


def run_workload(
    abbr: str,
    policy: str = "baseline",
    config: Optional[GPUConfig] = None,
    scale: float = 1.0,
    seed: int = 0,
    max_cycles: Optional[int] = None,
    **policy_kwargs,
) -> SimResult:
    """Simulate one application under one scheme (uncached)."""
    sim = build_simulator(
        abbr, policy, config, scale, max_cycles, seed=seed, **policy_kwargs
    )
    return sim.run()


# ----------------------------------------------------------------------
# executor plumbing
# ----------------------------------------------------------------------

#: Module-level executor every cached entry point goes through.  The
#: default (in-memory store, serial) reproduces the old ``lru_cache``
#: behaviour exactly; :func:`configure` re-points it.
_executor = SweepExecutor()


def get_executor() -> SweepExecutor:
    return _executor


def set_executor(executor: SweepExecutor) -> SweepExecutor:
    """Install ``executor`` as the shared runner backend; returns the
    previous one (so tests can restore it).

    Deliberately process-local: workers never route sweeps through the
    shared backend (cells are simulated directly in the worker), so the
    parent-only swap is safe.
    """
    global _executor  # repro-check: allow(R004) parent-only swap, see docstring
    previous = _executor
    _executor = executor
    return previous


def configure(store: Optional[str] = None, jobs: int = 1) -> SweepExecutor:
    """Point the runner at an on-disk store and/or a worker pool.

    ``store`` is a directory path (``None`` keeps results in-process);
    ``jobs`` is the simulation worker count.  Returns the previous
    executor.
    """
    return set_executor(SweepExecutor(store=open_store(store), jobs=jobs))


def run_cell(abbr: str, scheme: str, num_sms: int = 4) -> SimResult:
    """Store-backed harness run for one (app, scheme) cell.

    Only harness-config runs go through the store; custom configs go
    through :func:`run_workload`.
    """
    return _executor.run_cell(Cell.make(abbr, scheme, num_sms=num_sms))


def run_sweep(
    apps: Sequence[str],
    schemes: Sequence[str],
    num_sms: int = 4,
) -> Dict[str, Dict[str, SimResult]]:
    """Run (and cache) the full app x scheme matrix.

    With ``configure(jobs=N)`` the grid's store misses simulate on N
    worker processes; results are identical to a serial run (the
    differential oracle in ``tests/oracle.py`` holds this invariant).
    """
    return _executor.run_sweep(apps, schemes, num_sms=num_sms)


def clear_cache() -> None:
    """Drop every stored cell in the active executor's store."""
    _executor.store.clear()

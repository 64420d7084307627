"""Packed fast-path simulation engine (``--engine fast``).

Two interchangeable L1D engines exist:

* ``reference`` — the per-object model (:mod:`repro.cache.l1d` +
  :mod:`repro.core`), with hardware bit-width contracts and per-hook
  policy dispatch.  The semantic source of truth.
* ``fast`` — :class:`repro.fastsim.engine.FastL1DCache`, a packed
  struct-of-arrays engine with the four policies inlined.  Bit-identical
  to the reference (proven by ``tests/fastsim``), several times faster.
  Its blocking trace replays run the generated batch kernels
  (:mod:`repro.batchsim`) as one-lane batches.  ``batch`` is accepted
  as another spelling of ``fast``.

Because results are identical, the engine choice is an *execution*
detail, never part of a result's identity: store keys and cell
fingerprints exclude it, and results computed by either engine resolve
each other in every store.

This package module stays import-light (engine only) so
``repro.gpu.sm`` can import it without cycles; the replay fast path
(:mod:`repro.fastsim.replay`) and the profiler
(:mod:`repro.fastsim.profile`) import the simulator layers and are
loaded lazily by their callers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.l1d import FetchRequest, L1DCache
from repro.cache.tagarray import CacheGeometry
from repro.core.policy import CachePolicy
from repro.fastsim.engine import FastL1DCache, PolicySpec

#: The selectable engines, in default-first order.
ENGINES = ("reference", "fast")
DEFAULT_ENGINE = ENGINES[0]


def validate_engine(engine: str) -> str:
    """The canonical name of ``engine``; raises on an unknown one.

    ``batch`` is accepted as a spelling of ``fast``: the packed tier has
    one replay implementation, whose solo replays are one-lane batches,
    and scripts written when the batch engine was selected separately
    keep working."""
    if engine == "batch":
        return "fast"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def make_l1d(
    engine: str,
    geometry: CacheGeometry,
    policy: CachePolicy,
    send_fn: Optional[Callable[[FetchRequest], None]] = None,
    mshr_entries: int = 32,
    mshr_merge: int = 8,
    miss_queue_depth: int = 8,
    sm_id: int = 0,
    non_blocking: bool = False,
):
    """Build the selected engine's L1D; both share one protocol surface."""
    cls = L1DCache if validate_engine(engine) == "reference" else FastL1DCache
    return cls(
        geometry,
        policy,
        send_fn=send_fn,
        mshr_entries=mshr_entries,
        mshr_merge=mshr_merge,
        miss_queue_depth=miss_queue_depth,
        sm_id=sm_id,
        non_blocking=non_blocking,
    )


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "FastL1DCache",
    "PolicySpec",
    "make_l1d",
    "validate_engine",
]

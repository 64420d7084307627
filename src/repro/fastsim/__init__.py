"""Packed fast-path replay engine (``--engine fast``).

Two interchangeable replay engines exist:

* ``reference`` — the per-object model (:mod:`repro.cache.l1d` +
  :mod:`repro.core`), with hardware bit-width contracts and per-hook
  policy dispatch.  The semantic source of truth, and the only L1D the
  timing simulator runs.
* ``fast`` — blocking trace replays over
  :class:`repro.fastsim.engine.FastL1DCache`, packed struct-of-arrays
  lane state advanced by the generated batch kernels
  (:mod:`repro.batchsim`) as one-lane batches.  Bit-identical to the
  reference (proven by ``tests/fastsim`` and ``tests/batchsim``),
  several times faster.  Non-blocking replays selected as ``fast`` run
  the reference engine.  ``batch`` is accepted as another spelling of
  ``fast``.

Because results are identical, the engine choice is an *execution*
detail, never part of a result's identity: store keys and cell
fingerprints exclude it, and results computed by either engine resolve
each other in every store.

This package module stays import-light (engine only); the replay fast
path (:mod:`repro.fastsim.replay`) and the profiler
(:mod:`repro.fastsim.profile`) import the simulator layers and are
loaded lazily by their callers.
"""

from __future__ import annotations

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


__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "FastL1DCache",
    "PolicySpec",
    "validate_engine",
]

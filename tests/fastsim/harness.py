"""Shared driver for the engine-differential tests.

:func:`drive_stream` replays one deterministic access stream on a
one-SM machine with a small L1D through the replay engine
:func:`repro.trace.replay.replay_records` would build for either
engine name (``reference`` or ``fast``), and returns a full snapshot:
the whole :class:`~repro.gpu.simulator.SimResult` plus the final
protection distances.  Two engines are equivalent iff their snapshots
match bit for bit on every stream and every ablation knob.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.cache.tagarray import CacheGeometry
from repro.core import make_policy
from repro.gpu.config import GPUConfig
from repro.trace.replay import make_replay_engine
from repro.utils.rng import DeterministicRng

Stream = Iterable[Tuple[int, int, bool]]

#: Static PCs of the synthetic kernels, one per access class.
PC_HOT, PC_STREAM, PC_MEDIUM, PC_WRITE = 0x100, 0x200, 0x300, 0x400

SMALL_GEOMETRY = CacheGeometry(
    num_sets=8, assoc=2, line_size=128, index_fn="linear"
)


def golden_stream():
    """The golden-trace stream (tests/golden): hot + stream + zipf +
    writes, 600 accesses, identical every run."""
    rng = DeterministicRng("golden-trace")
    hot = [0x1000 + i for i in range(6)]
    medium_pool = [0x2000 + i for i in range(24)]
    stream_next = 0x8000
    accesses = []
    for _step in range(600):
        roll = float(rng.random())
        if roll < 0.45:
            block = hot[int(rng.integers(0, len(hot)))]
            accesses.append((block, PC_HOT, False))
        elif roll < 0.75:
            accesses.append((stream_next, PC_STREAM, False))
            stream_next += 1
        elif roll < 0.93:
            idx = int(rng.zipf_indices(len(medium_pool), 1)[0])
            accesses.append((medium_pool[idx], PC_MEDIUM, False))
        else:
            block = medium_pool[int(rng.integers(0, len(medium_pool)))]
            accesses.append((block, PC_WRITE, True))
    return accesses


def fuzz_stream(seed: int, length: int = 800):
    """A random mixed-locality stream, deterministic per seed."""
    rng = DeterministicRng(f"fastsim-fuzz-{seed}")
    pcs = [0x500 + 0x10 * i for i in range(6)]
    hot = [0x4000 + i for i in range(10)]
    accesses = []
    for _step in range(length):
        roll = float(rng.random())
        pc = pcs[int(rng.integers(0, len(pcs)))]
        if roll < 0.35:
            block = hot[int(rng.integers(0, len(hot)))]
        else:
            block = 0x9000 + int(rng.integers(0, 4096))
        accesses.append((block, pc, bool(float(rng.random()) < 0.12)))
    return accesses


def thrash_stream(length: int = 600, working_set: int = 24):
    """Cyclic reuse over a working set larger than the 16-line cache:
    every line is evicted before its reuse, so VTA hits dominate TDA
    hits and protection distances grow (the Figure 9 increase path)."""
    return [(0x6000 + (i % working_set), 0x700, False)
            for i in range(length)]


def small_config(non_blocking: bool = False) -> GPUConfig:
    """One SM whose L1D has the :data:`SMALL_GEOMETRY` layout and a
    small MSHR, so protection, bypass and stall paths all engage."""
    g = SMALL_GEOMETRY
    return GPUConfig().scaled(1).with_l1d(
        num_sets=g.num_sets, assoc=g.assoc, line_size=g.line_size,
        index_fn=g.index_fn, mshr_entries=8, mshr_merge=4,
        miss_queue_depth=8, non_blocking=non_blocking,
    )


def drive_stream(
    policy_name: str,
    engine: str,
    stream: Optional[Stream] = None,
    non_blocking: bool = False,
    **policy_kwargs,
) -> Dict:
    """Replay one stream through one (policy, engine) pair; return the
    snapshot.  ``non_blocking`` replays against the non-blocking L1D
    (windowed fills: RESERVED lines persist between accesses, MSHR
    merging and resource stalls materialise), which the reference
    engine runs under either engine name."""
    accesses = stream if stream is not None else golden_stream()
    replay = make_replay_engine(
        engine, small_config(non_blocking),
        lambda: make_policy(policy_name, **policy_kwargs),
    )
    result = replay.run(
        [(0, block, pc, is_write, 0) for block, pc, is_write in accesses]
    )
    policy = replay.caches[0].policy
    if policy_name == "dlp":
        final_pds = {
            str(insn_id): entry["pd"]
            for insn_id, entry in sorted(policy.pd_snapshot().items())
        }
    elif policy_name == "global_protection":
        final_pds = {"global": policy.global_pd}
    else:
        final_pds = {}
    return {**result.to_dict(), "final_pds": final_pds}

"""Regression tests for the two policy-layer bugs fixed in this PR.

1. **NASC override truthiness.**  ``DlpPolicy(nasc=0)`` (and the GP
   equivalent) silently fell back to the VTA associativity because the
   override was read with ``or`` — ``nasc=0`` is a legitimate ablation
   point (protection distances frozen at their initial value) and must
   be honoured literally.
2. **Between-kernel reset semantics.**  ``DlpPolicy.reset()`` rebuilt
   the PDPT from scratch, wiping the lifetime ``ever_used`` markers
   (and any ablation contract widths installed on entries), while the
   sampler and VTA honoured the base-class contract that *statistics
   survive reset*.  Reset now clears learned state in place everywhere;
   cumulative stats (samples completed, PD update tallies, VTA
   hit/insert totals, overhead-model activity markers) survive.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.cache.l1d import AccessOutcome, L1DCache, MemAccess
from repro.core import make_policy
from repro.utils.hashing import hash_pc

from tests.fastsim.harness import (
    SMALL_GEOMETRY,
    drive_stream,
    golden_stream,
    thrash_stream,
)

PROTECTED = ("global_protection", "dlp")


def _drive_kernels(policy, resets_at=()):
    """Drive the golden stream through a reference L1D (at most 4 misses
    in flight, instruction notifications every 8 accesses), draining and
    firing ``policy.reset()`` — the kernel boundary — before each access
    index in ``resets_at``.  Returns the cache."""
    cache = L1DCache(SMALL_GEOMETRY, policy, mshr_entries=8, mshr_merge=4,
                     miss_queue_depth=8)
    outstanding: deque = deque()

    def drain() -> None:
        while outstanding:
            cache.fill(outstanding.popleft(), now=0)
        cache.drain_miss_queue(8)

    for step, (block, pc, is_write) in enumerate(golden_stream()):
        if step in resets_at:
            drain()
            policy.reset()
        access = MemAccess(block_addr=block, pc=pc, insn_id=hash_pc(pc),
                           is_write=is_write, now=step)
        result = cache.access(access)
        while result.is_stall:
            cache.fill(outstanding.popleft(), now=0)
            cache.drain_miss_queue(8)
            result = cache.access(access)
        if result.outcome is AccessOutcome.MISS:
            outstanding.append(block)
        cache.drain_miss_queue(2)
        while len(outstanding) > 4:
            cache.fill(outstanding.popleft(), now=0)
        if step % 8 == 7:
            policy.notify_instructions(64)
    drain()
    return cache


# ----------------------------------------------------------------------
# satellite 1: nasc=0 must be honoured, not replaced by vta_assoc
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", PROTECTED)
def test_nasc_zero_override_is_honoured(policy):
    snap = drive_stream(policy, "reference", nasc=0)
    # With NASC frozen at 0 the Figure 9 ladder returns 0 on every
    # rung, so no protection distance can ever leave 0.
    assert all(pd == 0 for pd in snap["final_pds"].values())
    # ... and the policy is not inert — sampling windows still close
    # and updates still classify, they just carry zero step size.
    assert snap["policy"]["samples_completed"] > 0


@pytest.mark.parametrize("policy", PROTECTED)
def test_nasc_zero_differs_from_default(policy):
    """The old ``nasc or vta_assoc`` bug made nasc=0 identical to the
    default; on a PD-growing stream the two cells must now diverge."""
    default = drive_stream(policy, "reference", stream=thrash_stream())
    frozen = drive_stream(policy, "reference", stream=thrash_stream(),
                          nasc=0)
    assert default != frozen
    # default runs do grow protection distances on this stream
    assert any(pd > 0 for pd in default["final_pds"].values())


@pytest.mark.parametrize("policy", PROTECTED)
def test_nasc_attribute_after_attach(policy):
    """Unit-level: the resolved step size is literally 0 (and literally
    the override) once the VTA attaches."""
    frozen = make_policy(policy, nasc=0)
    override = make_policy(policy, nasc=3)
    for p in (frozen, override):
        # one miss attaches the VTA and resolves the step size
        cache = L1DCache(SMALL_GEOMETRY, p, mshr_entries=8, mshr_merge=4,
                         miss_queue_depth=8)
        cache.access(MemAccess(block_addr=0x1, pc=0x100, insn_id=1))
        cache.fill(0x1, 0)
    assert frozen.nasc == 0
    assert override.nasc == 3


# ----------------------------------------------------------------------
# satellite 2: stats survive reset(), learned state does not
# ----------------------------------------------------------------------

@pytest.mark.parametrize("policy", PROTECTED)
def test_reset_preserves_stats_and_clears_state(policy):
    p = make_policy(policy)
    _drive_kernels(p)

    stats_before = dict(p.stats())
    assert stats_before["samples_completed"] > 0
    if policy == "dlp":
        touched_before = set(p.pd_snapshot())
        assert touched_before  # the stream exercised the PDPT

    p.reset()

    # statistics survive ...
    assert dict(p.stats()) == stats_before
    # ... learned state does not
    assert p.sampler.accesses == 0
    assert p.sampler.instructions == 0
    if policy == "dlp":
        # lifetime activity markers survive the in-place PDPT reset
        # (the old rebuild-the-table bug dropped them) ...
        assert set(p.pd_snapshot()) == touched_before
        # ... while every learned counter and PD is back to zero
        for entry in p.pdpt.entries:
            assert (entry.tda_hits, entry.vta_hits, entry.pd) == (0, 0, 0)
        assert p.pdpt.global_tda_hits == 0
        assert p.pdpt.global_vta_hits == 0
    else:
        assert p.global_pd == 0
    if p.vta is not None:
        assert all(not e.valid for row in p.vta.sets for e in row)


@pytest.mark.parametrize("policy", PROTECTED)
def test_two_kernel_stats_accumulate(policy):
    """Kernel 2 adds to kernel 1's counters instead of restarting them."""
    one, two = make_policy(policy), make_policy(policy)
    one_kernel = _drive_kernels(one)
    two_kernels = _drive_kernels(two, resets_at=(300,))
    assert two.stats()["samples_completed"] >= \
        one.stats()["samples_completed"] // 2
    # cumulative across the boundary: more stream, never a restart from
    # zero at the boundary (the L1D counters are untouched by reset)
    assert two_kernels.stats.loads == one_kernel.stats.loads

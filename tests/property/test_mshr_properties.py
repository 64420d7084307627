"""Seeded property tests for the MSHR merge disciplines.

Four invariants, each over many seeded random operation streams:

* the per-entry merge bound holds under either discipline — waiters in
  blocking mode, *distinct words* in word-granular mode (coalesced
  secondary misses are free and may push the waiter list past the
  bound, which is exactly the synapse32 point);
* a fill wakes every merged waiter exactly once, in arrival order;
* with ``non_blocking=False`` random streams replay bit-identically
  through both engines (the golden byte snapshots pin the blocking
  cache against the seed separately);
* the non-blocking replay path never deadlocks on MSHR-saturating
  streams, even with the table sized far below the fill window.
"""

from __future__ import annotations

import pytest

from repro.cache.mshr import MshrTable
from repro.cache.tagarray import CacheGeometry
from repro.utils.rng import DeterministicRng

SEEDS = range(6)


def _op_stream(seed: int, length: int = 300):
    """Seeded (block, word, is_bypass) operations over a small block set."""
    rng = DeterministicRng("mshr-props", salt=seed)
    ops = []
    for i in range(length):
        ops.append((
            int(rng.integers(0, 12)),          # block
            int(rng.integers(0, 32)),          # word
            bool(float(rng.random()) < 0.15),  # bypass-intent
        ))
    return ops


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("word_granular", [False, True],
                         ids=["blocking", "word-granular"])
def test_merge_bound_holds(seed, word_granular):
    mshr = MshrTable(num_entries=8, max_merged=3,
                     word_granular=word_granular, words_per_line=32)
    for block, word, _ in _op_stream(seed):
        w = word if word_granular else None
        if mshr.lookup(block) is None:
            if not mshr.is_full:
                mshr.allocate(block, 0, 0, f"w{block}", word=w)
        elif mshr.can_merge(block, w):
            mshr.merge(block, f"m{block}", word=w)
        for entry_block in mshr.outstanding_blocks():
            entry = mshr.lookup(entry_block)
            if word_granular:
                assert entry.num_words <= mshr.max_merged
            else:
                assert entry.num_requests <= mshr.max_merged


@pytest.mark.parametrize("seed", SEEDS)
def test_word_coalescing_is_free(seed):
    """A secondary miss on an already-pending word always merges, even
    with the entry at its distinct-word bound, and consumes no slot."""
    mshr = MshrTable(num_entries=4, max_merged=2,
                     word_granular=True, words_per_line=32)
    mshr.allocate(0x10, 0, 0, "w0", word=0)
    mshr.merge(0x10, "w1", word=1)
    entry = mshr.lookup(0x10)
    assert entry.num_words == 2
    assert not mshr.can_merge(0x10, word=2)   # new word: at the bound
    assert mshr.can_merge(0x10, word=0)       # pending word: free
    rng = DeterministicRng("coalesce", salt=seed)
    extra = int(rng.integers(1, 6))
    for i in range(extra):
        mshr.merge(0x10, f"c{i}", word=int(rng.integers(0, 2)))
    assert entry.num_words == 2               # bitmap unchanged
    assert entry.num_requests == 2 + extra    # every waiter recorded
    assert mshr.word_coalesced == extra


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("word_granular", [False, True],
                         ids=["blocking", "word-granular"])
def test_fill_wakes_every_waiter_exactly_once(seed, word_granular):
    """Every registered waiter comes back from exactly one release, in
    arrival order."""
    mshr = MshrTable(num_entries=16, max_merged=4,
                     word_granular=word_granular, words_per_line=32)
    registered = {}
    token = 0
    for block, word, _ in _op_stream(seed):
        w = word if word_granular else None
        if mshr.lookup(block) is None:
            if mshr.is_full:
                continue
            mshr.allocate(block, 0, 0, token, word=w)
            registered.setdefault(block, []).append(token)
            token += 1
        elif mshr.can_merge(block, w):
            mshr.merge(block, token, word=w)
            registered[block].append(token)
            token += 1
    woken = []
    for block in list(mshr.outstanding_blocks()):
        entry = mshr.release(block)
        assert entry.waiters == registered.pop(block)
        woken.extend(entry.waiters)
    assert not registered
    assert sorted(woken) == list(range(token))
    assert len(woken) == len(set(woken))  # exactly once
    with pytest.raises(KeyError):
        mshr.release(0x1)  # double fill is loud


class TestBypassMergeEdge:
    """Regression: the ``is_bypass`` MSHR-merge edge (latent until the
    non-blocking mode made concurrent bypass + cached fetches real)."""

    def test_cached_into_bypass_entry_raises(self):
        mshr = MshrTable(num_entries=4, max_merged=4)
        mshr.allocate(0x10, 0, 0, "byp", is_bypass=True)
        with pytest.raises(RuntimeError, match="bypass"):
            mshr.merge(0x10, "cached", is_bypass=False)

    def test_bypass_into_cached_entry_is_absorbed(self):
        mshr = MshrTable(num_entries=4, max_merged=4)
        mshr.allocate(0x10, 0, 0, "cached")
        entry = mshr.merge(0x10, "byp", is_bypass=True)
        assert entry.is_bypass is False        # entry stays a cached fetch
        assert entry.waiters == ["cached", "byp"]
        assert mshr.bypass_absorbed == 1

    def test_bypass_into_bypass_entry_merges(self):
        mshr = MshrTable(num_entries=4, max_merged=4)
        mshr.allocate(0x10, 0, 0, "b0", is_bypass=True)
        entry = mshr.merge(0x10, "b1", is_bypass=True)
        assert entry.is_bypass is True
        assert mshr.bypass_absorbed == 0


GEOMETRY = CacheGeometry(num_sets=8, assoc=2, line_size=128,
                         index_fn="linear")
POLICIES = ("baseline", "stall_bypass", "global_protection", "dlp")


def _random_accesses(seed: int, length: int = 500):
    rng = DeterministicRng("mshr-blocking-diff", salt=seed)
    pcs = [0x100, 0x200, 0x300]
    out = []
    for i in range(length):
        block = 0x1000 + int(rng.integers(0, 48))
        pc = pcs[int(rng.integers(0, len(pcs)))]
        out.append((block, pc, bool(float(rng.random()) < 0.1)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_blocking_mode_access_for_access_identical(seed, policy_name):
    """With ``non_blocking=False`` the same random access stream replays
    bit-identically through both engines: every counter, every policy
    statistic, on the small write-heavy geometry."""
    from repro.gpu.config import GPUConfig
    from repro.trace.replay import replay_records

    from tests.oracle import assert_results_identical

    config = GPUConfig().scaled(1).with_l1d(
        num_sets=GEOMETRY.num_sets, assoc=GEOMETRY.assoc,
        index_fn=GEOMETRY.index_fn, mshr_entries=8, mshr_merge=4,
        miss_queue_depth=8,
    )
    records = [(0, block, pc, is_write, 0)
               for block, pc, is_write in _random_accesses(seed)]
    reference = replay_records(iter(records), config, policy_name)
    fast = replay_records(iter(records), config, policy_name, engine="fast")
    assert reference.l1d.accesses == len(records)
    assert_results_identical(reference, fast,
                             label=f"{policy_name}/seed{seed}")


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("generator", ["APC", "ABS"])
def test_non_blocking_never_deadlocks_on_saturating_streams(
    policy_name, generator
):
    """MSHR-saturating adversarial streams through the non-blocking
    replay path with the table sized far below the fill window: every
    stall must converge by filling outstanding misses (a hang raises
    ``ReplayStallError`` via the bounded retry loop), and every access
    is serviced."""
    from repro.gpu.config import GPUConfig
    from repro.trace.record import capture_records
    from repro.trace.replay import replay_records
    from repro.workloads import make_workload
    from repro.workloads.adversarial import register_adversarial_workloads

    register_adversarial_workloads()
    config = GPUConfig().scaled(2).with_l1d(
        mshr_entries=4, mshr_merge=2, miss_queue_depth=2, non_blocking=True,
    )
    records = capture_records(
        make_workload(generator, 0.5, seed=1), config
    )
    result = replay_records(iter(records), config, policy_name)
    assert result.l1d.accesses == len(records)

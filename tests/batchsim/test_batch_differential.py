"""The batch kernels are bit-identical to the reference engine, lane
for lane.

Every test replays the same stream through ``engine="reference"`` (the
per-object model, the semantic source of truth) and through the batch
kernels — a solo ``--engine fast`` replay (spelled ``batch`` here, the
alias the CLI keeps), which runs them as a one-lane batch, or the
multi-lane :func:`~repro.batchsim.engine.replay_batch` front door — and
requires identical results via the canonical-JSON oracle.  The grid is
the full 17-cell ablation matrix the fastsim differential suite uses,
plus adversarial synthetic streams (thrash, write storms, fuzzed mixes)
so the equivalence is not an artifact of the captured workloads.
"""

from __future__ import annotations

import pytest

from repro.batchsim.engine import replay_batch
from repro.gpu.config import GPUConfig
from repro.trace.format import TraceRecord
from repro.trace.record import capture_records, record_workload
from repro.trace.replay import replay_records, replay_trace
from repro.utils.rng import DeterministicRng
from repro.workloads import make_workload

from tests.oracle import assert_results_identical

#: The full ablation grid of the fastsim differential suite: all four
#: policies plus every knob the paper sweeps.
ABLATIONS = [
    ("baseline", {}),
    ("stall_bypass", {}),
    ("global_protection", {}),
    ("global_protection", {"nasc": 0}),
    ("global_protection", {"bypass_enabled": False}),
    ("global_protection", {"vta_assoc": 2}),
    ("global_protection", {"pd_bits": 2}),
    ("dlp", {}),
    ("dlp", {"pd_bits": 2}),
    ("dlp", {"pd_bits": 6}),
    ("dlp", {"vta_assoc": 2}),
    ("dlp", {"vta_assoc": 8}),
    ("dlp", {"nasc": 0}),
    ("dlp", {"nasc": 3}),
    ("dlp", {"bypass_enabled": False}),
    ("dlp", {"sample_limit": 50}),
    ("dlp", {"insn_sample_limit": 500}),
]


def _label(params) -> str:
    scheme, kwargs = params
    knobs = ",".join(f"{k}={v}" for k, v in kwargs.items()) or "default"
    return f"{scheme}[{knobs}]"


@pytest.fixture(scope="module")
def captured():
    """One recorded MM stream shared by every batch test."""
    config = GPUConfig().scaled(2)
    records = capture_records(make_workload("MM", 0.4), config)
    return config, records


# ----------------------------------------------------------------------
# adversarial synthetic streams
# ----------------------------------------------------------------------

def thrash_records(num_sms: int = 2, length: int = 900,
                   working_set: int = 200) -> list:
    """Cyclic reuse over a working set larger than the cache: every
    line dies before its reuse, so the VTA path and (without bypass)
    the stall-retry path dominate."""
    return [
        TraceRecord(sm_id=i % num_sms, block_addr=0x6000 + (i % working_set),
                    pc=0x700 + 8 * (i % 5), is_write=False)
        for i in range(length)
    ]


def write_storm_records(num_sms: int = 2, length: int = 600) -> list:
    """Write-heavy traffic over a small pool: exercises the
    write-through invalidate path and protected-line eviction credit."""
    rng = DeterministicRng("batchsim-write-storm")
    out = []
    for i in range(length):
        block = 0x3000 + int(rng.integers(0, 48))
        is_write = float(rng.random()) < 0.55
        out.append(TraceRecord(sm_id=i % num_sms, block_addr=block,
                               pc=0x500 + 16 * int(rng.integers(0, 4)),
                               is_write=is_write))
    return out


def fuzz_records(seed: int, num_sms: int = 2, length: int = 1200) -> list:
    """Random mixed-locality stream, deterministic per seed."""
    rng = DeterministicRng(f"batchsim-fuzz-{seed}")
    hot = [0x4000 + i for i in range(12)]
    out = []
    for _ in range(length):
        roll = float(rng.random())
        if roll < 0.35:
            block = hot[int(rng.integers(0, len(hot)))]
        else:
            block = 0x9000 + int(rng.integers(0, 4096))
        out.append(TraceRecord(
            sm_id=int(rng.integers(0, num_sms)),
            block_addr=block,
            pc=0x500 + 0x10 * int(rng.integers(0, 6)),
            is_write=bool(float(rng.random()) < 0.12),
        ))
    return out


ADVERSARIAL = {
    "thrash": thrash_records(),
    "write-storm": write_storm_records(),
    "fuzz-0": fuzz_records(0),
    "fuzz-1": fuzz_records(1),
    "fuzz-2": fuzz_records(2),
}


# ----------------------------------------------------------------------
# solo replays (--engine batch, a spelling of --engine fast)
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "scheme,kwargs", ABLATIONS, ids=map(_label, ABLATIONS))
def test_single_lane_identical(captured, scheme, kwargs):
    config, records = captured
    reference = replay_records(iter(records), config, scheme,
                               engine="reference", **kwargs)
    batch = replay_records(iter(records), config, scheme,
                           engine="batch", **kwargs)
    assert_results_identical(reference, batch, label=f"{scheme}/{kwargs}")


def test_trace_file_replay_identical(captured, tmp_path):
    """``repro trace replay --engine batch`` path: through a recorded
    trace file, decoded vectorized from the binary format."""
    config, _ = captured
    path = tmp_path / "mm.rptr"
    record_workload(make_workload("MM", 0.4), config, path)
    for scheme, kwargs in (("dlp", {}), ("global_protection", {"nasc": 0})):
        reference = replay_trace(path, scheme, config, engine="reference",
                                 **kwargs)
        batch = replay_trace(path, scheme, config, engine="batch", **kwargs)
        assert_results_identical(reference, batch, label=f"trace/{scheme}")


def test_unknown_engine_still_rejected(captured):
    config, records = captured
    with pytest.raises(ValueError, match="unknown engine"):
        replay_records(iter(records), config, "baseline", engine="turbo")


def test_warmed_cache_rerun_raises(captured):
    """The kernels require a fresh cache: a second run() on the same
    engine raises instead of replaying over warmed state."""
    from repro.fastsim.replay import FastReplayEngine
    from repro.trace.replay import _resolve

    config, records = captured
    lane_config, factory = _resolve("dlp", config)
    engine = FastReplayEngine(lane_config, factory)
    engine.run(iter(records))
    with pytest.raises(ValueError, match="require a fresh cache"):
        engine.run(iter(records))


def test_packed_engine_refuses_non_blocking(captured):
    """The packed engine has no non-blocking protocol; building one for
    a non-blocking L1D is an error (the front doors route those replays
    to the reference engine)."""
    from repro.fastsim.replay import FastReplayEngine
    from repro.trace.replay import _resolve

    config, _ = captured
    lane_config, factory = _resolve(
        "dlp", config.with_l1d(non_blocking=True))
    with pytest.raises(ValueError, match="blocking L1Ds only"):
        FastReplayEngine(lane_config, factory)


@pytest.mark.parametrize("engine",
                         ["reference", "fast", "batch", "replay_batch"])
def test_four_field_records_default_warp_zero(engine):
    """``(sm, block, pc, is_write)`` tuples without a warp id replay on
    every engine exactly like the same records with warp 0."""
    config = GPUConfig().scaled(2)
    full = ADVERSARIAL["fuzz-0"]
    short = [(r.sm_id, r.block_addr, r.pc, r.is_write) for r in full]
    want = replay_records(iter(full), config, "dlp", engine="reference")
    if engine == "replay_batch":
        [got] = replay_batch(short, [("dlp", {})], config)
    else:
        got = replay_records(iter(short), config, "dlp", engine=engine)
    assert_results_identical(want, got, label=f"4-field/{engine}")


# ----------------------------------------------------------------------
# multi-lane replay_batch
# ----------------------------------------------------------------------

def test_multi_lane_grid_identical(captured):
    """All 17 ablation cells through ONE replay_batch pass, each lane
    field-for-field identical to its solo reference replay — including the
    deduplicated lanes (baseline vs stall_bypass, insn_sample_limit)
    that are served by a state copy rather than a kernel run."""
    config, records = captured
    batched = replay_batch(records, ABLATIONS, config)
    assert len(batched) == len(ABLATIONS)
    for (scheme, kwargs), result in zip(ABLATIONS, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(solo, result, label=_label((scheme, kwargs)))


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_streams_identical(name):
    config = GPUConfig().scaled(2)
    records = ADVERSARIAL[name]
    lanes = [
        ("baseline", {}),
        ("global_protection", {}),
        ("dlp", {}),
        ("dlp", {"bypass_enabled": False}),   # stall-retry path
        ("dlp", {"sample_limit": 50}),        # tight sampling windows
    ]
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(
            solo, result, label=f"{name}/{_label((scheme, kwargs))}")


def test_lane_order_is_preserved(captured):
    config, records = captured
    lanes = [("dlp", {}), ("baseline", {}), ("dlp", {"nasc": 0})]
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(solo, result, label=f"order/{scheme}")


def test_resized_lanes_share_the_pass(captured):
    """32kb/64kb lanes change the geometry, which partitions the same
    decoded columns differently — still bit-identical per lane."""
    config, records = captured
    lanes = [("baseline", {}), ("32kb", {}), ("64kb", {}), ("dlp", {})]
    batched = replay_batch(records, lanes, config)
    for (scheme, kwargs), result in zip(lanes, batched):
        solo = replay_records(iter(records), config, scheme,
                              engine="reference", **kwargs)
        assert_results_identical(solo, result, label=f"resize/{scheme}")


def test_more_sms_than_trace(captured, tmp_path):
    """config.num_sms may exceed the trace's SM count; extra columns
    pad empty, mirroring replay_trace."""
    config, _ = captured
    path = tmp_path / "mm2.rptr"
    record_workload(make_workload("MM", 0.4), config, path)
    from repro.trace.format import TraceReader

    wide = GPUConfig().scaled(4)
    reader = TraceReader(path)
    batched = replay_batch(reader, [("dlp", {})], wide)
    solo = replay_trace(TraceReader(path), "dlp", wide, engine="reference")
    assert_results_identical(solo, batched[0], label="padded-sms")


def test_sm_count_guard(captured, tmp_path):
    config, _ = captured
    path = tmp_path / "mm3.rptr"
    record_workload(make_workload("MM", 0.4), config, path)
    from repro.trace.format import TraceReader

    narrow = GPUConfig().scaled(1)
    with pytest.raises(ValueError, match="SM streams"):
        replay_batch(TraceReader(path), [("dlp", {})], narrow)


# ----------------------------------------------------------------------
# non-blocking lanes (NB_FILL_WINDOW ordering / lane isolation)
# ----------------------------------------------------------------------

class TestNonBlockingLanes:
    """NB lanes have no batch specialization; each one must run on a
    private engine whose fill windows never observe another lane's
    state (the NB fill-ordering audit)."""

    def test_nb_lanes_match_solo_runs(self, captured):
        config, records = captured
        nb_config = config.with_l1d(non_blocking=True)
        lanes = [("baseline", {}), ("global_protection", {}), ("dlp", {}),
                 ("dlp", {"nasc": 0})]
        batched = replay_batch(records, lanes, nb_config)
        for (scheme, kwargs), result in zip(lanes, batched):
            solo = replay_records(iter(records), nb_config, scheme,
                                  engine="reference", **kwargs)
            assert_results_identical(solo, result, label=f"nb/{scheme}")

    def test_nb_lane_isolation_under_duplicates(self, captured):
        """Two identical NB lanes in one batch: each must equal the
        solo run — any cross-lane fill-window leakage would desync the
        second lane from the first."""
        config, records = captured
        nb_config = config.with_l1d(non_blocking=True)
        lanes = [("dlp", {}), ("dlp", {})]
        first, second = replay_batch(records, lanes, nb_config)
        solo = replay_records(iter(records), nb_config, "dlp",
                              engine="reference")
        assert_results_identical(solo, first, label="nb-dup/first")
        assert_results_identical(solo, second, label="nb-dup/second")

    def test_mixed_blocking_and_nb_would_not_cross(self, captured):
        """Blocking lanes in the same replay_batch call as NB lanes
        (mixed per-lane configs cannot arise from one config today, but
        the NB fallback must not disturb blocking kernels sharing the
        decode)."""
        config, records = captured
        lanes = [("baseline", {}), ("dlp", {})]
        batched = replay_batch(records, lanes, config)
        for (scheme, kwargs), result in zip(lanes, batched):
            solo = replay_records(iter(records), config, scheme,
                                  engine="reference", **kwargs)
            assert_results_identical(solo, result, label=f"mixed/{scheme}")

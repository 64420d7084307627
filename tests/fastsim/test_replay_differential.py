"""Fast engine equivalence through every wired entry point.

The engine selector threads through trace replay, the replay sweep and
the serve worker (timing runs always use the reference L1D); each path
must produce bit-identical results under either engine, and the
result-store keys must never depend on the engine (the whole point of
excluding an execution detail from a result's identity).
"""

from __future__ import annotations

import pytest

from repro.gpu.config import GPUConfig
from repro.trace.record import capture_records
from repro.trace.replay import (
    ReplayEngine,
    _resolve,
    make_replay_engine,
    replay_records,
)
from repro.trace.sweep import ReplaySweepExecutor
from repro.workloads import make_workload

from tests.oracle import assert_results_identical

SCHEMES = ("baseline", "stall_bypass", "global_protection", "dlp")

#: replay-path ablation grid (scheme, policy kwargs).
REPLAY_ABLATIONS = [
    ("baseline", {}),
    ("stall_bypass", {}),
    ("global_protection", {}),
    ("dlp", {}),
    ("dlp", {"pd_bits": 2}),
    ("dlp", {"vta_assoc": 2}),
    ("dlp", {"nasc": 0}),
    ("dlp", {"bypass_enabled": False}),
    ("dlp", {"sample_limit": 50}),
]


@pytest.fixture(scope="module")
def captured():
    """One recorded MM stream shared by every replay test."""
    config = GPUConfig().scaled(2)
    records = capture_records(make_workload("MM", 0.4), config)
    return config, records


@pytest.mark.parametrize(
    "scheme,kwargs", REPLAY_ABLATIONS,
    ids=[f"{s}-{'-'.join(map(str, k.values())) or 'default'}"
         for s, k in REPLAY_ABLATIONS],
)
def test_replay_records_identical(captured, scheme, kwargs):
    config, records = captured
    reference = replay_records(iter(records), config, scheme,
                               engine="reference", **kwargs)
    fast = replay_records(iter(records), config, scheme,
                          engine="fast", **kwargs)
    assert_results_identical(reference, fast, label=f"{scheme}/{kwargs}")


def test_fast_replay_engine_counts_match(captured):
    """The engine-level bookkeeping (per-SM record counts, send totals)
    agrees, not just the aggregated result."""
    config, records = captured
    scheme_config, factory = _resolve("dlp", config)
    reference = ReplayEngine(scheme_config, factory)
    reference.run(iter(records))
    from repro.fastsim.replay import FastReplayEngine as Fast

    fast = Fast(scheme_config, factory)
    fast.run(iter(records))
    assert fast.replayed_per_sm == reference.replayed_per_sm
    assert fast.replayed_records == reference.replayed_records
    assert fast.sent_fetches == reference.sent_fetches
    assert fast.sent_writes == reference.sent_writes


def test_non_blocking_fast_replay_runs_reference(captured):
    """The packed engine replays blocking L1Ds only: a non-blocking
    ``fast`` replay is a reference replay, result for result."""
    config, records = captured
    nb = config.with_l1d(non_blocking=True)
    _, factory = _resolve("dlp", nb)
    assert type(make_replay_engine("fast", nb, factory)) is ReplayEngine
    reference = replay_records(iter(records), nb, "dlp", engine="reference")
    fast = replay_records(iter(records), nb, "dlp", engine="fast")
    assert reference.l1d.hit_reserved > 0
    assert_results_identical(reference, fast, label="non-blocking/dlp")


def test_replay_rejects_unknown_engine(captured):
    config, records = captured
    with pytest.raises(ValueError, match="unknown engine"):
        replay_records(iter(records), config, "baseline", engine="turbo")


def test_cell_key_excludes_engine():
    """Store identity is engine-independent: replayed cells land under
    the same keys and meta whichever engine computed them."""
    listings = {}
    for engine in ("reference", "fast"):
        executor = ReplaySweepExecutor(engine=engine)
        executor.run_sweep(["MM"], SCHEMES, num_sms=1, scale=0.1)
        listings[engine] = executor.store.ls()
    assert len(listings["fast"]) == len(SCHEMES)
    assert listings["fast"] == listings["reference"]


def test_fast_results_warm_reference_store():
    """A store populated by fast replays short-circuits a reference
    replay of the same cell: replay keys never include the engine."""
    fast = ReplaySweepExecutor(engine="fast")
    first = fast.run_cell("MM", "dlp", num_sms=1, scale=0.1)
    reference = ReplaySweepExecutor(store=fast.store)
    second = reference.run_cell("MM", "dlp", num_sms=1, scale=0.1)
    assert fast.stats.replayed == 1
    assert reference.stats.replayed == 0
    assert reference.stats.store_hits == 1
    assert_results_identical(first, second, label="store warm-through")


def test_replay_sweep_executor_identical():
    reference = ReplaySweepExecutor().run_sweep(
        ["MM"], SCHEMES, num_sms=2, scale=0.4
    )
    fast = ReplaySweepExecutor(engine="fast").run_sweep(
        ["MM"], SCHEMES, num_sms=2, scale=0.4
    )
    for scheme in SCHEMES:
        assert_results_identical(
            reference["MM"][scheme], fast["MM"][scheme],
            label=f"replay-sweep/{scheme}",
        )


def test_serve_replay_unit_identical(tmp_path):
    """The serve worker entry point honours the engine field in its
    payload and stays bit-identical (shared trace dir exercised too)."""
    from repro.serve.jobs import replay_unit

    spec = {"abbr": "MM", "scheme": "dlp", "num_sms": 2, "scale": 0.4,
            "seed": 0, "policy_kwargs": {}}
    reference = replay_unit(dict(spec), str(tmp_path / "traces"))
    fast = replay_unit(dict(spec, engine="fast"), str(tmp_path / "traces"))
    assert fast == reference


def test_serve_scheduler_stamps_engine():
    """The scheduler injects its deployment-wide engine into replay
    worker payloads only; the unit's key, which the scheduler coalesces
    on, never carries it."""
    from repro.serve.protocol import MODE_REPLAY, UnitSpec
    from repro.serve.scheduler import Scheduler

    scheduler = Scheduler(engine="fast")
    replay_spec = UnitSpec(mode=MODE_REPLAY, abbr="MM", scheme="dlp")
    payload = dict(replay_spec.worker_payload())
    assert "engine" not in payload
    payload["engine"] = scheduler.engine
    assert payload["engine"] == "fast"


def test_phase_profile_runs_and_compares():
    from repro.fastsim.profile import PHASES, profile_cell

    profile = profile_cell("MM", "dlp", num_sms=1, scale=0.2)
    assert profile.records > 0
    assert set(profile.phases) == set(PHASES)
    assert profile.reference_seconds > 0
    assert profile.fast_seconds > 0
    doc = profile.as_dict()
    assert doc["speedup"] == profile.speedup
    rendered = profile.render()
    for phase in PHASES:
        assert phase in rendered

"""Fixed-seed fuzz corpus: differential + pinned regression gate.

Twenty seeded adversarial streams (generators round-robin over
ATH/APC/APH/ABS, seeds 0..19) are each checked two ways:

* **differential** — reference vs fast engine under every scheme on the
  blocking L1D must be bit-identical; a mismatch is minimized to its
  shortest failing prefix and the repro line lands in the assertion
  message.  Non-blocking replays run the reference engine under either
  engine name, so there is no second engine to compare there;
* **pinned** — the reference result's sha256 over every scheme x
  MSHR-mode grid point must match ``tests/fuzz/corpus.json``, so an
  unintentional semantic change to either engine (which would move
  both in lockstep and slip past the differential check) still fails
  loudly.

Regenerate the pins after an *intentional* semantic change with::

    python -m pytest tests/fuzz -q --update-corpus

(and bump ``repro.experiments.store.SIM_VERSION``, exactly like
``--update-golden``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.experiments.fuzz as fuzz_mod
from repro.experiments.fuzz import (
    FUZZ_SCHEMES,
    FuzzCase,
    fuzz_cases,
    fuzz_config,
    run_case,
    run_fuzz,
    shrink_failing_prefix,
)
from repro.trace.record import capture_records
from repro.trace.replay import replay_records
from repro.workloads import make_workload
from repro.workloads.adversarial import register_adversarial_workloads

CORPUS_PATH = Path(__file__).parent / "corpus.json"
CORPUS_STREAMS = 20
CORPUS_SCALE = 0.5

#: MSHR modes pinned in the corpus (blocking, non-blocking).
CORPUS_MODES = (False, True)


def _case_id(case: FuzzCase) -> str:
    return f"{case.generator}-s{case.seed}"


def _check_id(scheme: str, non_blocking: bool) -> str:
    return f"{scheme}/{'non_blocking' if non_blocking else 'blocking'}"


def corpus_cases():
    return fuzz_cases(CORPUS_STREAMS, base_seed=0, scale=CORPUS_SCALE)


def build_corpus() -> dict:
    """Reference-engine fingerprints for every corpus grid point, with
    the blocking differential check (and prefix minimization on
    failure) folded into the same pass."""
    register_adversarial_workloads()
    corpus = {}
    for case in corpus_cases():
        records = capture_records(
            make_workload(case.generator, case.scale, seed=case.seed),
            fuzz_config(case.num_sms),
        )
        checks = {}
        for non_blocking in CORPUS_MODES:
            config = fuzz_config(case.num_sms, non_blocking=non_blocking)
            for scheme in FUZZ_SCHEMES:
                ref = replay_records(iter(records), config, scheme)
                ref_fp = fuzz_mod._fingerprint(ref)
                fast_fp = ref_fp
                if not non_blocking:
                    fast_fp = fuzz_mod._fingerprint(replay_records(
                        iter(records), config, scheme, engine="fast"))
                if ref_fp != fast_fp:
                    prefix = shrink_failing_prefix(records, config, scheme)
                    pytest.fail(
                        f"engines diverged on {_case_id(case)} "
                        f"{_check_id(scheme, non_blocking)}: "
                        f"ref {ref_fp[:12]} != fast {fast_fp[:12]}; "
                        f"minimized repro: first {prefix} of "
                        f"{len(records)} records "
                        f"(repro fuzz --generators {case.generator} "
                        f"--seed {case.seed} --streams 1 "
                        f"--scale {case.scale:g} --policies {scheme})"
                    )
                checks[_check_id(scheme, non_blocking)] = ref_fp
        corpus[_case_id(case)] = {**case.describe(),
                                  "records": len(records),
                                  "checks": checks}
    return corpus


def test_corpus_differential_and_pinned(update_corpus):
    corpus = build_corpus()
    if update_corpus:
        CORPUS_PATH.write_text(
            json.dumps(corpus, indent=2, sort_keys=True) + "\n"
        )
        return
    assert CORPUS_PATH.exists(), (
        "missing tests/fuzz/corpus.json; generate with "
        "`python -m pytest tests/fuzz --update-corpus`"
    )
    pinned = json.loads(CORPUS_PATH.read_text())
    assert corpus == pinned, (
        "fuzz corpus fingerprints diverged from the pinned corpus; if "
        "the semantic change is intentional, rerun with --update-corpus "
        "and bump SIM_VERSION"
    )


def test_corpus_shape():
    """The pinned corpus covers the promised grid: 20 streams, all four
    generators, every scheme x mode point, non-trivial streams."""
    pinned = json.loads(CORPUS_PATH.read_text())
    assert len(pinned) == CORPUS_STREAMS
    generators = {entry["generator"] for entry in pinned.values()}
    assert generators == {"ATH", "APC", "APH", "ABS"}
    expected_checks = {
        _check_id(s, nb) for s in FUZZ_SCHEMES for nb in CORPUS_MODES
    }
    for case_id, entry in pinned.items():
        assert set(entry["checks"]) == expected_checks, case_id
        assert entry["records"] > 50, case_id
    # blocking and non-blocking must be *different* semantics somewhere,
    # or the mode axis of the corpus is vacuous
    assert any(
        entry["checks"][_check_id(s, False)]
        != entry["checks"][_check_id(s, True)]
        for entry in pinned.values()
        for s in FUZZ_SCHEMES
    )


def test_run_fuzz_smoke_clean():
    """The CLI-facing driver agrees: a small run reports zero
    divergences and counts the grid it covered."""
    report = run_fuzz(streams=4, scale=0.25)
    assert report.ok
    assert report.cases == 4
    assert report.checks == 4 * len(FUZZ_SCHEMES)
    assert report.records > 0


class TestShrinker:
    """The minimizer itself, against synthetic divergence oracles."""

    def _patch(self, monkeypatch, predicate):
        def fake_diverges(records, config, scheme):
            return ("refsha", "fastsha") if predicate(len(records)) else None

        monkeypatch.setattr(fuzz_mod, "_diverges", fake_diverges)

    def test_finds_exact_threshold(self, monkeypatch):
        for threshold in (1, 2, 37, 100):
            self._patch(monkeypatch, lambda n, t=threshold: n >= t)
            assert shrink_failing_prefix(list(range(100)), None, "x") \
                == threshold

    def test_non_monotone_still_returns_failing_prefix(self, monkeypatch):
        # diverges only on the full stream: shrinker must not "minimize"
        # to a passing prefix
        self._patch(monkeypatch, lambda n: n == 100)
        assert shrink_failing_prefix(list(range(100)), None, "x") == 100

    def test_divergence_carries_minimized_repro(self, monkeypatch):
        self._patch(monkeypatch, lambda n: n >= 10)
        case = FuzzCase(generator="APC", seed=3, scale=0.25)
        found = run_case(case, schemes=("dlp",))
        assert len(found) == 1
        div = found[0].to_dict()
        assert div["prefix"] == 10
        assert div["scheme"] == "dlp"
        assert "--generators APC" in div["repro"]
        assert "--seed 3" in div["repro"]

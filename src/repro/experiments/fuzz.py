"""Differential workload fuzzer: reference vs fast over adversarial streams.

The repo's bit-identity claim — the packed fast engine and the
reference engine produce byte-identical replay results — is enforced
elsewhere on the Table 2 models and the golden traces.  Those are
well-behaved streams.  This module hunts the claim's edges: seeded
adversarial streams (see :mod:`repro.workloads.adversarial`) are
captured once and replayed through **both** engines for every scheme,
comparing the complete serialized result (``SimResult.to_dict`` under
:func:`~repro.experiments.store.canonical_json`) — every counter, every
policy internal.  The grid is blocking-only: a non-blocking ``fast``
replay runs the reference engine, so there is nothing to compare.

On a mismatch the fuzzer does not just report the case: it shrinks the
stream to the shortest failing prefix (exponential probe + binary
search over the record count) and emits a machine-readable repro
payload — generator, seed, scale, scheme, prefix length — enough
to replay the divergence in a two-line script.

Everything is deterministic: a fuzz run is identified by
``(generators, base seed, streams, scale, sms)`` and replaying the same
run yields the same verdicts, so CI can pin "200 streams, zero
divergences" as a regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.store import canonical_json
from repro.gpu.config import GPUConfig
from repro.trace.record import capture_records
from repro.trace.replay import replay_records
from repro.workloads import make_workload
from repro.workloads.adversarial import (
    ADVERSARIAL_APPS,
    register_adversarial_workloads,
)

#: The full policy grid (paper Fig. 10 schemes).
FUZZ_SCHEMES = ("baseline", "dlp", "global_protection", "stall_bypass")


def fuzz_config(num_sms: int = 2, non_blocking: bool = False) -> GPUConfig:
    """The fuzzer's machine: harness shape with a *pressured* L1D.

    The default 32-entry MSHR never fills under the non-blocking replay
    window (24 outstanding accesses), so resource-stall paths would go
    untested by the pinned non-blocking corpus.  Shrinking
    MSHR/merge/miss-queue below the window forces
    ``MSHR_FULL``/``MERGE_FULL``/``MISS_QUEUE_FULL`` onto every
    saturating stream while leaving geometry (and therefore the
    adversarial generators' set-targeting) untouched.
    """
    config = GPUConfig().scaled(num_sms).with_l1d(
        mshr_entries=8, mshr_merge=4, miss_queue_depth=4,
    )
    if non_blocking:
        config = config.with_l1d(non_blocking=True)
    return config


@dataclass(frozen=True)
class FuzzCase:
    """One seeded adversarial stream (grid of checks hangs off it)."""

    generator: str
    seed: int
    scale: float = 1.0
    num_sms: int = 2

    def describe(self) -> Dict[str, Any]:
        return {
            "generator": self.generator,
            "seed": self.seed,
            "scale": self.scale,
            "num_sms": self.num_sms,
        }


@dataclass
class Divergence:
    """A confirmed reference-vs-fast mismatch, minimized."""

    case: FuzzCase
    scheme: str
    records: int          # full stream length
    prefix: int           # shortest failing prefix (== records if flat)
    ref_fingerprint: str
    fast_fingerprint: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            **self.case.describe(),
            "scheme": self.scheme,
            "records": self.records,
            "prefix": self.prefix,
            "ref_sha": self.ref_fingerprint,
            "fast_sha": self.fast_fingerprint,
            "repro": (
                f"repro fuzz --generators {self.case.generator} "
                f"--seed {self.case.seed} --streams 1 "
                f"--scale {self.case.scale:g} --sms {self.case.num_sms} "
                f"--policies {self.scheme}"
            ),
        }


@dataclass
class FuzzReport:
    """What a fuzz run did, and what (if anything) it found."""

    cases: int = 0
    checks: int = 0          # (case, scheme) grid points compared
    records: int = 0         # stream records captured (pre-truncation)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cases": self.cases,
            "checks": self.checks,
            "records": self.records,
            "divergences": [d.to_dict() for d in self.divergences],
            "ok": self.ok,
        }


def _fingerprint(result) -> str:
    import hashlib

    return hashlib.sha256(
        canonical_json(result.to_dict()).encode()
    ).hexdigest()


def _diverges(records, config: GPUConfig, scheme: str
              ) -> Optional[Tuple[str, str]]:
    """Replay through both engines; fingerprints iff they disagree."""
    ref = replay_records(iter(records), config, scheme)
    fast = replay_records(iter(records), config, scheme, engine="fast")
    ref_fp, fast_fp = _fingerprint(ref), _fingerprint(fast)
    if ref_fp == fast_fp:
        return None
    return ref_fp, fast_fp


def shrink_failing_prefix(records, config: GPUConfig, scheme: str) -> int:
    """Shortest prefix of ``records`` on which the engines still diverge.

    Exponential probe (1, 2, 4, ...) finds *a* failing length, binary
    search then minimizes it.  Divergence is monotone for any plausible
    engine bug (state drifts and stays drifted), but nothing here relies
    on that: the returned prefix is re-verified failing, and a
    non-monotone bug just yields a longer-than-minimal repro.
    """
    n = len(records)
    hi = 1
    while hi < n and _diverges(records[:hi], config, scheme) is None:
        hi *= 2
    hi = min(hi, n)
    if _diverges(records[:hi], config, scheme) is None:
        return n  # only the full stream fails (non-monotone tail effect)
    lo = hi // 2  # largest probed passing length (0 when hi == 1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _diverges(records[:mid], config, scheme) is None:
            lo = mid
        else:
            hi = mid
    return hi


def run_case(
    case: FuzzCase,
    schemes: Sequence[str] = FUZZ_SCHEMES,
    length: Optional[int] = None,
    report: Optional[FuzzReport] = None,
    shrink: bool = True,
) -> List[Divergence]:
    """Check one stream over every scheme; returns its divergences.

    The stream is captured once and every scheme replays the same
    record list through both engines.  ``length`` truncates the stream
    (faster CI smoke runs).
    """
    register_adversarial_workloads()
    workload = make_workload(case.generator, case.scale, seed=case.seed)
    records = capture_records(workload, fuzz_config(case.num_sms))
    if report is not None:
        report.cases += 1
        report.records += len(records)
    if length is not None:
        records = records[:length]
    found: List[Divergence] = []
    config = fuzz_config(case.num_sms)
    for scheme in schemes:
        if report is not None:
            report.checks += 1
        fps = _diverges(records, config, scheme)
        if fps is None:
            continue
        prefix = (
            shrink_failing_prefix(records, config, scheme)
            if shrink else len(records)
        )
        found.append(Divergence(
            case=case,
            scheme=scheme,
            records=len(records),
            prefix=prefix,
            ref_fingerprint=fps[0],
            fast_fingerprint=fps[1],
        ))
    if report is not None:
        report.divergences.extend(found)
    return found


def fuzz_cases(
    streams: int,
    base_seed: int = 0,
    generators: Sequence[str] = ADVERSARIAL_APPS,
    scale: float = 1.0,
    num_sms: int = 2,
) -> List[FuzzCase]:
    """The deterministic case list: generators round-robin, seeds
    ``base_seed .. base_seed + streams - 1``."""
    generators = [g.upper() for g in generators]
    return [
        FuzzCase(
            generator=generators[i % len(generators)],
            seed=base_seed + i,
            scale=scale,
            num_sms=num_sms,
        )
        for i in range(streams)
    ]


def run_fuzz(
    streams: int = 20,
    base_seed: int = 0,
    generators: Sequence[str] = ADVERSARIAL_APPS,
    schemes: Sequence[str] = FUZZ_SCHEMES,
    scale: float = 1.0,
    num_sms: int = 2,
    length: Optional[int] = None,
    shrink: bool = True,
) -> FuzzReport:
    """The full differential fuzz run (CLI + CI entry point)."""
    report = FuzzReport()
    for case in fuzz_cases(streams, base_seed, generators,
                           scale=scale, num_sms=num_sms):
        run_case(case, schemes=schemes, length=length,
                 report=report, shrink=shrink)
    return report

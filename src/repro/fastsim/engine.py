"""Packed struct-of-arrays L1D state (the ``fast`` engine's lanes).

:class:`FastL1DCache` holds one SM's L1D and policy state in flat
integer lists indexed by ``set_index * assoc + way``: per-line state,
block address, LRU stamp, instruction ID and Protected Life, plus the
Victim Tag Array and the Protection Distance Prediction Table.  It has
no per-access protocol of its own.  The generated replay kernels of
:mod:`repro.batchsim.kernels` advance it through a decoded trace and
call :meth:`FastL1DCache._end_sample` at every sampling-window barrier;
:class:`repro.trace.replay.ReplayEngine` then reads the counters
(``stats``) and the policy statistics (``policy.stats()``) off it
exactly as it reads a reference :class:`~repro.cache.l1d.L1DCache`.
Every per-access path — timing runs, non-blocking replays — runs the
reference L1D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cache.l1d import L1DCache, L1DStats
from repro.cache.tagarray import CacheGeometry
from repro.core.policy import CachePolicy, StallReason
from repro.core.pdpt import PDPT_ENTRIES, TDA_HIT_BITS, VTA_HIT_BITS
from repro.core.protection import pd_increment, run_global_pd_update

#: Line states, numeric for the packed arrays (mirrors
#: :class:`repro.cache.line.LineState` semantics).
INVALID, RESERVED, VALID = 0, 1, 2

#: Policy kinds, numeric for branch dispatch.
KIND_BASELINE, KIND_STALL_BYPASS, KIND_GLOBAL, KIND_DLP = 0, 1, 2, 3

_KIND_BY_NAME = {
    "baseline": KIND_BASELINE,
    "stall_bypass": KIND_STALL_BYPASS,
    "global_protection": KIND_GLOBAL,
    "dlp": KIND_DLP,
}


@dataclass(frozen=True)
class PolicySpec:
    """Everything the packed engine needs to know about a policy.

    Built only by :meth:`from_policy`, which reads a reference policy
    instance, so ``make_policy`` and every existing ``policy_factory``
    keep working and the knobs have one set of defaults: the reference
    policies' own.  Unprotected kinds carry zeros for the protection
    knobs.
    """

    kind: int
    sample_limit: int
    vta_assoc: int
    pd_bits: int
    nasc: int
    bypass_enabled: bool

    @classmethod
    def from_policy(
        cls, policy: CachePolicy, geometry: CacheGeometry
    ) -> "PolicySpec":
        kind = _KIND_BY_NAME.get(policy.name)
        if kind is None:
            raise ValueError(
                f"fast engine does not support custom policy {policy.name!r}; "
                f"use engine='reference'"
            )
        if kind < KIND_GLOBAL:
            return cls(kind=kind, sample_limit=0, vta_assoc=0, pd_bits=0,
                       nasc=0, bypass_enabled=False)
        # Attaching to a reference L1D of the lane's geometry resolves
        # the optional knobs (VTA associativity, Nasc) with the
        # reference policy's own fallback rules and validates the rest.
        L1DCache(geometry, policy)
        return cls(
            kind=kind,
            sample_limit=policy.sampler.access_limit,
            vta_assoc=policy.vta.assoc,
            pd_bits=policy.pd_bits,
            nasc=policy.nasc,
            bypass_enabled=policy.bypass_enabled,
        )


class _FastPolicyFacade:
    """The policy-side surface of a :class:`FastL1DCache`: what result
    assembly and reports read off ``cache.policy``."""

    def __init__(self, cache: "FastL1DCache") -> None:
        self._cache = cache

    def stats(self) -> Dict[str, float]:
        return self._cache.policy_stats()

    def pd_snapshot(self) -> Dict[int, Dict[str, int]]:
        return self._cache.pd_snapshot()

    @property
    def global_pd(self) -> int:
        return self._cache._gpd


class FastL1DCache:
    """One SM's packed L1D + policy state, advanced by the replay kernels."""

    def __init__(self, geometry: CacheGeometry, spec: PolicySpec) -> None:
        self.geometry = geometry
        self.stats = L1DStats()
        self._kind = spec.kind
        num_sets, assoc = geometry.num_sets, geometry.assoc
        self._num_sets = num_sets
        self._assoc = assoc

        n = num_sets * assoc
        # Per-line packed fields.  Names deliberately avoid the raw
        # hardware field names — the flat arrays are an *encoding* of the
        # contract-checked reference fields, proven equivalent by the
        # differential suites, not a second set of hardware registers.
        self._st = [INVALID] * n      # line state
        self._blk = [-1] * n          # block address (== tag)
        self._lru = [0] * n           # LRU stamp
        self._iid = [0] * n           # owning instruction ID
        self._pli = [0] * n           # Protected Life
        self._stamp = 0               # shared stamp counter (TagArray._stamp)

        self._protected = spec.kind >= KIND_GLOBAL
        self._bypass_enabled = spec.bypass_enabled
        self._pl_max = (1 << spec.pd_bits) - 1
        self._acc_limit = spec.sample_limit
        self._nasc = spec.nasc
        self.samples_completed = 0

        # VTA (packed), DLP/GP only.
        self._vta_assoc = spec.vta_assoc
        vn = num_sets * spec.vta_assoc
        self._vta_valid = [False] * vn
        self._vta_blk = [-1] * vn
        self._vta_iid = [0] * vn
        self._vta_lru = [0] * vn
        self._vta_stamp = 0
        self._vta_hit_count = 0
        self._vta_insert_count = 0

        # PDPT (packed), DLP only.
        pn = PDPT_ENTRIES if spec.kind == KIND_DLP else 0
        self._pdpt_n = pn
        self._pdt = [0] * pn          # per-entry TDA-hit counters
        self._pdv = [0] * pn          # per-entry VTA-hit counters
        self._pdl = [0] * pn          # per-entry Protection Distances
        self._pdu = [False] * pn      # lifetime activity markers
        self._tda_hit_max = (1 << TDA_HIT_BITS) - 1
        self._vta_hit_max = (1 << VTA_HIT_BITS) - 1
        self._pd_max = self._pl_max
        self._g_tda = 0               # global (non-saturating) accumulators
        self._g_vta = 0

        # Global-Protection scalar state.
        self._gpd = 0
        self._gp_tda = 0
        self._gp_vta = 0

        self.protected_bypasses = 0
        self.pd_updates = {"increase": 0, "decrease": 0, "hold": 0}
        self.policy = _FastPolicyFacade(self)

    def _end_sample(self) -> None:
        """Close one sampling window: the Figure 9 update over the packed
        PDPT (DLP) or the global PD (GP), then clear the window's hit
        counters."""
        nasc = self._nasc
        if self._kind != KIND_DLP:
            self._gpd, path = run_global_pd_update(
                self._gpd, self._pd_max, nasc, self._gp_tda, self._gp_vta
            )
            self._gp_tda = 0
            self._gp_vta = 0
            self.pd_updates[path] += 1
            return
        if nasc < 0:
            # Hoisted above the path split, as in run_pd_update: a
            # negative Nasc on the decrease path would silently *raise*
            # PDs past the 4-bit field.
            raise ValueError(f"Nasc must be non-negative, got {nasc}")
        g_tda, g_vta = self._g_tda, self._g_vta
        pdt, pdv, pdl = self._pdt, self._pdv, self._pdl
        if g_vta > g_tda:
            path = "increase"
            pd_max = self._pd_max
            for i in range(self._pdpt_n):
                t, v = pdt[i], pdv[i]
                if t or v:
                    delta = pd_increment(nasc, v, t)
                    if delta:
                        npd = pdl[i] + delta
                        pdl[i] = npd if npd < pd_max else pd_max
        elif 2 * g_vta < g_tda:
            path = "decrease"
            for i in range(self._pdpt_n):
                if pdl[i]:
                    npd = pdl[i] - nasc
                    pdl[i] = npd if npd > 0 else 0
        else:
            path = "hold"
        for i in range(self._pdpt_n):
            pdt[i] = 0
            pdv[i] = 0
        self._g_tda = 0
        self._g_vta = 0
        self.pd_updates[path] += 1

    # ------------------------------------------------------------------
    # policy-side reporting (facade targets)
    # ------------------------------------------------------------------

    def policy_stats(self) -> Dict[str, float]:
        kind = self._kind
        if kind == KIND_BASELINE:
            return {}
        if kind == KIND_STALL_BYPASS:
            # Blocking replay never bypasses an unprotected lane (see
            # repro.batchsim.kernels), so every per-reason count is 0.
            return {f"bypass_{reason.value}": 0 for reason in StallReason}
        out: Dict[str, float] = {
            "protected_bypasses": self.protected_bypasses,
            "samples_completed": self.samples_completed,
        }
        if kind == KIND_GLOBAL:
            out["global_pd"] = self._gpd
            out["vta_hits"] = self._vta_hit_count
        else:
            out["vta_hits"] = self._vta_hit_count
            out["vta_inserts"] = self._vta_insert_count
        for path, count in self.pd_updates.items():
            out[f"pd_{path}"] = count
        return out

    def pd_snapshot(self) -> Dict[int, Dict[str, int]]:
        return {
            i: {"tda_hits": self._pdt[i], "vta_hits": self._pdv[i],
                "pd": self._pdl[i]}
            for i in range(self._pdpt_n)
            if self._pdu[i]
        }

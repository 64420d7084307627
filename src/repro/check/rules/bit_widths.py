"""Rule R006: statically prove bit-field writes fit their widths.

R003 pattern-matches individual arithmetic expressions; this rule runs
the abstract-interpretation value-range analyzer
(:mod:`repro.check.analysis.intervals`) over every function in the
simulation packages and reports each store into a declared hardware
field whose value interval may leave ``[0, 2**bits - 1]``.  The runtime
``REPRO_CHECK=1`` contracts remain as a backstop for code paths the
analysis cannot see (constructor calls, ablation-widened fields), but
the widths themselves are proven here, at lint time, on every path.

The field tables mirror the ``@hw_checked`` declarations (R007 keeps
them honest against the extracted parity manifest):

* scalar fields — reference-model object fields and the fast engine's
  scalar global-PD;
* packed fields — the fast engine's struct-of-arrays encodings, tracked
  through local aliases (``pdl = self._pdl``);
* bound tokens — ``*_max`` attributes that hold a field's declared
  maximum, evaluated as exact constants so clamps prove.

Sites that are correct only because of a *data* invariant the analyzer
cannot see (e.g. dict values that were all produced by ``hash_pc``)
carry ``# repro-check: allow(R006)`` markers with a justification.
"""

from __future__ import annotations

from typing import Iterator

from repro.check.analysis.intervals import FieldTable, ValueRangeAnalyzer
from repro.check.manifest import package_root
from repro.check.rules.base import Finding, ModuleSource, Rule

#: Widths of the reference model's object fields (paper Figure 8) plus
#: the fast engine's scalar global PD.  Must agree with the
#: ``@hw_checked`` declarations — R007 cross-checks.
SCALAR_FIELDS = {
    "pd": 4,
    "protected_life": 4,
    "tda_hits": 8,
    "vta_hits": 10,
    "insn_id": 7,
    "pending_insn_id": 7,
    "first_insn_id": 7,
    "global_pd": 4,
    "_gpd": 4,
}

#: Widths of the fast engine's packed arrays (element-wise).
PACKED_FIELDS = {
    "_pli": 4,
    "_iid": 7,
    "_pdt": 8,
    "_pdv": 10,
    "_pdl": 4,
    "_vta_iid": 7,
}

#: Attributes/parameters that hold a field's declared maximum value.
BOUND_TOKENS = {
    "pd_max": 15,
    "pl_max": 15,
    "_pd_max": 15,
    "_pl_max": 15,
    "tda_hit_max": 255,
    "_tda_hit_max": 255,
    "vta_hit_max": 1023,
    "_vta_hit_max": 1023,
}

#: Module-level width constants resolvable by bare name.
CONST_NAMES = {
    "INSN_ID_BITS": 7,
    "TDA_HIT_BITS": 8,
    "VTA_HIT_BITS": 10,
    "PD_BITS": 4,
    "PL_BITS": 4,
    "PDPT_ENTRIES": 128,
}

#: Path fragments of the packages whose writes the rule proves.
_SCOPED_PACKAGES = ("repro/core/", "repro/cache/", "repro/fastsim/")


def default_field_table() -> FieldTable:
    return FieldTable(
        scalar_fields=dict(SCALAR_FIELDS),
        packed_fields=dict(PACKED_FIELDS),
        bound_tokens=dict(BOUND_TOKENS),
        const_names=dict(CONST_NAMES),
    )


class BitWidthProofRule(Rule):
    rule_id = "R006"
    title = "bit-field write may exceed its hardware width"

    def __init__(self) -> None:
        self._table = default_field_table()

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.relpath.startswith(_SCOPED_PACKAGES):
            return
        try:
            root = package_root()
        except Exception:  # pragma: no cover - package layout is fixed
            root = None
        analyzer = ValueRangeAnalyzer(self._table, package_root=root)
        for violation in analyzer.analyze_module(module.tree):
            yield self.finding(module, violation.node, violation.describe())

"""R007 — policy-surface parity (override guards, packed widths).

Two pieces, one rule id:

* :class:`OverrideGuardRule` (AST, per-file) — fires on any Optional-knob
  fallback selected by truthiness instead of ``is not None``.  This is
  the exact shape of the historical nasc bug: ``nasc or vta_assoc``
  silently turns the valid ablation value ``nasc=0`` into
  ``vta_assoc``, freezing nothing.  The rule is scoped to the policy
  package (``core/``), the one place these fallbacks live: the packed
  engine reads the resolved knobs off a reference policy.

* :class:`EngineParityRule` (repo-level) — extracts override-guard
  styles, width-constant usage and ``@hw_checked`` declarations
  (:mod:`repro.check.analysis.parity`), enforces the laws (constants
  imported not redefined, one width per hardware field, every packed
  array backed by a declared field, PL as wide as PD), verifies the
  packed-array width table used by R006 against the extracted
  declarations, and finally diffs the extraction against the committed
  ``parity_manifest.json`` so any intentional change is a
  reviewer-visible ``repro check --update-parity`` refresh.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from repro.check.analysis import parity
from repro.check.manifest import package_root
from repro.check.rules.base import Finding, ModuleSource, RepoRule, Rule

_SCOPED_PACKAGES = ("repro/core/",)

_STYLE_HINTS = {
    "or_truthiness": (
        "uses `or` truthiness — an explicit 0 override is dropped "
        "(the historical nasc bug); use `x if x is not None else fallback`"
    ),
    "truthiness": (
        "uses bare truthiness — an explicit 0 override is dropped "
        "(the historical nasc bug); test `is not None` instead"
    ),
}


class OverrideGuardRule(Rule):
    rule_id = "R007"
    title = "Optional-knob fallback guard drops explicit zero overrides"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.relpath.startswith(_SCOPED_PACKAGES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.IfExp, ast.BoolOp)):
                continue
            hit = parity.classify_guard(node)
            if hit is None:
                continue
            knob, style = hit
            hint = _STYLE_HINTS.get(style)
            if hint is None:
                continue
            yield self.finding(
                module, node, f"override fallback for {knob!r} {hint}"
            )


class EngineParityRule(RepoRule):
    rule_id = "R007"
    title = "policy surface / packed-array width drift"

    def check_repo(self, root: Optional[Path] = None) -> Iterator[Finding]:
        pkg_root = root or package_root()
        current = parity.compute_parity(pkg_root)
        manifest_rel = (
            parity.parity_path(pkg_root).relative_to(pkg_root.parent).as_posix()
        )
        messages = parity.check_consistency(current)
        messages.extend(self._width_table_problems(current))
        messages.extend(
            parity.diff_parity(parity.load_parity(pkg_root), current)
        )
        for message in messages:
            yield Finding(
                rule=self.rule_id,
                path=manifest_rel,
                line=1,
                col=0,
                message=message,
                snippet="",
            )

    @staticmethod
    def _width_table_problems(current: dict) -> Iterator[str]:
        """R006's packed/scalar width tables must match the extracted
        ``@hw_checked`` declarations — a width changed in the contracts
        but not in the static tables would silently weaken the proof."""
        # imported here: bit_widths imports the analysis package too and
        # rule modules load before the registry ties them together
        from repro.check.rules.bit_widths import PACKED_FIELDS, SCALAR_FIELDS

        declared: dict = {}
        hw_widths = current.get("hw_widths", {})
        if isinstance(hw_widths, dict):
            for fields in hw_widths.values():
                if isinstance(fields, dict):
                    declared.update(fields)
        correspondence = current.get("packed_correspondence", {})
        if isinstance(correspondence, dict):
            for packed, ref_field in sorted(correspondence.items()):
                if packed == "_gpd":
                    table_bits = SCALAR_FIELDS.get(packed)
                else:
                    table_bits = PACKED_FIELDS.get(packed)
                hw_bits = declared.get(ref_field)
                if table_bits is None:
                    yield (
                        f"packed array {packed!r} has no width in the R006 "
                        f"field table — add it so its writes are proven"
                    )
                elif hw_bits is not None and table_bits != hw_bits:
                    yield (
                        f"R006 width table says {packed!r} is "
                        f"{table_bits}-bit but its reference field "
                        f"{ref_field!r} is declared @hw_checked "
                        f"{hw_bits}-bit — update rules/bit_widths.py"
                    )
        for field_name, hw_bits in sorted(declared.items()):
            table_bits = SCALAR_FIELDS.get(field_name)
            if table_bits is not None and table_bits != hw_bits:
                yield (
                    f"R006 width table says field {field_name!r} is "
                    f"{table_bits}-bit but @hw_checked declares "
                    f"{hw_bits}-bit — update rules/bit_widths.py"
                )

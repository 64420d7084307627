"""Tests for the policy-surface parity extractor and its manifest.

The live extraction must satisfy the parity laws and match the
committed ``parity_manifest.json`` byte-for-byte; mutated copies must be
flagged with actionable messages.  ``classify_guard`` — the heart of
R007 — is unit-tested on expression fixtures directly.
"""

import ast
import copy
import json

import pytest

from repro.check.analysis.parity import (
    check_consistency,
    classify_guard,
    compute_parity,
    diff_parity,
    load_parity,
)
from repro.check.rules.engine_parity import EngineParityRule


@pytest.fixture(scope="module")
def current():
    return compute_parity()


class TestLiveExtraction:
    def test_consistency_laws_hold(self, current):
        assert check_consistency(current) == []

    def test_manifest_is_in_sync(self, current):
        assert diff_parity(load_parity(), current) == []

    def test_manifest_round_trips_through_json(self, current):
        assert json.loads(json.dumps(current)) == load_parity()

    def test_extraction_has_all_surfaces(self, current):
        # override fallbacks live in the reference policies only: the
        # packed engine reads resolved knobs off a reference policy
        assert set(current["override_guards"]) == {
            "repro/core/dlp.py", "repro/core/global_protection.py",
        }
        assert current["hw_widths"], "no @hw_checked declarations extracted"
        assert current["packed_correspondence"]
        assert current["fastsim_constant_redefinitions"] == []

    def test_width_table_matches_contracts(self, current):
        assert list(EngineParityRule._width_table_problems(current)) == []


class TestConsistencyOnDrift:
    def test_or_truthiness_guard_is_flagged(self, current):
        mutated = copy.deepcopy(current)
        mutated["override_guards"]["repro/core/seeded.py"] = {
            "nasc": ["or_truthiness"],
        }
        problems = check_consistency(mutated)
        assert any(
            "or_truthiness" in p and "historical nasc bug" in p
            for p in problems
        )

    def test_redefined_width_constant_is_flagged(self, current):
        mutated = copy.deepcopy(current)
        mutated["fastsim_constant_redefinitions"] = ["PD_BITS"]
        problems = check_consistency(mutated)
        assert any("redefines width constants" in p for p in problems)

    def test_conflicting_hw_widths_are_flagged(self, current):
        mutated = copy.deepcopy(current)
        site = dict(next(iter(mutated["hw_widths"].values())))
        field = next(iter(site))
        site[field] = 99
        mutated["hw_widths"]["repro/core/seeded.py:Seeded"] = site
        problems = check_consistency(mutated)
        assert any(
            f"hardware field {field!r} declared with conflicting" in p
            for p in problems
        )

    def test_pl_must_mirror_pd_width(self, current):
        mutated = copy.deepcopy(current)
        mutated["width_constants"]["PL_BITS"] = 5
        problems = check_consistency(mutated)
        assert any("must share its width" in p for p in problems)


class TestDiff:
    def test_missing_manifest_points_at_update_parity(self, current):
        (message,) = diff_parity(None, current)
        assert "--update-parity" in message

    def test_mutated_extraction_diffs_with_rebaseline_hint(self, current):
        mutated = copy.deepcopy(current)
        mutated["width_constants"]["PD_BITS"] = 5
        messages = diff_parity(load_parity(), mutated)
        assert messages
        assert all("--update-parity" in m for m in messages)
        assert any("width_constants.PD_BITS" in m for m in messages)


class TestWidthTableProblems:
    def test_contract_vs_table_drift(self, current):
        mutated = copy.deepcopy(current)
        for fields in mutated["hw_widths"].values():
            if "pd" in fields:
                fields["pd"] = 5
        problems = list(EngineParityRule._width_table_problems(mutated))
        assert any("update rules/bit_widths.py" in p for p in problems)

    def test_unknown_packed_array_is_flagged(self, current):
        mutated = copy.deepcopy(current)
        mutated["packed_correspondence"]["_zzz"] = "pd"
        problems = list(EngineParityRule._width_table_problems(mutated))
        assert any("'_zzz'" in p and "no width" in p for p in problems)


def guard_of(expr):
    return classify_guard(ast.parse(expr, mode="eval").body)


class TestClassifyGuard:
    def test_or_truthiness(self):
        assert guard_of("self._nasc_override or nasc") == \
            ("nasc", "or_truthiness")

    def test_is_not_none(self):
        assert guard_of("vta_assoc if vta_assoc is not None else assoc") == \
            ("vta_assoc", "is_not_none")

    def test_inverted_is_none(self):
        assert guard_of("assoc if vta_assoc is None else vta_assoc") == \
            ("vta_assoc", "is_not_none")

    def test_bare_truthiness(self):
        assert guard_of("vta_assoc if vta_assoc else assoc") == \
            ("vta_assoc", "truthiness")

    def test_unrelated_expressions_pass(self):
        assert guard_of("x or y") is None
        assert guard_of("x if x is not None else y") is None
        assert guard_of("nasc + 1") is None

"""Acceptance suite: every criterion must pass at its stated tolerance.

Each test prints a one-line verdict so ``pytest -s`` mirrors the CLI
``selftest`` output.  Where a runtime budget is part of the criterion it
is asserted here as well.
"""

import dataclasses

import pytest

from lienilp.acceptance import CRITERIA, run_all, run_criterion
from lienilp.catalog import Catalog
from lienilp.oracle import DEFAULT_ORACLE_CAP
from lienilp.report import analyze

BUDGETS = {"1-golden-indices": 10.0, "2-route-equivalence": 60.0}


def _criterion(key):
    (row,) = [c for c in CRITERIA if c[0] == key]
    return row


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(catalog, catalog_reports, criterion):
    result = run_criterion(criterion, catalog, catalog_reports,
                           DEFAULT_ORACLE_CAP)
    print(f"[{result.status.upper():4}] {result.key}  "
          f"({result.seconds:.2f}s)  {result.detail}")
    assert result.status == "pass", result.detail
    budget = BUDGETS.get(result.key)
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.key} took {result.seconds:.1f}s, budget {budget}s")


def test_negative_oracle_cap_rejected(built):
    """The library refuses a negative oracle cap as the CLI does, rather
    than reading it as "no oracle": analyze at once, and run_all before
    any criterion runs (here on an empty catalog)."""
    with pytest.raises(ValueError, match="^oracle_cap must be >= 0, got -1$"):
        analyze(built("D8"), 2, oracle_cap=-1)
    with pytest.raises(ValueError, match="^oracle_cap must be >= 0, got -5$"):
        run_all(Catalog([]), oracle_cap=-5)


def test_suite_is_complete():
    assert len(CRITERIA) == 8
    assert set(BUDGETS) <= {c[0] for c in CRITERIA}


def test_oracle_free_run_skips_not_fails(catalog):
    results = run_all(catalog, oracle_cap=0)
    by_key = {r.key: r for r in results}
    assert by_key["1-golden-indices"].status == "skip"
    assert by_key["2-route-equivalence"].status == "skip"
    assert by_key["4-bounds"].status == "skip"
    for key in ("3-biconditional", "5-sharpness", "6-vanishing-quotients",
                "7-sum-rule-relabelling", "8-negative-controls"):
        assert by_key[key].status == "pass"
    assert all(r.ok for r in results)


def test_failed_analysis_fails_its_criteria(catalog, monkeypatch):
    """An analysis that raises is reported by every criterion that reads
    it as a failure, never as a traceback out of run_all."""
    from lienilp import acceptance

    real = acceptance.analyze

    def failing(g, p, *, name, **kwargs):
        if (name, p) == ("D8", 2):
            raise RuntimeError("analysis broke")
        return real(g, p, name=name, **kwargs)

    monkeypatch.setattr(acceptance, "analyze", failing)
    by_key = {r.key: r for r in run_all(catalog, oracle_cap=0)}
    for key in ("1-golden-indices", "2-route-equivalence",
                "3-biconditional", "8-negative-controls"):
        assert by_key[key].status == "fail", key
        assert by_key[key].detail == "RuntimeError: analysis broke"


# One check set False on one report: the criterion that reads it and
# its exact detail.
FAILED_CHECKS = [
    ("routes_agree", "D8", 2, "2-route-equivalence",
     "D8@p2: recursive != product"),
    ("direct_series_agrees", "D8", 2, "2-route-equivalence",
     "D8@p2: direct route differs"),
    ("classification_biconditional", "D8", 2, "3-biconditional",
     "D8@p2: disagreement: structural=None profile=None verdict=maximal "
     "(t=3, n=1)"),
    ("bounds", "D8", 2, "4-bounds", "D8@p2: 3 <= 3 <= |G'| + 1 fails"),
    ("char_gt3_equality", "H125", 5, "4-bounds",
     "H125@p5: lower 6 != upper 6"),
    ("shalev_vanishing", "D8", 2, "6-vanishing-quotients",
     "D8@p2: a forced-vanishing rule fails"),
    ("sum_rule", "Q8", 2, "7-sum-rule-relabelling", "Q8@p2: sum rule fails"),
]


@pytest.mark.parametrize("check, name, p, key, detail", FAILED_CHECKS,
                         ids=[case[0] for case in FAILED_CHECKS])
def test_failed_check_fails_its_criterion(catalog, catalog_reports, check,
                                          name, p, key, detail):
    """A report whose check is False fails the criterion that reads it,
    and the detail names the group, the prime and what failed."""
    reports = dict(catalog_reports)
    rep = reports[name, p]
    reports[name, p] = dataclasses.replace(rep,
                                           checks={**rep.checks, check: False})
    result = run_criterion(_criterion(key), catalog, reports,
                           DEFAULT_ORACLE_CAP)
    assert result.status == "fail"
    assert result.detail == detail

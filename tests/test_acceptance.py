"""Acceptance suite: every criterion must pass at its stated tolerance.

Each test prints a one-line verdict so ``pytest -s`` mirrors the CLI
``selftest`` output.  Where a runtime budget is part of the criterion it
is asserted here as well.
"""

import dataclasses

import pytest

from lienilp.acceptance import CRITERIA, analyze_catalog, run_all, \
    run_criterion
from lienilp.catalog import Catalog
from lienilp.oracle import DEFAULT_ORACLE_CAP
from lienilp.report import analyze

BUDGETS = {"1-golden-indices": 10.0, "2-checks": 60.0}


def _criterion(key):
    (row,) = [c for c in CRITERIA if c[0] == key]
    return row


# The criteria folded into 2-checks, each with the checks it read and
# the Lie nilpotent reports it read them on.  2-checks passes a check
# that did not run, so these pin that each still runs there and holds.
FOLDED = {
    "2-route-equivalence": (
        ("routes_agree",
         lambda rep: rep.prime in (2, 3) and rep.order <= 64),
        ("direct_series_agrees",
         lambda rep: rep.prime in (2, 3) and rep.order <= 64
         and rep.oracle.ran)),
    "3-biconditional": (
        ("classification_biconditional",
         lambda rep: rep.order <= {2: 64, 3: 81}.get(rep.prime, 0)),),
    "4-bounds": (
        ("bounds", lambda rep: rep.oracle.ran),
        ("char_gt3_equality", lambda rep: rep.oracle.ran and rep.prime > 3)),
}


@pytest.mark.parametrize("key", [c[0] for c in CRITERIA] + list(FOLDED))
def test_criterion(catalog, catalog_reports, key):
    result = run_criterion(_criterion("2-checks" if key in FOLDED else key),
                           catalog, catalog_reports, DEFAULT_ORACLE_CAP)
    print(f"[{result.status.upper():4}] {key}  "
          f"({result.seconds:.2f}s)  {result.detail}")
    assert result.status == "pass", result.detail
    budget = BUDGETS.get(result.key)
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.key} took {result.seconds:.1f}s, budget {budget}s")
    reps = [rep for rep in catalog_reports.values() if rep.lie_nilpotent]
    for check, scope in FOLDED.get(key, ()):
        ran = [rep for rep in reps if scope(rep)]
        assert ran, f"{check} read on no report"
        for rep in ran:
            assert rep.checks[check] is True, (rep.name, rep.prime, check)


def test_negative_oracle_cap_rejected(built):
    """The library refuses a negative oracle cap as the CLI does, rather
    than reading it as "no oracle": analyze at once, and run_all before
    any criterion runs (here on an empty catalog)."""
    with pytest.raises(ValueError, match="^oracle_cap must be >= 0, got -1$"):
        analyze(built("D8"), 2, oracle_cap=-1)
    with pytest.raises(ValueError, match="^oracle_cap must be >= 0, got -5$"):
        run_all(Catalog([]), oracle_cap=-5)


def test_suite_is_complete():
    assert len(CRITERIA) == 6
    assert set(BUDGETS) <= {c[0] for c in CRITERIA}


def test_oracle_free_run_skips_not_fails(catalog):
    results = run_all(catalog, oracle_cap=0)
    by_key = {r.key: r for r in results}
    assert by_key["1-golden-indices"].status == "skip"
    assert by_key["2-checks"].status == "skip"
    for key in ("3-sharpness", "4-central-quotients", "5-relabelling",
                "6-negative-controls"):
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
    for key in ("1-golden-indices", "2-checks", "3-sharpness",
                "6-negative-controls"):
        assert by_key[key].status == "fail", key
        assert by_key[key].detail == "RuntimeError: D8@p2: analysis broke"


CHECK_NAMES = ("bounds", "char_gt3_equality",
               "classification_biconditional", "direct_series_agrees",
               "oracle_upper_matches_jennings", "routes_agree",
               "shalev_vanishing", "sum_rule")

# One check set False on one report.  First the cases of the criteria
# the checks criterion replaced, named by their check; then every check
# on the largest groups the oracle runs on (char_gt3_equality runs only
# at p > 3, so only on H125, where it is among the first cases).
REPLACED_CASES = [
    ("routes_agree", "D8", 2),
    ("direct_series_agrees", "D8", 2),
    ("classification_biconditional", "D8", 2),
    ("bounds", "D8", 2),
    ("char_gt3_equality", "H125", 5),
    ("shalev_vanishing", "D8", 2),
    ("sum_rule", "Q8", 2),
]
LARGE_CASES = [(check, name, p)
               for name, p in (("D8wrC2", 2), ("H125", 5), ("C3wrC3", 3))
               for check in CHECK_NAMES if check != "char_gt3_equality"]


def _planted(reports, name, p, check, value=False):
    """The reports with one check of one report set to value."""
    reports = dict(reports)
    rep = reports[name, p]
    reports[name, p] = dataclasses.replace(rep,
                                           checks={**rep.checks, check: value})
    return reports


@pytest.fixture(scope="module")
def cap0_reports(catalog):
    return analyze_catalog(catalog, 0)


@pytest.mark.parametrize(
    "check, name, p", REPLACED_CASES + LARGE_CASES,
    ids=[case[0] for case in REPLACED_CASES]
    + [f"{c}-{n}@p{p}" for c, n, p in LARGE_CASES])
def test_failed_check_fails_its_criterion(catalog, catalog_reports, check,
                                          name, p):
    """A report whose check is False fails the checks criterion, and the
    detail names the group, the prime and the check."""
    assert catalog_reports[name, p].checks[check] is True
    result = run_criterion(_criterion("2-checks"), catalog,
                           _planted(catalog_reports, name, p, check),
                           DEFAULT_ORACLE_CAP)
    assert result.status == "fail"
    assert result.detail == f"{name}@p{p}: {check}"


def test_failed_checks_are_all_named(catalog, catalog_reports):
    """Every False check is named, in catalog then prime order."""
    reports = _planted(catalog_reports, "H125", 5, "bounds")
    reports = _planted(reports, "D8", 2, "sum_rule")
    reports = _planted(reports, "D8", 2, "routes_agree")
    result = run_criterion(_criterion("2-checks"), catalog, reports,
                           DEFAULT_ORACLE_CAP)
    assert result.detail == ("D8@p2: routes_agree; D8@p2: sum_rule; "
                             "H125@p5: bounds")


def test_failed_formula_check_fails_without_the_oracle(catalog,
                                                       cap0_reports):
    """With no oracle run anywhere the checks criterion skips, but a
    False formula check still fails it."""
    criterion = _criterion("2-checks")
    assert run_criterion(criterion, catalog, cap0_reports, 0).status == \
        "skip"
    result = run_criterion(criterion, catalog,
                           _planted(cap0_reports, "Q8", 2, "sum_rule"), 0)
    assert result.status == "fail"
    assert result.detail == "Q8@p2: sum_rule"


def test_unrun_check_fails_nothing(catalog, catalog_reports, cap0_reports):
    """A check left None because the oracle did not run fails no
    criterion: above the cap (C5wrC5 at p = 5, order 15625), on every
    group at cap 0, and planted in place of a passing check."""
    assert catalog_reports["C5wrC5", 5].checks["bounds"] is None
    assert cap0_reports["D8", 2].checks["bounds"] is None
    planted = _planted(catalog_reports, "D8", 2, "bounds", None)
    for reports, cap in ((catalog_reports, DEFAULT_ORACLE_CAP),
                         (planted, DEFAULT_ORACLE_CAP), (cap0_reports, 0)):
        for criterion in CRITERIA:
            result = run_criterion(criterion, catalog, reports, cap)
            assert result.ok, (criterion[0], result.detail)

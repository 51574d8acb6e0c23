"""Acceptance suite: every criterion must pass at its stated tolerance.

Each test prints a one-line verdict so ``pytest -s`` mirrors the CLI
``selftest`` output.  Where a runtime budget is part of the criterion it
is asserted here as well.
"""

from lienilp.acceptance import (
    CRITERIA,
    criterion_biconditional,
    criterion_bounds,
    criterion_golden_indices,
    criterion_negative_controls,
    criterion_route_equivalence,
    criterion_sharpness,
    criterion_sum_rule_and_relabelling,
    criterion_vanishing_and_quotients,
    run_all,
)
from lienilp.oracle import DEFAULT_ORACLE_CAP


def _check(result, budget=None):
    print(f"[{result.status.upper():4}] {result.key}  "
          f"({result.seconds:.2f}s)  {result.detail}")
    assert result.status == "pass", result.detail
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.key} took {result.seconds:.1f}s, budget {budget}s")


def test_criterion_1_golden_indices(catalog, catalog_reports):
    _check(criterion_golden_indices(catalog, catalog_reports,
                                    DEFAULT_ORACLE_CAP), budget=10.0)


def test_criterion_2_route_equivalence(catalog, catalog_reports):
    _check(criterion_route_equivalence(catalog, catalog_reports,
                                       DEFAULT_ORACLE_CAP), budget=60.0)


def test_criterion_3_biconditional(catalog, catalog_reports):
    _check(criterion_biconditional(catalog, catalog_reports,
                                   DEFAULT_ORACLE_CAP))


def test_criterion_4_bounds(catalog, catalog_reports):
    _check(criterion_bounds(catalog, catalog_reports, DEFAULT_ORACLE_CAP))


def test_criterion_5_sharpness(catalog, catalog_reports):
    _check(criterion_sharpness(catalog, catalog_reports, DEFAULT_ORACLE_CAP))


def test_criterion_6_vanishing_and_quotients(catalog, catalog_reports):
    _check(criterion_vanishing_and_quotients(catalog, catalog_reports,
                                             DEFAULT_ORACLE_CAP))


def test_criterion_7_sum_rule_and_relabelling(catalog, catalog_reports):
    _check(criterion_sum_rule_and_relabelling(catalog, catalog_reports,
                                              DEFAULT_ORACLE_CAP))


def test_criterion_8_negative_controls(catalog, catalog_reports):
    _check(criterion_negative_controls(catalog, catalog_reports,
                                       DEFAULT_ORACLE_CAP))


def test_suite_is_complete():
    assert len(CRITERIA) == 8


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

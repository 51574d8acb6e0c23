"""The acceptance suite: one callable per criterion, shared by the
``selftest`` CLI command and the pytest acceptance module.

``run_all`` analyses every catalog entry once at each prime; the
criteria read those reports.  Only the central-quotient identity and
the relabelling trials build groups of their own.  Each criterion
returns pass/fail/skip with a detail string; criteria that need the
explicit algebra oracle report "skip" when the oracle cap rules it out,
while the formula-only criteria always run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .classify import corollary_sharpness
from .dimension import quotient_series_check, series_recursive
from .errors import NoWitnessFoundError, UnresolvedReferenceError
from .groups import FiniteGroup, from_multiplication_table
from .oracle import DEFAULT_ORACLE_CAP
from .report import LieReport, analyze

PRIMES = (2, 3, 5)

GOLDEN_INDICES = (
    ("D8", 2, 3),
    ("Q8", 2, 3),
    ("D8xD8", 2, 4),
    ("C2wrC4", 2, 8),
    ("H27", 3, 4),
    ("C3wrC3", 3, 8),
)


@dataclass
class CriterionResult:
    key: str
    title: str
    status: str          # pass | fail | skip
    detail: str
    seconds: float

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _run(key: str, title: str, fn) -> CriterionResult:
    start = time.perf_counter()
    try:
        status, detail = fn()
    except Exception as exc:   # a crash is a failure, not an abort
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    return CriterionResult(key=key, title=title, status=status,
                           detail=detail, seconds=time.perf_counter() - start)


def analyze_catalog(catalog: Catalog, oracle_cap: int) -> dict:
    """Every entry analysed once at each prime in PRIMES, keyed by
    (name, p).  An analysis that raises is kept as its exception; a
    criterion that reads it re-raises it and so fails."""
    reports: dict = {}
    for entry in catalog.entries:
        for p in PRIMES:
            try:
                reports[entry.name, p] = analyze(
                    catalog.build(entry.name), p, name=entry.name,
                    oracle_cap=oracle_cap)
            except Exception as exc:
                reports[entry.name, p] = exc
    return reports


def _report(reports: dict, name: str, p: int) -> LieReport:
    if (name, p) not in reports:
        raise UnresolvedReferenceError(f"unknown entry {name!r}")
    rep = reports[name, p]
    if isinstance(rep, Exception):
        raise rep
    return rep


def _lie_nilpotent(reports: dict, *, primes=PRIMES,
                   max_order: int | None = None):
    """The Lie nilpotent reports, in catalog order, then prime order."""
    for name, p in reports:
        if p not in primes:
            continue
        rep = _report(reports, name, p)
        if rep.lie_nilpotent and (max_order is None
                                  or rep.order <= max_order):
            yield rep


def criterion_golden_indices(catalog: Catalog, reports: dict,
                             oracle_cap: int) -> CriterionResult:
    def body():
        failures = []
        skipped = []
        for name, p, expected in GOLDEN_INDICES:
            rep = _report(reports, name, p)
            t = rep.t_upper_jennings
            if t != expected:
                failures.append(f"{name}@p{p}: formula {t} != {expected}")
            if rep.oracle.ran:
                if rep.oracle.t_upper != expected:
                    failures.append(f"{name}@p{p}: oracle "
                                    f"{rep.oracle.t_upper} != {expected}")
            else:
                skipped.append(name)
        if failures:
            return "fail", "; ".join(failures)
        if skipped:
            return "skip", (f"formula values verified; oracle leg skipped "
                            f"for {', '.join(skipped)} (cap {oracle_cap})")
        return "pass", f"{len(GOLDEN_INDICES)} indices via both routes"
    return _run("1-golden-indices",
                "golden upper indices via formula and oracle", body)


def criterion_route_equivalence(catalog: Catalog, reports: dict,
                                oracle_cap: int) -> CriterionResult:
    def body():
        mismatches = []
        count = 0
        skipped = 0
        for rep in _lie_nilpotent(reports, primes=(2, 3), max_order=64):
            label = f"{rep.name}@p{rep.prime}"
            if not rep.checks["routes_agree"]:
                mismatches.append(f"{label}: recursive != product")
                continue
            if not rep.oracle.ran:
                skipped += 1
                continue
            if not rep.checks["direct_series_agrees"]:
                mismatches.append(f"{label}: direct route differs")
            count += 1
        if mismatches:
            return "fail", "; ".join(mismatches)
        if count == 0:
            return "skip", f"oracle cap {oracle_cap} rules out every group"
        note = f" ({skipped} above the oracle cap)" if skipped else ""
        return "pass", f"{count} (group, p) pairs, three routes each{note}"
    return _run("2-route-equivalence",
                "recursive = product = direct dimension series", body)


def criterion_biconditional(catalog: Catalog, reports: dict,
                            oracle_cap: int) -> CriterionResult:
    def body():
        violations = []
        count = 0
        for p, bound in ((2, 64), (3, 81)):
            for rep in _lie_nilpotent(reports, primes=(p,), max_order=bound):
                count += 1
                if not rep.checks["classification_biconditional"]:
                    violations.append(
                        f"{rep.name}@p{p}: disagreement: structural="
                        f"{rep.structural_case!r} profile="
                        f"{rep.profile_case!r} verdict={rep.verdict} "
                        f"(t={rep.t_upper_jennings}, n={rep.n})")
        if violations:
            return "fail", "; ".join(violations)
        return "pass", f"{count} (group, p) pairs, zero violations"
    return _run("3-biconditional",
                "structural case = jump profile = computed index", body)


def criterion_bounds(catalog: Catalog, reports: dict,
                     oracle_cap: int) -> CriterionResult:
    def body():
        violations = []
        count = equal5 = 0
        for rep in _lie_nilpotent(reports):
            if not rep.oracle.ran:
                continue
            label = f"{rep.name}@p{rep.prime}"
            t_up, t_low = rep.oracle.t_upper, rep.oracle.t_lower
            count += 1
            if not rep.checks["bounds"]:
                violations.append(
                    f"{label}: {t_low} <= {t_up} <= |G'| + 1 fails")
            if rep.prime == 5:
                equal5 += 1
                if not rep.checks["char_gt3_equality"]:
                    violations.append(
                        f"{label}: lower {t_low} != upper {t_up}")
        if violations:
            return "fail", "; ".join(violations)
        if count == 0:
            return "skip", f"oracle cap {oracle_cap} rules out every group"
        return "pass", (f"bounds hold on {count} oracle runs; "
                        f"lower = upper on {equal5} p=5 entries")
    return _run("4-bounds", "t_lower <= t_upper <= |G'|+1; equality for p=5",
                body)


def criterion_sharpness(catalog: Catalog, reports: dict,
                        oracle_cap: int) -> CriterionResult:
    def body():
        details = []
        for p, expected_name, expected_t in ((2, "C2wrC4", 8),
                                             (3, "C3wrC3", 8)):
            try:
                rep = corollary_sharpness(
                    p, list(_lie_nilpotent(reports, primes=(p,))))
            except NoWitnessFoundError:
                return "fail", f"no sharpness witness for p = {p}"
            names = {w.name: w for w in rep.witnesses}
            if expected_name not in names:
                return "fail", f"{expected_name} missing from p={p} witnesses"
            w = names[expected_name]
            if w.t_upper != expected_t:
                return "fail", f"{expected_name}: t {w.t_upper} != {expected_t}"
            target = 2 ** w.n if p == 2 else 3 ** w.n - 1
            if w.t_upper != target:
                return "fail", f"{expected_name}: t != sharp target {target}"
            if w.t_upper < w.small_p_bound:
                return "fail", (f"{expected_name}: attained {w.t_upper} below "
                                f"the p>=5 bound {w.small_p_bound}, no "
                                f"sharpness shown")
            details.append(f"p={p}: {expected_name} t={w.t_upper} "
                           f"(p>=5-style bound would be {w.small_p_bound})")
        return "pass", "; ".join(details)
    return _run("5-sharpness", "second-highest index attained at p = 2 and 3",
                body)


def criterion_vanishing_and_quotients(catalog: Catalog, reports: dict,
                                      oracle_cap: int) -> CriterionResult:
    def body():
        violations = []
        count = 0
        for rep in _lie_nilpotent(reports):
            count += 1
            if not rep.checks["shalev_vanishing"]:
                violations.append(f"{rep.name}@p{rep.prime}: a forced-"
                                  f"vanishing rule fails")
        for name, p in (("C2wrC4", 2), ("C3wrC3", 3)):
            g = catalog.build(name)
            n = _report(reports, name, p).n
            h = series_recursive(g, p).term(p ** (n - 1))
            if not quotient_series_check(g, p, h):
                violations.append(f"{name}@p{p}: quotient series mismatch")
        if violations:
            return "fail", "; ".join(violations)
        return "pass", (f"no forced-vanishing violations on {count} pairs; "
                        f"central-quotient identity holds on both witnesses")
    return _run("6-vanishing-quotients",
                "forced vanishing rules and central-quotient identity", body)


def _relabelled(g: FiniteGroup, rng: random.Random) -> FiniteGroup:
    n = g.order
    perm = list(range(n))
    rng.shuffle(perm)
    perm = np.array(perm)
    table = np.empty((n, n), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[g.dense_table()]
    return from_multiplication_table(table)


_RELABEL_KEYS = ("order", "lie_nilpotent", "nilpotency_class", "gamma_series",
                 "series_orders", "d_vector", "n", "l", "t_upper_jennings",
                 "verdict", "structural_case", "profile_case")


def criterion_sum_rule_and_relabelling(catalog: Catalog, reports: dict,
                                       oracle_cap: int) -> CriterionResult:
    def body():
        violations = []
        count = 0
        for rep in _lie_nilpotent(reports):
            if not rep.checks["sum_rule"]:
                violations.append(f"{rep.name}@p{rep.prime}: sum rule fails")
            count += 1
        rng = random.Random(20260810)
        for name, p in (("D8", 2), ("Q8", 2), ("C4xC2", 2), ("H27", 3)):
            g = catalog.build(name)
            base = analyze(g, p, name=name, run_oracle=False).to_json_dict()
            for trial in range(3):
                other = analyze(_relabelled(g, rng), p, name=name,
                                run_oracle=False).to_json_dict()
                diff = [k for k in _RELABEL_KEYS if base[k] != other[k]]
                if diff:
                    violations.append(
                        f"{name}@p{p} relabel {trial}: fields differ {diff}")
        if violations:
            return "fail", "; ".join(violations)
        return "pass", (f"sum rule on {count} pairs; reports invariant "
                        f"under 12 random relabellings")
    return _run("7-sum-rule-relabelling",
                "jump exponents sum to n; reports survive relabelling", body)


def criterion_negative_controls(catalog: Catalog, reports: dict,
                                oracle_cap: int) -> CriterionResult:
    def body():
        failures = []
        for p in PRIMES:
            rep = _report(reports, "S3", p)
            if rep.lie_nilpotent or rep.verdict != "not_lie_nilpotent":
                failures.append(f"S3@p{p}: verdict {rep.verdict}")
        abelian_count = 0
        for name, p in reports:
            rep = _report(reports, name, p)
            if rep.nilpotency_class not in (0, 1):
                continue
            if rep.t_upper_jennings != 2:
                failures.append(
                    f"{name}@p{p}: abelian t = {rep.t_upper_jennings}")
            abelian_count += 1
        if failures:
            return "fail", "; ".join(failures)
        return "pass", (f"S3 rejected at p = 2, 3, 5; t = 2 on "
                        f"{abelian_count} abelian runs")
    return _run("8-negative-controls",
                "S3 is never Lie nilpotent; abelian groups sit at t = 2",
                body)


CRITERIA = (
    criterion_golden_indices,
    criterion_route_equivalence,
    criterion_biconditional,
    criterion_bounds,
    criterion_sharpness,
    criterion_vanishing_and_quotients,
    criterion_sum_rule_and_relabelling,
    criterion_negative_controls,
)


def run_all(catalog: Catalog | None = None, *,
            oracle_cap: int = DEFAULT_ORACLE_CAP) -> list[CriterionResult]:
    if catalog is None:
        catalog = Catalog.load()
    reports = analyze_catalog(catalog, oracle_cap)
    return [fn(catalog, reports, oracle_cap) for fn in CRITERIA]

"""The acceptance suite: one table of criteria, shared by the
``selftest`` CLI command and the pytest acceptance module.

``run_all`` analyses every catalog entry once at each prime.  One
criterion reads every cross-check ``analyze`` stored in ``checks``, on
every report; the others compute something of their own: the golden
indices, the sharpness witnesses, the central-quotient identity, the
relabelling trials and the negative controls.  Each row of
``CRITERIA`` is a key, a title and a body returning pass, fail or skip
with a detail string.  A criterion that needs the explicit algebra
oracle reports "skip" when the oracle cap rules it out everywhere; a
False check fails at any cap, and the formula-only criteria always run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .classify import corollary_sharpness
from .dimension import quotient_series_check, series_recursive
from .errors import UnresolvedReferenceError
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


def analyze_catalog(catalog: Catalog, oracle_cap: int) -> dict:
    """Every entry analysed once at each prime in PRIMES, keyed by
    (name, p).  An analysis that raises is kept as its exception, its
    message prefixed by NAME@pP; a criterion that reads it re-raises it
    and so fails."""
    reports: dict = {}
    for entry in catalog.entries:
        for p in PRIMES:
            try:
                reports[entry.name, p] = analyze(
                    catalog.build(entry.name), p, name=entry.name,
                    oracle_cap=oracle_cap)
            except Exception as exc:
                exc.args = (f"{entry.name}@p{p}: {exc}",)
                reports[entry.name, p] = exc
    return reports


def _report(reports: dict, name: str, p: int) -> LieReport:
    if (name, p) not in reports:
        raise UnresolvedReferenceError(f"unknown entry {name!r}")
    rep = reports[name, p]
    if isinstance(rep, Exception):
        raise rep
    return rep


def _all(reports: dict) -> list[LieReport]:
    """Every report, in catalog order, then prime order."""
    return [_report(reports, name, p) for name, p in reports]


def _golden_indices(catalog, reports, oracle_cap):
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


def _checks(catalog, reports, oracle_cap):
    reps = _all(reports)
    failures = [f"{rep.name}@p{rep.prime}: {check}"
                for rep in reps for check in rep.failed_checks]
    if failures:
        return "fail", "; ".join(failures)
    ran = sum(rep.oracle.ran for rep in reps)
    if not ran:
        return "skip", (f"formula checks hold on {len(reps)} analyses; "
                        f"oracle cap {oracle_cap} rules out every group")
    return "pass", (f"every check holds on {len(reps)} analyses, {ran} "
                    f"with the oracle")


def _sharpness(catalog, reports, oracle_cap):
    reps = _all(reports)
    details = []
    for p, expected_name, expected_t in ((2, "C2wrC4", 8),
                                         (3, "C3wrC3", 8)):
        witnesses = corollary_sharpness(p, reps)
        if not witnesses:
            return "fail", f"no sharpness witness for p = {p}"
        names = {w.name: w for w in witnesses}
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


def _central_quotients(catalog, reports, oracle_cap):
    violations = []
    for name, p in (("C2wrC4", 2), ("C3wrC3", 3)):
        g = catalog.build(name)
        n = _report(reports, name, p).n
        h = series_recursive(g, p).term(p ** (n - 1))
        if not quotient_series_check(g, p, h):
            violations.append(f"{name}@p{p}: quotient series mismatch")
    if violations:
        return "fail", "; ".join(violations)
    return "pass", "central-quotient identity holds on both witnesses"


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


def _relabelling(catalog, reports, oracle_cap):
    violations = []
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
    return "pass", "reports invariant under 12 random relabellings"


def _negative_controls(catalog, reports, oracle_cap):
    failures = []
    for p in PRIMES:
        rep = _report(reports, "S3", p)
        if rep.lie_nilpotent or rep.verdict != "not_lie_nilpotent":
            failures.append(f"S3@p{p}: verdict {rep.verdict}")
    abelian_count = 0
    for rep in _all(reports):
        if rep.nilpotency_class not in (0, 1):
            continue
        if rep.t_upper_jennings != 2:
            failures.append(f"{rep.name}@p{rep.prime}: abelian t = "
                            f"{rep.t_upper_jennings}")
        abelian_count += 1
    if failures:
        return "fail", "; ".join(failures)
    return "pass", (f"S3 rejected at p = 2, 3, 5; t = 2 on "
                    f"{abelian_count} abelian runs")


# (key, title, body); each body takes (catalog, reports, oracle_cap) and
# returns (status, detail).
CRITERIA = (
    ("1-golden-indices", "golden upper indices via formula and oracle",
     _golden_indices),
    ("2-checks", "every cross-check analyze stored holds on every report",
     _checks),
    ("3-sharpness", "second-highest index attained at p = 2 and 3",
     _sharpness),
    ("4-central-quotients",
     "central-quotient identity on the sharpness witnesses",
     _central_quotients),
    ("5-relabelling", "reports survive relabelling", _relabelling),
    ("6-negative-controls",
     "S3 is never Lie nilpotent; abelian groups sit at t = 2",
     _negative_controls),
)


def run_criterion(criterion, catalog: Catalog, reports: dict,
                  oracle_cap: int) -> CriterionResult:
    """Run one row of CRITERIA, timed; a crash is a failure, not an
    abort."""
    key, title, body = criterion
    start = time.perf_counter()
    try:
        status, detail = body(catalog, reports, oracle_cap)
    except Exception as exc:
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    return CriterionResult(key=key, title=title, status=status,
                           detail=detail, seconds=time.perf_counter() - start)


def run_all(catalog: Catalog, *,
            oracle_cap: int = DEFAULT_ORACLE_CAP) -> list[CriterionResult]:
    if oracle_cap < 0:
        raise ValueError(f"oracle_cap must be >= 0, got {oracle_cap}")
    reports = analyze_catalog(catalog, oracle_cap)
    return [run_criterion(c, catalog, reports, oracle_cap) for c in CRITERIA]

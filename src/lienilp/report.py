"""Full per-group analysis record and its deterministic serialisation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .classify import classify, cross_validate, lemma2_profile, \
    theorem1_structural_case
from .dimension import (
    d_vector,
    is_lie_nilpotent,
    series_product,
    series_recursive,
    shalev_vanishing_report,
    upper_index_jennings,
    verify_sum_rule,
)
from .errors import NotPrimeError
from .groups import (
    FiniteGroup,
    abelian_invariants,
    is_abelian_subgroup,
    is_prime,
    lower_central_series,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    GroupAlgebra,
    dimension_series_direct,
    lower_lie_powers,
    upper_lie_powers,
)


@dataclass
class OracleResult:
    ran: bool
    t_upper: int | None = None
    t_lower: int | None = None
    upper_dims: list[int] = field(default_factory=list)
    lower_dims: list[int] = field(default_factory=list)
    direct_series_orders: list[int] = field(default_factory=list)


@dataclass
class LieReport:
    """Everything the analysis pipeline derives for one (group, prime)."""

    name: str
    order: int
    prime: int
    lie_nilpotent: bool
    nilpotency_class: int | None
    gamma_series: list[dict]
    series_orders_recursive: list[int] | None
    series_orders_product: list[int] | None
    d_vector: dict[int, int] | None
    n: int | None
    l: int | None
    t_upper_jennings: int | None
    oracle: OracleResult
    verdict: str
    structural_case: str | None
    profile_case: str | None
    checks: dict[str, bool | None]
    timing_ms: float

    @property
    def all_checks_pass(self) -> bool:
        return all(v is not False for v in self.checks.values())

    def to_json_dict(self) -> dict:
        """Stable field order; timing is excluded so identical inputs
        serialise byte-identically."""
        return {
            "name": self.name,
            "order": self.order,
            "prime": self.prime,
            "lie_nilpotent": self.lie_nilpotent,
            "nilpotency_class": self.nilpotency_class,
            "gamma_series": self.gamma_series,
            "series_orders": {
                "recursive": self.series_orders_recursive,
                "product": self.series_orders_product,
                "direct": (self.oracle.direct_series_orders
                           if self.oracle.ran else None),
            },
            "d_vector": ({str(k): v for k, v in sorted(self.d_vector.items())}
                         if self.d_vector is not None else None),
            "n": self.n,
            "l": self.l,
            "t_upper_jennings": self.t_upper_jennings,
            "oracle": {
                "ran": self.oracle.ran,
                "t_upper": self.oracle.t_upper,
                "t_lower": self.oracle.t_lower,
                "upper_dims": self.oracle.upper_dims or None,
                "lower_dims": self.oracle.lower_dims or None,
            },
            "verdict": self.verdict,
            "structural_case": self.structural_case,
            "profile_case": self.profile_case,
            "checks": {k: self.checks[k] for k in sorted(self.checks)},
        }


def analyze(g: FiniteGroup, prime: int, *, name: str = "?",
            run_oracle: bool | None = None,
            oracle_cap: int = DEFAULT_ORACLE_CAP) -> LieReport:
    """Run the whole pipeline on one group at one characteristic.

    This is the one place where each fact about (G, p) is computed: the
    lower central series and its abelian types, both series routes, the
    d-vector, the structural case, the jump profile and the oracle
    chains.  The detectors and cross-checks read those facts.  The
    explicit group-algebra oracle runs when the order fits under the
    cap (or when forced).  Every cross-check lands in ``checks``, with
    None marking checks that could not run.  Raises NotPrimeError
    unless ``prime`` is a prime >= 2.
    """
    if not is_prime(prime):
        raise NotPrimeError(f"p must be a prime >= 2, got {prime}")
    start = time.perf_counter()
    series = lower_central_series(g)
    types = [abelian_invariants(t) if is_abelian_subgroup(t) else None
             for t in series]
    gamma = [{"order": t.order,
              "abelian_type": list(a.factors) if a is not None else None}
             for t, a in zip(series, types)]
    cls_ = len(series) - 1 if series[-1].is_trivial else None
    ln = is_lie_nilpotent(g, prime)

    checks: dict[str, bool | None] = {}
    series_rec = series_prod = dvec = None
    t_jennings = None
    n = l = None
    structural = profile = None
    if ln:
        series_rec = series_recursive(g, prime)
        series_prod = series_product(g, prime)
        checks["routes_agree"] = series_rec.terms == series_prod.terms
        dvec = d_vector(series_rec)
        n, l = dvec.n, dvec.l
        t_jennings = upper_index_jennings(dvec)
        checks["sum_rule"] = verify_sum_rule(dvec)
        checks["shalev_vanishing"] = \
            not shalev_vanishing_report(series_rec, dvec)
        structural = theorem1_structural_case(prime, types)
        profile = lemma2_profile(dvec)
        checks["classification_biconditional"] = \
            cross_validate(dvec, structural, profile).consistent

    verdict = classify(dvec, structural)
    oracle = OracleResult(ran=False)
    if run_oracle is None:
        run_oracle = g.order <= oracle_cap
    if run_oracle:
        if ln:
            algebra = GroupAlgebra(g, prime)
            upper_dims, t_up = upper_lie_powers(algebra)
            lower_dims, t_low = lower_lie_powers(algebra)
            direct = dimension_series_direct(algebra)
            oracle = OracleResult(ran=True, t_upper=t_up, t_lower=t_low,
                                  upper_dims=upper_dims,
                                  lower_dims=lower_dims,
                                  direct_series_orders=[s.order
                                                        for s in direct])
            checks["oracle_upper_matches_jennings"] = t_up == t_jennings
            checks["direct_series_agrees"] = \
                tuple(direct) == series_rec.terms
            derived_order = series_rec.terms[1].order \
                if len(series_rec.terms) > 1 else 1
            checks["bounds"] = t_low <= t_up <= derived_order + 1
            if prime > 3:
                checks["char_gt3_equality"] = t_low == t_up
    elif ln:
        checks["oracle_upper_matches_jennings"] = None
        checks["direct_series_agrees"] = None
        checks["bounds"] = None

    elapsed = (time.perf_counter() - start) * 1000.0
    return LieReport(
        name=name, order=g.order, prime=prime,
        lie_nilpotent=ln, nilpotency_class=cls_,
        gamma_series=gamma,
        series_orders_recursive=(list(series_rec.orders())
                                 if series_rec else None),
        series_orders_product=(list(series_prod.orders())
                               if series_prod else None),
        d_vector=dict(dvec.entries) if dvec else None,
        n=n, l=l,
        t_upper_jennings=t_jennings,
        oracle=oracle,
        verdict=verdict.tag,
        structural_case=structural,
        profile_case=profile,
        checks=checks,
        timing_ms=elapsed,
    )


def render_text(report: LieReport) -> str:
    """Human-readable block, deterministic apart from the timing line."""
    lines = [f"group {report.name}  (order {report.order}, p = {report.prime})"]
    lines.append(f"  lie nilpotent : {report.lie_nilpotent}")
    lines.append(f"  class         : {report.nilpotency_class}")
    gammas = ", ".join(
        f"{e['order']}" + (f"~{tuple(e['abelian_type'])}"
                           if e["abelian_type"] else "")
        for e in report.gamma_series)
    lines.append(f"  gamma orders  : {gammas}")
    if report.lie_nilpotent:
        lines.append(f"  series orders : {report.series_orders_recursive} "
                     f"(product route: {report.series_orders_product})")
        lines.append(f"  d-vector      : {report.d_vector}  n={report.n} "
                     f"l={report.l}")
        lines.append(f"  t upper (formula): {report.t_upper_jennings}")
    if report.oracle.ran and report.oracle.t_upper is not None:
        lines.append(f"  t upper/lower (oracle): {report.oracle.t_upper} / "
                     f"{report.oracle.t_lower}")
    lines.append(f"  verdict       : {report.verdict}")
    flags = ", ".join(
        f"{k}={'pass' if v else 'FAIL' if v is False else 'skipped'}"
        for k, v in sorted(report.checks.items()))
    lines.append(f"  checks        : {flags or 'none'}")
    lines.append(f"  timing        : {report.timing_ms:.1f} ms")
    return "\n".join(lines)

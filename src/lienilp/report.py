"""Full per-group analysis record and its deterministic serialisation."""

from __future__ import annotations

import time
from dataclasses import dataclass

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
    upper_dims: list[int] | None = None
    lower_dims: list[int] | None = None


@dataclass
class LieReport:
    """Everything the analysis pipeline derives for one (group, prime),
    field for field in the order of its JSON form.  ``series_orders``
    holds the orders by the ``recursive``, ``product`` and ``direct``
    routes, None where a route did not run; ``checks`` is sorted by
    name."""

    name: str
    order: int
    prime: int
    lie_nilpotent: bool
    nilpotency_class: int | None
    gamma_series: list[dict]
    series_orders: dict[str, list[int] | None]
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
    def failed_checks(self) -> list[str]:
        """The names of the checks that ran and failed."""
        return [k for k, v in self.checks.items() if v is False]

    def to_json_dict(self) -> dict:
        """The fields, shallow-copied; timing is excluded so identical
        inputs serialise byte-identically."""
        out = dict(vars(self), oracle=dict(vars(self.oracle)))
        del out["timing_ms"]
        out["d_vector"] = self.d_vector and {
            str(k): v for k, v in sorted(self.d_vector.items())}
        return out


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
    unless ``prime`` is a prime >= 2, and ValueError on a negative cap.
    """
    if not is_prime(prime):
        raise NotPrimeError(f"p must be a prime >= 2, got {prime}")
    if oracle_cap < 0:
        raise ValueError(f"oracle_cap must be >= 0, got {oracle_cap}")
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
    orders = dict.fromkeys(("recursive", "product", "direct"))
    dvec = t_jennings = None
    n = l = None
    structural = profile = None
    if ln:
        series_rec = series_recursive(g, prime)
        series_prod = series_product(g, prime)
        checks["routes_agree"] = series_rec.terms == series_prod.terms
        orders["recursive"] = list(series_rec.orders())
        orders["product"] = list(series_prod.orders())
        dvec = d_vector(series_rec)
        n, l = dvec.n, dvec.l
        t_jennings = upper_index_jennings(dvec)
        checks["sum_rule"] = verify_sum_rule(dvec)
        checks["shalev_vanishing"] = \
            not shalev_vanishing_report(series_rec, dvec)
        structural = theorem1_structural_case(prime, types)
        profile = lemma2_profile(dvec)
        checks["classification_biconditional"] = \
            cross_validate(dvec, t_jennings, structural, profile)

    verdict = classify(dvec, t_jennings, structural)
    oracle = OracleResult(ran=False)
    if run_oracle is None:
        run_oracle = g.order <= oracle_cap
    if ln and run_oracle:
        algebra = GroupAlgebra(g, prime)
        upper_dims, t_up = upper_lie_powers(algebra)
        lower_dims, t_low = lower_lie_powers(algebra)
        direct = dimension_series_direct(algebra)
        oracle = OracleResult(ran=True, t_upper=t_up, t_lower=t_low,
                              upper_dims=upper_dims, lower_dims=lower_dims)
        orders["direct"] = [len(m) for m in direct]
        checks["oracle_upper_matches_jennings"] = t_up == t_jennings
        checks["direct_series_agrees"] = [m.tolist() for m in direct] \
            == [t.members.tolist() for t in series_rec.terms]
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
        series_orders=orders,
        d_vector=dict(dvec.entries) if dvec else None,
        n=n, l=l,
        t_upper_jennings=t_jennings,
        oracle=oracle,
        verdict=verdict,
        structural_case=structural,
        profile_case=profile,
        checks=dict(sorted(checks.items())),
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
        lines.append(f"  series orders : {report.series_orders['recursive']}"
                     f" (product route: {report.series_orders['product']})")
        lines.append(f"  d-vector      : {report.d_vector}  n={report.n} "
                     f"l={report.l}")
        lines.append(f"  t upper (formula): {report.t_upper_jennings}")
    if report.oracle.ran and report.oracle.t_upper is not None:
        lines.append(f"  t upper/lower (oracle): {report.oracle.t_upper} / "
                     f"{report.oracle.t_lower}")
    lines.append(f"  verdict       : {report.verdict}")
    flags = ", ".join(
        f"{k}={'pass' if v else 'FAIL' if v is False else 'skipped'}"
        for k, v in report.checks.items())
    lines.append(f"  checks        : {flags or 'none'}")
    lines.append(f"  timing        : {report.timing_ms:.1f} ms")
    return "\n".join(lines)

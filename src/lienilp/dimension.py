"""Lie dimension subgroup series and the index formula built on them.

Two independent routes compute the same descending series: a recursion
combining commutators with p-th powers, and an explicit product of
powered lower-central terms.  The exponents of the successive index
jumps feed the closed-form upper index 2 + (p-1) * sum(m * d_{m+1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexNotPPowerError,
    NotCentralError,
    NotLieNilpotentError,
    SeriesNotTerminatingError,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    center,
    commutator_subgroup,
    exponent,
    is_p_group,
    lower_central_series,
    power_subgroup,
    product_of_subgroups,
    quotient,
    trivial_subgroup,
    _p_log,
)


@dataclass(frozen=True)
class DimensionSeries:
    """Descending series [D_1 = G, D_2 = G', ...] cut at the first
    trivial term."""

    prime: int
    terms: tuple[Subgroup, ...]

    def orders(self) -> tuple[int, ...]:
        return tuple(t.order for t in self.terms)

    def term(self, k: int) -> Subgroup:
        """The k-th term (1-indexed); trivial beyond the stored tail."""
        if k < 1:
            raise IndexError("series terms are indexed from 1")
        if k <= len(self.terms):
            return self.terms[k - 1]
        return trivial_subgroup(self.terms[0].parent)


@dataclass
class DVector:
    """Index-jump exponents d_k with p^d_k = [D_k : D_{k+1}], k >= 2.

    Only positive entries are stored.  n is the total (|G'| = p^n) and
    l the exponent of G' as p^l.
    """

    prime: int
    entries: dict[int, int]
    n: int
    l: int


def _ceil_div(m: int, p: int) -> int:
    return -(-m // p)


def _modular_gamma(g: FiniteGroup, p: int) -> tuple[Subgroup, ...]:
    """Lower central series, or an error when KG cannot be Lie nilpotent."""
    gamma = lower_central_series(g)
    if not gamma[-1].is_trivial:
        raise NotLieNilpotentError(
            f"group is not nilpotent (series stabilises at order "
            f"{gamma[-1].order})")
    derived = gamma[1] if len(gamma) > 1 else trivial_subgroup(g)
    if not is_p_group(derived, p):
        raise NotLieNilpotentError(
            f"commutator subgroup of order {derived.order} is not a "
            f"{p}-group")
    return gamma


def is_lie_nilpotent(g: FiniteGroup, p: int) -> bool:
    """True iff the group is nilpotent with a p-group commutator
    subgroup (abelian groups count: KG is then commutative)."""
    try:
        _modular_gamma(g, p)
    except NotLieNilpotentError:
        return False
    return True


def _termination_bound(gamma: tuple[Subgroup, ...]) -> int:
    derived = gamma[1] if len(gamma) > 1 else None
    if derived is None or derived.is_trivial:
        return 2
    return (len(gamma) + 1) * exponent(derived) + 2


def series_recursive(g: FiniteGroup, p: int) -> DimensionSeries:
    """Series via D_{m+1} = (D_m, G) * (D_{ceil(m/p)+1})^p for m >= 2,
    seeded with D_1 = G and D_2 = G'."""
    gamma = _modular_gamma(g, p)
    top = gamma[0]
    if g.order == 1:
        return DimensionSeries(p, (top,))
    derived = gamma[1] if len(gamma) > 1 else trivial_subgroup(g)
    terms = [top, derived]
    bound = _termination_bound(gamma)
    comm_memo: dict[Subgroup, Subgroup] = {}
    pow_memo: dict[Subgroup, Subgroup] = {}
    while not terms[-1].is_trivial:
        m = len(terms)
        if m > bound:
            raise SeriesNotTerminatingError(
                f"recursive series did not die by index {bound}")
        dm = terms[m - 1]
        dk = terms[_ceil_div(m, p)]
        if dm not in comm_memo:
            comm_memo[dm] = commutator_subgroup(dm, g)
        if dk not in pow_memo:
            pow_memo[dk] = power_subgroup(dk, p)
        terms.append(product_of_subgroups(comm_memo[dm], pow_memo[dk]))
    return DimensionSeries(p, tuple(terms))


def series_product(g: FiniteGroup, p: int) -> DimensionSeries:
    """Series via the explicit product over powered lower-central
    terms: D_{m+1} is generated by all gamma_j^(p^i) with
    (j-1) * p^i >= m."""
    gamma = _modular_gamma(g, p)
    top = gamma[0]
    if g.order == 1:
        return DimensionSeries(p, (top,))

    # Precompute the finitely many nontrivial powered terms.
    powered: list[tuple[int, int, Subgroup]] = []  # (j, p^i, gamma_j^(p^i))
    for j in range(2, len(gamma) + 1):
        gj = gamma[j - 1]
        if gj.is_trivial:
            continue
        e = exponent(gj)
        q = 1
        while q < e:
            powered.append((j, q, power_subgroup(gj, q) if q > 1 else gj))
            q *= p

    bound = _termination_bound(gamma)
    terms = [top]
    m = 1
    while True:
        factors = [sub for (j, q, sub) in powered if (j - 1) * q >= m]
        term = (product_of_subgroups(*factors) if factors
                else trivial_subgroup(g))
        terms.append(term)
        if term.is_trivial:
            return DimensionSeries(p, tuple(terms))
        m += 1
        if m > bound:
            raise SeriesNotTerminatingError(
                f"product series did not die by index {bound}")


def d_vector(series: DimensionSeries) -> DVector:
    """Exponents of the successive index jumps for k >= 2.  n is read
    off |D_2| on its own, so verify_sum_rule compares two readings."""
    p = series.prime
    terms = series.terms
    entries: dict[int, int] = {}
    for i in range(1, len(terms) - 1):
        jump, rem = divmod(terms[i].order, terms[i + 1].order)
        if rem:
            raise IndexNotPPowerError(
                f"|D_{i + 2}| does not divide |D_{i + 1}|")
        e = _p_log(jump, p)
        if e is None:
            raise IndexNotPPowerError(
                f"index [D_{i + 1} : D_{i + 2}] = {jump} is not a power "
                f"of {p}")
        if e:
            entries[i + 1] = e
    if len(terms) > 1:
        derived_order = terms[1].order
        n = _p_log(derived_order, p)
        if n is None:
            raise IndexNotPPowerError(
                f"|D_2| = {derived_order} is not a power of {p}")
        l = _p_log(exponent(terms[1]), p)
    else:
        n, l = 0, 0
    return DVector(prime=p, entries=entries, n=n, l=l or 0)


def upper_index_jennings(d: DVector) -> int:
    """Closed-form upper Lie nilpotency index from the jump exponents."""
    p = d.prime
    return 2 + (p - 1) * sum((k - 1) * v for k, v in d.entries.items())


def verify_sum_rule(d: DVector) -> bool:
    """True iff the jump exponents sum to n."""
    return sum(d.entries.values()) == d.n


def shalev_vanishing_report(series: DimensionSeries,
                            d: DVector) -> list[dict]:
    """Check the forced-vanishing rules on every gap of the series.

    Whenever d_{m+1} = 0 with m a power of p, or with p^(l-1) dividing
    m, the term D_{m+1} must already be trivial.  ``d`` is the d-vector
    of ``series``.  Returns the list of violations (expected empty).
    """
    p = series.prime
    violations: list[dict] = []
    if d.n == 0:
        return violations
    for k in range(2, len(series.terms)):
        m = k - 1
        if d.entries.get(k, 0) != 0:
            continue
        power_rule = _p_log(m, p) is not None
        divisor_rule = d.l >= 1 and m % (p ** (d.l - 1)) == 0
        if not (power_rule or divisor_rule):
            continue
        term = series.term(k)
        if not term.is_trivial:
            violations.append({
                "k": k,
                "m": m,
                "term_order": term.order,
                "rule": "power" if power_rule else "divisor",
            })
    return violations


def quotient_series_check(g: FiniteGroup, p: int, h: Subgroup) -> bool:
    """True iff the series of G maps onto the series of G/H term by term,
    for a central subgroup H."""
    if h.parent is not g:
        raise ValueError("subgroup does not belong to the given group")
    outside = h.members[~np.isin(h.members, center(g).members)]
    if outside.size:
        raise NotCentralError(f"element {outside[0]} is not central")
    q = quotient(g, h)
    series_g = series_recursive(g, p).terms
    series_q = series_recursive(q.group, p).terms
    proj = np.asarray(q.projection)
    trivial = trivial_subgroup(q.group).members
    for i in range(max(len(series_g), len(series_q))):
        image = (np.unique(proj[series_g[i].members])
                 if i < len(series_g) else trivial)
        target = series_q[i].members if i < len(series_q) else trivial
        if not np.array_equal(image, target):
            return False
    return True

"""Dimension series routes, jump exponents, and the index formula."""

import numpy as np
import pytest

from lienilp.dimension import (
    DimensionSeries,
    DVector,
    _ceil_div,
    d_vector,
    quotient_series_check,
    series_product,
    series_recursive,
    shalev_vanishing_report,
    upper_index_jennings,
    verify_sum_rule,
)
from lienilp.errors import NotCentralError, NotLieNilpotentError
from lienilp.groups import (
    cyclic_group,
    full_subgroup,
    is_abelian_subgroup,
    is_normal,
    lower_central_series,
    subgroup_generated,
    trivial_subgroup,
)
from lienilp.dimension import is_lie_nilpotent


def _lie_nilpotent_pairs(catalog, primes=(2, 3, 5), max_order=None):
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if max_order is not None and g.order > max_order:
            continue
        for p in primes:
            if is_lie_nilpotent(g, p):
                yield entry.name, g, p


def test_series_abelian(built):
    s = series_recursive(built("C4xC2"), 2)
    assert s.orders() == (8, 1)
    d = d_vector(s)
    assert d.entries == {} and d.n == 0
    assert upper_index_jennings(d) == 2


def test_series_trivial_group(built):
    s = series_recursive(built("C1"), 2)
    assert s.orders() == (1,)
    assert upper_index_jennings(d_vector(s)) == 2


def test_series_d8(built):
    d8 = built("D8")
    assert series_recursive(d8, 2).orders() == (8, 2, 1)
    assert series_product(d8, 2).orders() == (8, 2, 1)
    d = d_vector(series_recursive(d8, 2))
    assert d.entries == {2: 1} and d.n == 1 and d.l == 1
    assert upper_index_jennings(d) == 3


def test_series_wreath_2_4(built):
    w = built("C2wrC4")
    rec, prod = series_recursive(w, 2), series_product(w, 2)
    assert rec.terms == prod.terms
    d = d_vector(rec)
    assert d.entries == {2: 1, 3: 1, 4: 1}
    assert d.n == 3 and d.l == 1
    assert upper_index_jennings(d) == 8


def test_series_wreath_3_3(built):
    w = built("C3wrC3")
    rec, prod = series_recursive(w, 3), series_product(w, 3)
    assert rec.terms == prod.terms
    assert rec.orders() == (81, 9, 3, 1)
    assert upper_index_jennings(d_vector(rec)) == 8


def test_series_d16(built):
    d = d_vector(series_recursive(built("D16"), 2))
    assert d.entries == {2: 1, 3: 1}
    assert upper_index_jennings(d) == 5


def test_series_d32_has_a_gap(built):
    """Consecutive equal nontrivial terms occur and the series still
    dies; the jump exponents skip position 4."""
    d32 = built("D32")
    rec, prod = series_recursive(d32, 2), series_product(d32, 2)
    assert rec.orders() == (32, 8, 4, 2, 2, 1)
    assert rec.terms == prod.terms
    d = d_vector(rec)
    assert d.entries == {2: 1, 3: 1, 5: 1}
    assert d.n == 3 and d.l == 3
    assert upper_index_jennings(d) == 9


def test_jennings_formula_direct():
    d = DVector(prime=3, entries={2: 1, 3: 1}, n=2, l=1)
    assert upper_index_jennings(d) == 8


def test_sum_rule(built):
    assert verify_sum_rule(d_vector(series_recursive(built("D8"), 2)))
    assert verify_sum_rule(DVector(prime=2, entries={}, n=0, l=0))
    corrupted = DVector(prime=2, entries={2: 2}, n=1, l=1)
    assert not verify_sum_rule(corrupted)


def test_sum_rule_fails_on_a_cut_series(built):
    """d_vector reads n off |D_2| and the jumps off the terms, so a series
    cut short of the trivial term breaks the sum rule instead of raising:
    D8 cut to (G, G') has no jumps but |G'| = 2."""
    rec = series_recursive(built("D8"), 2)
    d = d_vector(DimensionSeries(2, rec.terms[:2]))
    assert (d.entries, d.n, d.l) == ({}, 1, 1)
    assert not verify_sum_rule(d)


def test_route_equivalence_across_catalog(catalog):
    for name, g, p in _lie_nilpotent_pairs(catalog):
        rec, prod = series_recursive(g, p), series_product(g, p)
        assert rec.terms == prod.terms, f"{name}@p{p}"


def test_series_structural_invariants(catalog):
    for name, g, p in _lie_nilpotent_pairs(catalog, max_order=128):
        s = series_recursive(g, p)
        gamma = lower_central_series(g)
        assert s.term(2).members.tolist() == (gamma[1].members.tolist()
                                              if len(gamma) > 1 else [0])
        for i in range(len(s.terms) - 1):
            assert np.isin(s.terms[i + 1].members, s.terms[i].members).all()
            assert is_normal(s.terms[i])[0]
        # lower-central terms embed into the series at the same depth
        for m in range(1, len(gamma) + 1):
            assert np.isin(gamma[m - 1].members, s.term(m).members).all(), \
                f"{name}@p{p} m={m}"


def test_index_always_at_least_two(catalog):
    for name, g, p in _lie_nilpotent_pairs(catalog):
        t = upper_index_jennings(d_vector(series_recursive(g, p)))
        if is_abelian_subgroup(full_subgroup(g)):
            assert t == 2, name
        else:
            assert t > 2, name


def test_ceiling_rule_matters(built, monkeypatch):
    """Replacing the ceiling with a floor breaks route equivalence."""
    import lienilp.dimension as dim
    d16 = built("D16")
    monkeypatch.setattr(dim, "_ceil_div", lambda m, p: m // p)
    broken = dim.series_recursive(d16, 2)
    good = dim.series_product(d16, 2)
    assert broken.terms != good.terms


def test_ceil_div():
    assert _ceil_div(3, 2) == 2
    assert _ceil_div(4, 2) == 2
    assert _ceil_div(5, 3) == 2


def test_not_lie_nilpotent_errors(built):
    with pytest.raises(NotLieNilpotentError):
        series_recursive(built("S3"), 2)
    with pytest.raises(NotLieNilpotentError):
        series_product(built("D8"), 3)


def test_shalev_vanishing_clean(catalog):
    for name, g, p in _lie_nilpotent_pairs(catalog):
        series = series_recursive(g, p)
        assert shalev_vanishing_report(series, d_vector(series)) == [], \
            f"{name}@p{p}"
    # A d-vector that misses D8's jump at k = 2 leaves D_2 nontrivial
    # where the power rule forces it trivial.
    d8 = series_recursive(catalog.build("D8"), 2)
    assert shalev_vanishing_report(
        d8, DVector(prime=2, entries={}, n=1, l=1)) == \
        [{"k": 2, "m": 1, "term_order": 2, "rule": "power"}]


def test_quotient_series_check(built):
    d8 = built("D8")
    assert quotient_series_check(d8, 2, trivial_subgroup(d8))
    assert quotient_series_check(d8, 2, subgroup_generated(d8, [2]))
    w = built("C2wrC4")
    h = series_recursive(w, 2).term(4)
    assert h.order == 2
    assert quotient_series_check(w, 2, h)
    with pytest.raises(NotCentralError):
        quotient_series_check(d8, 2, subgroup_generated(d8, [1]))


def test_quotient_series_check_rejects_noncentral(built):
    d16 = built("D16")
    rotations = subgroup_generated(d16, [1])
    with pytest.raises(NotCentralError):
        quotient_series_check(d16, 2, rotations)


def test_abelian_series_for_any_prime():
    c6 = cyclic_group(6)
    for p in (2, 3, 5):
        s = series_recursive(c6, p)
        assert s.orders() == (6, 1)
        assert upper_index_jennings(d_vector(s)) == 2

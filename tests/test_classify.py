"""Structural, profile-based, and numeric extremal-index detection."""

import pytest

from lienilp.classify import (
    _bucket,
    classify,
    corollary_sharpness,
    cross_validate,
    lemma2_profile,
    theorem1_structural_case,
)
from lienilp.dimension import DVector, d_vector, series_recursive, \
    upper_index_jennings
from lienilp.errors import NoWitnessFoundError
from lienilp.groups import (
    AbelianType,
    abelian_invariants,
    full_subgroup,
    is_abelian_subgroup,
    lower_central_series,
)
from lienilp.dimension import is_lie_nilpotent


def _types(g):
    """Abelian types of the lower central terms (None if nonabelian)."""
    return [abelian_invariants(t) if is_abelian_subgroup(t) else None
            for t in lower_central_series(g)]


def _facts(g, p):
    """The d-vector and structural case the detectors read."""
    return (d_vector(series_recursive(g, p)),
            theorem1_structural_case(p, _types(g)))


def test_structural_cases(built):
    assert theorem1_structural_case(2, _types(built("D8xD8"))) == "i"
    assert theorem1_structural_case(2, _types(built("C2wrC4"))) == "iii"
    assert theorem1_structural_case(3, _types(built("C3wrC3"))) == "iv"
    assert theorem1_structural_case(2, _types(built("D8"))) is None
    assert theorem1_structural_case(2, _types(built("C4xC2"))) is None
    # The detector reads the types alone: class 2 with G' of type (2, 2).
    trivial = AbelianType(())
    assert theorem1_structural_case(
        2, [None, AbelianType((2, 2)), trivial]) == "i"
    assert theorem1_structural_case(
        3, [None, AbelianType((2, 2)), trivial]) is None


def test_case_iv_witness_has_cyclic_third_term(built):
    w = built("C3wrC3")
    gamma3 = lower_central_series(w)[2]
    assert abelian_invariants(gamma3).factors == (3,)


def test_structural_cases_mutually_exclusive(catalog):
    """At most one case predicate fires for any (group, prime)."""
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        types = _types(g) + [AbelianType(())] * 2
        cl = sum(t is None or bool(t.factors) for t in types)
        g2, g3 = types[1], types[2]
        for p in (2, 3):
            if not is_lie_nilpotent(g, p):
                continue
            hits = [
                p == 2 and cl == 2 and g2 == AbelianType((2, 2)),
                p == 2 and cl == 4 and g2 == AbelianType((4, 2))
                and g3 == AbelianType((2, 2)),
                p == 2 and cl == 4 and g2 == AbelianType((2, 2, 2)),
                p == 3 and cl == 3 and g2 == AbelianType((3, 3)),
            ]
            assert sum(hits) <= 1, entry.name
            assert (theorem1_structural_case(p, _types(g)) is None) \
                == (sum(hits) == 0), entry.name


def test_lemma2_profiles():
    assert lemma2_profile(DVector(2, {2: 2}, n=2, l=1)) == "i"
    assert lemma2_profile(DVector(2, {2: 1, 3: 1, 4: 1}, n=3, l=1)) == "ii"
    assert lemma2_profile(DVector(3, {2: 1, 3: 1}, n=2, l=1)) == "iii"
    assert lemma2_profile(DVector(3, {2: 1, 4: 1, 9: 1}, n=3, l=1)) == "iv"
    # maximal-profile counterexample: t = 2 + 1 + 2 = 5 = 2^2 + 1
    assert lemma2_profile(DVector(2, {2: 1, 3: 1}, n=2, l=2)) is None
    assert lemma2_profile(DVector(5, {2: 1}, n=1, l=1)) is None
    assert lemma2_profile(DVector(2, {}, n=0, l=0)) is None


def test_profile_positions_count():
    """Profile (ii)/(iv) requires exactly n positive entries."""
    from lienilp.classify import _profile_positions
    for p in (2, 3):
        for n in (3, 4, 5, 6):
            pos = _profile_positions(p, n)
            assert sum(pos.values()) == n
            assert pos[p ** (n - 1)] == 1


def test_classify_verdicts(built):
    v = classify(*_facts(built("D8"), 2))
    assert v.status == "maximal" and v.t_upper == 3 and v.tag == "maximal"
    v = classify(*_facts(built("D8xD8"), 2))
    assert v.tag == "almost_maximal.i" and v.t_upper == 4
    v = classify(*_facts(built("C2wrC4"), 2))
    assert v.tag == "almost_maximal.iii" and v.t_upper == 8
    v = classify(*_facts(built("C3wrC3"), 3))
    assert v.tag == "almost_maximal.iv" and v.t_upper == 8
    v = classify(*_facts(built("C4xC2"), 2))
    assert v.status == "abelian" and v.t_upper == 2 and v.n == 0
    v = classify(None, None)
    assert v.status == "not_lie_nilpotent" and v.t_upper is None
    # The structural case names the verdict but never moves the bucket.
    d, _ = _facts(built("D8"), 2)
    assert classify(d, "i").tag == "maximal"


def test_bucket_depends_only_on_numbers():
    assert _bucket(2, 0, 2) == "abelian"
    assert _bucket(3, 1, 2) == "maximal"
    assert _bucket(4, 2, 2) == "almost_maximal"
    assert _bucket(3, 2, 2) == "below"
    assert _bucket(8, 2, 3) == "almost_maximal"
    assert _bucket(10, 2, 3) == "maximal"
    assert _bucket(42, 4, 5) == "below"


def test_cross_validate(built):
    d, structural = _facts(built("D8"), 2)
    rep = cross_validate(d, structural, lemma2_profile(d))
    assert rep.consistent
    assert rep.structural_case is None and rep.profile_case is None
    assert not rep.numeric_almost_maximal
    for name, p in (("C2wrC4", 2), ("C3wrC3", 3), ("D8xD8", 2)):
        d, structural = _facts(built(name), p)
        rep = cross_validate(d, structural, lemma2_profile(d))
        assert rep.consistent and rep.numeric_almost_maximal
        assert rep.structural_case is not None
        assert rep.profile_case is not None
    # A structural case the index does not back is reported, not raised.
    d, _ = _facts(built("D8"), 2)
    rep = cross_validate(d, "i", None)
    assert not rep.consistent and rep.detail.startswith("disagreement")


def test_maximal_iff_cyclic_derived(catalog_reports):
    """Nontrivial cyclic commutator subgroup forces the maximal verdict."""
    checked = 0
    for (name, p), rep in catalog_reports.items():
        if not rep.lie_nilpotent or rep.nilpotency_class < 2:
            continue
        derived_type = rep.gamma_series[1]["abelian_type"]
        if derived_type is not None and len(derived_type) == 1:
            assert rep.verdict == "maximal", f"{name}@p{p}"
            checked += 1
    assert checked >= 4


def test_p5_bound_for_noncyclic_derived(catalog):
    """Above characteristic 3 the index stays under p^(n-1) + 2p - 1
    whenever the commutator subgroup is noncyclic."""
    checked = 0
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if (not is_lie_nilpotent(g, 5)
                or is_abelian_subgroup(full_subgroup(g))):
            continue
        derived = lower_central_series(g)[1]
        if abelian_invariants(derived).is_cyclic:
            continue
        d = d_vector(series_recursive(g, 5))
        t = upper_index_jennings(d)
        assert t <= 5 ** (d.n - 1) + 2 * 5 - 1, entry.name
        checked += 1
    assert checked >= 1      # C5wrC5 keeps this non-vacuous


def test_corollary_sharpness(catalog_reports):
    reports = list(catalog_reports.values())
    rep2 = corollary_sharpness(2, reports)
    names2 = {w.name: w for w in rep2.witnesses}
    assert "C2wrC4" in names2 and names2["C2wrC4"].t_upper == 8 == 2 ** 3
    assert rep2.bound_fails_for_small_p
    rep3 = corollary_sharpness(3, reports)
    names3 = {w.name: w for w in rep3.witnesses}
    assert "C3wrC3" in names3
    w = names3["C3wrC3"]
    assert w.t_upper == 8 == 3 ** 2 - 1
    assert w.small_p_bound == 8       # met with equality, so no stronger gap
    # Only reports at the asked prime count.
    assert corollary_sharpness(
        3, [r for r in reports if r.prime == 3]).witnesses == rep3.witnesses
    with pytest.raises(NoWitnessFoundError):
        corollary_sharpness(2, [catalog_reports["C4", 2]])
    with pytest.raises(NoWitnessFoundError):
        corollary_sharpness(2, [catalog_reports["C3wrC3", 3]])
    with pytest.raises(ValueError):
        corollary_sharpness(5, reports)

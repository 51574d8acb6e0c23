"""Structural, profile-based, and numeric extremal-index detection."""

from pathlib import Path

import pytest

from lienilp.catalog import Catalog
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
from lienilp.groups import (
    AbelianType,
    abelian_invariants,
    full_subgroup,
    is_abelian_subgroup,
    lower_central_series,
)
from lienilp.dimension import is_lie_nilpotent
from lienilp.report import analyze


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


def test_case_ii_witness():
    """W64ii (order 64, class 4) is a witness of structural case ii:
    gamma_2 of type (4, 2) and gamma_3 of type (2, 2).  Every detector
    reads ii, and the oracle's upper index is |G'| - p + 2 = 8."""
    path = Path(__file__).parent / "data" / "case_ii.jsonl"
    g = Catalog.load(path).build("W64ii")
    rep = analyze(g, 2, name="W64ii", run_oracle=True).to_json_dict()
    gamma = rep["gamma_series"]
    assert [t["abelian_type"] for t in gamma] == \
        [None, [4, 2], [2, 2], [2], []]
    assert {int(k): v for k, v in rep["d_vector"].items()} == \
        {2: 1, 3: 1, 4: 1}
    assert rep["verdict"] == "almost_maximal.ii"
    assert rep["structural_case"] == rep["profile_case"] == "ii"
    assert rep["t_upper_jennings"] == rep["oracle"]["t_upper"] == 8 == \
        gamma[1]["order"] - 2 + 2
    assert all(rep["checks"].values()), rep["checks"]


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
    for name, p, tag, t in (("D8", 2, "maximal", 3),
                            ("D8xD8", 2, "almost_maximal.i", 4),
                            ("C2wrC4", 2, "almost_maximal.iii", 8),
                            ("C3wrC3", 3, "almost_maximal.iv", 8),
                            ("C4xC2", 2, "abelian", 2)):
        d, structural = _facts(built(name), p)
        assert upper_index_jennings(d) == t, name
        assert classify(d, t, structural) == tag, name
    assert classify(None, None, None) == "not_lie_nilpotent"
    # The structural case names the verdict but never moves the bucket.
    d, _ = _facts(built("D8"), 2)
    assert classify(d, 3, "i") == "maximal"
    d, _ = _facts(built("D8xD8"), 2)
    assert classify(d, 4, None) == "almost_maximal"


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
    assert structural is None and lemma2_profile(d) is None
    assert cross_validate(d, 3, structural, lemma2_profile(d)) is True
    for name, p in (("C2wrC4", 2), ("C3wrC3", 3), ("D8xD8", 2)):
        d, structural = _facts(built(name), p)
        profile = lemma2_profile(d)
        t = upper_index_jennings(d)
        assert structural is not None and profile is not None
        assert _bucket(t, d.n, p) == "almost_maximal"
        assert cross_validate(d, t, structural, profile) is True
        # A detector that misses an almost maximal index disagrees.
        assert cross_validate(d, t, structural, None) is False
    # A structural case the index does not back is reported, not raised.
    d, _ = _facts(built("D8"), 2)
    assert cross_validate(d, 3, "i", None) is False


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
        if len(abelian_invariants(derived).factors) <= 1:   # cyclic
            continue
        d = d_vector(series_recursive(g, 5))
        t = upper_index_jennings(d)
        assert t <= 5 ** (d.n - 1) + 2 * 5 - 1, entry.name
        checked += 1
    assert checked >= 1      # C5wrC5 keeps this non-vacuous


def test_corollary_sharpness(catalog_reports):
    reports = list(catalog_reports.values())
    wit2 = corollary_sharpness(2, reports)
    names2 = {w.name: w for w in wit2}
    assert "C2wrC4" in names2 and names2["C2wrC4"].t_upper == 8 == 2 ** 3
    # Some witness meets the p >= 5 bound, so it fails at p = 2.
    assert any(w.t_upper >= w.small_p_bound for w in wit2)
    wit3 = corollary_sharpness(3, reports)
    names3 = {w.name: w for w in wit3}
    assert "C3wrC3" in names3
    w = names3["C3wrC3"]
    assert w.t_upper == 8 == 3 ** 2 - 1
    assert w.small_p_bound == 8       # met with equality, so no stronger gap
    # Only reports at the asked prime count.
    assert corollary_sharpness(
        3, [r for r in reports if r.prime == 3]) == wit3
    # One threshold: the witnesses are the almost maximal verdicts.
    for p, wits in ((2, wit2), (3, wit3)):
        assert [w.name for w in wits] == \
            [r.name for r in reports if r.prime == p and r.lie_nilpotent
             and r.verdict.startswith("almost_maximal")]
    assert corollary_sharpness(2, [catalog_reports["C4", 2]]) == []
    assert corollary_sharpness(2, [catalog_reports["C3wrC3", 3]]) == []
    with pytest.raises(ValueError):
        corollary_sharpness(5, reports)

"""Property-based checks: relabelling invariance and subspace laws."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lienilp.catalog import Catalog
from lienilp.groups import from_multiplication_table
from lienilp.oracle import FpSubspace
from lienilp.report import analyze

_CATALOG = Catalog.load()

RELABEL_TARGETS = [("D8", 2), ("Q8", 2), ("C4xC2", 2), ("D16", 2),
                   ("H27", 3), ("C3xC3", 3)]

REPORT_KEYS = ("order", "lie_nilpotent", "nilpotency_class", "gamma_series",
               "series_orders", "d_vector", "n", "l", "t_upper_jennings",
               "verdict", "structural_case", "profile_case")


def _relabel_table(table: np.ndarray, perm: list[int]) -> np.ndarray:
    n = table.shape[0]
    out = np.empty_like(table)
    for i in range(n):
        for j in range(n):
            out[perm[i], perm[j]] = perm[int(table[i, j])]
    return out


@pytest.mark.parametrize("name,p", RELABEL_TARGETS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reports_invariant_under_relabelling(name, p, data):
    g = _CATALOG.build(name)
    perm = data.draw(st.permutations(range(g.order)))
    relabelled = from_multiplication_table(
        _relabel_table(g.dense_table(), list(perm)))
    base = analyze(g, p, name=name, run_oracle=False).to_json_dict()
    other = analyze(relabelled, p, name=name, run_oracle=False).to_json_dict()
    for key in REPORT_KEYS:
        assert base[key] == other[key], key


@pytest.mark.parametrize("name", [e.name for e in _CATALOG.entries])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_sum_rule_everywhere(catalog_reports, name, p):
    """The sum rule analyze checked holds on every Lie nilpotent catalog
    pair, read off the shared reports; where KG is not Lie nilpotent no
    d-vector and no sum rule is stored."""
    rep = catalog_reports[name, p]
    if rep.lie_nilpotent:
        assert rep.checks["sum_rule"] is True
    else:
        assert rep.d_vector is None and "sum_rule" not in rep.checks


# --- GF(p) subspaces ---------------------------------------------------------


def _contains_all(space, rows) -> bool:
    return not space.reduce(rows).any()


def _matrices(p):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=4, max_size=4),
        min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_echelon_idempotent_and_membership(p, data):
    rows = data.draw(_matrices(p))
    s = FpSubspace.from_vectors(rows, p)
    again = FpSubspace.from_vectors(s.basis, p, width=4) if s.dim else s
    assert again == s
    assert _contains_all(s, rows)
    coeffs = data.draw(st.lists(st.integers(0, p - 1),
                                min_size=len(rows), max_size=len(rows)))
    combo = np.zeros(4, dtype=np.int64)
    for c, row in zip(coeffs, rows):
        combo = (combo + c * np.array(row)) % p
    assert _contains_all(s, combo)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_subspace_sum_laws(p, data):
    a = FpSubspace.from_vectors(data.draw(_matrices(p)), p)
    b = FpSubspace.from_vectors(data.draw(_matrices(p)), p)
    ab = FpSubspace.from_vectors(np.vstack([a.basis, b.basis]), p, 4)
    assert ab == FpSubspace.from_vectors(np.vstack([b.basis, a.basis]), p, 4)
    assert max(a.dim, b.dim) <= ab.dim <= min(4, a.dim + b.dim)
    assert _contains_all(ab, a.basis)
    assert _contains_all(ab, b.basis)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_echelon_row_order_irrelevant(p, data):
    rows = data.draw(_matrices(p))
    perm = data.draw(st.permutations(range(len(rows))))
    assert FpSubspace.from_vectors(rows, p) == \
        FpSubspace.from_vectors([rows[i] for i in perm], p)

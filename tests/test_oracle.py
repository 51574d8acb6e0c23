"""Explicit group-algebra computations over GF(p)."""

import itertools
import sys

import numpy as np
import pytest

from lienilp.errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotGeneratingError,
    OracleCapExceededError,
)
from lienilp.groups import (
    ORACLE_ORDER_LIMIT,
    FiniteGroup,
    cyclic_group,
    lower_central_series,
    subgroup_generated,
    wreath_cyclic,
)
from lienilp.oracle import (
    _CHUNK_ROWS,
    FpSubspace,
    GroupAlgebra,
    _lower_spans,
    _unit_solve,
    _work_dtype,
    dimension_series_direct,
    lower_lie_powers,
    upper_lie_powers,
)
from lienilp.cli import main
from lienilp.dimension import d_vector as series_d_vector, \
    is_lie_nilpotent, series_recursive, upper_index_jennings
from lienilp.report import analyze

from conftest import brute_bracket, brute_delta, brute_ideal_closure, \
    brute_lie_chains, brute_lower_spans, brute_multiply, reference_echelon


def contains_all(space, rows):
    """Every row lies in the subspace: it reduces to zero against it."""
    return not space.reduce(rows).any()


def chains(alg):
    """The oracle's three chains on one algebra, in analyze's order."""
    return (upper_lie_powers(alg), lower_lie_powers(alg),
            [len(m) for m in dimension_series_direct(alg)])


# --- products and brackets ----------------------------------------------------


def test_delta_products(built):
    d8 = built("D8")
    table = d8.dense_table()
    x = np.array([1, 0, 1, 1, 0, 1, 0, 0])
    assert np.array_equal(brute_multiply(d8, 2, brute_delta(d8, 0), x), x)
    for g in range(8):
        for h in range(8):
            prod = brute_multiply(d8, 2, brute_delta(d8, g),
                                  brute_delta(d8, h))
            assert np.array_equal(prod, brute_delta(d8, table[g, h]))


def test_multiply_matches_naive(built):
    """The algebra's coordinate permutations are the convolution:
    delta_u y is y permuted by _left(u) and x delta_v is x permuted by
    _right(v), so xy is the sum of x_u delta_u y and of y_v x delta_v,
    and _brackets gives [x, delta_h]."""
    rng = np.random.default_rng(3)
    for name, p in (("D8", 2), ("H27", 3), ("S3", 5)):
        g = built(name)
        alg = GroupAlgebra(g, p)
        for _ in range(5):
            x = rng.integers(0, p, g.order)
            y = rng.integers(0, p, g.order)
            xy = brute_multiply(g, p, x, y)
            assert np.array_equal(sum(x[u] * y[alg._left(u)]
                                      for u in range(g.order)) % p, xy)
            assert np.array_equal(sum(y[v] * x[alg._right(v)]
                                      for v in range(g.order)) % p, xy)
            h = int(rng.integers(g.order))
            assert np.array_equal(
                alg._brackets(x[:, None], [h])[0] % p,
                brute_bracket(g, p, x, brute_delta(g, h)))


def test_square_of_one_plus_central_involution():
    v = np.array([1, 1])      # 1 + g with g^2 = 1
    assert not brute_multiply(cyclic_group(2), 2, v, v).any()


def test_brackets(built):
    d8 = built("D8")
    x = np.array([1, 1, 0, 0, 1, 0, 0, 1])
    assert not brute_bracket(d8, 2, x, x).any()
    c4 = cyclic_group(4)
    for g in range(4):
        for h in range(4):
            assert not brute_bracket(c4, 2, brute_delta(c4, g),
                                     brute_delta(c4, h)).any()
    assert brute_bracket(d8, 2, brute_delta(d8, 1), brute_delta(d8, 4)).any()


# --- subspaces ------------------------------------------------------------------


def test_echelonize_basics():
    s = FpSubspace.from_vectors([[1, 0, 0], [1, 0, 0], [2, 0, 0]], 3)
    assert s.dim == 1
    z = FpSubspace.from_vectors([[0, 0, 0]], 5, 3)
    assert z.dim == 0
    span = FpSubspace.from_vectors([[1, 0, 0], [1, 1, 0]], 2)
    assert contains_all(span, [0, 1, 0])
    assert not contains_all(span, [0, 0, 1])


def test_echelonize_shape_errors():
    with pytest.raises(DimensionMismatchError):
        FpSubspace.from_vectors([[1, 0]], 2, width=3)
    with pytest.raises(DimensionMismatchError):
        FpSubspace.from_vectors([], 2)


def test_subspace_sum():
    """The sum of two subspaces is the span of both bases."""
    a = FpSubspace.from_vectors([[1, 0, 0]], 2)
    b = FpSubspace.from_vectors([[0, 1, 0]], 2)
    ab = FpSubspace.from_vectors(np.vstack([a.basis, b.basis]), 2)
    assert ab.dim == 2 and ab.pivots.tolist() == [0, 1]
    assert contains_all(ab, np.vstack([a.basis, b.basis]))
    assert FpSubspace.from_vectors(np.vstack([a.basis, a.basis]), 2) == a


def test_rref_canonical():
    rows = [[1, 2, 0], [0, 1, 1]]
    shuffled = [[0, 1, 1], [1, 0, 1]]  # same row space mod 3
    assert FpSubspace.from_vectors(rows, 3) == \
        FpSubspace.from_vectors(shuffled, 3)


# 2^31 - 1 and 2^61 - 1 are prime: products of two residues overflow a
# float64 mantissa, and at the second also int64.
LARGE_PRIMES = [2 ** 31 - 1, 2 ** 61 - 1]


def _random_rows(p, count, width, seed):
    rng = np.random.default_rng(seed)
    return [[int(x) % p for x in rng.integers(0, 2 ** 62, width)]
            for _ in range(count)]


def _block(kind, rows, width, p, rng):
    """A seeded candidate block of one of eight shapes, entries in [0, p),
    in Python ints at the large primes."""
    dtype = object if p in LARGE_PRIMES else np.int64
    draw = lambda *shape: rng.integers(0, p, shape).astype(dtype)
    if kind == "random":
        return draw(rows, width)
    if kind == "shared_leads":
        # Dense rows that share three lead columns, so that each round
        # picks one row of many per column; about half the leads are 1,
        # and the block is Fortran-ordered.
        lead = rng.choice(width // 2, 3, replace=False)[
            rng.integers(0, 3, rows)]
        block = draw(rows, width)
        block[np.arange(width) < lead[:, None]] = 0
        block[np.arange(rows), lead] = np.where(
            rng.random(rows) < 0.5, 1, rng.integers(1, p, rows)).astype(dtype)
        return np.asfortranarray(block)
    if kind in ("unit_leads", "mixed_leads"):
        # Sparse rows, so that the rows picked in one round are often
        # already reduced on some of each other's pivot columns; every
        # lead scaled to 1, resp. about half of them.
        block = draw(rows, width) * (rng.random((rows, width)) < 0.1
                                     ).astype(dtype)
        block[np.arange(rows), rng.integers(0, width, rows)] = 1
        lead = block[np.arange(rows), (block != 0).argmax(axis=1)]
        scale = [pow(int(x), p - 2, p) for x in lead]
        if kind == "mixed_leads":
            scale = [s if half else 1
                     for s, half in zip(scale, rng.random(rows) < 0.5)]
        return block * np.array(scale, dtype=dtype)[:, None] % p
    if kind == "extreme":       # the largest products: entries p-1, p-2
        return rng.integers(0, 2, (rows, width)).astype(dtype) + (p - 2)
    if kind == "rank_deficient":
        rank = min(rows, width) - 7
        return draw(rows, rank) @ draw(rank, width) % p
    if kind == "duplicates":
        pool = draw(rows // 2 + 1, width)
        return pool[rng.integers(0, len(pool), rows)]
    # One shared lead: row i is a nonzero multiple of e_0 + e_(1 + i).
    block = np.zeros((rows, width), dtype=dtype)
    block[:, 0] = 1
    block[np.arange(rows), 1 + np.arange(rows) % (width - 1)] = 1
    return block * rng.integers(1, p, (rows, 1)).astype(dtype)


# The width each prime's echelon test runs at: 181 at the widest space
# that still reduces in float32, the large primes, which reduce in
# Python integers and are slow, narrower.
ECHELON_WIDTHS = {2: 80, 3: 80, 5: 80, 181: 257,
                  **{p: 24 for p in LARGE_PRIMES}}
# At 181 the one-pivot reference is slow on blocks of several 256-row
# chunks at width 257, so that case runs with 64-row chunks.
ECHELON_CHUNKS = {181: 64}


@pytest.mark.parametrize("p", list(ECHELON_WIDTHS))
@pytest.mark.parametrize("kind", ["random", "rank_deficient", "duplicates",
                                  "shared_lead", "shared_leads", "extreme",
                                  "unit_leads", "mixed_leads"])
def test_absorb_matches_reference_echelon(monkeypatch, p, kind):
    """The chunked, round-wise elimination gives the subspace of the
    one-pivot-at-a-time reference, on blocks shorter than, as long as
    and longer than a chunk, and absorbing in several calls gives the
    same subspace as absorbing in one.  The unit_leads and mixed_leads
    blocks reach rounds that skip the scaling and rounds that skip the
    inverse of I - M, next to rounds where only some leads are 1 or only
    some rows of M are 0.  The shared_leads blocks pick one row out of
    many per lead column, from Fortran-ordered input."""
    chunk = ECHELON_CHUNKS.get(p, _CHUNK_ROWS)
    monkeypatch.setattr("lienilp.oracle._CHUNK_ROWS", chunk)
    rng = np.random.default_rng([p % 1000, len(kind)])
    width = ECHELON_WIDTHS[p]
    for rows in (chunk - 1, chunk, chunk + 1, 2 * chunk + 2):
        block = _block(kind, rows, width, p, rng)
        space = FpSubspace.from_vectors(block, p)
        assert space == reference_echelon(block, p, width), (rows, kind)
        if kind == "rank_deficient":
            assert space.dim == min(rows, width) - 7, rows
        parts = FpSubspace(p, width)
        for piece in np.array_split(block, [1, 40, 41, 100]):
            parts.absorb(piece)
        assert parts == space, (rows, kind)


@pytest.mark.parametrize("p", [2, 5, LARGE_PRIMES[1]])
def test_absorb_returns_what_is_new(monkeypatch, p):
    """Absorbing a block of three chunks into a non-empty space returns
    as many rows as the dimension grew, independent modulo the old basis
    and spanning the new space with it."""
    monkeypatch.setattr("lienilp.oracle._CHUNK_ROWS", 8)
    rng = np.random.default_rng(p % 1000)
    space = FpSubspace.from_vectors(_block("random", 5, 30, p, rng), p)
    old = space.copy()
    # Chunk k brings 6, 4 and 2 new directions; its other rows combine
    # the old basis and every row before them.
    rows = old.basis.astype(object if p in LARGE_PRIMES else np.int64)
    for new in (6, 4, 2):
        fresh = _block("random", new, 30, p, rng)
        known = np.vstack([rows, fresh])
        mix = _block("random", 8 - new, len(known), p, rng) @ known % p
        rows = np.vstack([rows, np.vstack([fresh, mix])[rng.permutation(8)]])
    returned = space.absorb(rows[old.dim:])
    assert returned.shape[0] == space.dim - old.dim == 12
    assert FpSubspace.from_vectors(old.reduce(returned), p).dim == 12
    assert FpSubspace.from_vectors(np.vstack([old.basis, returned]),
                                   p) == space


def test_unit_solve_refuses_a_non_nilpotent_m():
    """Rows that are not unit upper triangular on their columns give an
    M that is not nilpotent: here M^2 = I mod 5, so no squaring reaches
    0, and the solve raises after the one squaring that two columns
    allow instead of looping."""
    with pytest.raises(NoConvergenceError, match="kernel defect$"):
        _unit_solve(np.array([[1., 1.], [1., 1.]], dtype=np.float32),
                    np.array([0, 1]), 5)


def test_absorb_refuses_rounds_that_drop_no_row(monkeypatch):
    """A planted kernel fault, a solve that returns zeros, leaves every
    row of the chunk nonzero round after round; absorb raises once it
    has run more rounds than the chunk has rows instead of looping."""
    monkeypatch.setattr("lienilp.oracle._unit_solve",
                        lambda r, cols, p: 0 * r)
    with pytest.raises(NoConvergenceError, match="kernel defect$"):
        FpSubspace.from_vectors(np.eye(3, dtype=np.int64), 5)


@pytest.mark.parametrize("p, width, work", [
    (2, 1024, np.float32), (5, 1024, np.float32),
    (181, 257, np.float32), (181, 258, np.float64),
    (8191, 2, np.float64),
    (8191, 67_141_643, np.float64), (8191, 67_141_644, object),
    *((p, 1, object) for p in LARGE_PRIMES)])
def test_work_dtype_tiers(p, width, work):
    """The narrowest dtype in which (p-1)^2 (width + 1) stays below its
    exact bound, 2^23 for float32 and 2^52 for float64: at 181,
    180^2 * 258 = 8359200 < 2^23 < 180^2 * 259."""
    assert _work_dtype(p, width) is work


def test_dependent_pairs_at_a_float64_prime():
    """[[1, a], [b, ab mod p]] has rank 1.  At p = 8191 the products of
    residues pass 2^24, so in float32 the second row would often fail to
    reduce to zero and the rank would come out 2."""
    p = 8191
    rng = np.random.default_rng(p)
    for a, b in rng.integers(1, p, (600, 2)).tolist():
        assert FpSubspace.from_vectors([[1, a], [b, a * b % p]], p).dim == 1


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_builder_exact_at_large_prime(p):
    v = _random_rows(p, 2, 6, seed=1)
    space = FpSubspace(p, 6)
    assert space.absorb(v).shape[0] == 2
    both = [(a + b) % p for a, b in zip(*v)]
    assert space.absorb([both]).shape[0] == 0
    assert space.dim == 2


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_float_input_exact_at_large_prime(p):
    """Float rows are taken as the integers they hold, not reduced as
    Python floats, which round past 2^53 and can leave a pivot column
    uncleared for ever."""
    assert FpSubspace.from_vectors(np.array([[2.0, 3.0]]), p) == \
        FpSubspace.from_vectors([[2, 3]], p)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_from_vectors_exact_at_large_prime(p):
    v = _random_rows(p, 20, 30, seed=2)
    s = FpSubspace.from_vectors(v, p)
    assert s.dim == 20
    assert contains_all(s, v)
    assert FpSubspace.from_vectors(np.vstack([s.basis, s.basis]), p) == s


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_algebra_exact_at_large_prime(built, p):
    """KG of an abelian group is Lie nilpotent at every p."""
    g = built("C4xC2")
    x = [p - 1] * 8
    assert np.array_equal(brute_multiply(g, p, x, x), np.full(8, 8))
    assert chains(GroupAlgebra(g, p)) == (([8, 0], 2), ([8, 0], 2), [8, 1])


# --- ideals ---------------------------------------------------------------------


def test_ideal_of_identity_is_everything(built):
    alg = GroupAlgebra(built("D8"), 2)
    gens = FpSubspace.from_vectors([brute_delta(alg.group, 0)], 2)
    assert alg.ideal_closure(gens).dim == 8


def test_ideal_of_nothing_is_zero(built):
    gens = FpSubspace.from_vectors([], 2, width=8)
    assert GroupAlgebra(built("D8"), 2).ideal_closure(gens).dim == 0


def test_augmentation_ideal_of_c2():
    gens = FpSubspace.from_vectors([[1, 1]], 2)
    assert GroupAlgebra(cyclic_group(2), 2).ideal_closure(gens).dim == 1


# --- Lie power chains -------------------------------------------------------------


def test_upper_powers_abelian(built):
    dims, t = upper_lie_powers(GroupAlgebra(built("C4xC2"), 2))
    assert dims == [8, 0] and t == 2


def test_upper_powers_golden(built):
    for name, t in (("D8", 3), ("Q8", 3), ("D8xD8", 4)):
        assert upper_lie_powers(GroupAlgebra(built(name), 2))[1] == t


def test_lower_powers(built):
    assert lower_lie_powers(GroupAlgebra(built("C4xC2"), 2))[1] == 2
    assert lower_lie_powers(GroupAlgebra(built("D8"), 2))[1] == 3


def test_p5_equality(built):
    alg = GroupAlgebra(built("H125"), 5)
    _, t_up = upper_lie_powers(alg)
    _, t_low = lower_lie_powers(alg)
    assert t_up == t_low == 6


def test_chains_decrease(catalog):
    for name in ("D8", "Q8", "D16", "C4xC2", "H27"):
        alg = GroupAlgebra(catalog.build(name), 3 if name == "H27" else 2)
        for dims, _ in (upper_lie_powers(alg), lower_lie_powers(alg)):
            assert all(a > b for a, b in zip(dims, dims[1:])), name
            assert dims[-1] == 0


def test_weight_two_powers_coincide(built):
    """Both weight-two Lie powers equal the ideal generated by all
    basis-pair brackets, computed here directly."""
    for name, p in (("D8", 2), ("Q8", 2), ("H27", 3), ("C4xC2", 2)):
        g = built(name)
        alg = GroupAlgebra(g, p)
        pair_brackets = [brute_bracket(g, p, brute_delta(g, a),
                                       brute_delta(g, b))
                         for a in range(g.order) for b in range(a)]
        direct = alg.ideal_closure(
            FpSubspace.from_vectors(pair_brackets or [], p, g.order))
        up, _ = upper_lie_powers(alg)
        low, _ = lower_lie_powers(alg)
        assert direct.dim == up[1] == low[1], name


def test_oracle_agrees_with_formula_index(catalog):
    """Oracle upper index equals the closed-form index on every
    Lie nilpotent catalog group of order <= 64 (p = 2, 3) and <= 128
    (p = 5)."""
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        for p, bound in ((2, 64), (3, 64), (5, 128)):
            if g.order > bound or not is_lie_nilpotent(g, p):
                continue
            t_formula = upper_index_jennings(
                series_d_vector(series_recursive(g, p)))
            assert upper_lie_powers(GroupAlgebra(g, p))[1] == t_formula, \
                f"{entry.name}@p{p}"


def test_no_convergence_on_s3(built):
    """KS3 is not Lie nilpotent at any p: every chain stops at a repeated
    dimension above zero, with no step limit to run into, and the error
    carries the dims of the chain that stopped (the lower chain's spans,
    not their ideals)."""
    s3 = built("S3")
    for p in (2, 3, 5):
        for chain, name, dims in (
                (upper_lie_powers, "upper", [6, 4, 4]),
                (lower_lie_powers, "lower", [6, 3, 3]),
                (dimension_series_direct, "upper", [6, 4, 4])):
            with pytest.raises(NoConvergenceError) as err:
                chain(GroupAlgebra(s3, p))
            assert err.value.dims == dims, (p, chain.__name__)
            assert str(err.value) == (
                f"{name} Lie power chain repeats dimension {dims[-1]}: "
                f"KG is not Lie nilpotent"), (p, chain.__name__)


def test_oracle_reads_no_lower_central_series(monkeypatch, built,
                                              catalog_reports):
    """The oracle's chains on D8wrC2 at p = 2 are the same with
    lower_central_series raising in every lienilp module: the oracle
    does not use the series whose bound it checks."""
    def refuse(g):
        raise AssertionError("the oracle read a lower central series")
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "lienilp" and \
                hasattr(mod, "lower_central_series"):
            monkeypatch.setattr(mod, "lower_central_series", refuse)
    rep = catalog_reports["D8wrC2", 2]
    oracle = rep.oracle
    assert chains(GroupAlgebra(built("D8wrC2"), 2)) == (
        (oracle.upper_dims, oracle.t_upper),
        (oracle.lower_dims, oracle.t_lower),
        rep.series_orders["direct"])


def test_growing_term_ends_the_chain(built, monkeypatch):
    """A kernel defect that grows a term ends the chain instead of
    running away: brackets that alternate between the true ones and a
    full span give 64, then a smaller term, then 64 again, which is no
    smaller, so the chain stops there, within |G| + 1 terms, and the
    error names the growth, not a repeat."""
    alg = GroupAlgebra(built("D8xD8"), 2)
    real, calls = GroupAlgebra._brackets, itertools.count()

    def alternate(self, cols, elements):
        rows = real(self, cols, elements)
        return np.eye(self.n, dtype=rows.dtype) if next(calls) % 2 else rows
    monkeypatch.setattr(GroupAlgebra, "_brackets", alternate)
    with pytest.raises(NoConvergenceError) as err:
        upper_lie_powers(alg)
    dims = err.value.dims
    assert len(dims) == 3 and dims[0] == dims[2] == 64 > dims[1], dims
    assert str(err.value) == (f"upper Lie power chain grows from dimension "
                              f"{dims[1]} to 64: the kernel is at fault")


def test_oracle_cap(built):
    """analyze leaves the oracle out above its cap; GroupAlgebra refuses
    every group above ORACLE_ORDER_LIMIT by its order, whatever its
    backing."""
    report = analyze(built("C3wrC3"), 3, oracle_cap=64)
    assert not report.oracle.ran
    assert report.checks["oracle_upper_matches_jennings"] is None
    big = [cyclic_group(2048), wreath_cyclic(2, 8), built("C5wrC5")]
    assert [g.backing for g in big] == ["table", "permutation", "permutation"]
    for g in big:
        with pytest.raises(OracleCapExceededError,
                           match=f"^group order {g.order} is above 1024"):
            GroupAlgebra(g, 2)


def test_generators_checked_on_every_catalog_group(catalog):
    """Every catalog group passes the generator check; one above
    ORACLE_ORDER_LIMIT has no algebra, so its generators are checked
    directly."""
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if g.order <= ORACLE_ORDER_LIMIT:
            assert GroupAlgebra(g, 2).n == g.order
        else:
            with pytest.raises(OracleCapExceededError):
                GroupAlgebra(g, 2)
            assert subgroup_generated(g, g.generators).order == g.order


def test_non_generating_generators_rejected(built):
    d8 = built("D8")
    rotations = FiniteGroup(table=d8.dense_table(),
                            generators=d8.generators[:1])
    assert subgroup_generated(d8, d8.generators[:1]).order == 4
    with pytest.raises(NotGeneratingError):
        GroupAlgebra(rotations, 2)


def test_algebra_runs_on_the_generators_its_check_kept(built):
    """The algebra brackets with, and closes under, the generators that
    the closure of its generation check kept: three of D8wrC2's five."""
    g = built("D8wrC2")
    alg = GroupAlgebra(g, 2)
    assert alg._gens == subgroup_generated(g, g.generators).generators
    assert len(alg._gens) == 3 < len(g.generators)
    assert len(alg._sides) == 2 * len(alg._gens)


def test_chains_match_all_elements_reference(catalog):
    """Generators-only chains equal the all-elements definitions (ideal
    closure under every delta_g, brackets against every delta_g) on
    every Lie nilpotent catalog group of order <= 32."""
    checked = 0
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if g.order > 32:
            continue
        for p in (2, 3, 5):
            if not is_lie_nilpotent(g, p):
                continue
            rep = analyze(g, p, run_oracle=True)
            upper, lower, direct, spans = brute_lie_chains(g, p)
            assert rep.oracle.upper_dims == upper, f"{entry.name}@p{p}"
            assert rep.oracle.lower_dims == lower, f"{entry.name}@p{p}"
            assert rep.series_orders["direct"] == direct, \
                f"{entry.name}@p{p}"
            assert [s.dim for s in _lower_spans(GroupAlgebra(g, p))] == \
                spans, f"{entry.name}@p{p}"
            checked += 1
    assert checked >= 30


def test_lower_spans_match_all_elements_reference(catalog):
    """The lower Lie powers themselves, not only the ideals they
    generate, equal the spans of brackets against every delta_g, on
    every Lie nilpotent catalog group of order <= 81.  Ideal dims and
    the vanishing index hide a wrong span at some weight; order 81
    reaches the groups (D16, D32, D8xD8, C2wrC4, C3wrC3) where a span
    built from too few bracket blocks first shows."""
    checked = 0
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if g.order > 81:
            continue
        for p in (2, 3, 5):
            if not is_lie_nilpotent(g, p):
                continue
            oracle = [s.dim for s in _lower_spans(GroupAlgebra(g, p))]
            brute = [s.shape[0] for s in brute_lower_spans(g, p)]
            assert oracle == brute, f"{entry.name}@p{p}"
            checked += 1
    assert checked == 42


def test_ideal_closure_matches_all_elements_reference(built):
    """Ideals of random one- and two-element spans, closed over the
    generators, equal the closure under every delta_g."""
    rng = np.random.default_rng(5)
    for name, p in (("S3", 2), ("S3", 3), ("D8", 2), ("Q8", 3),
                    ("H27", 3), ("D8sd", 5)):
        g = built(name)
        for rows in (1, 1, 2):
            vecs = rng.integers(0, p, (rows, g.order))
            ideal = GroupAlgebra(g, p).ideal_closure(
                FpSubspace.from_vectors(vecs, p, g.order))
            assert np.array_equal(ideal.basis,
                                  brute_ideal_closure(g, p, vecs)), name


@pytest.mark.parametrize("p", [2, 2 ** 31 - 1])
def test_full_space_is_the_identity_span(built, p):
    alg = GroupAlgebra(built("D8"), p)
    assert alg.full_space() == FpSubspace.from_vectors(np.eye(alg.n), p)


def test_copies_share_no_growth(built):
    """A copy that absorbs rows leaves the kept chain term, and ideals
    closed from it, as they were."""
    alg = GroupAlgebra(built("D8"), 2)
    upper_lie_powers(alg)
    term = alg._upper[1]
    before = (FpSubspace.from_vectors(term.basis, 2, alg.n),
              alg.ideal_closure(term))
    grown = term.copy()
    grown.absorb(np.eye(alg.n))
    assert grown.dim == alg.n > before[0].dim
    after = alg._upper[1], alg.ideal_closure(alg._upper[1])
    assert [s.dim for s in after] == [s.dim for s in before]
    assert after == before


def test_upper_chain_shared_by_one_algebra(built):
    alg = GroupAlgebra(built("C2wrC4"), 2)
    dims, t = upper_lie_powers(alg)
    chain = list(alg._upper)
    assert len(chain) == t and chain[-1].dim == 0
    series = [m.tolist() for m in dimension_series_direct(alg)]
    assert upper_lie_powers(alg) == (dims, t)
    assert alg._upper == chain
    assert len(series) <= t
    assert [m.tolist() for m in dimension_series_direct(alg)] == series


# --- dimension subgroups straight from the definition ------------------------------


def test_dimension_subgroup_direct(built):
    d8 = built("D8")
    alg = GroupAlgebra(d8, 2)
    series = [m.tolist() for m in dimension_series_direct(alg)]
    assert len(series) == 3
    assert series[0] == list(range(8))
    assert series[1] == lower_central_series(d8)[1].members.tolist()
    assert series[2] == [0]


def test_direct_series_matches_formula(catalog):
    """Definition-level dimension subgroups equal the formula series on
    every oracle-sized Lie nilpotent catalog pair."""
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if g.order > 128:
            continue
        for p in (2, 3, 5):
            if not is_lie_nilpotent(g, p):
                continue
            direct = dimension_series_direct(GroupAlgebra(g, p))
            formula = series_recursive(g, p)
            assert [m.tolist() for m in direct] == \
                [t.members.tolist() for t in formula.terms], \
                f"{entry.name}@p{p}"


def test_direct_term_not_a_subgroup_fails_its_check(built, monkeypatch,
                                                    capsys):
    """A kernel fault that puts a non-subgroup into the direct series is
    a failed cross-check, not a crash: with D8's first upper Lie power at
    p = 2 replaced by the span of delta_g - delta_1 for g = 1, 2, 4, the
    first direct term is {0, 1, 2, 4}, not closed under inverse (1^-1 is
    3).  analyze returns a report with direct_series_agrees False, and
    scan finishes, marks D8 CHECK-FAILED and exits 3."""
    d8 = built("D8").dense_table()
    real = GroupAlgebra._upper.func

    def planted(self):
        chain = real(self)
        if self.p == 2 and np.array_equal(self._table, d8):
            rows = np.eye(8, dtype=np.int64)[[1, 2, 4]]
            rows[:, 0] = -1
            chain = [FpSubspace.from_vectors(rows, 2, 8)] + chain[1:]
        return chain
    monkeypatch.setattr(GroupAlgebra, "_upper", property(planted))
    assert [m.tolist() for m in dimension_series_direct(
        GroupAlgebra(built("D8"), 2))] == [[0, 1, 2, 4], [0, 2], [0]]
    rep = analyze(built("D8"), 2, name="D8")
    assert rep.failed_checks == ["direct_series_agrees"]
    assert rep.series_orders["direct"] == [4, 2, 1]
    assert main(["scan", "--prime", "2", "--max-order", "8"]) == 3
    out = capsys.readouterr().out
    flagged = [line.split()[0] for line in out.splitlines()
               if "CHECK-FAILED" in line]
    assert flagged == ["D8"], out


# --- Lie nilpotency test -------------------------------------------------------------


def test_is_lie_nilpotent(built):
    assert is_lie_nilpotent(built("D8"), 2)
    assert not is_lie_nilpotent(built("D8"), 3)
    assert not is_lie_nilpotent(built("S3"), 2)
    assert not is_lie_nilpotent(built("S3"), 3)
    assert is_lie_nilpotent(built("C3xC3"), 2)   # abelian at any prime

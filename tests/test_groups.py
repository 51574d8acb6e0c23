"""Group construction, subgroup machinery, and structural invariants."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import brute_closure, brute_commutator_subgroup, \
    brute_lower_central, brute_permutation_closure, element_order

from lienilp import groups
from lienilp.catalog import Catalog
from lienilp.errors import (
    CapExceededError,
    LieNilpError,
    NoInverseError,
    NotAbelianError,
    NotAssociativeError,
    NotAutomorphismError,
    NotHomomorphismError,
    NotNormalError,
)
from lienilp.groups import (
    AbelianType,
    FiniteGroup,
    Subgroup,
    abelian_invariants,
    center,
    commutator,
    commutator_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    exponent,
    extraspecial_exponent_p,
    from_multiplication_table,
    from_permutation_generators,
    full_subgroup,
    is_abelian_subgroup,
    is_p_group,
    lower_central_series,
    power_subgroup,
    product_of_subgroups,
    quaternion_group8,
    quotient,
    semidirect_product,
    subgroup_generated,
    trivial_subgroup,
    wreath_cyclic,
)


# --- number theory ----------------------------------------------------------------


def test_is_prime_matches_trial_division():
    for n in range(-3, 3000):
        assert groups.is_prime(n) == (n > 1 and groups._factorize(n) == {n: 1})
    # Mersenne primes and Carmichael numbers, far past trial division.
    assert groups.is_prime(2 ** 61 - 1) and groups.is_prime(2 ** 127 - 1)
    assert not any(map(groups.is_prime, (561, 3215031751, 2 ** 61 + 1)))


@pytest.mark.parametrize("p", [0, -2])
def test_p_log_rejects_base_below_2(p):
    with pytest.raises(ValueError):
        groups._p_log(8, p)


# --- from_multiplication_table ------------------------------------------------


def test_trivial_table():
    g = from_multiplication_table([[0]])
    assert g.order == 1
    assert g.dense_table().tolist() == [[0]]


def test_c2_table():
    g = from_multiplication_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert element_order(g, 1) == 2


def test_missing_inverse():
    with pytest.raises(NoInverseError) as err:
        from_multiplication_table([[0, 1], [1, 1]])
    assert err.value.element == 1


def test_missing_identity():
    from lienilp.errors import NoIdentityError
    with pytest.raises(NoIdentityError):
        from_multiplication_table([[1, 1], [1, 1]])


def test_ragged_table_refused_before_numpy(monkeypatch):
    """A table whose rows differ in length is refused in the program's
    own words, before numpy sees it."""
    monkeypatch.setattr(groups, "np", None)
    for table in ([[0, 1], [1]], [[0], [0]], [0]):
        with pytest.raises(ValueError,
                           match="^multiplication table must be square$"):
            from_multiplication_table(table)


def test_not_associative_names_triple():
    table = [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
    with pytest.raises(NotAssociativeError) as err:
        from_multiplication_table(table)
    i, j, k = err.value.triple
    t = np.array(table)
    assert t[t[i, j], k] != t[i, t[j, k]]


@pytest.mark.parametrize("name", ["D8", "Q8", "H27"])
def test_every_corrupted_entry_rejected(built, name):
    """Changing any one entry off the identity row and column of a group
    table leaves no group.  Light's test over generators whose products
    reach every element catches each such table, and a
    NotAssociativeError names a triple that really fails."""
    table = built(name).dense_table()
    n = table.shape[0]
    for i in range(1, n):
        for j in range(1, n):
            t = table.astype(np.int64)
            t[i, j] = (t[i, j] + 1 + (i * j) % (n - 1)) % n
            with pytest.raises(LieNilpError) as err:
                from_multiplication_table(t)
            if isinstance(err.value, NotAssociativeError):
                a, b, c = err.value.triple
                assert t[t[a, b], c] != t[a, t[b, c]], (i, j)


@pytest.mark.parametrize("name", ["D8", "Q8", "H27", "D8wrC2"])
def test_light_gets_every_greedy_generator(built, monkeypatch, name):
    """Light's test receives all of the seeds the closure keeps from
    every element, each the least element the ones before it miss, and
    their left-normed products reach every element: the condition under
    which it proves associativity.  A single corrupted entry fails for
    some one generator, so test_every_corrupted_entry_rejected cannot
    see a check that drops generators."""
    received = []
    light = groups._check_associative_light

    def record(table, gens):
        received.append(tuple(gens))
        return light(table, gens)

    monkeypatch.setattr(groups, "_check_associative_light", record)
    table = built(name).dense_table().astype(np.int64)
    from_multiplication_table(table)
    g = FiniteGroup(table=table)
    gens = tuple(groups._closure(g, range(1, g.order))[1])
    assert received == [gens]
    for i, s in enumerate(gens):
        assert s == groups._closure(g, gens[:i])[0].argmin()
    assert groups._closure(g, gens)[0].all()


def test_light_checks_past_the_first_generator():
    """x o y = x + y + x1 y1 y2 e3 on GF(2)^3 (element 4 x1 + 2 x2 + x3)
    is a loop, not a group.  The first seed its closure keeps, e3,
    associates with everything, and the second, e2, fails at
    (e1, e2, e1)."""
    bits = [(x >> 2 & 1, x >> 1 & 1) for x in range(8)]
    table = [[x ^ y ^ (bits[x][0] & bits[y][0] & bits[y][1])
              for y in range(8)] for x in range(8)]
    assert groups._closure(FiniteGroup(table=table), range(1, 8))[1] == \
        [1, 2, 4]
    with pytest.raises(NotAssociativeError) as err:
        from_multiplication_table(table)
    assert err.value.triple == (4, 2, 4)


def test_identity_relocated_to_zero():
    base = np.array([[(i + j) % 4 for j in range(4)] for i in range(4)])
    perm = np.array([2, 3, 0, 1])
    shuffled = perm[base[np.ix_(np.argsort(perm), np.argsort(perm))]]
    assert shuffled[0, 0] != 0 or not np.array_equal(shuffled[0],
                                                     np.arange(4))
    g = from_multiplication_table(shuffled)
    assert g.dense_table()[0].tolist() == [0, 1, 2, 3]
    assert sorted(element_order(g, x) for x in range(4)) == [1, 2, 4, 4]


def test_table_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 1)
    with pytest.raises(CapExceededError):
        from_multiplication_table([[0, 1], [1, 0]])


@pytest.mark.parametrize("build, arg, order", [
    (cyclic_group, 4097, 4097),
    (dihedral_group, 4098, 4098),
    (extraspecial_exponent_p, 17, 4913),
])
def test_table_builders_refuse_above_limit(monkeypatch, build, arg, order):
    """The named table builders refuse the first order above
    TABLE_BACKING_LIMIT before they build any array: with numpy taken
    away from the module, the refusal still comes first."""
    assert order > groups.TABLE_BACKING_LIMIT
    monkeypatch.setattr(groups, "np", None)
    with pytest.raises(CapExceededError, match=f"{order} is above 4096"):
        build(arg)


def test_multiplication_table_refused_before_conversion(monkeypatch):
    """A table of more than TABLE_BACKING_LIMIT rows is refused before
    it is converted: with numpy taken away from the module, the refusal
    still comes first.  The rows are one shared list, so nothing of size
    order^2 exists."""
    monkeypatch.setattr(groups, "np", None)
    with pytest.raises(CapExceededError,
                       match="^table order 4097 is above 4096"):
        from_multiplication_table([[0]] * 4097)


# --- table storage ------------------------------------------------------------


def test_table_dtype_holds_every_index():
    assert groups.TABLE_DTYPE == np.int16
    assert groups.TABLE_BACKING_LIMIT <= np.iinfo(np.int16).max + 1


def test_tables_stored_as_int16(catalog):
    """Every table-backed catalog group, and an order-4096 direct
    product at the table limit, stores an int16 table whose largest
    entry is the last element index."""
    tables = [catalog.build(e.name) for e in catalog.entries]
    tables = [g for g in tables if g.backing == "table"]
    tables.append(direct_product(catalog.build("D8wrC2"), cyclic_group(32)))
    assert len(tables) > 20 and tables[-1].order == 4096
    for g in tables:
        table = g.dense_table()
        assert table.dtype == np.int16, g
        assert int(table.max()) == g.order - 1, g


# --- from_permutation_generators ------------------------------------------------


def test_empty_generators_trivial():
    g = from_permutation_generators(3, [])
    assert g.order == 1


def test_permutation_entries_checked_before_degree_sized_work(monkeypatch):
    """At degree 2*10^8 no generators give the trivial group and a
    generator of another length is refused, both at once: nothing of
    size degree is built.  A range that long would be refused here
    rather than allocated."""
    import time

    def short_range(*args):
        r = range(*args)
        assert len(r) < 10 ** 6, "built a range of size degree"
        return r
    monkeypatch.setattr(groups, "range", short_range, raising=False)
    start = time.perf_counter()
    assert from_permutation_generators(2 * 10 ** 8, []).order == 1
    with pytest.raises(ValueError, match=r"^\(1, 0\) is not a permutation"):
        from_permutation_generators(2 * 10 ** 8, [[1, 0]])
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValueError, match="^permutation degree -1 is "
                                         "negative$"):
        from_permutation_generators(-1, [])


def test_d8_from_permutations():
    g = from_permutation_generators(4, [[1, 2, 3, 0], [0, 3, 2, 1]])
    assert g.order == 8
    assert exponent(full_subgroup(g)) == 4
    assert not is_abelian_subgroup(full_subgroup(g))


def test_s5_cap_exceeded(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 100)
    with pytest.raises(CapExceededError):
        from_permutation_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])


def test_closure_matches_brute_force():
    g = from_permutation_generators(4, [[1, 2, 3, 0], [0, 3, 2, 1]])
    full = brute_closure(g, range(g.order))
    assert full == frozenset(range(8))


def _assert_matches_brute(degree, gens):
    """The builder numbers, generates, multiplies and inverts exactly as
    the one-product-at-a-time reference.  A permutation-backed build is
    checked on every product whenever the reference table is small
    enough to fill (G and its opposite group have the same invariants,
    so only a product-by-product check sees the order of composition)."""
    g = from_permutation_generators(degree, gens)
    elements, gen_indices, table, inverses = brute_permutation_closure(
        degree, gens, table=g.order <= 4096)
    assert g.order == len(elements)
    assert g.generators == gen_indices
    assert g._inverses.tolist() == inverses
    if g.backing == "table":
        assert g.dense_table().tolist() == table.tolist()
        return g
    assert g.backing == "permutation"
    assert isinstance(g._perms, np.ndarray)
    assert g._perms.dtype == np.min_scalar_type(degree - 1)
    assert g._perms.tolist() == [list(e) for e in elements]
    if table is not None:
        every = np.arange(g.order)
        assert g.products(every[:, None], every).tolist() == table.tolist()
    return g


def _random_sylow_element(p, k, rng):
    """A random automorphism of the p-ary tree of depth k, as a
    permutation of its p^k leaves: an element of Syl_p(S_{p^k})."""
    turns = [[rng.randrange(p) for _ in range(p ** level)]
             for level in range(k)]
    image = []
    for x in range(p ** k):
        y = 0
        for level in range(k):
            digit = x // p ** (k - 1 - level) % p
            y = y * p + (digit + turns[level][x // p ** (k - level)]) % p
        image.append(y)
    return image


def _recorded_permutation_builds(catalog, monkeypatch):
    """(degree, generators) of every catalog group built from
    permutations, wreath products included."""
    calls = []
    real = groups.from_permutation_generators

    def record(degree, gens, **kwargs):
        calls.append((degree, gens))
        return real(degree, gens, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(groups, "from_permutation_generators", record)
        fresh = Catalog(catalog.entries)
        for e in catalog.entries:
            if e.kind in ("permutations", "wreath_cyclic"):
                fresh.build(e.name)
    return calls


def test_closure_matches_reference_on_catalog(catalog, monkeypatch):
    calls = _recorded_permutation_builds(catalog, monkeypatch)
    assert sorted(_assert_matches_brute(d, gens).order
                  for d, gens in calls) == [64, 81, 15625]


@pytest.mark.parametrize("p, k, seed", [(2, 3, 1), (3, 2, 2), (2, 4, 3)])
def test_closure_matches_reference_on_random_sylow_subgroups(p, k, seed,
                                                           monkeypatch):
    import random
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 512)
    rng = random.Random(seed)
    orders = []
    while len(orders) < 6:
        gens = [_random_sylow_element(p, k, rng)
                for _ in range(rng.choice((1, 2, 3)))]
        try:
            orders.append(_assert_matches_brute(p ** k, gens).order)
        except CapExceededError:
            continue
    assert max(orders) > 8, orders


def test_closure_matches_reference_above_table_limit(catalog, monkeypatch):
    """Forced to the permutation backing by a lowered ORACLE_ORDER_LIMIT,
    the table-backed catalog closures keep the same element order and
    inverses (C5wrC5, already permutation backed, is checked above)."""
    calls = [(d, gens) for d, gens
             in _recorded_permutation_builds(catalog, monkeypatch) if d < 25]
    assert len(calls) == 2
    with monkeypatch.context() as m:
        m.setattr(groups, "ORACLE_ORDER_LIMIT", 1)
        for degree, gens in calls + [(4, [[1, 2, 3, 0], [0, 3, 2, 1]])]:
            assert _assert_matches_brute(degree, gens).backing == \
                "permutation"


@pytest.mark.parametrize("degree, gens, order", [
    (0, [], 1),
    (0, [[]], 1),
    (1, [[0]], 1),
    (3, [], 1),
    (3, [[0, 1, 2], [1, 2, 0], [1, 2, 0], [0, 1, 2]], 3),
    (300, [[(x + 1) % 3 if x < 3 else x for x in range(300)]], 3),
    (4, [[1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]], 4),
])
def test_closure_edge_cases(degree, gens, order):
    """Empty degrees, no generators, identity and repeated generators,
    and points beyond a byte."""
    assert _assert_matches_brute(degree, gens).order == order


def test_closure_cap_is_inclusive(monkeypatch):
    s5 = [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]]
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 120)
    assert from_permutation_generators(5, s5).order == 120
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 119)
    with pytest.raises(CapExceededError):
        from_permutation_generators(5, s5)


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3],
                                  [0, 1, 3]])
def test_closure_rejects_non_permutations(perm):
    with pytest.raises(ValueError, match="is not a permutation of 0..2"):
        from_permutation_generators(3, [[1, 2, 0], perm])


def test_closure_rows_in_one_byte_up_to_256_points():
    g = wreath_cyclic(2, 8)
    assert (g.backing, g.order, g._perms.shape[1]) == \
        ("permutation", 2048, 16)
    assert g._perms.dtype == np.uint8


def test_closure_rows_in_two_bytes_above_256_points():
    """Disjoint 257- and 5-cycles on 262 points generate C257 x C5, of
    order 1285: permutation backed, with uint16 rows.  Bulk products
    are the composed rows' element numbers."""
    long = [(x + 1) % 257 if x < 257 else x for x in range(262)]
    short = [x if x < 257 else 257 + (x - 256) % 5 for x in range(262)]
    g = from_permutation_generators(262, [long, short])
    assert (g.backing, g.order) == ("permutation", 1285)
    assert g._perms.dtype == np.uint16
    number = {tuple(row): e for e, row in enumerate(g._perms.tolist())}
    i, j = np.random.default_rng(11).integers(0, g.order, (2, 3000))
    got = g.products(i, j)
    assert got.tolist() == [number[tuple(g._perms[a][g._perms[b]].tolist())]
                            for a, b in zip(i, j)]


# --- products -------------------------------------------------------------------


def test_product_with_trivial_preserves_structure():
    d8 = dihedral_group(8)
    prod = direct_product(d8, cyclic_group(1))
    assert prod.order == 8
    assert sorted(element_order(prod, x) for x in range(8)) == \
        sorted(element_order(d8, x) for x in range(8))


def test_d8xd8_order():
    d8 = dihedral_group(8)
    assert direct_product(d8, d8).order == 64


def test_d8xd8_derived_type_against_brute_force():
    d8 = dihedral_group(8)
    dd = direct_product(d8, d8)
    derived = brute_commutator_subgroup(dd, range(dd.order))
    assert len(derived) == 4
    sub = Subgroup(dd, derived)
    assert abelian_invariants(sub) == AbelianType((2, 2))


# In D8 as built, 1 and 3 are the rotations of order 4, 2 is their
# square and 4..7 are the reflections.


@pytest.mark.parametrize("members,message", [
    ((0, 1), "subset not closed under inverse at 1"),
    ((3, 0), "subset not closed under inverse at 3"),
])
def test_subset_not_closed_under_inverse(members, message):
    """Each x is checked in turn, its inverse before its products: 1 * 1
    leaves {0, 1} too, but the missing inverse is named."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        Subgroup(dihedral_group(8), members)


@pytest.mark.parametrize("members,message", [
    ((0, 4, 5, 6), r"subset not closed under multiplication at \(4, 5\)"),
    ((0, 2, 3, 4), r"subset not closed under multiplication at \(2, 3\)"),
])
def test_subset_not_closed_under_multiplication(members, message):
    """The first failing pair in row-major order is named; in {0, 2, 3,
    4} it comes before 3, whose inverse 1 is missing."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        Subgroup(dihedral_group(8), members)


def test_semidirect_trivial_action_equals_direct_product():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    trivial_action = [list(range(4)), list(range(4))]
    sd = semidirect_product(c4, c2, trivial_action)
    dp = direct_product(c4, c2)
    assert np.array_equal(sd.dense_table(), dp.dense_table())


def test_semidirect_inversion_is_dihedral():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    sd = semidirect_product(c4, c2, [[0, 1, 2, 3], [0, 3, 2, 1]])
    assert sd.order == 8
    assert [s.order for s in lower_central_series(sd)] == [8, 2, 1]
    assert sorted(element_order(sd, x) for x in range(8)) == \
        sorted(element_order(dihedral_group(8), x) for x in range(8))


def test_semidirect_rejects_non_automorphism():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(NotAutomorphismError):
        semidirect_product(c4, c2, [[0, 1, 2, 3], [0, 2, 1, 3]])


def test_semidirect_rejects_non_homomorphism():
    """x -> 2x is an automorphism of C5 of order 4, so it cannot be the
    image of the order-2 generator of C2: only the (element, generator)
    step check sees that."""
    with pytest.raises(NotHomomorphismError):
        semidirect_product(cyclic_group(5), cyclic_group(2),
                           [[0, 1, 2, 3, 4], [0, 2, 4, 1, 3]])


def _metacyclic(m, k, r):
    """C_m x| C_k with the generator of C_k acting as x -> r x, given by
    its image alone."""
    return semidirect_product(cyclic_group(m), cyclic_group(k),
                              {1: [r * x % m for x in range(m)]})


@pytest.mark.parametrize("m,k,r,p,t", [(16, 4, 5, 2, 5), (27, 3, 10, 3, 4)])
def test_metacyclic_from_generator_image(m, k, r, p, t):
    """Completed from one generator image, C16 x| C4 (x -> 5x) and
    C27 x| C3 (x -> 10x) have cyclic G' of order t - 1, so the upper
    index is maximal, |G'| + 1, on every route."""
    from lienilp.report import analyze

    g = _metacyclic(m, k, r)
    assert g.order == m * k
    rep = analyze(g, p, run_oracle=True)
    assert [term["order"] for term in rep.gamma_series] == [m * k, t - 1, 1]
    assert rep.verdict == "maximal"
    assert rep.oracle.t_upper == rep.t_upper_jennings == t
    assert all(rep.checks.values()), rep.checks


def test_semidirect_generator_image_matches_full_action():
    full = [[pow(5, j, 16) * x % 16 for x in range(16)] for j in range(4)]
    want = semidirect_product(cyclic_group(16), cyclic_group(4), full)
    assert _metacyclic(16, 4, 5).dense_table().tobytes() == \
        want.dense_table().tobytes()


def test_semidirect_rejects_generator_image_of_wrong_order():
    """4 has order 9 mod 27, so x -> 4x is no image of an order-3
    generator: the step that closes the cycle, (2, 1), fails."""
    with pytest.raises(NotHomomorphismError, match=r"pair \(2, 1\)"):
        _metacyclic(27, 3, 4)


@pytest.mark.parametrize("key", [4, -1, "1", 1.0])
def test_semidirect_rejects_bad_action_key(key):
    with pytest.raises(NotHomomorphismError, match="^action key "):
        semidirect_product(cyclic_group(16), cyclic_group(4),
                           {key: [5 * x % 16 for x in range(16)]})


def test_semidirect_identity_must_act_trivially():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(NotHomomorphismError, match=r"pair \(0, 0\)"):
        semidirect_product(c4, c2, {0: [0, 3, 2, 1], 1: [0, 3, 2, 1]})


def _int64_semidirect_table(n, h, action):
    """The table as semidirect_product once built it, from int64 copies
    of both factor tables, with the action completed here: breadth first
    along h's table, x * s acting as x's image after s's."""
    tn = n.dense_table().astype(np.int64)
    th = h.dense_table().astype(np.int64)
    given = action if isinstance(action, dict) else dict(enumerate(action))
    acts = {0: np.arange(n.order)}
    queue = [0]
    for x in queue:
        for s, a in given.items():
            xs = int(th[x, s])
            if xs not in acts:
                acts[xs] = acts[x][np.asarray(a)]
                queue.append(xs)
    assert len(acts) == h.order
    nh = h.order
    table = np.empty((n.order * nh, n.order * nh), dtype=np.int64)
    for j1 in range(nh):
        block = tn[:, acts[j1]][:, :, None] * nh + th[j1][None, None, :]
        table[np.arange(n.order) * nh + j1] = block.reshape(n.order, -1)
    return table


def test_semidirect_table_matches_int64_construction(monkeypatch):
    """The int16 build gives the same table as the int64 one on the two
    catalog semidirect products and on (D8 x C4)^2 x| C2 (order 2048,
    swap action)."""
    from lienilp import catalog as catalog_module
    calls = []
    real = catalog_module.semidirect_product

    def recording(n, h, action, **kwargs):
        calls.append((n, h, action))
        return real(n, h, action, **kwargs)

    monkeypatch.setattr(catalog_module, "semidirect_product", recording)
    fresh = Catalog.load()
    groups_built = [fresh.build("D8sd"), fresh.build("D8wrC2")]
    assert len(calls) == 2
    a = direct_product(dihedral_group(8), cyclic_group(4))
    swap = np.arange(1024).reshape(32, 32).T.reshape(-1)
    calls.append((direct_product(a, a), cyclic_group(2),
                  [np.arange(1024), swap]))
    groups_built.append(semidirect_product(*calls[-1]))
    for g, (n, h, action) in zip(groups_built, calls):
        table = g.dense_table()
        assert table.dtype == np.int16
        assert table.tobytes() == \
            _int64_semidirect_table(n, h, action).astype(np.int16).tobytes()
    assert groups_built[-1].order == 2048


def test_semidirect_of_a_permutation_backed_part(monkeypatch):
    """A normal part that keeps no table gives the same semidirect
    product as its table-backed build: C2wrC4 x| C2, acting by
    conjugation with an involution."""
    def build():
        n = wreath_cyclic(2, 4)
        x, t = np.arange(n.order), n.generators[0]
        conj = n.products(n._inverses[t], n.products(x, t))
        return n, semidirect_product(n, cyclic_group(2), [x, conj])

    n, want = build()
    monkeypatch.setattr(groups, "ORACLE_ORDER_LIMIT", 16)
    perm, got = build()
    assert (n.backing, perm.backing) == ("table", "permutation")
    assert np.array_equal(got.dense_table(), want.dense_table())
    filled = groups._table_from_products(perm)
    assert filled.dtype == np.int16
    assert np.array_equal(filled, n.dense_table())


def test_wreath_orders():
    assert wreath_cyclic(2, 4).order == 64
    assert wreath_cyclic(3, 3).order == 81


def test_wreath_c3c3_class_from_brute_force():
    w = wreath_cyclic(3, 3)
    series = brute_lower_central(w)
    assert [len(s) for s in series] == [81, 9, 3, 1]


def test_wreath_via_generic_semidirect():
    """(C3)^3 with a cyclic coordinate shift acting: order 81, class 3,
    matching the dedicated permutation construction."""
    import itertools
    c3 = cyclic_group(3)
    base = direct_product(direct_product(c3, c3), c3)

    def idx(t):
        return (t[0] * 3 + t[1]) * 3 + t[2]

    shift = [0] * 27
    for t in itertools.product(range(3), repeat=3):
        shift[idx(t)] = idx((t[2], t[0], t[1]))
    acts = {0: list(range(27)), 1: shift,
            2: [shift[x] for x in shift]}
    sd = semidirect_product(base, cyclic_group(3), acts)
    w = wreath_cyclic(3, 3)
    assert sd.order == w.order == 81
    assert [s.order for s in lower_central_series(sd)] == \
        [s.order for s in lower_central_series(w)]
    assert len(lower_central_series(w)) - 1 == 3
    assert sorted(element_order(sd, x) for x in range(81)) == \
        sorted(element_order(w, x) for x in range(81))


def test_product_cap(monkeypatch):
    d8 = dihedral_group(8)
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 32)
    with pytest.raises(CapExceededError):
        direct_product(d8, d8)


def test_direct_product_above_table_limit(built):
    """Products past the table limit are product backed, also over a
    permutation-backed factor; an abelian factor leaves the derived
    structure alone."""
    big = direct_product(built("C5wrC5"), cyclic_group(2))
    assert big.order == 31250 and big.backing == "product"
    assert [s.order for s in lower_central_series(big)] == \
        [31250, 625, 125, 25, 5, 1]


def _nested_product(d8, c2):
    return direct_product(d8, direct_product(quaternion_group8(), c2))


def test_product_backing_matches_table(catalog, monkeypatch):
    """With the table limit forced down, every direct product of the
    catalog (C2xC2xC2 over a product-backed factor) and one product with
    a product-backed right factor multiply, invert, generate and analyse
    exactly as their table-backed builds.  Products are compared over
    every pair, so a factor composed the wrong way round shows (G and
    its opposite group analyse alike)."""
    from lienilp.report import analyze

    names = [e.name for e in catalog.entries if e.kind == "direct_product"]
    d8, c2 = dihedral_group(8), cyclic_group(2)
    tables = [catalog.build(n) for n in names] + [_nested_product(d8, c2)]
    # The cyclic and dihedral factors are built first, at the real
    # limit: their table builders refuse every order above a lowered one.
    fresh = Catalog(catalog.entries)
    for e in catalog.entries:
        if e.kind in ("cyclic", "dihedral"):
            fresh.build(e.name)
    with monkeypatch.context() as m:
        m.setattr(groups, "TABLE_BACKING_LIMIT", 1)
        products = [fresh.build(n) for n in names] + [_nested_product(d8, c2)]
    assert products[-1]._factors[1].backing == "product"
    for name, t, g in zip(names + ["D8x(Q8xC2)"], tables, products):
        assert t.backing == "table" and g.backing == "product", name
        every = np.arange(g.order)
        assert g.products(every[:, None], every).tolist() == \
            t.dense_table().tolist(), name
        assert g._inverses.tolist() == t._inverses.tolist(), name
        assert g.generators == t.generators, name
        for p in (2, 3, 5):
            assert analyze(g, p, name=name, run_oracle=False).to_json_dict() \
                == analyze(t, p, name=name, run_oracle=False).to_json_dict()


def test_table_only_builders_refuse_above_the_table_limit(monkeypatch):
    """semidirect_product and quotient build tables alone: above
    TABLE_BACKING_LIMIT each refuses with the one table message, which
    names the limit; at the limit each builds."""
    c4, c2, d8 = cyclic_group(4), cyclic_group(2), dihedral_group(8)
    invert = [[0, 1, 2, 3], [0, 3, 2, 1]]
    monkeypatch.setattr(groups, "TABLE_BACKING_LIMIT", 4)
    with pytest.raises(CapExceededError, match="^semidirect product order 8 "
                       "is above 4, the largest order built as a table$"):
        semidirect_product(c4, c2, invert)
    with pytest.raises(CapExceededError, match="^quotient order 8 is above "
                       "4, the largest order built as a table$"):
        quotient(d8, trivial_subgroup(d8))
    assert semidirect_product(c2, c2, [[0, 1], [0, 1]]).order == 4
    assert quotient(d8, center(d8)).group.order == 4


# --- element operations ----------------------------------------------------------


def test_commutator_identities():
    d8 = dihedral_group(8)
    for x in range(8):
        assert commutator(d8, x, x) == 0
    c6 = cyclic_group(6)
    assert all(commutator(c6, x, y) == 0
               for x in range(6) for y in range(6))


def test_commutator_in_d8():
    d8 = dihedral_group(8)
    a, b = 1, 4
    assert element_order(d8, a) == 4
    assert element_order(d8, b) == 2
    table = d8.dense_table()
    assert table[table[d8._inverses[b], a], b] == d8._inverses[a]
    assert commutator(d8, a, b) == table[a, a]


# --- subgroups -------------------------------------------------------------------


def test_subgroup_generated_edges():
    d8 = dihedral_group(8)
    assert subgroup_generated(d8, []).members.tolist() == [0]
    assert subgroup_generated(d8, [2]).order == 2
    assert subgroup_generated(d8, range(8)).order == 8


def test_subgroup_members_are_one_sorted_read_only_array():
    """Members are sorted np.intp, and cannot be written; a subgroup
    built from unsorted repeated members equals, and hashes as, the
    generated one."""
    d8 = dihedral_group(8)
    h = subgroup_generated(d8, [2, 4])
    assert h.members.tolist() == [0, 2, 4, 6]
    assert h.members.dtype == np.intp and not h.members.flags.writeable
    with pytest.raises(ValueError):
        h.members[1] = 3
    same = Subgroup(d8, [6, 4, 0, 2, 4])
    assert same == h and hash(same) == hash(h)
    assert same != subgroup_generated(d8, [2])
    # The constructors that pass closed=True hand over sorted, distinct
    # members, which the subgroup keeps as they are, on every backing.
    perm = wreath_cyclic(2, 8)
    backed = (d8, perm, direct_product(perm, cyclic_group(2)))
    assert [g.backing for g in backed] == ["table", "permutation", "product"]
    for g in backed:
        s = g.generators[-1]
        for sub in (trivial_subgroup(g), full_subgroup(g),
                    subgroup_generated(g, [s, s]),
                    groups.normal_closure(g, [s]), center(g)):
            m = sub.members
            assert m.dtype == np.intp and not m.flags.writeable, (g, sub)
            assert np.array_equal(m, np.unique(m)), (g, sub)


def test_subgroup_generated_matches_brute_force():
    q8 = quaternion_group8()
    for seed in ([1], [4], [1, 4], [2]):
        assert frozenset(subgroup_generated(q8, seed).members) == \
            brute_closure(q8, seed)


def test_closures_keep_only_the_seeds_they_need(built):
    """subgroup_generated and normal_closure store the seeds their closure
    kept: each lies outside the subgroup the ones before it generate, and
    together they generate the members.  A generated subgroup keeps a
    subset of its seeds, so the five stored generators of D8wrC2 come
    down to three, while a normal closure keeps conjugates as well."""
    rng = np.random.default_rng(7)
    for name in ("D8", "Q8", "S3", "H27", "C2wrC4", "D8wrC2"):
        g = built(name)
        for seeds in (list(g.generators), list(range(g.order)),
                      rng.integers(0, g.order, 3).tolist()):
            generated = subgroup_generated(g, seeds)
            assert set(generated.generators) <= set(seeds), (name, seeds)
            for sub in (generated, groups.normal_closure(g, seeds)):
                kept = sub.generators
                for k, s in enumerate(kept):
                    assert s not in brute_closure(g, kept[:k]), (name, kept)
                assert brute_closure(g, kept) == frozenset(sub.members)
    d8wr = built("D8wrC2")
    assert len(d8wr.generators) == 5
    assert subgroup_generated(d8wr, d8wr.generators).generators == (1, 2, 8)


def test_commutator_subgroup_against_brute_force(built):
    for name in ("D8", "Q8", "D16", "S3", "C2wrC4"):
        g = built(name)
        got = commutator_subgroup(full_subgroup(g), g)
        want = brute_commutator_subgroup(g, range(g.order))
        assert frozenset(got.members) == want, name


def test_lower_central_series_values(built):
    assert [s.order for s in lower_central_series(built("C4xC2"))] == [8, 1]
    assert [s.order for s in lower_central_series(built("D8"))] == [8, 2, 1]
    w = built("C2wrC4")
    series = lower_central_series(w)
    assert [s.order for s in series] == [64, 8, 4, 2, 1]
    assert abelian_invariants(series[1]) == AbelianType((2, 2, 2))


def test_lower_central_series_matches_brute_force(built):
    for name in ("D8", "Q8", "D16", "S3", "H27"):
        g = built(name)
        got = [frozenset(s.members) for s in lower_central_series(g)]
        assert got == brute_lower_central(g), name


def test_nilpotency_class(built):
    """The class as analyze reports it: the length of the lower central
    series less one, and None when the series stops above 1 (S3)."""
    from lienilp.report import analyze
    for name, cls in (("C4xC2", 1), ("D8", 2), ("C1", 0), ("S3", None)):
        assert analyze(built(name), 2, run_oracle=False).nilpotency_class \
            == cls, name


def test_center(built):
    d8 = built("D8")
    assert center(d8).members.tolist() == [0, 2]
    c6 = cyclic_group(6)
    assert center(c6).order == 6
    assert center(built("C1")).order == 1


def test_quotient():
    d8 = dihedral_group(8)
    q = quotient(d8, full_subgroup(d8))
    assert q.group.order == 1
    q2 = quotient(d8, subgroup_generated(d8, [2]))
    assert q2.group.order == 4
    assert abelian_invariants(full_subgroup(q2.group)) == AbelianType((2, 2))
    with pytest.raises(NotNormalError):
        quotient(d8, subgroup_generated(d8, [4]))


def test_quotient_projection_is_homomorphism():
    d16 = dihedral_group(16)
    n = subgroup_generated(d16, [4])        # central order-2 subgroup
    q = quotient(d16, n)
    proj = q.projection
    table, image = d16.dense_table().tolist(), q.group.dense_table().tolist()
    for x in range(16):
        for y in range(16):
            assert proj[table[x][y]] == image[proj[x]][proj[y]]


def test_gamma_series_descends_and_is_normal(catalog):
    from lienilp.groups import is_normal
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        series = lower_central_series(g)
        for i in range(len(series) - 1):
            assert series[i + 1].order < series[i].order
            assert np.isin(series[i + 1].members, series[i].members).all()
        for term in series:
            assert is_normal(term)[0], entry.name


def test_quotient_series_projects(catalog):
    """The lower central series of G/N is the projected series of G,
    for every catalog group of order <= 128."""
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if g.order > 128:
            continue
        gamma = lower_central_series(g)
        for sub in (center(g), gamma[min(1, len(gamma) - 1)]):
            q = quotient(g, sub)
            assert q.group.order == g.order // sub.order
            got = [frozenset(s.members)
                   for s in lower_central_series(q.group)]
            want = []
            for term in gamma:
                img = frozenset(q.projection[x] for x in term.members)
                if want and want[-1] == img:
                    continue
                want.append(img)
            assert got == want, entry.name


def test_power_subgroup(built):
    c4xc2 = built("C4xC2")
    h = full_subgroup(c4xc2)
    assert power_subgroup(h, 1) == h
    assert power_subgroup(h, 2).order == 2
    e8 = built("C2xC2xC2")
    assert power_subgroup(full_subgroup(e8), 2).order == 1


def test_product_of_subgroups():
    c4xc2 = direct_product(cyclic_group(4), cyclic_group(2))
    a = subgroup_generated(c4xc2, [c4xc2.dense_table()[2, 2]])   # <a^2>
    b = subgroup_generated(c4xc2, [1])                           # <b>
    assert product_of_subgroups(a, trivial_subgroup(c4xc2)) == a
    assert product_of_subgroups(a, b).order == 4
    assert product_of_subgroups(a, a) == a
    d8 = dihedral_group(8)
    refl = subgroup_generated(d8, [4])
    with pytest.raises(NotNormalError):
        product_of_subgroups(refl, trivial_subgroup(d8))
    # Three factors: one closure equals the pairwise fold; every factor
    # is checked, the third too, and all must share one parent.
    c2 = cyclic_group(2)
    c2cube = direct_product(direct_product(c2, c2), c2)
    d8xc2 = direct_product(d8, c2)
    for g, seeds in ((c2cube, (4, 2, 1)), (d8xc2, (4, 1, 2))):
        x, y, z = (subgroup_generated(g, [s]) for s in seeds)
        fold = product_of_subgroups(product_of_subgroups(x, y), z)
        assert product_of_subgroups(x, y, z) == fold
        assert fold.order == 8
    rot = subgroup_generated(d8, [1])
    with pytest.raises(NotNormalError):
        product_of_subgroups(rot, trivial_subgroup(d8), refl)
    with pytest.raises(ValueError):
        product_of_subgroups(rot, rot, trivial_subgroup(c2))


def test_abelian_invariants(built):
    assert abelian_invariants(trivial_subgroup(built("C1"))).factors == ()
    c8 = cyclic_group(8)
    assert abelian_invariants(full_subgroup(c8)).factors == (8,)
    c6 = cyclic_group(6)
    assert abelian_invariants(full_subgroup(c6)).factors == (3, 2)
    w = built("C2wrC4")
    derived = lower_central_series(w)[1]
    assert abelian_invariants(derived).factors == (2, 2, 2)
    with pytest.raises(NotAbelianError):
        abelian_invariants(full_subgroup(built("D8")))


def test_bulk_orders_of_c4096():
    """Exponent and abelian invariants of the full C4096, whose member
    orders step all members through the table at once."""
    full = full_subgroup(cyclic_group(4096))
    assert exponent(full) == 4096
    assert abelian_invariants(full) == AbelianType((4096,))


def _backings(built):
    """A table, a permutation closure (C5wrC5), a product of tables and
    a product whose factor is itself a product over a permutation
    closure."""
    c2 = cyclic_group(2)
    return [built("D8wrC2"), built("C5wrC5"),
            direct_product(built("D8wrC2"), built("C2wrC4")),
            direct_product(c2, direct_product(built("C5wrC5"), c2))]


def _reference_product(g):
    """x, y -> xy from the backing's own data, without ``products``: a
    table entry, the composed permutation rows x(y(.)) looked up among
    the rows, or the factors' references on the codes i * |b| + j."""
    if g.backing == "table":
        rows = g.dense_table().tolist()
        return lambda x, y: rows[x][y]
    if g.backing == "permutation":
        perms = g._perms.tolist()
        number = {tuple(row): e for e, row in enumerate(perms)}
        return lambda x, y: number[tuple(perms[x][k] for k in perms[y])]
    a, b = g._factors
    mul_a, mul_b, n = _reference_product(a), _reference_product(b), b.order
    return lambda x, y: mul_a(x // n, y // n) * n + mul_b(x % n, y % n)


def test_products_match_references(built):
    """products equals the backing's reference pair by pair on every
    backing, past the 4096-row chunk of the permutation lookup, and
    broadcasts its index arrays."""
    rng = np.random.default_rng(3)
    backed = _backings(built)
    assert [g.backing for g in backed] == \
        ["table", "permutation", "product", "product"]
    assert backed[3]._factors[1].backing == "product"
    for g in backed:
        mul = _reference_product(g)
        i, j = rng.integers(0, g.order, (2, 5000)).tolist()
        assert g.products(i, j).tolist() == list(map(mul, i, j)), g.backing
        block = g.products(np.array(i[:7])[:, None], j[:5])
        assert block.tolist() == [[mul(x, y) for y in j[:5]]
                                  for x in i[:7]], g.backing


def test_analyze_above_lowered_limits_matches_tables(monkeypatch):
    """Above lowered table and oracle limits, a product-backed abelian
    group and permutation-backed wreath products analyse as their
    table-backed builds."""
    from lienilp.report import analyze

    def build():
        return [(direct_product(cyclic_group(8), cyclic_group(4)), 2),
                (wreath_cyclic(2, 4), 2), (wreath_cyclic(3, 3), 3)]

    want = [analyze(g, p, run_oracle=False).to_json_dict()
            for g, p in build()]
    monkeypatch.setattr(groups, "TABLE_BACKING_LIMIT", 16)
    monkeypatch.setattr(groups, "ORACLE_ORDER_LIMIT", 16)
    big = build()
    assert [g.backing for g, _ in big] == \
        ["product", "permutation", "permutation"]
    assert [analyze(g, p, run_oracle=False).to_json_dict()
            for g, p in big] == want


def test_closure_above_oracle_limit_analyses_as_its_table(monkeypatch):
    """An order-2048 closure, above ORACLE_ORDER_LIMIT, keeps the
    permutation backing and analyses byte for byte as its table-backed
    build (the limit raised)."""
    import json
    from lienilp.report import analyze
    with monkeypatch.context() as m:
        m.setattr(groups, "ORACLE_ORDER_LIMIT", 4096)
        table = wreath_cyclic(2, 8)
    perm = wreath_cyclic(2, 8)
    assert (table.backing, perm.backing, perm.order) == \
        ("table", "permutation", 2048)
    want = json.dumps(analyze(table, 2, run_oracle=False).to_json_dict())
    assert json.dumps(analyze(perm, 2, run_oracle=False).to_json_dict()) \
        == want


def test_quotient_on_bulk_products(monkeypatch):
    """The quotient of a permutation-backed closure by its centre equals
    the one from its table-backed build; subsets of it are checked for
    closure as on the table."""
    with monkeypatch.context() as m:
        m.setattr(groups, "ORACLE_ORDER_LIMIT", 4096)
        table = wreath_cyclic(2, 8)
    perm = wreath_cyclic(2, 8)
    assert perm.backing == "permutation"
    want = quotient(table, center(table))
    got = quotient(perm, center(perm))
    assert got.group.order == 1024
    assert got.projection == want.projection
    assert got.group.generators == want.group.generators
    assert np.array_equal(got.group.dense_table(), want.group.dense_table())
    assert Subgroup(perm, center(perm).members) == center(perm)
    for members in ([0, perm.generators[1]], range(4)):
        errors = []
        for g in (table, perm):
            with pytest.raises(ValueError) as exc:
                Subgroup(g, members)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def test_direct_product_of_a_permutation_factor(monkeypatch):
    """Within the table limit, a product with a factor that has no table
    gets the product backing, and multiplies and inverts as the table
    built from table-backed factors."""
    with monkeypatch.context() as m:
        m.setattr(groups, "ORACLE_ORDER_LIMIT", 4096)
        table = direct_product(wreath_cyclic(2, 8), cyclic_group(2))
    g = direct_product(wreath_cyclic(2, 8), cyclic_group(2))
    assert (table.backing, g.backing, g.order) == ("table", "product", 4096)
    i, j = np.random.default_rng(5).integers(0, 4096, (2, 5000))
    assert np.array_equal(g.products(i, j), table.products(i, j))
    assert np.array_equal(g._inverses, table._inverses)
    assert g.generators == table.generators


def test_member_orders_once_per_subgroup(monkeypatch):
    """One analyze computes the member orders of each distinct subgroup
    once: exponent and abelian_invariants read the tuple kept on it."""
    from lienilp.report import analyze
    calls = []
    real = groups._member_orders

    def record(h):
        calls.append(h)
        return real(h)
    monkeypatch.setattr(groups, "_member_orders", record)
    analyze(wreath_cyclic(5, 5), 5)
    assert len(calls) == len(set(calls)) > 1
    h = full_subgroup(wreath_cyclic(2, 3))
    assert isinstance(h.member_orders(), tuple)


def test_bulk_orders_match_element_order(catalog, built):
    """Bulk member orders equal element_order, member by member, on
    every table-backed catalog group and its derived subgroup, and on
    sampled members of the permutation- and product-backed groups of
    test_products_match_references."""
    checked = 0
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if g.backing != "table":
            continue
        for h in (full_subgroup(g), *lower_central_series(g)[1:2]):
            want = [element_order(g, x) for x in h.members]
            assert groups._member_orders(h) == want, entry.name
            assert exponent(h) == np.lcm.reduce(want), entry.name
        checked += 1
    assert checked > 20
    rng = np.random.default_rng(7)
    for g in _backings(built)[1:]:
        # Members of g: the order of g stands in for that of a subgroup.
        members = [0, *rng.choice(g.order, 300, replace=False).tolist()]
        sample = SimpleNamespace(parent=g, members=members, order=g.order)
        assert groups._member_orders(sample) == \
            [element_order(g, x) for x in members], g.backing


def test_exponent_element_order_p_group(built):
    assert exponent(trivial_subgroup(built("C1"))) == 1
    assert exponent(full_subgroup(built("C4xC2"))) == 4
    d8 = built("D8")
    sub = subgroup_generated(d8, [2])
    assert is_p_group(sub, 2)
    assert not is_p_group(sub, 3)
    assert element_order(d8, 0) == 1


# --- global axioms ------------------------------------------------------------


def test_group_axioms_exhaustive(catalog):
    """Associativity, identity, inverses on all triples/pairs for every
    table-backed catalog group up to order 512."""
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        if g.order > 512 or g.backing != "table":
            continue
        t = g.dense_table().astype(np.int64)
        n = g.order
        assert np.array_equal(t[0], np.arange(n)), entry.name
        assert np.array_equal(t[:, 0], np.arange(n)), entry.name
        block = max(1, (1 << 22) // (n * n))
        for start in range(0, n, block):
            rows = t[start:start + block]
            left = t[rows.reshape(-1), :].reshape(rows.shape[0], n, n)
            right = rows[:, t.reshape(-1)].reshape(rows.shape[0], n, n)
            assert np.array_equal(left, right), entry.name
        inv = g._inverses
        assert not t[np.arange(n), inv].any(), entry.name
        assert not t[inv, np.arange(n)].any(), entry.name


def _check_axioms_sampled(g):
    i, j, k = np.random.default_rng(7).integers(0, g.order, (3, 200))
    mul = g.products
    assert np.array_equal(mul(mul(i, j), k), mul(i, mul(j, k)))
    assert not mul(i, g._inverses[i]).any()
    assert not mul(g._inverses[i], i).any()
    assert np.array_equal(mul(0, i), i) and np.array_equal(mul(i, 0), i)


def test_permutation_backing_axioms_sampled(catalog):
    g = catalog.build("C5wrC5")
    assert g.backing == "permutation"
    _check_axioms_sampled(g)


def test_mixed_product_backing_axioms_sampled(built):
    g = direct_product(built("C5wrC5"), cyclic_group(2))
    assert g.backing == "product"
    _check_axioms_sampled(g)

"""Group construction, subgroup machinery, and structural invariants."""

import numpy as np
import pytest

from conftest import brute_closure, brute_commutator_subgroup, \
    brute_lower_central, brute_permutation_closure

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
    NotNilpotentError,
    NotNormalError,
)
from lienilp.groups import (
    AbelianType,
    Subgroup,
    abelian_invariants,
    center,
    commutator,
    commutator_subgroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    element_order,
    exponent,
    from_multiplication_table,
    from_permutation_generators,
    full_subgroup,
    is_abelian_subgroup,
    is_p_group,
    lower_central_series,
    nilpotency_class,
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
    assert g.multiply(0, 0) == 0


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
    """Light's test receives all of the greedy generators, and their
    left-normed products reach every element: the condition under which
    it proves associativity.  A single corrupted entry fails for some
    one generator, so test_every_corrupted_entry_rejected cannot see a
    check that drops generators."""
    received = []
    light = groups._check_associative_light

    def record(table, gens):
        received.append(tuple(gens))
        return light(table, gens)

    monkeypatch.setattr(groups, "_check_associative_light", record)
    table = built(name).dense_table().astype(np.int64)
    from_multiplication_table(table)
    gens = groups._greedy_generators(table)
    assert received == [gens]
    assert groups._table_closure(table, gens).all()


def test_light_checks_past_the_first_generator():
    """x o y = x + y + x1 y1 y2 e3 on GF(2)^3 (element 4 x1 + 2 x2 + x3)
    is a loop, not a group.  Its first greedy generator e3 associates
    with everything, and the second, e2, fails at (e1, e2, e1)."""
    bits = [(x >> 2 & 1, x >> 1 & 1) for x in range(8)]
    table = [[x ^ y ^ (bits[x][0] & bits[y][0] & bits[y][1])
              for y in range(8)] for x in range(8)]
    assert groups._greedy_generators(np.array(table)) == (1, 2, 4)
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
    assert g.multiply(0, 3) == 3
    assert sorted(element_order(g, x) for x in range(4)) == [1, 2, 4, 4]


def test_table_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 1)
    with pytest.raises(CapExceededError):
        from_multiplication_table([[0, 1], [1, 0]])


# --- from_permutation_generators ------------------------------------------------


def test_empty_generators_trivial():
    g = from_permutation_generators(3, [])
    assert g.order == 1


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
    assert isinstance(g._perms, np.ndarray) and g._perms.dtype == np.int32
    assert g._perms.tolist() == [list(e) for e in elements]
    if table is not None:
        assert [[g.multiply(i, j) for j in range(g.order)]
                for i in range(g.order)] == table.tolist()
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
    """Forced to the permutation backing, the table-backed catalog
    closures keep the same element order and inverses (C5wrC5, already
    permutation backed, is checked above)."""
    calls = [(d, gens) for d, gens
             in _recorded_permutation_builds(catalog, monkeypatch) if d < 25]
    assert len(calls) == 2
    with monkeypatch.context() as m:
        m.setattr(groups, "TABLE_BACKING_LIMIT", 1)
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
    assert nilpotency_class(sd) == 2
    assert sorted(element_order(sd, x) for x in range(8)) == \
        sorted(element_order(dihedral_group(8), x) for x in range(8))


def test_semidirect_rejects_non_automorphism():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    with pytest.raises(NotAutomorphismError):
        semidirect_product(c4, c2, [[0, 1, 2, 3], [0, 2, 1, 3]])


def test_semidirect_rejects_non_homomorphism():
    c4 = cyclic_group(4)
    # order-4 automorphism assigned to an order-2 element
    c2 = cyclic_group(2)
    alpha = [0, 2, 3, 1]
    with pytest.raises((NotHomomorphismError, NotAutomorphismError)):
        semidirect_product(c4, c2, [[0, 1, 2, 3], alpha])


def _int64_semidirect_table(n, h, action):
    """The table as semidirect_product used to build it: int64 copies of
    both factor tables and an int64 result, cast to int32 at the end."""
    tn = n.dense_table().astype(np.int64)
    th = h.dense_table().astype(np.int64)
    acts = [np.asarray(action[j], dtype=np.int64) for j in range(h.order)]
    nh = h.order
    table = np.empty((n.order * nh, n.order * nh), dtype=np.int64)
    for j1 in range(nh):
        block = tn[:, acts[j1]][:, :, None] * nh + th[j1][None, None, :]
        table[np.arange(n.order) * nh + j1] = block.reshape(n.order, -1)
    return table.astype(np.int32)


def test_semidirect_table_matches_int64_construction(monkeypatch):
    """The int32 build gives the same table as the int64 one on the two
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
        assert table.dtype == np.int32
        assert table.tobytes() == \
            _int64_semidirect_table(n, h, action).tobytes()
    assert groups_built[-1].order == 2048


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
    assert nilpotency_class(sd) == nilpotency_class(w) == 3
    assert [s.order for s in lower_central_series(sd)] == \
        [s.order for s in lower_central_series(w)]
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


def _nested_product():
    return direct_product(dihedral_group(8),
                          direct_product(quaternion_group8(), cyclic_group(2)))


def test_product_backing_matches_table(catalog, monkeypatch):
    """With the table limit forced down, every direct product of the
    catalog (C2xC2xC2 over a product-backed factor) and one product with
    a product-backed right factor multiply, invert, generate and analyse
    exactly as their table-backed builds."""
    from lienilp.report import analyze

    names = [e.name for e in catalog.entries if e.kind == "direct_product"]
    tables = [catalog.build(n) for n in names] + [_nested_product()]
    with monkeypatch.context() as m:
        m.setattr(groups, "TABLE_BACKING_LIMIT", 1)
        fresh = Catalog(catalog.entries)
        products = [fresh.build(n) for n in names] + [_nested_product()]
    assert products[-1]._factors[1].backing == "product"
    for name, t, g in zip(names + ["D8x(Q8xC2)"], tables, products):
        assert t.backing == "table" and g.backing == "product", name
        n = g.order
        assert [[g.multiply(i, j) for j in range(n)] for i in range(n)] == \
            t.dense_table().tolist(), name
        assert [g.inverse(i) for i in range(n)] == \
            [t.inverse(i) for i in range(n)], name
        assert g.generators == t.generators, name
        for p in (2, 3, 5):
            assert analyze(g, p, name=name, run_oracle=False).to_json_dict() \
                == analyze(t, p, name=name, run_oracle=False).to_json_dict()


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
    assert d8.conjugate(a, b) == d8.inverse(a)
    assert commutator(d8, a, b) == d8.multiply(a, a)


# --- subgroups -------------------------------------------------------------------


def test_subgroup_generated_edges():
    d8 = dihedral_group(8)
    assert subgroup_generated(d8, []).members == (0,)
    assert subgroup_generated(d8, [2]).order == 2
    assert subgroup_generated(d8, range(8)).order == 8


def test_subgroup_generated_matches_brute_force():
    q8 = quaternion_group8()
    for seed in ([1], [4], [1, 4], [2]):
        assert frozenset(subgroup_generated(q8, seed).members) == \
            brute_closure(q8, seed)


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
    assert nilpotency_class(built("C4xC2")) == 1
    assert nilpotency_class(built("D8")) == 2
    assert nilpotency_class(built("C1")) == 0
    with pytest.raises(NotNilpotentError):
        nilpotency_class(built("S3"))


def test_center(built):
    d8 = built("D8")
    assert center(d8).members == (0, 2)
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
    for x in range(16):
        for y in range(16):
            assert proj[d16.multiply(x, y)] == \
                q.group.multiply(proj[x], proj[y])


def test_gamma_series_descends_and_is_normal(catalog):
    from lienilp.groups import is_normal
    for entry in catalog.entries:
        g = catalog.build(entry.name)
        series = lower_central_series(g)
        for i in range(len(series) - 1):
            assert series[i + 1].member_set() < series[i].member_set()
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
    a = subgroup_generated(c4xc2, [c4xc2.multiply(2, 2)])   # <a^2>
    b = subgroup_generated(c4xc2, [1])                      # <b>
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
        for i in range(n):
            j = g.inverse(i)
            assert g.multiply(i, j) == 0 and g.multiply(j, i) == 0


def _check_axioms_sampled(g):
    import random
    rng = random.Random(7)
    for _ in range(200):
        i, j, k = (rng.randrange(g.order) for _ in range(3))
        assert g.multiply(g.multiply(i, j), k) == \
            g.multiply(i, g.multiply(j, k))
        assert g.multiply(i, g.inverse(i)) == 0
        assert g.multiply(0, i) == i == g.multiply(i, 0)


def test_permutation_backing_axioms_sampled(catalog):
    g = catalog.build("C5wrC5")
    assert g.backing == "permutation"
    _check_axioms_sampled(g)


def test_mixed_product_backing_axioms_sampled(built):
    g = direct_product(built("C5wrC5"), cyclic_group(2))
    assert g.backing == "product"
    _check_axioms_sampled(g)

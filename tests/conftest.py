"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the package's own algorithms:
closures iterate all pairwise products to a fixed point, and commutator
subgroups enumerate every commutator pair, so they stay independent of
the generator-based implementations they check; element orders step one
product at a time.  Each reference multiplies one pair at a time, read
from the dense table where the group has one and otherwise from one
``products`` call per pair, and inverts through ``_inverses``.  The
permutation closure multiplies one element by one generator at a time
in pure Python.  The group-algebra reference multiplies by the convolution
definition in Python integers (exact at every p), closes ideals under
every delta_g and brackets against every delta_g, with its own row
reduction.  The reference echelon takes one pivot at a time, exactly,
with none of the chunks or rounds of the kernel it checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from lienilp.acceptance import analyze_catalog
from lienilp.catalog import Catalog
from lienilp.groups import FiniteGroup
from lienilp.oracle import DEFAULT_ORACLE_CAP, FpSubspace


def scalar_product(g: FiniteGroup):
    """x, y -> xy for one pair of element indices: a dense-table entry,
    or one ``products`` call where the group has no table."""
    if g.backing == "table":
        table = g.dense_table()
        return lambda x, y: int(table[x, y])
    return lambda x, y: int(g.products(x, y))


def brute_closure(g: FiniteGroup, seed) -> frozenset[int]:
    """Fixed point of taking all pairwise products, starting from the
    seed plus the identity."""
    mul = scalar_product(g)
    current = frozenset(seed) | {0}
    while True:
        nxt = current | {mul(x, y) for x in current for y in current}
        if nxt == current:
            return current
        current = nxt


def element_order(g: FiniteGroup, x: int) -> int:
    """Order of x by scalar products, one power at a time."""
    mul = scalar_product(g)
    k, cur = 1, x
    while cur != 0:
        cur = mul(cur, x)
        k += 1
    return k


def brute_commutator_subgroup(g: FiniteGroup, h_members) -> frozenset[int]:
    """Closure of every commutator (x, y) with x in h, y anywhere."""
    mul, inv = scalar_product(g), g._inverses.tolist()
    comms = {mul(mul(inv[x], inv[y]), mul(x, y))
             for x in h_members for y in range(g.order)}
    return brute_closure(g, comms)


def brute_lower_central(g: FiniteGroup) -> list[frozenset[int]]:
    series = [frozenset(range(g.order))]
    while True:
        nxt = brute_commutator_subgroup(g, series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)
        if len(nxt) == 1:
            return series


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a . b)(x) = a(b(x)); the product 'apply b, then a'."""
    return tuple(map(a.__getitem__, b))


def brute_permutation_closure(degree: int, generators, *, table: bool = True):
    """Close permutations one product at a time, numbering each element
    when first found as e * g (e, then g, in order); fill the dense
    table column by column and invert each permutation on its own.

    Returns (elements, generator indices, table or None, inverses)."""
    ident = tuple(range(degree))
    gens: list[tuple[int, ...]] = []
    for g in generators:
        p = tuple(int(x) for x in g)
        if p != ident and p not in gens:
            gens.append(p)
    elements = [ident]
    index = {ident: 0}
    words = [(-1, -1)]  # (parent index, generator slot)
    frontier = [0]
    while frontier:
        nxt = []
        for ei in frontier:
            for gi, gp in enumerate(gens):
                prod = _compose(elements[ei], gp)
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    words.append((ei, gi))
                    nxt.append(index[prod])
        frontier = nxt
    n = len(elements)
    inverses = []
    for p in elements:
        q = [0] * degree
        for a, b in enumerate(p):
            q[b] = a
        inverses.append(index[tuple(q)])
    gen_indices = tuple(index[g] for g in gens)
    if not table:
        return elements, gen_indices, None, inverses
    # Each element e was found as parent * g, so T[:, e] = T[T[:, parent], g].
    t = np.empty((n, n), dtype=np.int32)
    t[:, 0] = np.arange(n)
    gen_cols = {}
    for gi, gp in enumerate(gens):
        gen_cols[gi] = np.fromiter(
            (index[_compose(elements[i], gp)] for i in range(n)),
            count=n, dtype=np.int32)
        t[:, index[gp]] = gen_cols[gi]
    for e in range(1, n):
        parent, gi = words[e]
        if elements[e] not in gens:
            t[:, e] = gen_cols[gi][t[:, parent]]
    return elements, gen_indices, t, inverses


def brute_delta(g: FiniteGroup, h: int) -> np.ndarray:
    """The basis element delta_h of KG."""
    v = np.zeros(g.order, dtype=np.int64)
    v[h] = 1
    return v


def brute_multiply(g: FiniteGroup, p: int, x, y) -> np.ndarray:
    """Convolution product in GF(p)G, (xy)_k = sum over uv = k of
    x_u y_v, over every pair of nonzero coefficients."""
    mul = scalar_product(g)
    out = [0] * g.order
    xs = [(u, int(c) % p) for u, c in enumerate(x) if int(c) % p]
    ys = [(v, int(c) % p) for v, c in enumerate(y) if int(c) % p]
    for u, a in xs:
        for v, b in ys:
            k = mul(u, v)
            out[k] = (out[k] + a * b) % p
    return np.array(out)


def brute_bracket(g: FiniteGroup, p: int, x, y) -> np.ndarray:
    """[x, y] = xy - yx."""
    return (brute_multiply(g, p, x, y) - brute_multiply(g, p, y, x)) % p


def brute_rref(rows, p: int, width: int) -> np.ndarray:
    """Reduced row echelon basis over GF(p), one column sweep at a time."""
    m = np.array(rows, dtype=np.int64).reshape(-1, width) % p
    r = 0
    for c in range(width):
        if r == m.shape[0]:
            break
        nz = np.flatnonzero(m[r:, c])
        if nz.size == 0:
            continue
        lead = r + nz[0]
        m[[r, lead]] = m[[lead, r]]
        m[r] = m[r] * pow(int(m[r, c]), p - 2, p) % p
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        r += 1
    return m[:r]


def reference_echelon(rows, p: int, width: int) -> FpSubspace:
    """The span of the rows as an FpSubspace, reduced one pivot at a
    time: take the row with the leftmost leading entry, scale it to a
    leading 1 and clear its column from the other rows; then clear each
    pivot column from the rows found before it, last pivot first.  It
    runs in int64 while a product of residues fits, in Python ints
    beyond."""
    dtype = np.int64 if p < 2 ** 31 else object
    c = np.array(rows, dtype=object).reshape(-1, width) % p
    c = c.astype(dtype)
    c = c[c.any(axis=1)]
    found, cols = [], []
    while c.shape[0]:
        lead = (c != 0).argmax(axis=1)
        pick = int(lead.argmin())
        col = int(lead[pick])
        row = c[pick] * pow(int(c[pick, col]), p - 2, p) % p
        c = (c - np.outer(c[:, col], row)) % p
        c = c[c.any(axis=1)]
        found.append(row)
        cols.append(col)
    basis = np.array(found, dtype=dtype).reshape(-1, width)
    for j in range(len(cols) - 1, 0, -1):
        basis[:j] = (basis[:j] - np.outer(basis[:j, cols[j]], basis[j])) % p
    space = FpSubspace(p, width)
    space.basis = basis.astype(space.work)
    space.pivots = np.array(cols, dtype=np.intp)
    space.free = np.setdiff1d(space.free, cols)
    return space


def _brute_perms(g: FiniteGroup) -> tuple[list, list]:
    """Coordinate permutations of x -> delta_h x and x -> x delta_h for
    every h: coordinate k of the image reads h^-1 k, resp. k h^-1."""
    n, mul, inv = g.order, scalar_product(g), g._inverses.tolist()
    left = [[mul(inv[h], k) for k in range(n)] for h in range(n)]
    right = [[mul(k, inv[h]) for k in range(n)] for h in range(n)]
    return left, right


def brute_ideal_closure(g: FiniteGroup, p: int, rows) -> np.ndarray:
    """Row span closed under left and right multiplication by every
    delta_h, grown to a fixed point."""
    left, right = _brute_perms(g)
    basis = brute_rref(rows, p, g.order)
    while True:
        images = [basis[:, perm] for perm in left + right]
        grown = brute_rref(np.vstack([basis] + images), p, g.order)
        if grown.shape[0] == basis.shape[0]:
            return grown
        basis = grown


def brute_brackets(g: FiniteGroup, p: int, basis) -> np.ndarray:
    """Every [b, delta_h] = b delta_h - delta_h b for basis rows b."""
    left, right = _brute_perms(g)
    return np.vstack([np.zeros((0, g.order), dtype=np.int64)]
                     + [(basis[:, right[h]] - basis[:, left[h]]) % p
                        for h in range(g.order)])


def brute_lower_spans(g: FiniteGroup, p: int,
                      max_steps: int = 64) -> list[np.ndarray]:
    """Bases of the lower Lie powers of a Lie nilpotent KG as spans:
    KG, then the span of every [b, delta_h] for b in the one before,
    down to 0."""
    spans = [np.eye(g.order, dtype=np.int64)]
    while spans[-1].shape[0] and len(spans) <= max_steps:
        spans.append(brute_rref(brute_brackets(g, p, spans[-1]), p,
                                g.order))
    return spans


def brute_lie_chains(g: FiniteGroup, p: int, max_steps: int = 64):
    """Upper dims, lower (ideal) dims, direct dimension subgroup orders
    and lower span dims of a Lie nilpotent KG, each straight from its
    all-elements definition."""
    n = g.order
    full = np.eye(n, dtype=np.int64)
    upper = [full]
    while upper[-1].shape[0] and len(upper) <= max_steps:
        upper.append(brute_ideal_closure(
            g, p, brute_brackets(g, p, upper[-1])))
    direct = []
    for term in upper:
        members = sum(
            brute_rref(np.vstack([term, full[h] - full[0]]), p, n).shape[0]
            == term.shape[0] for h in range(n))
        direct.append(members)
        if members == 1:
            break
    spans = brute_lower_spans(g, p, max_steps)
    lower = [n] + [brute_ideal_closure(g, p, span).shape[0]
                   for span in spans[1:]]
    return ([t.shape[0] for t in upper], lower, direct,
            [span.shape[0] for span in spans])


@pytest.fixture(scope="session")
def catalog() -> Catalog:
    return Catalog.load()


@pytest.fixture(scope="session")
def built(catalog):
    def _build(name: str) -> FiniteGroup:
        return catalog.build(name)
    return _build


@pytest.fixture(scope="session")
def catalog_reports(catalog):
    """Every shipped entry analysed at p = 2, 3, 5 with the CLI defaults
    (oracle up to order DEFAULT_ORACLE_CAP, 512), keyed by (name, p);
    the acceptance criteria read the same reports."""
    return analyze_catalog(catalog, DEFAULT_ORACLE_CAP)

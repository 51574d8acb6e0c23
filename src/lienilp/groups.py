"""Finite group arithmetic on integer element indices.

Every group enumerates its elements as 0..order-1 with the identity at
index 0.  Small groups carry a dense int16 multiplication table.  Larger ones
have one of two backings: a permutation closure (built a breadth-first
level at a time) stores each element as a permutation of a finite set
and multiplies by composition and an index lookup; a direct product
stores its two factors and multiplies componentwise on the codes
i * |b| + j.  Groups and subgroups are immutable after construction, so
all operations here are pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    NoIdentityError,
    NoInverseError,
    NotAbelianError,
    NotAssociativeError,
    NotAutomorphismError,
    NotHomomorphismError,
    NotNilpotentError,
    NotNormalError,
)

DEFAULT_ORDER_CAP = 65536
TABLE_BACKING_LIMIT = 4096
# The one dtype of dense tables: entries lie below the order, and order <=
# TABLE_BACKING_LIMIT <= 2**15, so int16 holds them at half int32's bytes.
TABLE_DTYPE = np.int16


def _check_cap(order: int, what: str) -> None:
    """Refuse an order above DEFAULT_ORDER_CAP, read at each call."""
    if order > DEFAULT_ORDER_CAP:
        raise CapExceededError(
            f"{what} {order} exceeds cap {DEFAULT_ORDER_CAP}")


def _check_table(order: int, what: str) -> None:
    """Refuse a dense table above TABLE_BACKING_LIMIT before any array
    of it is built."""
    _check_cap(order, what)
    if order > TABLE_BACKING_LIMIT:
        raise CapExceededError(
            f"{what} {order} is above {TABLE_BACKING_LIMIT}, the largest "
            f"order built as a table")


class FiniteGroup:
    """A finite group on element indices.

    Do not call the constructor directly; use the module-level builders
    (``from_multiplication_table``, ``from_permutation_generators``,
    ``cyclic_group``, ...) which validate their input.
    """

    __slots__ = ("order", "generators",
                 "_table", "_perms", "_perm_index", "_factors", "_inverses")

    def __init__(self, *, table=None, perms=None, perm_index=None,
                 factors=None, generators=(), inverses=None):
        self._table = None
        self._perms = None
        self._perm_index = None
        self._factors = None
        if table is not None:
            self._table = np.ascontiguousarray(table, dtype=TABLE_DTYPE)
            self.order = int(self._table.shape[0])
            if inverses is None:
                # Each row is a permutation, so its 0 is its minimum.
                inverses = self._table.argmin(axis=1)
        elif factors is not None:
            a, b = self._factors = tuple(factors)
            self.order = a.order * b.order
            inverses = (a._inverses.astype(np.int64)[:, None] * b.order
                        + b._inverses[None, :]).reshape(-1)
        else:  # int32 rows and the closure's index keyed by their bytes
            self._perms, self._perm_index = perms, perm_index
            self.order = len(perms)
        self._inverses = np.asarray(inverses, dtype=np.int32)
        self.generators = tuple(int(x) for x in generators)

    @property
    def backing(self) -> str:
        if self._table is not None:
            return "table"
        return "product" if self._factors is not None else "permutation"

    def multiply(self, i: int, j: int) -> int:
        if self._table is not None:
            return int(self._table[i, j])
        if self._factors is not None:
            a, b = self._factors
            ia, ib = divmod(i, b.order)
            ja, jb = divmod(j, b.order)
            return a.multiply(ia, ja) * b.order + b.multiply(ib, jb)
        return self._perm_index[self._perms[i].take(self._perms[j]).tobytes()]

    def inverse(self, i: int) -> int:
        return int(self._inverses[i])

    def power(self, x: int, k: int) -> int:
        result, base = 0, x
        while k:
            if k & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            k >>= 1
        return result

    def conjugate(self, x: int, t: int) -> int:
        """t^-1 * x * t."""
        return self.multiply(self.inverse(t), self.multiply(x, t))

    def dense_table(self) -> np.ndarray:
        if self._table is None:
            raise CapExceededError(
                f"no dense multiplication table for a {self.backing}-backed "
                f"group of order {self.order}")
        return self._table

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, backing={self.backing!r})"


class Subgroup:
    """An element-index subset of a parent group, closed under its operations."""

    __slots__ = ("parent", "members", "generators", "_member_set")

    def __init__(self, parent: FiniteGroup, members: Iterable[int],
                 generators: Iterable[int] = (), *, closed: bool = False):
        mem = tuple(sorted({int(x) for x in members}))
        self.parent = parent
        self.members = mem
        gens = tuple(int(x) for x in generators)
        self.generators = gens if gens else tuple(x for x in mem if x != 0)
        self._member_set = frozenset(mem)
        if not mem or mem[0] != 0:
            raise ValueError("subgroup must contain the identity (index 0)")
        if parent.order % len(mem) != 0:
            raise ValueError(
                f"subset of size {len(mem)} cannot be a subgroup of a group "
                f"of order {parent.order}")
        if not closed:
            # The first failing x names its inverse before its products.
            m = np.array(mem)
            bad_inv = ~np.isin(parent._inverses[m], m)
            bad_mul = ~np.isin(parent.dense_table()[np.ix_(m, m)], m)
            bad = np.flatnonzero(bad_inv | bad_mul.any(axis=1))
            if bad.size:
                x = bad[0]
                if bad_inv[x]:
                    raise ValueError(
                        f"subset not closed under inverse at {mem[x]}")
                raise ValueError(
                    f"subset not closed under multiplication at "
                    f"({mem[x]}, {mem[bad_mul[x].argmax()]})")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def member_set(self) -> frozenset[int]:
        return self._member_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.order})"


@dataclass(frozen=True)
class AbelianType:
    """Isomorphism type of a finite abelian group: non-increasing prime powers."""

    factors: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for f in self.factors:
            if f < 2 or not _is_prime_power(f):
                raise ValueError(f"{f} is not a prime power > 1")
            if prev is not None and f > prev:
                raise ValueError("factors must be non-increasing")
            prev = f

    @property
    def order(self) -> int:
        return math.prod(self.factors) if self.factors else 1


@dataclass(frozen=True)
class Quotient:
    """A quotient group together with the element-index projection map."""

    group: FiniteGroup
    projection: tuple[int, ...]


# --------------------------------------------------------------------------
# small number-theory helpers
# --------------------------------------------------------------------------


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases.

    Exact for n < 3.3e24; above that a strong probable-prime test.
    Unlike trial division it stays fast for primes such as 2^61 - 1.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_power(n: int) -> bool:
    return len(_factorize(n)) == 1 if n > 1 else False


def _p_log(n: int, p: int) -> int | None:
    """Exact base-p logarithm of n, or None when n is not a power of p."""
    if p < 2 or n < 1:
        raise ValueError(f"no base-{p} logarithm of {n}: need p >= 2, n >= 1")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


# --------------------------------------------------------------------------
# table validation
# --------------------------------------------------------------------------


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    raise NoIdentityError()


def _table_closure(table: np.ndarray, gens: Sequence[int]) -> np.ndarray:
    """Mask of the elements reached from the identity by right
    multiplication with the generators, a breadth-first level at a
    time: the left-normed products of generators."""
    mask = np.zeros(table.shape[0], dtype=bool)
    mask[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    gens = np.asarray(gens, dtype=np.intp)
    while frontier.size and gens.size:
        prods = np.unique(table[np.ix_(frontier, gens)])
        frontier = prods[~mask[prods]]
        mask[frontier] = True
    return mask


def _greedy_generators(table: np.ndarray) -> tuple[int, ...]:
    """Add the least element not yet reached until the left-normed
    products of the generators reach every element."""
    gens: list[int] = []
    covered = _table_closure(table, gens)
    while not covered.all():
        gens.append(int(covered.argmin()))
        covered = _table_closure(table, gens)
    return tuple(gens)


def _check_associative_light(table: np.ndarray,
                             gens: Sequence[int]) -> None:
    """Light's test: (as)b == a(sb) for every generator s and all a, b.

    The s passing it form a set closed under products: for s, t in it,
    (a(st))b = ((as)t)b = (as)(tb) = a(s(tb)) = a((st)b).  So when the
    left-normed products of the generators reach every element, as
    ``_greedy_generators`` makes them, the test proves associativity."""
    for s in gens:
        left = table[:, table[s, :]]
        right = table[table[:, s], :]
        if not np.array_equal(left, right):
            a, b = np.argwhere(left != right)[0]
            raise NotAssociativeError(int(a), int(s), int(b))


def from_multiplication_table(table) -> FiniteGroup:
    """Validate a square multiplication table and wrap it as a group.

    The identity is relocated to index 0 when necessary.  Raises
    NotAssociativeError / NoIdentityError / NoInverseError naming the
    violating triple or element, and CapExceededError for more than
    TABLE_BACKING_LIMIT rows, before any array of the table is built.
    """
    _check_table(len(table), "table order")
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("multiplication table must be square")
    n = t.shape[0]
    if n == 0:
        raise ValueError("multiplication table must be nonempty")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("table entries must lie in [0, order)")
    # In range, so TABLE_DTYPE holds every entry: each step below, and
    # the group, work on this one copy.
    t = t.astype(TABLE_DTYPE)

    e = _find_identity(t)
    if e != 0:
        perm = np.arange(n, dtype=TABLE_DTYPE)
        perm[0], perm[e] = e, 0
        t = perm[t[np.ix_(perm, perm)]]

    gens = _greedy_generators(t)
    _check_associative_light(t, gens)

    # A finite monoid now: the first 0 of a row is a two-sided inverse.
    inverses = t.argmin(axis=1)
    idx = np.arange(n)
    bad = (t[idx, inverses] != 0) | (t[inverses, idx] != 0)
    if bad.any():
        raise NoInverseError(int(bad.argmax()))
    return FiniteGroup(table=t, generators=gens, inverses=inverses)


# --------------------------------------------------------------------------
# permutation closure
# --------------------------------------------------------------------------


def from_permutation_generators(degree: int, generators) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition.

    Element 0 is the identity and elements 1..k are the generators, less
    the identity and repeats; the closure goes on breadth first, each
    element numbered as first found as e * g, e in order, then g in
    order.  Groups whose order stays within TABLE_BACKING_LIMIT are
    materialised as dense tables; bigger closures keep the permutation
    backing: the int32 rows and one index keyed by their bytes.
    """
    if degree < 0:
        raise ValueError(f"permutation degree {degree} is negative")
    gens: list[list[int]] = []
    for g in generators:
        p = [int(x) for x in g]
        # The length first: a generator of another length builds nothing
        # of size degree.
        if len(p) != degree or sorted(p) != list(range(degree)):
            raise ValueError(
                f"{tuple(p)} is not a permutation of 0..{degree - 1}")
        if p != sorted(p) and p not in gens:
            gens.append(p)
    if not gens:  # no generators but the identity, or no points
        return FiniteGroup(table=[[0]])
    k = len(gens)
    gen_arr = np.array(gens, dtype=np.int32).reshape(k, degree)
    width = np.dtype((np.void, 4 * degree))
    levels = [np.arange(degree, dtype=np.int32)[None]]
    index = {levels[0].tobytes(): 0}

    def number(rows):
        """Element numbers of the rows, keyed by their bytes, new rows
        next; keys are made 4096 rows at a time to bound their memory."""
        keys = (key for i in range(0, len(rows), 4096)
                for key in rows[i:i + 4096].view(width).ravel().tolist())
        return np.fromiter((index.setdefault(key, len(index))
                            for key in keys), np.int64, len(rows))

    # One level at once: row r * k + j of frontier[:, gen_arr] is e . g,
    # x -> e(g(x)), for frontier element r and generator j.  Element e was
    # first found as element found[e] // k times generator found[e] % k.
    found = [np.zeros(1, np.int64)]
    while len(levels[-1]):
        frontier, seen = levels[-1], len(index)
        prods = frontier[:, gen_arr].reshape(len(frontier) * k, degree)
        nums, first = np.unique(number(prods), return_index=True)
        _check_cap(len(index), "permutation closure order")
        fresh = first[nums >= seen]
        found.append((seen - len(frontier)) * k + fresh)
        levels.append(prods[fresh])
    perms = np.concatenate(levels)
    del levels
    n = len(perms)
    inverses = np.empty_like(perms)
    inverses[np.arange(n)[:, None], perms] = np.arange(degree)
    inverses = number(inverses)
    if n > TABLE_BACKING_LIMIT:
        return FiniteGroup(perms=perms, perm_index=index, inverses=inverses,
                           generators=range(1, k + 1))

    # Row e is left multiplication by e: the generators' rows are looked
    # up, and every other e = parent * g has row T[parent, T[g, :]].
    table = np.empty((n, n), dtype=TABLE_DTYPE)
    table[0] = np.arange(n)
    table[1:k + 1] = number(gen_arr[:, perms].reshape(k * n, degree)
                            ).reshape(k, n)
    del index, perms
    found = np.concatenate(found).tolist()
    rows = table[1:k + 1].astype(np.intp)  # cast once, not at every take
    for e in range(k + 1, n):
        parent, j = divmod(found[e], k)
        table[parent].take(rows[j], out=table[e], mode="clip")
    return FiniteGroup(table=table, inverses=inverses,
                       generators=range(1, k + 1))


# --------------------------------------------------------------------------
# product constructions
# --------------------------------------------------------------------------


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs; index (i, j) -> i * |b| + j.

    Up to TABLE_BACKING_LIMIT the product gets a dense table; above it,
    a product backing that multiplies in each factor."""
    order = a.order * b.order
    _check_cap(order, "product order")
    nb = b.order
    gens = tuple(g * nb for g in a.generators) + tuple(b.generators)
    if order > TABLE_BACKING_LIMIT:
        return FiniteGroup(factors=(a, b), generators=gens)
    # TABLE_DTYPE throughout: entries stay below the order.
    t = (a.dense_table()[:, None, :, None] * TABLE_DTYPE(nb)
         + b.dense_table()[None, :, None, :])
    return FiniteGroup(table=t.reshape(order, order), generators=gens)


def _as_action_arrays(n: FiniteGroup, h: FiniteGroup, action) -> np.ndarray:
    """Normalise an action, a dict or a sequence indexed by h-element,
    to an (|h| x |n|) array of index maps."""
    if len(action) != h.order:
        raise NotHomomorphismError(
            f"action must give one automorphism per element of the "
            f"acting group ({h.order} expected, {len(action)} given)")
    try:
        return np.array([action[j] for j in range(h.order)], dtype=np.int64)
    except KeyError as exc:
        raise NotHomomorphismError(
            f"action is missing an image for element {exc.args[0]}") from None


def semidirect_product(n: FiniteGroup, h: FiniteGroup, action) -> FiniteGroup:
    """Build n x| h with multiplication (n1,h1)(n2,h2) = (n1*h1(n2), h1 h2).

    ``action`` maps every element of h to an automorphism of n given as a
    permutation of n's element indices (a dict keyed by h-index or a
    sequence ordered by h-index).  The map is checked to be a
    homomorphism into Aut(n).
    """
    order = n.order * h.order
    _check_cap(order, "product order")
    if order > TABLE_BACKING_LIMIT:
        raise CapExceededError(
            "semidirect products above the table limit are not supported; "
            "use a permutation construction such as wreath_cyclic")
    tn = n.dense_table()
    th = h.dense_table()
    acts = _as_action_arrays(n, h, action)

    idx = np.arange(n.order)
    for j in range(h.order):
        a = acts[j]
        if not np.array_equal(np.sort(a), idx):
            raise NotAutomorphismError(
                f"action of element {j} is not a bijection on the normal "
                f"part")
        if a[0] != 0 or not np.array_equal(a[tn], tn[np.ix_(a, a)]):
            raise NotAutomorphismError(
                f"action of element {j} does not preserve multiplication")
    if not np.array_equal(acts[0], idx):
        raise NotHomomorphismError("identity must act trivially")
    for j in range(h.order):
        for k in range(h.order):
            if not np.array_equal(acts[int(th[j, k])], acts[j][acts[k]]):
                raise NotHomomorphismError(
                    f"action is not multiplicative at the pair ({j}, {k})")

    # TABLE_DTYPE throughout: entries stay below the order.
    nh = h.order
    table = np.empty((order, order), dtype=TABLE_DTYPE)
    for j1 in range(nh):
        twisted = tn[:, acts[j1]]                     # n1 * act(h1)(n2)
        block = twisted[:, :, None] * TABLE_DTYPE(nh) + th[j1][None, None, :]
        table[j1::nh] = block.reshape(n.order, order)  # rows (n1, h1)
    gens = tuple(g * nh for g in n.generators) + tuple(h.generators)
    return FiniteGroup(table=table, generators=gens)


def wreath_cyclic(p: int, q: int) -> FiniteGroup:
    """The wreath product of cyclic groups: base (C_p)^q plus a q-step
    coordinate shift, realised as permutations of p*q points."""
    if p < 1 or q < 1:
        raise ValueError("wreath factors must be positive")
    _check_cap(p ** q * q, "wreath order")
    degree = p * q
    base = [(x + 1) % p if x < p else x for x in range(degree)]
    shift = [(x + p) % degree for x in range(degree)]
    return from_permutation_generators(degree, [base, shift])


# --------------------------------------------------------------------------
# named constructions
# --------------------------------------------------------------------------


def cyclic_group(order: int) -> FiniteGroup:
    if order < 1:
        raise ValueError("order must be positive")
    _check_table(order, "cyclic order")
    i = np.arange(order, dtype=TABLE_DTYPE)
    table = (i[:, None] + i[None, :]) % order
    gens = (1,) if order > 1 else ()
    return FiniteGroup(table=table, generators=gens)


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order: rotations then reflections."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and at least 2")
    _check_table(order, "dihedral order")
    m = order // 2
    i = np.arange(order, dtype=TABLE_DTYPE)
    r, f = i % m, i // m
    r1, r2 = r[:, None], r[None, :]
    f1, f2 = f[:, None], f[None, :]
    rot = np.where(f1 == 0, r1 + r2, r1 - r2) % m
    table = rot + m * (f1 ^ f2)
    gens = (1, m) if m > 1 else (m,)
    return FiniteGroup(table=table, generators=gens)


def quaternion_group8() -> FiniteGroup:
    """The quaternion group of order 8: a^4 = 1, b^2 = a^2, a^b = a^-1."""
    i = np.arange(8)
    r, f = i % 4, i // 4
    r1, r2 = r[:, None], r[None, :]
    f1, f2 = f[:, None], f[None, :]
    rot = (np.where(f1 == 0, r1 + r2, r1 - r2) + 2 * (f1 & f2)) % 4
    table = rot + 4 * (f1 ^ f2)
    return FiniteGroup(table=table, generators=(1, 4))


def extraspecial_exponent_p(p: int) -> FiniteGroup:
    """Extraspecial group of order p^3 and exponent p (odd p only),
    realised as unitriangular coordinate triples (a, b, c)."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    order = p ** 3
    _check_table(order, "extraspecial order")
    i = np.arange(order, dtype=TABLE_DTYPE)
    a, rem = np.divmod(i, p * p)
    b, c = np.divmod(rem, p)
    a1, a2 = a[:, None], a[None, :]
    b1, b2 = b[:, None], b[None, :]
    c1, c2 = c[:, None], c[None, :]
    table = (((a1 + a2) % p) * p * p
             + ((b1 + b2) % p) * p
             + (c1 + c2 + a1 * b2) % p)
    return FiniteGroup(table=table, generators=(p * p, p))


# --------------------------------------------------------------------------
# element operations
# --------------------------------------------------------------------------


def commutator(g: FiniteGroup, x: int, y: int) -> int:
    """(x, y) = x^-1 y^-1 x y."""
    return g.multiply(g.multiply(g.inverse(x), g.inverse(y)),
                      g.multiply(x, y))


def element_order(g: FiniteGroup, x: int) -> int:
    k, cur = 1, x
    while cur != 0:
        cur = g.multiply(cur, x)
        k += 1
    return k


# --------------------------------------------------------------------------
# subgroup machinery
# --------------------------------------------------------------------------


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (0,), (), closed=True)


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, range(g.order), g.generators, closed=True)


def subgroup_generated(g: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given elements."""
    seeds = sorted({int(x) for x in gens} - {0})
    if not seeds:
        return trivial_subgroup(g)
    if g._table is not None:
        members = np.flatnonzero(_table_closure(g._table, seeds)).tolist()
    else:
        members_set = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for s in seeds:
                    prod = g.multiply(x, s)
                    if prod not in members_set:
                        members_set.add(prod)
                        nxt.append(prod)
            frontier = nxt
        members = sorted(members_set)
    return Subgroup(g, members, seeds, closed=True)


def normal_closure(g: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of g containing the seed elements."""
    gens = sorted({int(x) for x in seeds} - {0})
    if not gens:
        return trivial_subgroup(g)
    sub = subgroup_generated(g, gens)
    while True:
        added = []
        for t in g.generators:
            for s in gens:
                c = g.conjugate(s, t)
                if c not in sub and c not in added:
                    added.append(c)
        if not added:
            return Subgroup(g, sub.members, gens, closed=True)
        gens.extend(added)
        sub = subgroup_generated(g, gens)


def is_normal(h: Subgroup) -> tuple[bool, tuple[int, int] | None]:
    g = h.parent
    for t in g.generators:
        for x in h.members:
            if g.conjugate(x, t) not in h:
                return False, (x, t)
    return True, None


def commutator_subgroup(h: Subgroup, g: FiniteGroup) -> Subgroup:
    """The subgroup generated by all (x, y) with x in h, y in g.

    Generated as the normal closure of generator commutators, which
    agrees with the all-pairs definition because (h, g) is normalised
    by the whole group.
    """
    if h.parent is not g:
        raise ValueError("subgroup does not belong to the given group")
    seeds = {commutator(g, s, t)
             for s in h.generators for t in g.generators}
    return normal_closure(g, seeds)


@functools.lru_cache(maxsize=256)
def lower_central_series(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """[G, (G,G), ...] until the series stabilises; the repeated final
    term is not duplicated.  Nilpotent groups end at the trivial term."""
    series = [full_subgroup(g)]
    while True:
        nxt = commutator_subgroup(series[-1], g)
        if nxt == series[-1]:
            return tuple(series)
        series.append(nxt)
        if nxt.is_trivial:
            return tuple(series)


def nilpotency_class(g: FiniteGroup) -> int:
    series = lower_central_series(g)
    if not series[-1].is_trivial:
        raise NotNilpotentError(
            f"lower central series stabilises at order {series[-1].order}")
    return len(series) - 1


def center(g: FiniteGroup) -> Subgroup:
    members = [z for z in range(g.order)
               if all(g.multiply(z, t) == g.multiply(t, z)
                      for t in g.generators)]
    return Subgroup(g, members, closed=True)


def quotient(g: FiniteGroup, n: Subgroup) -> Quotient:
    """Coset group of g by a normal subgroup, with minimal-index coset
    representatives and the element -> coset projection."""
    if n.parent is not g:
        raise ValueError("subgroup does not belong to the given group")
    ok, witness = is_normal(n)
    if not ok:
        raise NotNormalError(*witness)
    q = g.order // n.order
    if q > TABLE_BACKING_LIMIT:
        raise CapExceededError(f"quotient order {q} exceeds the table limit")
    proj = [-1] * g.order
    reps: list[int] = []
    for x in range(g.order):
        if proj[x] < 0:
            c = len(reps)
            reps.append(x)
            for m in n.members:
                proj[g.multiply(x, m)] = c
    if g._table is not None:
        parr = np.asarray(proj, dtype=TABLE_DTYPE)
        table = parr[g._table[np.ix_(reps, reps)]]
    else:
        table = np.empty((q, q), dtype=TABLE_DTYPE)
        for c1, r1 in enumerate(reps):
            for c2, r2 in enumerate(reps):
                table[c1, c2] = proj[g.multiply(r1, r2)]
    gens = tuple(dict.fromkeys(proj[t] for t in g.generators if proj[t] != 0))
    return Quotient(FiniteGroup(table=table, generators=gens), tuple(proj))


def power_subgroup(h: Subgroup, q: int) -> Subgroup:
    """Subgroup generated by the q-th powers of all members of h."""
    if q < 1:
        raise ValueError("exponent must be positive")
    g = h.parent
    seeds = {g.power(x, q) for x in h.members}
    return subgroup_generated(g, seeds)


def product_of_subgroups(*subs: Subgroup) -> Subgroup:
    """Product of normal subgroups of one group: one closure over their
    joined generators."""
    g = subs[0].parent
    if any(s.parent is not g for s in subs):
        raise ValueError("subgroups must share a parent group")
    for s in subs:
        ok, witness = is_normal(s)
        if not ok:
            raise NotNormalError(*witness)
    return subgroup_generated(g, [x for s in subs for x in s.generators])


def is_abelian_subgroup(h: Subgroup) -> bool:
    g = h.parent
    gens = h.generators
    if g._table is not None:
        block = g._table[np.ix_(gens, gens)]
        return bool((block == block.T).all())
    return all(g.multiply(s, t) == g.multiply(t, s)
               for s in gens for t in gens)


def abelian_invariants(h: Subgroup) -> AbelianType:
    """Cyclic prime-power decomposition of an abelian subgroup.

    For each prime, the partition is recovered from the order statistics
    |{x : x^(p^k) = 1}|, which determine it uniquely.
    """
    if not is_abelian_subgroup(h):
        raise NotAbelianError("subgroup is not abelian")
    if h.order == 1:
        return AbelianType(())
    orders = _member_orders(h)
    factors: list[int] = []
    for p in _factorize(h.order):
        logs = [e for e in (_p_log(o, p) for o in orders) if e is not None]
        cum = np.cumsum(np.bincount(logs)).tolist()
        max_e = len(cum) - 1
        exps = []
        for count in cum:
            e = _p_log(count, p)
            if e is None:
                raise NotAbelianError(
                    "order statistics are not p-power sized; subgroup is "
                    "not an abelian p-group")
            exps.append(e)
        ranks = [exps[k] - exps[k - 1] for k in range(1, max_e + 1)]
        ranks.append(0)
        for k in range(1, max_e + 1):
            factors.extend([p ** k] * (ranks[k - 1] - ranks[k]))
    return AbelianType(tuple(sorted(factors, reverse=True)))


def _member_orders(h: Subgroup) -> list[int]:
    """The order of every member of h.  On a table all members step at
    once, one gather per power (x^(k+1) = T[x^k, x]), each dropped when
    it reaches the identity; other backings multiply one at a time."""
    g = h.parent
    if g._table is None:
        return [element_order(g, x) for x in h.members]
    x = np.array(h.members)
    orders, live, cur, xs, k = np.ones_like(x), np.arange(len(x)), x, x, 1
    while live.size:
        done = cur == 0
        if done.any():
            orders[live[done]] = k
            live, cur, xs = live[~done], cur[~done], xs[~done]
        k += 1
        cur = g._table[cur, xs]
    return orders.tolist()


def exponent(h: Subgroup) -> int:
    return math.lcm(*_member_orders(h))


def is_p_group(h: Subgroup, p: int) -> bool:
    return _p_log(h.order, p) is not None

"""Finite group arithmetic on integer element indices.

Every group enumerates its elements as 0..order-1 with the identity at
index 0.  Small groups carry a dense int16 multiplication table: every
group up to ORACLE_ORDER_LIMIT, where the oracle reads it, and groups
built from tables up to TABLE_BACKING_LIMIT.  The others have one of two
backings: a permutation closure (built a breadth-first level at a time)
stores each element as a permutation of a finite set, in the narrowest
unsigned dtype that holds its points, and multiplies by composition and
an index lookup; a direct product stores its two factors and multiplies
componentwise on the codes i * |b| + j.  The subgroup machinery runs on
``FiniteGroup.products`` alone, which multiplies index arrays on every
backing, and a subgroup keeps its members as one sorted index array.
Groups and subgroups are immutable after construction (a subgroup keeps
its member orders once computed), so all operations here are pure
functions.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
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
    NotNormalError,
)

DEFAULT_ORDER_CAP = 65536
TABLE_BACKING_LIMIT = 4096
# No group algebra is built above this order, whatever analyze's oracle
# cap, so a forced run fails at once: at order 512 the chains take 1.1 s
# and 63 MB on 2 CPUs, each doubling of |G| costs 4 to 8 times the time,
# and a kept upper term is |G|^2 floats of 4 or 8 bytes.  Only the oracle
# needs a dense table, so permutation closures fill one only up to this
# order.  Above it the |G|^2 table (32 MB at order 4096) would cost more
# to fill than the formula route gains from it.
ORACLE_ORDER_LIMIT = 1024
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
            # Each row is a permutation, so its 0 is its minimum.
            inverses = self._table.argmin(axis=1)
        elif factors is not None:
            a, b = self._factors = tuple(factors)
            self.order = a.order * b.order
            inverses = (a._inverses.astype(np.int64)[:, None] * b.order
                        + b._inverses[None, :]).reshape(-1)
        else:  # narrow rows and the closure's index keyed by their bytes
            self._perms, self._perm_index = perms, perm_index
            self.order = len(perms)
        self._inverses = np.asarray(inverses, dtype=np.int32)
        self.generators = tuple(int(x) for x in generators)

    @property
    def backing(self) -> str:
        if self._table is not None:
            return "table"
        return "product" if self._factors is not None else "permutation"

    def products(self, i, j) -> np.ndarray:
        """The products i[k] * j[k] of index arrays broadcast together;
        permutation rows are looked up 4096 at a time, as in the closure."""
        if self._table is not None:
            return self._table[i, j]
        if self._factors is not None:
            a, b = self._factors
            ia, ib = np.divmod(i, b.order)
            ja, jb = np.divmod(j, b.order)
            return (a.products(ia, ja).astype(np.int64, copy=False) * b.order
                    + b.products(ib, jb))
        i, j = np.asarray(i), np.asarray(j)
        shape = np.broadcast(i, j).shape
        if math.prod(shape) <= 4096:
            return self._lookup(i, j).reshape(shape)
        i, j = (np.broadcast_to(x, shape).ravel() for x in (i, j))
        return np.concatenate([self._lookup(i[s:s + 4096], j[s:s + 4096])
                               for s in range(0, i.size, 4096)]).reshape(shape)

    def _lookup(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Element numbers of the permutation products i * j, flattened."""
        perms, degree = self._perms, self._perms.shape[1]
        # Row k is x -> i(j(x)): one gather from the flat rows.
        rows = perms.ravel().take(perms[j] + (i * degree)[..., None])
        width = np.dtype((np.void, rows.itemsize * degree))
        keys = rows.view(width).ravel().tolist()
        return np.fromiter(map(self._perm_index.__getitem__, keys),
                           np.int64, len(keys))

    def dense_table(self) -> np.ndarray:
        if self._table is None:
            raise CapExceededError(
                f"no dense multiplication table for a {self.backing}-backed "
                f"group of order {self.order}")
        return self._table

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, backing={self.backing!r})"


class Subgroup:
    """An element-index subset of a parent group, closed under its
    operations.  ``members`` is one sorted, read-only np.intp array."""

    __slots__ = ("parent", "members", "generators", "_orders")

    def __init__(self, parent: FiniteGroup, members: Iterable[int],
                 generators: Iterable[int] = (), *, closed: bool = False):
        if not isinstance(members, np.ndarray):
            members = list(members)     # a set or a range as well
        # A closed=True caller hands over sorted, distinct indices.
        mem = np.asarray(members, dtype=np.intp)
        if not closed:
            mem = np.unique(mem)
        if not mem.size or mem[0] != 0:
            raise ValueError("subgroup must contain the identity (index 0)")
        if parent.order % mem.size != 0:
            raise ValueError(
                f"subset of size {mem.size} cannot be a subgroup of a group "
                f"of order {parent.order}")
        mem.flags.writeable = False
        self.parent = parent
        self.members = mem
        gens = tuple(int(x) for x in generators)
        self.generators = gens if gens else tuple(mem[1:].tolist())
        self._orders = None
        if not closed:
            # The first failing x names its inverse before its products.
            bad_inv = ~np.isin(parent._inverses[mem], mem)
            bad_mul = ~np.isin(parent.products(mem[:, None], mem), mem)
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
        return self.members.size

    @property
    def is_trivial(self) -> bool:
        return self.members.size == 1

    def member_orders(self) -> tuple[int, ...]:
        """The order of every member, computed on first use and kept."""
        if self._orders is None:
            self._orders = tuple(_member_orders(self))
        return self._orders

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.parent is other.parent
                and np.array_equal(self.members, other.members))

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members.tobytes()))

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


def _closure(g: FiniteGroup, seeds: Iterable[int], mask=None, gens=None
             ) -> tuple[np.ndarray, list[int]]:
    """Mask of the left-normed products of the seeds, grown from a mask
    closed under right multiplication by ``gens``: a seed not yet
    reached joins ``gens``, the members so far are multiplied by it and
    the new ones by every generator, a breadth-first level at a time."""
    if mask is None:
        mask, gens = np.arange(g.order) == 0, []
    for s in seeds:
        if mask[s]:
            continue
        gens.append(int(s))
        frontier, step = np.flatnonzero(mask), np.array([s])
        while frontier.size:
            prods = g.products(frontier[:, None], step)
            frontier = np.unique(prods[~mask[prods]])
            mask[frontier] = True
            step = np.array(gens)
    return mask, gens


def _check_associative_light(table: np.ndarray,
                             gens: Sequence[int]) -> None:
    """Light's test: (as)b == a(sb) for every generator s and all a, b.

    The s passing it form a set closed under products: for s, t in it,
    (a(st))b = ((as)t)b = (as)(tb) = a(s(tb)) = a((st)b).  So when the
    left-normed products of the generators reach every element, as
    those of the seeds ``_closure`` keeps from every element do, the
    test proves associativity."""
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
    violating triple or element; CapExceededError for more than
    TABLE_BACKING_LIMIT rows and ValueError for a row whose length is
    not the number of rows, both before any array of the table is built.
    """
    n = len(table)
    _check_table(n, "table order")
    if not all(hasattr(row, "__len__") and len(row) == n for row in table):
        raise ValueError("multiplication table must be square")
    t = np.asarray(table, dtype=np.int64)
    if t.ndim != 2:
        raise ValueError("multiplication table must be square")
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

    unchecked = FiniteGroup(table=t)  # its inverses are checked below
    gens = _closure(unchecked, range(1, n))[1]
    _check_associative_light(t, gens)

    # A finite monoid now: the first 0 of a row is a two-sided inverse.
    inverses = unchecked._inverses
    idx = np.arange(n)
    bad = (t[idx, inverses] != 0) | (t[inverses, idx] != 0)
    if bad.any():
        raise NoInverseError(int(bad.argmax()))
    return FiniteGroup(table=t, generators=gens)


# --------------------------------------------------------------------------
# permutation closure
# --------------------------------------------------------------------------


def from_permutation_generators(degree: int, generators) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition.

    Element 0 is the identity and elements 1..k are the generators, less
    the identity and repeats; the closure goes on breadth first, each
    element numbered as first found as e * g, e in order, then g in
    order.  The rows are kept in the narrowest unsigned dtype that holds
    degree - 1 (uint8 up to 256 points, uint16 up to 65536).  Groups
    whose order stays within ORACLE_ORDER_LIMIT are materialised as
    dense tables, which the oracle reads; bigger closures keep the
    permutation backing: the rows and one index keyed by their bytes.
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
    dtype = np.min_scalar_type(degree - 1)
    gen_arr = np.array(gens, dtype=dtype).reshape(k, degree)
    width = np.dtype((np.void, dtype.itemsize * degree))
    levels = [np.arange(degree, dtype=dtype)[None]]
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
    if n > ORACLE_ORDER_LIMIT:
        inverses = np.empty_like(perms)
        inverses[np.arange(n)[:, None], perms] = np.arange(degree)
        return FiniteGroup(perms=perms, perm_index=index,
                           inverses=number(inverses),
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
    return FiniteGroup(table=table, generators=range(1, k + 1))


# --------------------------------------------------------------------------
# product constructions
# --------------------------------------------------------------------------


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs; index (i, j) -> i * |b| + j.

    Up to TABLE_BACKING_LIMIT a product of two tables gets a dense
    table; above it, or when a factor has none, a product backing that
    multiplies in each factor."""
    order = a.order * b.order
    _check_cap(order, "product order")
    nb = b.order
    gens = tuple(g * nb for g in a.generators) + tuple(b.generators)
    if order > TABLE_BACKING_LIMIT or a._table is None or b._table is None:
        return FiniteGroup(factors=(a, b), generators=gens)
    # TABLE_DTYPE throughout: entries stay below the order.
    t = (a.dense_table()[:, None, :, None] * TABLE_DTYPE(nb)
         + b.dense_table()[None, :, None, :])
    return FiniteGroup(table=t.reshape(order, order), generators=gens)


def _table_from_products(g: FiniteGroup) -> np.ndarray:
    """g's multiplication table as TABLE_DTYPE, from bulk products a
    block of rows at a time, so no |g|^2 int64 array is made."""
    idx = np.arange(g.order)
    step = max(1, 2 ** 18 // g.order)
    t = np.empty((g.order, g.order), dtype=TABLE_DTYPE)
    for s in range(0, g.order, step):
        t[s:s + step] = g.products(idx[s:s + step, None], idx)
    return t


def semidirect_product(n: FiniteGroup, h: FiniteGroup, action) -> FiniteGroup:
    """Build n x| h with multiplication (n1,h1)(n2,h2) = (n1*h1(n2), h1 h2).

    ``action`` maps h-indices to automorphisms of n, each a permutation
    of n's element indices (a dict keyed by h-index, or a sequence read
    as the mapping of its positions).  Images may be given on a
    generating subset of h: the others are composed breadth first along
    h's table, x * s acting as x's image after s's.  Every such step,
    new or not, is checked to compose, which proves the map a
    homomorphism into Aut(n).
    """
    order = n.order * h.order
    _check_table(order, "semidirect product order")
    tn, th = _table_from_products(n), _table_from_products(h)

    idx = np.arange(n.order)
    given: dict[int, np.ndarray] = {}
    for j, image in (action.items() if isinstance(action, dict)
                     else enumerate(action)):
        if not isinstance(j, (int, np.integer)) or not 0 <= j < h.order:
            raise NotHomomorphismError(
                f"action key {j!r} is not an element index below {h.order}")
        a = np.asarray(image, dtype=np.int64)
        if a.shape != idx.shape or not np.array_equal(np.sort(a), idx):
            raise NotAutomorphismError(
                f"action of element {j} is not a bijection on the normal "
                f"part")
        if a[0] != 0 or not np.array_equal(a[tn], tn[np.ix_(a, a)]):
            raise NotAutomorphismError(
                f"action of element {j} does not preserve multiplication")
        given[int(j)] = a
    acts = [idx] + [None] * (h.order - 1)
    queue = [0]
    for x in queue:
        for s, a in given.items():
            xs, step = int(th[x, s]), acts[x][a]
            if acts[xs] is None:
                acts[xs] = step
                queue.append(xs)
            elif not np.array_equal(acts[xs], step):
                raise NotHomomorphismError(
                    f"action is not multiplicative at the pair ({x}, {s})")
    if len(queue) < h.order:
        raise NotHomomorphismError(
            "action images do not cover the acting group (keys must "
            "generate it)")

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
    # 2^q alone exceeds the cap once q reaches its bit length, so p^q is
    # only formed when it is small.
    cap = DEFAULT_ORDER_CAP
    if p > 1 and q >= cap.bit_length() or p ** q * q > cap:
        raise CapExceededError(
            f"wreath order p^q * q for p = {p}, q = {q} exceeds cap {cap}")
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


def commutator(g: FiniteGroup, x, y) -> np.ndarray:
    """(x, y) = x^-1 y^-1 x y over index arrays broadcast together."""
    inv = g._inverses
    return g.products(g.products(inv[x], inv[y]), g.products(x, y))


# --------------------------------------------------------------------------
# subgroup machinery
# --------------------------------------------------------------------------


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (0,), (), closed=True)


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, np.arange(g.order), g.generators, closed=True)


def subgroup_generated(g: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given elements, generated by the
    seeds its closure kept: each lies outside the subgroup generated by
    the ones before it."""
    mask, kept = _closure(g, sorted({int(x) for x in gens} - {0}))
    return Subgroup(g, np.flatnonzero(mask), kept, closed=True)


def _conjugates(g: FiniteGroup, x: np.ndarray) -> np.ndarray:
    """t^-1 x t for every generator t (rows) and every x (columns)."""
    t = np.array(g.generators, dtype=np.intp)[:, None]
    return g.products(g._inverses[t], g.products(x[None, :], t))


def normal_closure(g: FiniteGroup, seeds: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of g containing the seed elements,
    generated by the seeds its closure kept.

    Each round conjugates only the generators the last round kept: the
    conjugates of the earlier ones already lie in the closure."""
    mask, kept = _closure(g, sorted({int(x) for x in seeds} - {0}))
    added = list(kept)
    while added:
        conj = _conjugates(g, np.array(added, dtype=np.intp)).ravel()
        done = len(kept)
        _closure(g, conj[~mask[conj]].tolist(), mask, kept)
        added = kept[done:]
    return Subgroup(g, np.flatnonzero(mask), kept, closed=True)


def is_normal(h: Subgroup) -> tuple[bool, tuple[int, int] | None]:
    """Whether every generator conjugates h into itself; the first
    failure, generator-major, is the witness (x, t)."""
    g = h.parent
    mask = np.zeros(g.order, dtype=bool)
    mask[h.members] = True
    t, k = np.nonzero(~mask[_conjugates(g, h.members)])
    if not t.size:
        return True, None
    return False, (int(h.members[k[0]]), g.generators[t[0]])


def commutator_subgroup(h: Subgroup, g: FiniteGroup) -> Subgroup:
    """The subgroup generated by all (x, y) with x in h, y in g.

    Generated as the normal closure of generator commutators, which
    agrees with the all-pairs definition because (h, g) is normalised
    by the whole group.
    """
    if h.parent is not g:
        raise ValueError("subgroup does not belong to the given group")
    seeds = commutator(g, np.array(h.generators, dtype=np.intp)[:, None],
                       np.array(g.generators, dtype=np.intp))
    return normal_closure(g, seeds.ravel().tolist())


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


def center(g: FiniteGroup) -> Subgroup:
    z = np.arange(g.order)[:, None]
    t = np.array(g.generators, dtype=np.intp)
    central = (g.products(z, t) == g.products(t, z)).all(axis=1)
    return Subgroup(g, np.flatnonzero(central), closed=True)


def quotient(g: FiniteGroup, n: Subgroup) -> Quotient:
    """Coset group of g by a normal subgroup, with minimal-index coset
    representatives and the element -> coset projection."""
    if n.parent is not g:
        raise ValueError("subgroup does not belong to the given group")
    ok, witness = is_normal(n)
    if not ok:
        raise NotNormalError(*witness)
    q = g.order // n.order
    _check_table(q, "quotient order")
    proj = np.full(g.order, -1, dtype=TABLE_DTYPE)
    reps: list[int] = []
    for x in range(g.order):
        if proj[x] < 0:
            proj[g.products(x, n.members)] = len(reps)
            reps.append(x)
    r = np.array(reps, dtype=np.intp)
    table = proj[g.products(r[:, None], r)]
    proj = proj.tolist()
    gens = tuple(dict.fromkeys(proj[t] for t in g.generators if proj[t] != 0))
    return Quotient(FiniteGroup(table=table, generators=gens), tuple(proj))


def power_subgroup(h: Subgroup, q: int) -> Subgroup:
    """Subgroup generated by the q-th powers of all members of h."""
    if q < 1:
        raise ValueError("exponent must be positive")
    powers = _powers(h.parent, h.members, q)
    return subgroup_generated(h.parent, np.unique(powers).tolist())


def _powers(g: FiniteGroup, x: np.ndarray, k: int) -> np.ndarray:
    """x^k for every x of an index array, by square and multiply."""
    result = np.zeros_like(x)
    while True:
        if k & 1:
            result = g.products(result, x)
        k >>= 1
        if not k:
            return result
        x = g.products(x, x)


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
    s = np.array(h.generators, dtype=np.intp)
    block = h.parent.products(s[:, None], s)
    return bool((block == block.T).all())


def abelian_invariants(h: Subgroup) -> AbelianType:
    """Cyclic prime-power decomposition of an abelian subgroup.

    For each prime, the partition is recovered from the order statistics
    |{x : x^(p^k) = 1}|, which determine it uniquely.
    """
    if not is_abelian_subgroup(h):
        raise NotAbelianError("subgroup is not abelian")
    if h.order == 1:
        return AbelianType(())
    orders = Counter(h.member_orders())
    factors: list[int] = []
    for p in _factorize(h.order):
        logs = {_p_log(o, p): count for o, count in orders.items()}
        logs.pop(None, None)
        # |{x : x^(p^k) = 1}| = p^exps[k]; ranks[k] factors exceed p^k.
        exps = [_p_log(n, p) for n in itertools.accumulate(
            logs.get(e, 0) for e in range(max(logs) + 1))]
        if None in exps:
            raise NotAbelianError(
                "order statistics are not p-power sized; subgroup is "
                "not an abelian p-group")
        ranks = [b - a for a, b in zip(exps, exps[1:])] + [0]
        for k in range(1, len(ranks)):
            factors.extend([p ** k] * (ranks[k - 1] - ranks[k]))
    return AbelianType(tuple(sorted(factors, reverse=True)))


def _member_orders(h: Subgroup) -> list[int]:
    """The order of every member of h, all at once, a prime q of
    |h| = q^a m (q not dividing m) at a time: y = x^m has the q-part of
    x's order, q^k for the least k with y^(q^k) = 1."""
    g, x = h.parent, h.members
    orders = np.ones_like(x)
    for q, a in _factorize(h.order).items():
        live, y = np.arange(len(x)), _powers(g, x, h.order // q ** a)
        while live.size:
            live, y = live[y != 0], y[y != 0]
            orders[live] *= q
            y = _powers(g, y, q)
    return orders.tolist()


def exponent(h: Subgroup) -> int:
    return math.lcm(*h.member_orders())


def is_p_group(h: Subgroup, p: int) -> bool:
    return _p_log(h.order, p) is not None

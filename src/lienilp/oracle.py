"""Brute-force ground truth: the group algebra over GF(p) made explicit.

Elements of KG are length-|G| coefficient vectors.  Upper and lower Lie
power chains, both nilpotency indices, and the dimension subgroups are
computed directly from their definitions with dense linear algebra over
the prime field.  Everything here is deliberately simple and serves as
the independent check for the subgroup-series formulas.

All row reduction goes through one subspace type, FpSubspace: a fully
reduced basis, kept in the work dtype, that absorbs blocks of candidate
rows and closes under coordinate permutations.  Its arithmetic is exact
for every p: it runs with BLAS products in float32 while (p-1)^2 times
(width + 1) stays below 2^23 (every p <= 89 up to width 1024), in float64
while it stays below 2^52, so every value it forms is an exact float
integer, and in Python integers otherwise.  Products are reduced mod p
only after whole dot products, the delayed reduction of FFLAS-FFPACK
(Dumas, Giorgi and Pernet, ACM TOMS 2008).

Most of the work runs over the generators S of G that the closure of the
generation check kept (any generating set serves) rather than all of G,
by two identities of the algebra itself:

* A subspace closed under left and right multiplication by every
  delta_s is closed under every delta_g, because each g is a product of
  generators (G is finite, so inverses are positive powers).
* The bracket is a derivation, [x, gh] = [x, g]h + g[x, h], so every
  [x, delta_g] lies in the ideal generated by the [x, delta_s].  The
  ideal generated by [U, KG] is therefore the ideal generated by the
  brackets of a basis of U with the delta_s.

The lower Lie powers L_1 = KG, L_{k+1} = [L_k, KG] are spans, not
ideals, so neither identity applies to them.  They run over one
element per conjugacy class instead:

* Conjugation by delta_h is an automorphism of KG, so it maps every L_k
  onto itself, and [x, delta_{hgh^-1}] = delta_h [delta_h^-1 x delta_h,
  delta_g] delta_h^-1.  So [L_k, delta_g] over the class of g is the
  conjugation closure of [L_k, delta_g] for that one g, and L_{k+1} is
  the conjugation closure of the brackets of a basis of L_k with one
  representative of each non-central class (central g give 0).  As for
  ideals, closing under conjugation by every delta_s is enough.

One loop builds both chains.  From KG, each next term is the span of
the brackets of the last term's basis with a list of group elements
(the generators for the upper chain, one representative per
non-central class for the lower), gathered for as many elements at a
time as fill about one chunk of rows, and closed under left and right
multiplication, resp. conjugation, by the generators.
Terms are nested, so each is smaller than the one before until one is
0, within |G| + 1 terms.  That one generator alone checks it: a term no
smaller than the one before raises NoConvergenceError with the chain's
dimensions so far, worded as a repeat (KG is not Lie nilpotent) or a
growth (a kernel defect).  The chain functions only read the terms.
Nothing here reads dimension subgroups, a lower central series or a
step count, so the oracle borrows nothing from the formulas it checks,
nor the bound t <= |G'| + 1 it tests.

Every chain function takes one ``GroupAlgebra``, which refuses a group
above ORACLE_ORDER_LIMIT or whose stored generators do not generate it,
and keeps its upper chain, built on first use: the upper indices, the
chain dimensions and the direct dimension subgroups all read that one
list.  On a 2-CPU x86-64 machine with one BLAS thread the whole oracle
at p = 2 takes about 0.03 s for the order-128 D8wrC2, 0.11 s for
D8wrC2 x C2 (order 256) and 0.8 s for D8wrC2 x C4 (order 512).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NotGeneratingError,
    OracleCapExceededError,
)
from .groups import ORACLE_ORDER_LIMIT, FiniteGroup, subgroup_generated

DEFAULT_ORACLE_CAP = 512
# (dtype, bound), narrowest first: every integer x below the bound in
# magnitude, and floor(x / p) computed in the dtype for an integer p
# below it, is exact there.
_FLOAT_TIERS = ((np.float32, 2 ** 23), (np.float64, 2 ** 52))
_CHUNK_ROWS = 256


def _work_dtype(p: int, width: int):
    """Row reduction dtype: the narrowest float (BLAS) in which every
    value it forms, below (p-1)^2 times (width + 1) in magnitude, is
    exact; Python ints beyond."""
    for dtype, bound in _FLOAT_TIERS:
        if (p - 1) ** 2 * (width + 1) < bound:
            return dtype
    return object


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for an array of integers held in a work dtype."""
    if x.dtype == object:
        return x % p
    q = np.floor(x / p)
    q *= p
    return np.subtract(x, q, out=q)


def _residues(rows, p: int, work) -> np.ndarray:
    """Integer rows, or floats holding integers, mod p in the work dtype."""
    c = np.asarray(rows)
    if c.dtype.kind == "f" and work is object:
        c = c.astype(np.int64)      # Python ints below, not floats
    if c.dtype == work or work is object:
        return _mod(c.astype(work, copy=False), p)
    # Reduce other integer input exactly before it turns float.
    return np.asarray(c % p, dtype=work)


def _unit_solve(r: np.ndarray, cols: np.ndarray, p: int) -> np.ndarray:
    """(I - M)^-1 r for rows r that are unit upper triangular, I - M, on
    the columns cols: (I + M)(I + M^2)(I + M^4)... = (I - M)^-1.  M is
    strictly upper triangular, so M^k = 0 for k columns, within
    (k - 1).bit_length() squarings; past them NoConvergenceError
    reports a kernel defect."""
    k = len(cols)
    m, diag = -r[:, cols], np.arange(k)
    m[diag, diag] = 0
    if not np.logical_or.reduce(m, axis=None):
        return r
    inv = (m := _mod(m, p)).copy()
    inv[diag, diag] = 1
    for _ in range((k - 1).bit_length()):
        if not np.logical_or.reduce(m := _mod(m @ m, p), axis=None):
            return _mod(inv @ r, p)
        inv = _mod(inv + inv @ m, p)
    raise NoConvergenceError(
        f"GF({p}) elimination: M on {k} columns is not nilpotent, a kernel "
        f"defect")


class FpSubspace:
    """A subspace of GF(p)^width held as a fully reduced row echelon
    basis in the work dtype, and the GF(p) row reduction engine: it
    grows by absorbing blocks of candidate rows.

    A candidate reduced against the basis is zero on every pivot column,
    so reduction and elimination only touch the free columns.  ``absorb``
    rebinds basis, pivots and free and never writes them in place, so a
    copy may share them."""

    __slots__ = ("p", "width", "work", "basis", "pivots", "free")

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.work = _work_dtype(p, width)
        self.basis = np.zeros((0, width), dtype=self.work)
        self.pivots = np.zeros(0, dtype=np.intp)
        self.free = np.arange(width)

    @classmethod
    def from_vectors(cls, vectors, p: int, width: int | None = None
                     ) -> "FpSubspace":
        if not isinstance(vectors, np.ndarray):
            vectors = list(vectors)
        mat = np.atleast_2d(np.asarray(vectors))
        if mat.size == 0:
            if width is None:
                raise DimensionMismatchError(
                    "empty generating set needs an explicit width")
            mat = mat.reshape(0, width)
        if width is None:
            width = mat.shape[1]
        if mat.shape[1] != width:
            raise DimensionMismatchError(
                f"vectors of length {mat.shape[1]} in a space of width "
                f"{width}")
        space = cls(p, width)
        space.absorb(mat)
        return space

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        return (self.p == other.p and self.width == other.width
                and np.array_equal(self.pivots, other.pivots)
                and np.array_equal(self.basis, other.basis))

    def copy(self) -> "FpSubspace":
        twin = FpSubspace(self.p, self.width)
        twin.basis, twin.pivots, twin.free = self.basis, self.pivots, self.free
        return twin

    def reduce(self, candidates) -> np.ndarray:
        """The rows minus their projection onto the span, mod p, on the
        free columns (they are zero on the pivot columns)."""
        c = _residues(candidates, self.p, self.work).reshape(-1, self.width)
        return _mod(c[:, self.free]
                    - c[:, self.pivots] @ self.basis[:, self.free], self.p)

    def absorb(self, candidates) -> np.ndarray:
        """Add the span of the rows; returns rows, in the work dtype,
        independent modulo the old basis and spanning the new one with it.

        Each chunk of _CHUNK_ROWS rows, reduced against the basis so far, is
        eliminated in rounds: the first row per distinct leading column,
        scaled to a leading 1 where its lead is not 1, is unit upper
        triangular, I - M, on those columns, and (I - M)^-1 reduces it
        fully; the picked rows reduce to zero and leave the chunk.  The
        rows of all rounds are unit upper triangular in round order, and
        one more such inverse reduces them against each other.  Each chunk
        returns its new rows.  A chunk still nonzero after more rounds
        than it had rows raises NoConvergenceError (a kernel defect)."""
        p, added = self.p, []
        rows = np.asarray(candidates).reshape(-1, self.width)
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            c = self.reduce(rows[start:start + _CHUNK_ROWS])
            found, cols = [], []
            for _ in range(c.shape[0] + 1):
                if not (c := c[np.logical_or.reduce(c != 0, axis=1)]).shape[0]:
                    break
                n, leads = c.shape[0], (c != 0).argmax(axis=1)
                first = np.full(c.shape[1], n)
                np.minimum.at(first, leads, np.arange(n))
                pick = first[first < n]
                col = leads[pick]
                r, lead = c[pick], c[pick, col]
                if np.logical_or.reduce(lead != 1):
                    scale = [pow(int(x), p - 2, p) for x in lead]
                    r = _mod(r * np.array(scale, dtype=self.work)[:, None], p)
                r = _unit_solve(r, col, p)
                c = _mod(c - c[:, col] @ r, p)
                found.append(r)
                cols.append(col)
            else:
                raise NoConvergenceError(
                    f"GF({p}) elimination: a chunk kept nonzero rows after "
                    f"more rounds than it had rows, a kernel defect")
            if not found:
                continue
            cols = np.concatenate(cols)
            found = _unit_solve(np.concatenate(found), cols, p)
            new = np.zeros((len(cols), self.width), dtype=self.work)
            new[:, self.free] = found
            kept = np.ones(len(self.free), dtype=bool)
            kept[cols] = False
            cols = self.free[cols]
            basis = self.basis
            if basis[:, cols].any():
                basis = _mod(basis - basis[:, cols] @ new, p)
            pivots = np.concatenate([self.pivots, cols])
            order = np.argsort(pivots, kind="stable")
            self.basis = np.concatenate([basis, new])[order]
            self.pivots = pivots[order]
            self.free = self.free[kept]
            added.append(new)
        return np.concatenate(added) if added else self.basis[:0]

    def close(self, perms) -> "FpSubspace":
        """Absorb the images of the new rows, the whole basis first, under
        every coordinate permutation (a row of perms), gathered from the
        new rows transposed, until none is new; returns the subspace."""
        fresh = self.basis
        while fresh.shape[0] and len(perms):
            fresh = self.absorb(fresh.T.copy()[perms].transpose(0, 2, 1)
                                .reshape(-1, self.width))
        return self


class GroupAlgebra:
    """The group algebra of a finite group over GF(p), held as the
    coordinate permutations by which each delta_g multiplies it.

    Its upper Lie power chain is built on first use and kept, so callers
    that share one instance compute it once.
    """

    def __init__(self, group: FiniteGroup, p: int):
        if group.order > ORACLE_ORDER_LIMIT:
            raise OracleCapExceededError(
                f"group order {group.order} is above "
                f"{ORACLE_ORDER_LIMIT}, the largest order the oracle "
                f"runs on")
        # Every group up to the limit stores a table, and fetching it
        # allocates nothing.
        self._table = group.dense_table()
        generated = subgroup_generated(group, group.generators)
        if generated.order != group.order:
            raise NotGeneratingError(
                f"the stored generators generate a subgroup of order "
                f"{generated.order}, not the whole group of order "
                f"{group.order}")
        self.group = group
        self.p = p
        self.n = group.order
        self._inv = group._inverses.astype(np.intp)
        self._gens = generated.generators
        self._sides = np.array([perm for s in self._gens
                                for perm in (self._left(s), self._right(s))])

    def _left(self, g: int | list[int]) -> np.ndarray:
        """x -> delta_g * x permutes coordinates by h -> g^-1 h."""
        return self._table[self._inv[g]]

    def _right(self, g: int | list[int]) -> np.ndarray:
        """x -> x * delta_g permutes coordinates by h -> h g^-1."""
        return self._table[:, self._inv[g]]

    def _brackets(self, cols: np.ndarray, elements) -> np.ndarray:
        """The rows [b, delta_g] for every basis row b and listed g, in
        (-p, p) and the dtype of the basis, given the basis transposed
        (one row per coordinate): gathering its rows is faster than
        gathering the basis's columns."""
        elements = list(elements)
        return (cols[self._right(elements)] - cols[self._left(elements).T]
                ).transpose(1, 2, 0).reshape(-1, self.n)

    def full_space(self) -> FpSubspace:
        """KG itself: every column a pivot, the identity its basis."""
        space = FpSubspace(self.p, self.n)
        space.basis = np.eye(self.n, dtype=space.work)
        space.pivots, space.free = space.free, space.pivots
        return space

    def ideal_closure(self, span: FpSubspace) -> FpSubspace:
        """Least subspace containing the span and closed under left and
        right multiplication by the generators, hence by all of G."""
        return span.copy().close(self._sides)

    def _lie_powers(self, elements, perms, name: str):
        """The named Lie power chain: KG, then each term the brackets of
        the last one's basis with every listed element, closed under
        perms, until a term is 0; one no smaller than the one before
        raises NoConvergenceError.  Brackets are gathered for as many
        elements at a time as fill about one chunk."""
        term = self.full_space()
        dims = [term.dim]
        yield term
        while term.dim:
            nxt = FpSubspace(self.p, self.n)
            cols, step = term.basis.T.copy(), max(1, _CHUNK_ROWS // term.dim)
            for start in range(0, len(elements), step):
                nxt.absorb(self._brackets(cols, elements[start:start + step]))
            term = nxt.close(perms)
            dims.append(term.dim)
            if dims[-1] == dims[-2]:
                raise NoConvergenceError(
                    f"{name} Lie power chain repeats dimension {dims[-1]}: "
                    f"KG is not Lie nilpotent", dims)
            if dims[-1] > dims[-2]:
                raise NoConvergenceError(
                    f"{name} Lie power chain grows from dimension "
                    f"{dims[-2]} to {dims[-1]}: the kernel is at fault", dims)
            yield term

    @cached_property
    def _upper(self) -> list[FpSubspace]:
        """The upper Lie powers: each term is the ideal generated by the
        brackets of the one before with the generators."""
        return list(self._lie_powers(self._gens, self._sides, "upper"))


def upper_lie_powers(algebra: GroupAlgebra) -> tuple[list[int], int]:
    """Dimension chain of the upper Lie powers and the first index where
    the chain reaches zero, read from the algebra's kept chain."""
    dims = [term.dim for term in algebra._upper]
    return dims, len(dims)


def _lower_spans(algebra: GroupAlgebra):
    """The lower Lie powers as spans, KG first and then one per weight.

    Each step brackets a basis of the previous span with one
    representative of each non-central conjugacy class (basis elements
    suffice by multilinearity), the representatives passed as one flat
    list that _lie_powers brackets about one chunk of rows at a time, and
    closes the result under conjugation by the generators."""
    table, inv = algebra._table, algebra._inv
    n = algebra.n
    conj = table[table, inv[:, None]]      # conj[h, g] = h g h^-1
    reps = np.flatnonzero((conj.min(axis=0) == np.arange(n))
                          & (conj != np.arange(n)).any(axis=0))
    # x[:, conj[s]] is x conjugated by delta_s^-1; the s^-1 generate G.
    perms = conj[list(algebra._gens)]
    return algebra._lie_powers(reps, perms, "lower")


def lower_lie_powers(algebra: GroupAlgebra) -> tuple[list[int], int]:
    """Dimension chain of the lower Lie powers and its vanishing index.

    Each reported dimension is that of the ideal the lower Lie power
    spans (KG, the first, is one already)."""
    spans = _lower_spans(algebra)
    dims = [next(spans).dim]
    dims += [algebra.ideal_closure(span).dim for span in spans]
    return dims, len(dims)


def dimension_series_direct(algebra: GroupAlgebra) -> list[np.ndarray]:
    """All dimension subgroups from the definition, each the sorted
    array of its member indices, cut at the first term of size 1: the
    m-th holds the g with delta_g - delta_1 in the m-th upper Lie power,
    so the last, zero, power gives the trivial one.  The powers are
    nested: only one term's members are tested for the next.  analyze
    alone judges the terms, against the formula series."""
    chain = algebra._upper
    deltas = np.eye(algebra.n, dtype=chain[0].work)
    deltas[:, 0] -= 1
    members, series = np.arange(algebra.n), []
    for term in chain:
        members = members[~term.reduce(deltas[members]).any(axis=1)]
        series.append(members)
        if members.size == 1:
            break
    return series

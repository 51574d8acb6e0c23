"""The inputs of each workload.

Fixed workloads name catalog groups; the shipped catalog is extended by
``extra_catalog.jsonl`` with the large products that are not shipped.
The random workload draws subgroups of the Sylow p-subgroup of the
symmetric group on p^k points and hands the program only their
generating permutations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    """One (group, prime) analysis: how to build the group and how to
    call ``analyze`` on it."""

    key: str
    prime: int
    run_oracle: bool | None
    oracle_cap: int = 128
    catalog_name: str | None = None
    degree: int = 0
    generators: tuple[tuple[int, ...], ...] = ()
    expected_order: int | None = None


def _catalog_input(name: str, prime: int, run_oracle: bool) -> Input:
    return Input(key=f"{name}@{prime}", prime=prime, run_oracle=run_oracle,
                 catalog_name=name)


ORACLE_CATALOG = tuple(
    _catalog_input(name, p, True)
    for name, p in (("D8wrC2", 2), ("H125", 5), ("C3wrC3", 3),
                    ("C2wrC4", 2), ("D8xD8", 2)))

FORMULA_LARGE = tuple(
    _catalog_input(name, p, False)
    for name, p in (("C5wrC5", 5), ("C2wrC8", 2),
                    ("D8wrC2xC2wrC4", 2), ("D8wrC2xD8wrC2", 2)))

# (p, k, {order: count}): subgroups of Syl_p(S_{p^k}) drawn per pass,
# with a fixed number of each order so that every seed draws the same
# mix of sizes.  Syl_2(S_8) has order 2^7, Syl_3(S_9) order 3^4 and
# Syl_2(S_16) order 2^15.  Orders stop at 4096, the largest with a
# dense table: the formula-route time of the permutation-backed
# subgroups above it varies several-fold with the generating set, which
# a pass of a few dozen draws cannot average out.
RANDOM_STRATA = (
    (2, 3, {128: 2, 64: 6, 32: 3, 16: 2, 8: 1}),
    (3, 2, {81: 4, 27: 4, 9: 2}),
    (2, 4, {4096: 4, 2048: 4, 1024: 2, 512: 2, 64: 2}),
)
RANDOM_ORACLE_CAP = 64
_MAX_DRAWS = 20000


def random_sylow_element(p: int, k: int, rng: random.Random
                         ) -> tuple[int, ...]:
    """A uniformly random element of Syl_p(S_{p^k}).

    Points are the leaves of the p-ary tree of depth k, written as k
    base-p digits, most significant first.  Every internal vertex turns
    its children by an independent random rotation; the group of all
    such tree automorphisms is the iterated wreath product
    C_p wr ... wr C_p, a Sylow p-subgroup of S_{p^k}.
    """
    rotations = [[rng.randrange(p) for _ in range(p ** level)]
                 for level in range(k)]
    image = []
    for x in range(p ** k):
        y = 0
        for level in range(k):
            vertex = x // p ** (k - level)
            digit = (x // p ** (k - 1 - level)) % p
            y = y * p + (digit + rotations[level][vertex]) % p
        image.append(y)
    return tuple(image)


def closure_order(gens: tuple[tuple[int, ...], ...]) -> int:
    """Order of the permutation group the generators produce, by a
    breadth-first closure written independently of the program."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = tuple(map(e.__getitem__, g))
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def random_pgroups(seed: int) -> tuple[Input, ...]:
    """Subgroups generated by 2 or 3 random Sylow elements.

    Draws are rejected until each stratum holds its quota of every
    order; the expected order is kept to check the program's closure.
    """
    rng = random.Random(seed)
    out = []
    for p, k, quota in RANDOM_STRATA:
        left = dict(quota)
        draws = 0
        while any(left.values()):
            draws += 1
            if draws > _MAX_DRAWS:
                raise RuntimeError(f"quota {quota} of Syl_{p}(S_{p ** k}) "
                                   f"not filled in {_MAX_DRAWS} draws")
            gens = tuple(random_sylow_element(p, k, rng)
                         for _ in range(rng.choice((2, 3))))
            order = closure_order(gens)
            if left.get(order, 0) == 0:
                continue
            left[order] -= 1
            out.append(Input(key=f"Syl{p}S{p ** k}#{len(out)}", prime=p,
                             run_oracle=None,
                             oracle_cap=RANDOM_ORACLE_CAP,
                             degree=p ** k, generators=gens,
                             expected_order=order))
    return tuple(out)


def workload_inputs(name: str, seed: int) -> tuple[Input, ...]:
    if name == "oracle_catalog":
        return ORACLE_CATALOG
    if name == "formula_large":
        return FORMULA_LARGE
    if name == "random_pgroups":
        return random_pgroups(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("oracle_catalog", "formula_large", "random_pgroups")

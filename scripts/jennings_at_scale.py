#!/usr/bin/env python3
"""Show the formula route scaling far past the explicit-algebra regime.

The brute-force oracle is quadratic-space in |G| and stops near order
128.  The subgroup-series route only touches group elements, so it
handles the order-2048 and order-15625 wreath products (permutation
backing, no table at all) and the order-65536 direct product
C2wrC8 x C8 x C4 (product backing: each factor multiplies on its own)
in well under a second each, build included.

    python3 scripts/jennings_at_scale.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lienilp.dimension import d_vector, series_recursive, \
    upper_index_jennings
from lienilp.groups import cyclic_group, direct_product, \
    lower_central_series, wreath_cyclic


def profile(title: str, p: int, build) -> None:
    t0 = time.perf_counter()
    g = build()
    t_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    gamma = [s.order for s in lower_central_series(g)]
    series = series_recursive(g, p)
    d = d_vector(series)
    t = upper_index_jennings(d)
    t_analysis = time.perf_counter() - t0
    print(f"{title}: order {g.order} ({g.backing} backing)")
    print(f"  built in {t_build * 1000:.0f} ms, "
          f"analysed in {t_analysis * 1000:.0f} ms")
    print(f"  lower central orders: {gamma}")
    print(f"  series orders: {list(series.orders())}")
    print(f"  jump exponents: {d.entries}  (n = {d.n})")
    print(f"  upper index: {t}  (bound |G'|+1 = {p ** d.n + 1})")
    print()


def main() -> int:
    for p, q in ((2, 4),    # oracle-sized reference point
                 (2, 8),    # order 2048: above the oracle's limit, no table
                 (5, 5)):   # order 15625: permutation backing
        profile(f"wreath C{p} wr C{q}", p, lambda: wreath_cyclic(p, q))
    # order 65536: product backing over a permutation-backed wreath factor
    profile("product C2wrC8 x C8 x C4", 2, lambda: direct_product(
        direct_product(wreath_cyclic(2, 8), cyclic_group(8)),
        cyclic_group(4)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

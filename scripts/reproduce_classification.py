#!/usr/bin/env python3
"""Reproduce the desk-scale classification sweep.

Scans the shipped catalog at p = 2 (orders <= 64), p = 3 (orders <= 81)
and p = 5, printing per-group verdicts, the agreement of the three
almost-maximal detectors, and the sharpness witnesses for p = 2, 3
among the groups scanned there.  Exits 3 when the detectors disagree on
some group.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lienilp.catalog import Catalog
from lienilp.classify import corollary_sharpness
from lienilp.report import analyze

SWEEPS = ((2, 64), (3, 81), (5, 128))


def main() -> int:
    catalog = Catalog.load()
    exit_code = 0
    scanned: dict[int, list] = {}

    for prime, max_order in SWEEPS:
        print(f"\n=== characteristic {prime}, orders <= {max_order} ===")
        print(f"{'group':<10} {'order':>6} {'t_upper':>8} "
              f"{'oracle':>12} {'verdict':<20} detectors")
        reports = scanned[prime] = []
        for entry in catalog.entries:
            g = catalog.build(entry.name)
            if g.order > max_order:
                continue
            rep = analyze(g, prime, name=entry.name)
            reports.append(rep)
            oracle = (f"{rep.oracle.t_upper}/{rep.oracle.t_lower}"
                      if rep.oracle.ran and rep.oracle.t_upper else "-")
            agree = "-"
            if rep.lie_nilpotent:
                agree = ("agree" if rep.checks["classification_biconditional"]
                         else "DISAGREE")
                if agree == "DISAGREE":
                    exit_code = 3
            print(f"{entry.name:<10} {g.order:>6} "
                  f"{str(rep.t_upper_jennings):>8} {oracle:>12} "
                  f"{rep.verdict:<20} {agree}")

    for prime in (2, 3):
        rep = corollary_sharpness(prime, scanned[prime])
        print(f"\nsharpness at p = {prime}:")
        for w in rep.witnesses:
            target = 2 ** w.n if prime == 2 else 3 ** w.n - 1
            relation = (">" if w.t_upper > w.small_p_bound else
                        "=" if w.t_upper == w.small_p_bound else "<")
            print(f"  {w.name}: t = {w.t_upper} (second-highest value "
                  f"{target}); p>=5-style bound {w.small_p_bound} "
                  f"({w.t_upper} {relation} {w.small_p_bound})")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

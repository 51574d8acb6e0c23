"""Three independent detectors for the (almost) extremal upper index.

A Lie nilpotent KG with |G'| = p^n satisfies t <= p^n + 1.  The top
value and the next attainable one, p^n - p + 2, can each be recognised
structurally (class plus abelian types of the lower-central terms),
numerically from the jump-exponent profile, and directly from the
computed index.  The three detectors must agree; cross_validate reports
any disagreement instead of raising.

Every function here is a pure function of the facts it reads, so one
analysis computes those facts once and hands them over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .dimension import DVector
from .errors import NoWitnessFoundError
from .groups import AbelianType

if TYPE_CHECKING:
    from .report import LieReport


def theorem1_structural_case(p: int,
                             gamma_types: Sequence[AbelianType | None]
                             ) -> str | None:
    """Match the structural conditions that characterise an almost
    maximal upper index; the four cases are mutually exclusive.

    ``gamma_types`` are the abelian types of the lower central terms of
    a Lie nilpotent KG, from G down to the trivial term (None for a
    nonabelian term); the class is the number of nontrivial terms."""
    cl = sum(t is None or bool(t.factors) for t in gamma_types)
    g2 = gamma_types[1] if len(gamma_types) > 1 else None
    g3 = gamma_types[2] if len(gamma_types) > 2 else None
    if p == 2 and cl == 2 and g2 == AbelianType((2, 2)):
        return "i"
    if p == 2 and cl == 4 and g2 == AbelianType((4, 2)) \
            and g3 == AbelianType((2, 2)):
        return "ii"
    if p == 2 and cl == 4 and g2 == AbelianType((2, 2, 2)):
        return "iii"
    if p == 3 and cl == 3 and g2 == AbelianType((3, 3)):
        return "iv"
    return None


def _profile_positions(p: int, n: int) -> dict[int, int]:
    positions: dict[int, int] = {}
    for i in range(n - 1):
        k = p ** i + 1
        positions[k] = positions.get(k, 0) + 1
    k = p ** (n - 1)
    positions[k] = positions.get(k, 0) + 1
    return positions


def lemma2_profile(d: DVector) -> str | None:
    """Match the jump-exponent profiles equivalent to an almost maximal
    index; every entry outside the profile must vanish."""
    p, n = d.prime, d.n
    if p == 2 and n == 2 and d.entries == {2: 2}:
        return "i"
    if p == 2 and n > 2 and d.entries == _profile_positions(2, n):
        return "ii"
    if p == 3 and n == 2 and d.entries == {2: 1, 3: 1}:
        return "iii"
    if p == 3 and n > 2 and d.entries == _profile_positions(3, n):
        return "iv"
    return None


def _bucket(t: int, n: int, p: int) -> str:
    """Status as a function of (t, n, p) alone, and the one place that
    compares t with the two top index values."""
    if n == 0:
        return "abelian"
    if t == p ** n + 1:
        return "maximal"
    if t == p ** n - p + 2:
        return "almost_maximal"
    return "below"


def classify(d: DVector | None, t: int | None,
             structural: str | None) -> str:
    """The verdict tag of (G, p): not_lie_nilpotent, abelian, maximal,
    almost_maximal[.case] or below, bucketed by the upper index ``t``
    computed from the jump exponents ``d``; both are None when KG is not
    Lie nilpotent.  The structural case names an almost maximal verdict
    and never moves the bucket."""
    if d is None:
        return "not_lie_nilpotent"
    status = _bucket(t, d.n, d.prime)
    if status == "almost_maximal" and structural:
        return f"almost_maximal.{structural}"
    return status


def cross_validate(d: DVector, t: int, structural: str | None,
                   profile: str | None) -> bool:
    """Whether the structural case, the jump profile and the index ``t``
    computed from ``d`` agree on an almost maximal index; disagreement
    is reported, not raised."""
    numeric = _bucket(t, d.n, d.prime) == "almost_maximal"
    return (structural is not None) == numeric \
        and (profile is not None) == numeric


@dataclass
class SharpnessWitness:
    name: str
    n: int
    t_upper: int
    small_p_bound: int   # p^(n-1) + 2p - 1, the bound valid for p >= 5


def corollary_sharpness(p: int, reports: Sequence[LieReport]
                        ) -> list[SharpnessWitness]:
    """Exhibit analysed groups attaining the second-highest index value
    (2^n for p = 2, 3^n - 1 for p = 3), showing the bound for p >= 5
    does not extend down to p = 2, 3.  Reports at another prime are
    ignored."""
    if p not in (2, 3):
        raise ValueError("sharpness targets exist only for p = 2 and p = 3")
    found = [SharpnessWitness(name=r.name, n=r.n,
                              t_upper=r.t_upper_jennings,
                              small_p_bound=p ** (r.n - 1) + 2 * p - 1)
             for r in reports
             if r.prime == p and r.verdict.startswith("almost_maximal")]
    if not found:
        raise NoWitnessFoundError(
            f"no almost-maximal witness among the reports for p = {p}")
    return found

"""Group catalog: JSON-lines entries naming how to build each group.

One JSON object per line; blank lines and lines starting with '#' are
skipped.  Recognised construction kinds and their fields:

    {"kind": "cyclic",        "name": ..., "order": n}
    {"kind": "dihedral",      "name": ..., "order": n}        # n even
    {"kind": "quaternion8",   "name": ...}
    {"kind": "extraspecial",  "name": ..., "p": p}            # odd p, order p^3, exponent p
    {"kind": "table",         "name": ..., "table": [[...]]}
    {"kind": "permutations",  "name": ..., "degree": d, "generators": [[...]]}
    {"kind": "direct_product","name": ..., "factors": [names]}
    {"kind": "wreath_cyclic", "name": ..., "p": p, "q": q}
    {"kind": "semidirect",    "name": ..., "parts": [n, h],
                              "action": {"<h-index>": [perm of n indices]}}

Semidirect actions may be given on a generating subset of the acting
group; the remaining automorphisms are filled in by composition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    CatalogParseError,
    NotHomomorphismError,
    UnknownConstructionError,
    UnresolvedReferenceError,
)
from .groups import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    direct_product,
    extraspecial_exponent_p,
    from_multiplication_table,
    from_permutation_generators,
    quaternion_group8,
    semidirect_product,
    wreath_cyclic,
)

_KINDS = {"cyclic", "dihedral", "quaternion8", "extraspecial", "table",
          "permutations", "direct_product", "wreath_cyclic", "semidirect"}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str
    params: dict
    line: int


def load_catalog(path: str | Path) -> list[CatalogEntry]:
    """Parse a catalog file into validated entries (names unique,
    kinds known; references are resolved at build time)."""
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogParseError(lineno, f"invalid JSON ({exc.msg})")
        if not isinstance(obj, dict):
            raise CatalogParseError(lineno, "entry must be a JSON object")
        name = obj.get("name")
        kind = obj.get("kind")
        if not isinstance(name, str) or not name:
            raise CatalogParseError(lineno, "entry needs a 'name' string")
        if kind not in _KINDS:
            raise UnknownConstructionError(
                f"line {lineno}: unknown construction kind {kind!r}")
        if name in seen:
            raise CatalogParseError(lineno, f"duplicate name {name!r}")
        seen.add(name)
        params = {k: v for k, v in obj.items() if k not in ("name", "kind")}
        entries.append(CatalogEntry(name=name, kind=kind, params=params,
                                    line=lineno))
    return entries


def _expand_action(h: FiniteGroup, n_order: int, given: dict) -> dict:
    """Complete a generator-indexed action to all of h breadth first:
    x * s acts as x's image after s's.  ``semidirect_product`` checks
    that the result is a homomorphism."""
    gens: dict[int, np.ndarray] = {}
    for key, perm in given.items():
        j = int(key)
        arr = np.asarray(perm, dtype=np.int64)
        if arr.shape != (n_order,):
            raise NotHomomorphismError(
                f"action image for element {j} has length {arr.size}, "
                f"expected {n_order}")
        gens[j] = arr
    acts = {0: np.arange(n_order, dtype=np.int64), **gens}
    queue = list(acts)
    for x in queue:
        for s, a in gens.items():
            xs = h.multiply(x, s)
            if xs not in acts:
                acts[xs] = acts[x][a]
                queue.append(xs)
    if len(acts) < h.order:
        raise NotHomomorphismError(
            "action images do not cover the acting group (keys must "
            "generate it)")
    return acts


class Catalog:
    """Entries indexed by name, with memoised recursive building."""

    def __init__(self, entries: list[CatalogEntry]):
        self.entries = list(entries)
        self.by_name = {e.name: e for e in self.entries}
        self._built: dict[str, FiniteGroup] = {}

    @classmethod
    def load(cls, path: str | Path | None = None) -> "Catalog":
        if path is None:
            path = resources.files("lienilp").joinpath("data/catalog.jsonl")
        return cls(load_catalog(path))

    def build(self, name: str) -> FiniteGroup:
        return self._build(name, ())

    def _build(self, name: str, stack: tuple[str, ...]) -> FiniteGroup:
        if name in self._built:
            return self._built[name]
        if name not in self.by_name:
            chain = " -> ".join(stack + (name,))
            raise UnresolvedReferenceError(f"unknown entry {chain!r}")
        if name in stack:
            chain = " -> ".join(stack + (name,))
            raise UnresolvedReferenceError(f"cyclic reference {chain}")
        group = _construct(self.by_name[name], self, stack + (name,))
        self._built[name] = group
        return group


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_rows(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(r, list) and all(map(_is_int, r)) for r in v)


def _is_names(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# What each field must hold, as said in an error, and its test.
_FIELDS = {
    "order": ("an integer", _is_int),
    "p": ("an integer", _is_int),
    "q": ("an integer", _is_int),
    "degree": ("an integer", _is_int),
    "table": ("a list of integer lists", _is_rows),
    "generators": ("a list of integer lists", _is_rows),
    "factors": ("a list of entry names", _is_names),
    "parts": ("a list of entry names", _is_names),
    "action": ("an object from element indices to integer lists",
               lambda v: isinstance(v, dict) and _is_rows(list(v.values()))
               and all(k.isdecimal() and k == str(int(k)) for k in v)),
}


def _require(entry: CatalogEntry, key: str):
    if key not in entry.params:
        raise CatalogParseError(
            entry.line, f"{entry.kind} entry {entry.name!r} needs {key!r}")
    value = entry.params[key]
    what, ok = _FIELDS[key]
    if not ok(value):
        raise CatalogParseError(
            entry.line, f"{entry.kind} entry {entry.name!r}: {key!r} must "
                        f"be {what}")
    return value


def _construct(entry: CatalogEntry, catalog: Catalog,
               stack: tuple[str, ...]) -> FiniteGroup:
    kind = entry.kind
    if kind == "cyclic":
        return cyclic_group(_require(entry, "order"))
    if kind == "dihedral":
        return dihedral_group(_require(entry, "order"))
    if kind == "quaternion8":
        return quaternion_group8()
    if kind == "extraspecial":
        return extraspecial_exponent_p(_require(entry, "p"))
    if kind == "table":
        return from_multiplication_table(_require(entry, "table"))
    if kind == "permutations":
        return from_permutation_generators(
            _require(entry, "degree"), _require(entry, "generators"))
    if kind == "wreath_cyclic":
        return wreath_cyclic(_require(entry, "p"),
                             _require(entry, "q"))
    if kind == "direct_product":
        names = _require(entry, "factors")
        if len(names) < 2:
            raise CatalogParseError(
                entry.line, "direct_product needs at least two factors")
        parts = [catalog._build(n, stack) for n in names]
        out = parts[0]
        for nxt in parts[1:]:
            out = direct_product(out, nxt)
        return out
    if kind == "semidirect":
        parts = _require(entry, "parts")
        if len(parts) != 2:
            raise CatalogParseError(
                entry.line, "semidirect needs parts = [normal, acting]")
        n = catalog._build(parts[0], stack)
        h = catalog._build(parts[1], stack)
        action = _require(entry, "action")
        if any(int(k) >= h.order for k in action):
            raise CatalogParseError(
                entry.line, f"semidirect entry {entry.name!r}: 'action' must "
                            f"be keyed by element indices below {h.order}")
        acts = _expand_action(h, n.order, action)
        return semidirect_product(n, h, acts)
    raise UnknownConstructionError(f"unknown construction kind {kind!r}")

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
group: ``semidirect_product`` completes the remaining automorphisms by
composition and checks that the result is a homomorphism.

A malformed field is a ``CatalogParseError`` naming its line.  Any
other error a builder raises keeps its type and fields, and its
message ends in ``(catalog line N, entry 'X')``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from pathlib import Path

from .errors import (
    CatalogParseError,
    LieNilpError,
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

# Each kind's fields, read in order, and its builder, called with their
# values.  The lambdas look their builder up when called, so a wrapped
# or patched builder is the one that runs.  A field of entry names
# ("factors", "parts") reaches the builder as the built groups.
_BUILDERS = {
    "cyclic": (("order",), lambda order: cyclic_group(order)),
    "dihedral": (("order",), lambda order: dihedral_group(order)),
    "quaternion8": ((), lambda: quaternion_group8()),
    "extraspecial": (("p",), lambda p: extraspecial_exponent_p(p)),
    "table": (("table",), lambda rows: from_multiplication_table(rows)),
    "permutations": (("degree", "generators"),
                     lambda d, gens: from_permutation_generators(d, gens)),
    "wreath_cyclic": (("p", "q"), lambda p, q: wreath_cyclic(p, q)),
    "direct_product": (("factors",),
                       lambda factors: reduce(direct_product, factors)),
    "semidirect": (("parts", "action"), lambda parts, action:
                   semidirect_product(*parts, {int(k): image for k, image
                                               in action.items()})),
}

# The fields that name entries: how many names each takes, and what an
# entry with another number needs.
_REFERENCES = {
    "factors": (lambda n: n >= 2, "needs at least two factors"),
    "parts": (lambda n: n == 2, "needs parts = [normal, acting]"),
}


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
        if kind not in _BUILDERS:
            raise UnknownConstructionError(
                lineno, f"unknown construction kind {kind!r}")
        if name in seen:
            raise CatalogParseError(lineno, f"duplicate name {name!r}")
        seen.add(name)
        params = {k: v for k, v in obj.items() if k not in ("name", "kind")}
        entries.append(CatalogEntry(name=name, kind=kind, params=params,
                                    line=lineno))
    return entries


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
        stack += (name,)
        chain = " -> ".join(stack)
        if name not in self.by_name:
            raise UnresolvedReferenceError(f"unknown entry {chain!r}")
        if name in stack[:-1]:
            raise UnresolvedReferenceError(f"cyclic reference {chain}")
        entry = self.by_name[name]
        keys, builder = _BUILDERS[entry.kind]
        args = [_require(entry, key) for key in keys]
        for i, key in enumerate(keys):
            if key in _REFERENCES:
                fits, needs = _REFERENCES[key]
                if not fits(len(args[i])):
                    raise CatalogParseError(
                        entry.line, f"{entry.kind} entry {name!r} {needs}")
                args[i] = [self._build(n, stack) for n in args[i]]
        try:
            group = builder(*args)
        except (LieNilpError, ValueError) as exc:
            # The same object, so its type and fields (.triple, .element)
            # reach the callers' handlers unchanged.
            exc.args = (f"{exc} (catalog line {entry.line}, entry "
                        f"{name!r})",)
            raise
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

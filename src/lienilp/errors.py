"""Exception types used across the package."""

from __future__ import annotations


class LieNilpError(Exception):
    """Base class for every package-specific error."""


# --- group construction / validation ---------------------------------------


class CapExceededError(LieNilpError):
    """A construction would exceed the configured order cap."""


class NotAssociativeError(LieNilpError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(
            f"multiplication table is not associative: "
            f"({i}*{j})*{k} != {i}*({j}*{k})"
        )


class NoIdentityError(LieNilpError):
    def __init__(self) -> None:
        super().__init__("multiplication table has no two-sided identity")


class NoInverseError(LieNilpError):
    def __init__(self, element: int):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAutomorphismError(LieNilpError):
    """An action image is not an automorphism of the normal part."""


class NotHomomorphismError(LieNilpError):
    """The supplied action does not respect the group operation."""


# --- group-theoretic preconditions ------------------------------------------


class NotNilpotentError(LieNilpError):
    """The lower central series stabilised above the trivial subgroup."""


class NotNormalError(LieNilpError):
    def __init__(self, element: int, conjugator: int):
        self.element = element
        self.conjugator = conjugator
        super().__init__(
            f"subgroup is not normal: conjugating {element} by {conjugator} "
            f"leaves the subgroup"
        )


class NotAbelianError(LieNilpError):
    """An operation requiring an abelian subgroup got a nonabelian one."""


class NotCentralError(LieNilpError):
    """An operation requiring a central subgroup got a noncentral one."""


class NotLieNilpotentError(LieNilpError):
    """KG is not Lie nilpotent for the requested group/characteristic."""


class NotPrimeError(LieNilpError):
    """The requested characteristic p is not a prime >= 2."""


# --- dimension series internals ----------------------------------------------


class IndexNotPPowerError(LieNilpError):
    """A successive series index failed to be a power of the characteristic."""


class SeriesNotTerminatingError(LieNilpError):
    """Defensive guard: a series exceeded its provable termination bound."""


# --- algebra oracle -----------------------------------------------------------


class DimensionMismatchError(LieNilpError):
    """Vectors of incompatible length were combined."""


class OracleCapExceededError(LieNilpError):
    """The group is too large for the explicit group-algebra oracle."""


class NotGeneratingError(LieNilpError):
    """A group's stored generators do not generate the whole group."""


class NoConvergenceError(LieNilpError):
    """The Lie power chain did not reach zero within the step limit."""

    def __init__(self, message: str, dims: list[int] | None = None):
        self.dims = dims or []
        super().__init__(message)


# --- catalog / CLI -------------------------------------------------------------


class CatalogParseError(LieNilpError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"catalog line {line}: {message}")


class UnknownConstructionError(CatalogParseError):
    """A catalog entry names a construction kind that does not exist."""


class UnresolvedReferenceError(LieNilpError):
    """A catalog entry references a missing entry or forms a cycle."""

"""Exception types shared across the package."""


class NecklacesError(Exception):
    """Base class for all package-specific errors."""


class GenusMismatch(NecklacesError):
    """Two operands live over symplectic spaces of different genus."""


class NotCyclic(NecklacesError):
    """A tensor claimed to be a cyclic invariant has a homogeneous
    component that is not rotation-invariant."""


class PrecisionError(NecklacesError):
    """A series operation was called outside its domain (e.g. exp of a
    series with nonzero constant term)."""


class NotInN(NecklacesError):
    """A proposed deformation element does not lie in the kernel of the
    bracket contraction on the second exterior power."""


class NotChainMap(NecklacesError):
    """The anticommutation identity d*boundary + boundary*d = 0 failed at a
    requested cell, so the coboundary does not descend to homology there."""


class MinWeightTooLow(NecklacesError):
    """Conjugation by exp(ad u) requires every component of u to have
    weight >= 3 so that the series terminates below the cutoff."""


class ConditionFailed(NecklacesError):
    """A hypothesis of a deformation-invariance check failed; the message
    names the violated clause."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"{clause}: {detail}" if detail else clause)


class InconsistentExpansions(NecklacesError):
    """Two expansions are not related by exp of a symplectic derivation
    within the working cutoff."""


class SolveFailed(NecklacesError):
    """An order-by-order correction system had no solution.  This should
    never happen for valid inputs; it signals an internal bug."""


class ParseError(NecklacesError):
    """A usage error: bad element syntax, which carries the offset of the
    first bad token, or a bad argument, which carries no position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        super().__init__(message if position is None else f"{message} (at offset {position})")


class CellTooLarge(NecklacesError):
    """A cell, or a table built for one, would hold more than ``BUDGET``
    entries.  Raised from the size alone, before anything is enumerated or
    allocated."""

    BUDGET = 1 << 22

    @classmethod
    def check(cls, what: str, size: int) -> None:
        if size > cls.BUDGET:
            raise cls(f"{what} would hold {size:,} entries, over the budget of {cls.BUDGET:,}")

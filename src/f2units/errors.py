"""Exception types shared across the package."""

from __future__ import annotations


class F2UnitsError(Exception):
    """Base class for all library errors."""


class GroupMismatchError(F2UnitsError):
    """Operands belong to different group tables; raised only by
    ``groups._require_group``."""


class NotUnitaryError(F2UnitsError):
    """An element required to be unitary (or at least a unit) is not."""


class NotAUnitError(F2UnitsError):
    """Element is not invertible in F2[G]."""


class BadIndexError(F2UnitsError):
    """An element index outside the group; raised only by
    ``groups._require_index``."""


class BadCosetsError(F2UnitsError):
    """The cosets of a split do not partition the group; raised only by
    ``algebra._coset_parts``."""


class NotAbelianError(F2UnitsError):
    """Operation requires an abelian carrier."""


class BadSquareElementError(F2UnitsError):
    """Designated square element is the identity or not an involution."""


class NotASubgroupError(F2UnitsError):
    """Member set is not closed under multiplication and inverses."""


class NoComplementError(F2UnitsError):
    """The factor is not a direct factor of the ambient abelian group."""


class TooLargeError(F2UnitsError):
    """A count above the exhaustive bound, or a listing or scan whose
    estimated size is above the memory budget."""


class NotSubsetError(F2UnitsError):
    """Claimed factor is not contained in the ambient unit set."""


class HypothesisViolationError(F2UnitsError):
    """A structural hypothesis needed by a decomposition does not hold."""


class NotATwoGroupError(HypothesisViolationError):
    """The group order is not a power of two."""


class NotAbelianSubgroupError(HypothesisViolationError):
    """The designated subgroup A is not abelian."""


class WrongIndexError(HypothesisViolationError):
    """The designated subgroup does not have index two."""


class BadOrderError(HypothesisViolationError):
    """The designated element does not have the required order."""


class NotInvertingError(HypothesisViolationError):
    """Conjugation by b does not invert every element of A."""


class CenterQuotientNotKleinError(HypothesisViolationError):
    """G modulo its center is not the Klein four-group."""


class UnsupportedOrderError(F2UnitsError, ValueError):
    """A group family has no member of the requested order."""


class ParseError(F2UnitsError):
    """Malformed group spec, element text or setting."""


class GroupAxiomViolationError(F2UnitsError):
    """Explicit table fails a group axiom; carries the offending data."""

    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness

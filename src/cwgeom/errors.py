"""Exception hierarchy shared by all cwgeom modules."""


class CWError(Exception):
    """Base class; carries a machine-readable ``kind`` for the CLI."""

    kind = "error"


class MalformedProfileError(CWError):
    """S is not symmetric (beyond tolerance) or otherwise ill-formed."""

    kind = "malformed-profile"


class IncompatibleProfileError(CWError):
    """Two objects built over different profiles were combined."""

    kind = "incompatible-profile"


class CentraliserViolationError(CWError):
    """A matrix passed as an element of C_O(n)(S) does not commute with S
    or is not orthogonal."""

    kind = "centraliser-violation"


class PreconditionError(CWError):
    """An operation's stated precondition does not hold for the input."""

    kind = "precondition"


class ResonanceError(CWError):
    """(s/c)^2 hits a positive eigenvalue of S on whose eigenspace A fixes
    a vector: the conjugation linear system is singular."""

    kind = "resonance"


class UnsupportedCaseError(CWError):
    """Input falls outside the case an operation is defined for."""

    kind = "unsupported-case"


class DomainError(CWError):
    """A map was evaluated outside its domain."""

    kind = "domain"


class OverflowingValueError(CWError, ValueError):
    """A computed value is not a finite float, for instance a point whose
    coordinates overflow."""

    kind = "overflow"


class InputError(CWError):
    """Malformed external input (JSON parsing/validation)."""

    kind = "input"

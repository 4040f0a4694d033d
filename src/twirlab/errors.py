"""Exception types shared across the package."""


class TwirlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TwirlabError):
    """Operands have incompatible dimensions."""


class ValidationFailure(TwirlabError):
    """A system failed a structural validity check at construction time,
    or failed the validation stage of a command that refuses invalid worlds."""


class NotAGroup(TwirlabError):
    """A set of matrices is not closed, not invertible, or lacks an identity."""


class LabelMismatch(TwirlabError):
    """Group element labels do not line up across systems."""


class CertificationError(TwirlabError):
    """A finite realization of a compact group is used outside its certified range."""


class UnsupportedSize(TwirlabError):
    """A construction was requested beyond the size its certificate covers."""


class ActionNotPhysical(TwirlabError):
    """A group element fails to map the state space into itself or breaks the unit."""


class TrivialAction(TwirlabError):
    """Every group element fixes the seed state; no witness can be built."""


class InconsistentWorlds(TwirlabError):
    """Systems passed together do not fit (wrong dims, wrong parts)."""


class NotSeparable(TwirlabError):
    """No invariant effect separates the given pair of states above tolerance."""


class SolverFailure(TwirlabError):
    """A linear program did not solve.  Carries the solver's status and message."""

    def __init__(self, what: str, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(f"{what} failed (solver status {status}): {message}")


class SchemaError(TwirlabError):
    """A model file violates the input schema.  Carries a JSON path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class BadOption(SchemaError):
    """An analysis option is outside its range.  The path names where it
    was set: a model-file path, a command-line flag or an Options field."""


class DimensionError(SchemaError):
    """A model file entry has the wrong shape for its declared system."""


class UnknownBuiltin(TwirlabError):
    """A builtin world reference does not name a known recipe."""


class BadParam(TwirlabError):
    """A builtin parameter is unknown, repeated, not an integer, or out of range."""

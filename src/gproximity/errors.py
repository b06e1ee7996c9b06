"""Exception hierarchy shared by all modules."""


class GproximityError(Exception):
    """Base class for all library errors."""


class StructuralError(GproximityError):
    """Malformed input data (non-square matrix, non-finite entries, ...)."""


class DomainError(GproximityError):
    """An operation was called outside its mathematical domain."""


class ClassificationError(GproximityError):
    """A classification precondition failed (e.g. edge preservation)."""


class OrbitError(GproximityError):
    """A map could not be applied at some orbit point."""

    def __init__(self, message, last_valid):
        super().__init__(message)
        self.last_valid = last_valid


class HypothesisError(GproximityError):
    """A theorem hypothesis failed during an iteration scheme."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class SpecError(GproximityError):
    """An instance builder was given inconsistent parameters."""


class ParseError(GproximityError):
    """An instance file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

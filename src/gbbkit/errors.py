"""Exception hierarchy shared across the package."""


class GbbError(Exception):
    """Base class for all errors raised by gbbkit on bad input."""


class InputError(GbbError):
    """A file, fixture name or argument that cannot be parsed."""


class ComplexError(GbbError):
    pass


class CoverError(GbbError):
    def __init__(self, message, subgroup=None):
        super().__init__(message)
        self.subgroup = subgroup


class GroupError(GbbError):
    pass


class SetError(GbbError):
    pass


class QuotientError(GbbError):
    pass


class CubicalError(GbbError):
    pass


class DehnError(GbbError):
    pass


class WindowError(DehnError):
    """Membership of an integer set could not be decided from the
    certified window; carries the window that would be required."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class InternalError(AssertionError):
    """Construction invariant violated: a bug trap, not a user error."""

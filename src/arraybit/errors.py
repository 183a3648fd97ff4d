"""Exception hierarchy shared across the package."""


class ArrayBitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ArrayBitError, ValueError):
    """A caller violated an operation's precondition."""


class DataError(ArrayBitError):
    """Malformed or inconsistent data/index files."""


class InternalError(ArrayBitError):
    """An internal invariant was violated; indicates a bug."""

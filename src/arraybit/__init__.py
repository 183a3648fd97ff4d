"""Hierarchical bitmap indexing for chunked multidimensional arrays."""

from .errors import ArrayBitError, DataError, InputError, InternalError

__all__ = ["ArrayBitError", "DataError", "InputError", "InternalError"]

__version__ = "0.1.0"

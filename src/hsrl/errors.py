"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError/FormatError -> 3, NumericsError -> 4, and any other exception
-> 5 (internal error).
"""


class HsrlError(Exception):
    """Base class for all package errors."""


class ShapeError(HsrlError):
    """Operands with incompatible dimensions."""


class ContractError(HsrlError):
    """A documented precondition was violated by the caller."""


class NumericsError(HsrlError):
    """A NaN or Inf appeared where only finite values are allowed."""


class FormatError(HsrlError):
    """A serialized file is malformed, truncated, or of the wrong version."""


class DataError(HsrlError):
    """Input data is missing, empty, or unusable."""


class ConfigError(HsrlError):
    """A run configuration is invalid."""


class VocabTooLargeError(DataError):
    """A codebook level asked for more centroids than there are distinct points."""

    def __init__(self, level: int, distinct: int, requested: int):
        self.level = level
        super().__init__(
            f"level {level}: requested {requested} centroids but only "
            f"{distinct} distinct residual points are available"
        )


class UnknownItemError(HsrlError, KeyError):
    """An item id is absent from the table or index being queried."""

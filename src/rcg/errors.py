"""Exception types shared across the package."""


class RcgError(Exception):
    """Base class for package-specific errors."""


class ResourceLimitError(RcgError):
    """A requested computation exceeds a configured size budget."""


class NumericalError(RcgError):
    """A numerical routine (an eigensolver or a matrix inverse) failed."""


class InternalInconsistencyError(RcgError):
    """Two computations that must agree by construction disagreed."""


class ConnectivityError(RcgError):
    """An operation requiring a connected graph received a disconnected one."""

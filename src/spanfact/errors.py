"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, every other error -> 3.
Exit 4 (a search ran out of its node budget) is returned, not raised.
"""


class SpanfactError(Exception):
    """Base class for all package errors."""


class ConfigError(SpanfactError):
    """Malformed configuration document; message cites field and token."""


class PreconditionError(SpanfactError):
    """An operation's stated precondition does not hold for the input."""


class SizeMismatchError(SpanfactError):
    """Permutations defined on different point counts were combined."""


class SizeCapError(SpanfactError):
    """Group or enumeration closure exceeded its configured cap."""


class NotASubgroupError(PreconditionError):
    """Subgroup generators produced elements outside the ambient group."""


class StrongConnectivityError(PreconditionError):
    """Constructed digraph is not strongly connected."""


class UniformityError(PreconditionError):
    """x-cycle lengths are not all equal; the block framework needs n = r*m."""


class PhaseInconsistencyError(SpanfactError):
    """The per-cycle phase offset is not constant along some x-cycle."""


class NonInvarianceError(PreconditionError):
    """A permutation does not map every block of a block system onto a block."""

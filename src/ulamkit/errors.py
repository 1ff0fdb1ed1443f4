"""Exception types shared across the package."""


class UlamkitError(Exception):
    """Base class for all package errors."""


class InvalidParameters(UlamkitError):
    """Sequence parameters or operation arguments violate a precondition."""


class HorizonTooLarge(UlamkitError):
    """A requested horizon exceeds the configured resource limit.

    `partial` carries whatever prefix was completed before the limit hit,
    or None when nothing was computed.
    """

    def __init__(self, requested, limit, partial=None):
        super().__init__(
            f"horizon {requested} exceeds resource limit {limit}"
        )
        self.requested = requested
        self.limit = limit
        self.partial = partial


class InsufficientHorizon(UlamkitError):
    """A query needs data beyond the prefix's decided horizon."""


class UnboundedPattern(UlamkitError):
    """An operation requiring bounded components met an unbounded one."""


class PatternParseError(UlamkitError):
    """Pattern code text is not syntactically valid. Carries byte offset."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class PatternSemanticError(UlamkitError):
    """Pattern code text parsed but violates a structural invariant."""


class ApplicabilityError(UlamkitError):
    """Parameters fall outside a pattern code's claimed residue class."""


class StaleCandidate(UlamkitError):
    """A periodicity candidate is inconsistent with the prefix it is applied to."""


class AlignmentFailure(UlamkitError):
    """Run decompositions cannot be aligned across samples.

    `counts` maps each sample's parameter to its run count.
    """

    def __init__(self, message, counts=None):
        super().__init__(message)
        self.counts = counts or {}


class FitFailure(UlamkitError):
    """Endpoint fitting produced a non-integer slope, or lines that miss a
    sample. Carries the first failing run index."""

    def __init__(self, message, run_index=None):
        super().__init__(message)
        self.run_index = run_index


class CorruptCache(UlamkitError):
    """Cache file failed checksum or structural validation."""


class VersionMismatch(UlamkitError):
    """Cache file was written by an incompatible format version."""

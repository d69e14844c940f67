"""Exception types shared across the package."""


class PillowDegError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(PillowDegError):
    """An argument is outside the domain of the requested construction."""


class NonIntegralNodeCount(PillowDegError):
    """The branch-curve degree is odd, so the node-count formula (which
    divides the squared degree by two) has no integer value."""


class NegativeCharacter(PillowDegError):
    """A computed branch-curve character came out negative, which signals
    that the surface lies outside the regime where a general projection
    has only nodes and cusps."""

    def __init__(self, which: str, value: int):
        self.which = which
        self.value = value
        super().__init__(f"{which} = {value} < 0")


class MalformedComplex(PillowDegError):
    """A configuration violates the structural assumptions of the operation
    (for the pillow: every vertex lies on exactly 3 or 6 lines)."""

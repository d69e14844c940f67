"""Exception types shared across the package, and its one integer rule,
``_integer``, which every public function that takes a number applies."""


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
        super().__init__(f"{which} = {_text(value, strict=False)} < 0")


class MalformedComplex(PillowDegError):
    """A configuration violates the structural assumptions of the operation
    (for the pillow: every vertex lies on exactly 3 or 6 lines)."""


def _text(value: object, strict: bool = True, form=str) -> str:
    """``form(value)``, or for a value too long to print an int's size in bits
    or another value's type: as InvalidParameter, or text if not ``strict``."""
    try:
        return form(value)
    except ValueError as err:
        kind = f"{value.bit_length()}-bit" if isinstance(value, int) else type(value).__name__
        if strict:
            raise InvalidParameter(f"a {kind} parameter: {err}") from None
        return f"a {kind} int" if isinstance(value, int) else f"a {kind} too long to print"


def _integer(value: object, rule: str, low: int | None = None, high: int | None = None) -> None:
    """InvalidParameter ``f"{rule}, got {value}"`` unless ``value`` is an int,
    not a bool, in [low, high] (None: no bound); a non-int shows type and repr."""
    if type(value) is not int:
        raise InvalidParameter(f"{rule}, got {type(value).__name__} {_text(value, form=repr)}")
    if low is not None and value < low or high is not None and value > high:
        raise InvalidParameter(f"{rule}, got {_text(value)}")

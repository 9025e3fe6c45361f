"""Exception types shared by all limpack modules, and the one argument check.

The CLI maps these onto exit codes: input and precondition problems are
exit 3, resource limits exit 3, infeasibility exit 1, and a broken
internal invariant (``InternalError``, a bug in limpack, not in the
input) exit 4.
"""

import reprlib


class LimpackError(Exception):
    """Base class for all errors raised by limpack."""


class GraphInputError(LimpackError, ValueError):
    """Malformed input: bad file syntax, out-of-range vertex, bad parameter."""


class PreconditionError(LimpackError, ValueError):
    """An algorithm's structural precondition does not hold for the input."""


class ResourceLimitError(LimpackError, RuntimeError):
    """Instance exceeds a configured size limit or retry budget."""


class InfeasibleError(LimpackError, ValueError):
    """The requested optimization problem has no feasible solution."""


class InternalError(LimpackError, RuntimeError):
    """An internal invariant of an algorithm does not hold: a bug in limpack."""


def _show(value: object) -> object:
    """A value as an error message writes it.  An int of over 64 bits may be
    too long to write out (10**400 has 401 digits), so it goes by its bit
    length: "over 2^1328", or "under -2^1328" when it is negative."""
    if type(value) is int and value.bit_length() > 64:
        return f"{'under -' if value < 0 else 'over '}2^{value.bit_length() - 1}"
    return value


def _check_arg(
    name: str,
    value: float,
    low: float | None = None,
    high: float | None = None,
    number: bool = False,
) -> None:
    """The check of one argument, made once by the public entry it is
    passed to.

    The type comes first: an exact int, not a bool, or for a rate or an
    average degree (`number`) an int or a float.  Then, when `low` is
    given, the inclusive range [low, high] (no upper end without `high`),
    compared before any float is formed, so a huge int is never converted
    and a nan fails.  A lower end of 0 or 1 alone reads "nonnegative" or
    "positive"."""
    if type(value) is not int and not (number and type(value) is float):
        kind = "a number" if number else "an int"
        raise GraphInputError(f"{name} must be {kind}, got {reprlib.repr(value)}")
    if low is not None and not (low <= value and (high is None or value <= high)):
        if high is not None:
            bound = f"lie in [{_show(low)}, {_show(high)}]"
        else:
            bound = {0: "be nonnegative", 1: "be positive"}.get(low, f"be at least {low}")
        raise GraphInputError(f"{name} must {bound}, got {_show(value)}")

"""Exception types shared by all limpack modules, and their argument checks.

The CLI maps these onto exit codes: input and precondition problems are
exit 3, resource limits exit 3, infeasibility exit 1, and a broken
internal invariant (``InternalError``, a bug in limpack, not in the
input) exit 4.
"""


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


def _check_int(name: str, value: int) -> None:
    """Every count a caller passes (a limit k or l, a vertex count, a field
    order, a degree, a round budget) and every seed is an exact int, not a
    bool."""
    if type(value) is not int:
        raise GraphInputError(f"{name} must be an int, got {value!r}")


def _check_number(name: str, value: float) -> None:
    """Every rate p and average degree a caller passes is an int or a
    float, not a bool or a string."""
    if type(value) not in (int, float):
        raise GraphInputError(f"{name} must be a number, got {value!r}")


def _check_positive(name: str, value: int) -> None:
    """Every limit k or l of a packing or domination problem is an int of
    at least 1."""
    _check_int(name, value)
    if value < 1:
        raise GraphInputError(f"{name} must be positive, got {_show(value)}")

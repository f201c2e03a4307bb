"""Exception hierarchy for the quotient-means library, and the argument
helpers its modules share."""

# series_table's largest n_max: the convolution route grows faster than n^2,
# and n = 400 takes about half a second
SERIES_N_MAX = 400


def _repr(value: object) -> str:
    """repr(value) for an error message; an int too long to print shows its size."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


def _float(x: float) -> float:
    """float(x), an int beyond the float range becoming the infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return float("inf") if x > 0 else float("-inf")


class MeansError(Exception):
    """Base class for every error raised by this package."""


class DomainError(MeansError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UsageError(MeansError, ValueError):
    """The operation was invoked in a way its contract forbids."""


class DegenerateSampleError(MeansError, ZeroDivisionError):
    """All sample points coincide, so a quotient of Jensen gaps is 0/0."""


class InvalidPairError(MeansError, ValueError):
    """The (f, g) pair is unusable: its g-gap is not strictly positive."""


class InvalidReportError(MeansError, ValueError):
    """A moment report violates its internal consistency requirements."""


class BracketError(MeansError, RuntimeError):
    """A sharp order's evidence fails: its claim breaks at the order, or
    still holds at the probe just past it."""

"""Error types, resource guards and exact division.

Each error class carries its exit code on the command line and the label
its message is printed under on stderr; an InternalConsistencyError is a
bug, whose traceback the command line prints (exit 5).

Exhaustive enumerations (set partitions, group elements, subgroup lattices)
blow up quickly, so every such entry point checks its input size against a
guard and raises ResourceGuardError instead of hanging: check_guard for a
size known in advance, Work for a count kept as the work is done.  The
guards scale with the FATDIAG_GUARD_SCALE environment variable, read once
per process: setting it to 2 doubles every limit, setting it to 0.5 halves
them.  A division that must come out whole is _exact_div, which raises
InternalConsistencyError when it does not.  Every integer typed on the
command line (an option, a range bound, a preset parameter, a cycle point)
is read by _integer, whose refusal each caller words for itself.
"""

import os


class FatdiagError(Exception):
    """Base class for all library errors."""
    exit_code, label = 1, "error"


class UnsupportedSpaceError(FatdiagError):
    """The requested invariant is not defined for this space (wrong parity,
    not a manifold)."""
    exit_code, label = 2, "unsupported space"


class OracleMismatchError(FatdiagError):
    """A closed formula and its independent oracle disagree."""
    exit_code, label = 3, "oracle mismatch"


class ResourceGuardError(FatdiagError):
    """The input exceeds a guard limit for exhaustive enumeration."""
    exit_code, label = 4, "resource guard"


class InternalConsistencyError(FatdiagError):
    """An exactness assertion failed (non-integral average, negative Betti
    coefficient).  This always indicates a bug, never bad user input."""
    exit_code, label = 5, "internal error"


_scale = None  # the parsed FATDIAG_GUARD_SCALE, once read


def guard_scale() -> float:
    """Multiplier applied to every resource guard limit, read from the
    environment once per process; a bad value is reported on every call."""
    global _scale
    if _scale is None:
        _scale = _read_scale()
    return _scale


def _read_scale() -> float:
    raw = os.environ.get("FATDIAG_GUARD_SCALE", "")
    if not raw:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        raise FatdiagError(f"FATDIAG_GUARD_SCALE is not a number: {raw!r}")
    if not scale > 0:  # NaN too: every guard would pass
        raise FatdiagError(f"FATDIAG_GUARD_SCALE must be positive: {raw!r}")
    return scale


def check_guard(value: float, limit: float, what: str) -> None:
    """Raise ResourceGuardError if value exceeds the scaled limit."""
    if value > limit * guard_scale():
        raise ResourceGuardError(
            f"{what}: size {value} exceeds guard limit {limit}"
            f" (scale with FATDIAG_GUARD_SCALE)"
        )


class Work:
    """A guard's work count, kept as the work is done and checked, against
    the limit scaled once, as it grows.  done() checks the final count
    with check_guard, so every count is checked there at least once; a
    count that only bounds a search compares units with limit itself."""

    __slots__ = ("units", "limit", "cap", "what")

    def __init__(self, cap: float, what: str) -> None:
        self.units, self.cap, self.what = 0, cap, what
        self.limit = cap * guard_scale()

    def add(self, units: int) -> None:
        self.units += units
        if self.units > self.limit:
            check_guard(self.units, self.cap, self.what)

    def done(self) -> None:
        check_guard(self.units, self.cap, self.what)


def _exact_div(num: int, den: int, what: str, *args) -> int:
    """num / den, which must be exact; what, formatted with args only if
    it is not, names the computation in the error."""
    value, rest = divmod(num, den)
    if rest:
        raise InternalConsistencyError(
            f"{what.format(*args)}: non-integral value {num}/{den}")
    return value


# The most digits int() reads from text by default (Python >= 3.10.7).
_MAX_DIGITS = 4300


def _integer(text: str) -> int | None:
    """The integer text spells, or None: optional surrounding whitespace,
    at most one sign and 1 to _MAX_DIGITS ASCII digits, nothing else (no
    underscores, no other digits).

    >>> _integer(" +007 "), _integer("-1"), _integer("1_0"), _integer("4.0")
    (7, -1, None, None)
    """
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()) or len(digits) > _MAX_DIGITS:
        return None
    return int(body)

"""Error types and resource guards.

Exhaustive enumerations (set partitions, group elements, subgroup lattices)
blow up quickly, so every such entry point checks its input size against a
guard and raises ResourceGuardError instead of hanging.  The guards scale
with the FATDIAG_GUARD_SCALE environment variable, read once per process:
setting it to 2 doubles every limit, setting it to 0.5 halves them.
"""

import os


class FatdiagError(Exception):
    """Base class for all library errors."""


class UnsupportedSpaceError(FatdiagError):
    """The requested invariant is not defined for this space (wrong parity,
    not a manifold)."""


class OracleMismatchError(FatdiagError):
    """A closed formula and its independent oracle disagree."""


class ResourceGuardError(FatdiagError):
    """The input exceeds a guard limit for exhaustive enumeration."""


class InternalConsistencyError(FatdiagError):
    """An exactness assertion failed (non-integral average, negative Betti
    coefficient).  This always indicates a bug, never bad user input."""


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

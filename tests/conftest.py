from __future__ import annotations

import pytest

from fatdiag import errors


@pytest.fixture
def guard_scale_env(monkeypatch):
    """A setter of FATDIAG_GUARD_SCALE for one test; None unsets it.
    errors.guard_scale reads the variable once per process, so each call
    also forgets the value read, and monkeypatch restores both after the
    test."""
    def set_scale(value: str | None) -> None:
        if value is None:
            monkeypatch.delenv("FATDIAG_GUARD_SCALE", raising=False)
        else:
            monkeypatch.setenv("FATDIAG_GUARD_SCALE", value)
        monkeypatch.setattr(errors, "_scale", None)

    return set_scale

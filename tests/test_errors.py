from __future__ import annotations

import pytest

from fatdiag.errors import (
    FatdiagError,
    InternalConsistencyError,
    OracleMismatchError,
    ResourceGuardError,
    UnsupportedSpaceError,
    Work,
    _exact_div,
    _integer,
    check_guard,
    guard_scale,
)


def test_exception_hierarchy():
    for cls in (
        UnsupportedSpaceError,
        OracleMismatchError,
        ResourceGuardError,
        InternalConsistencyError,
    ):
        assert issubclass(cls, FatdiagError)
    assert issubclass(FatdiagError, Exception)


def test_guard_scale_default(guard_scale_env):
    guard_scale_env(None)
    assert guard_scale() == 1.0
    guard_scale_env("")
    assert guard_scale() == 1.0


def test_guard_scale_parsing(guard_scale_env):
    guard_scale_env("2.5")
    assert guard_scale() == 2.5
    guard_scale_env("0.25")
    assert guard_scale() == 0.25


def test_guard_scale_is_read_once(guard_scale_env, monkeypatch):
    # parsed on the first call and kept for the process
    guard_scale_env("2")
    assert guard_scale() == 2.0
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", "3")
    assert guard_scale() == 2.0


def test_guard_scale_rejects_garbage(guard_scale_env):
    guard_scale_env("fast")
    with pytest.raises(FatdiagError):
        guard_scale()
    guard_scale_env("-1")
    with pytest.raises(FatdiagError):
        guard_scale()
    guard_scale_env("0")
    with pytest.raises(FatdiagError):
        guard_scale()
    guard_scale_env("nan")
    with pytest.raises(FatdiagError):
        guard_scale()


def test_check_guard_boundary(guard_scale_env):
    guard_scale_env(None)
    check_guard(10, 10, "exact limit passes")
    with pytest.raises(ResourceGuardError):
        check_guard(11, 10, "over limit")


def test_check_guard_scales_both_ways(guard_scale_env):
    guard_scale_env("2")
    check_guard(19, 10, "raised limit passes")
    guard_scale_env("0.5")
    with pytest.raises(ResourceGuardError):
        check_guard(6, 10, "lowered limit fails")


def test_guard_message_mentions_knob(guard_scale_env):
    guard_scale_env(None)
    with pytest.raises(ResourceGuardError, match="FATDIAG_GUARD_SCALE"):
        check_guard(2, 1, "thing")


def test_work_checks_as_it_grows_and_when_done(guard_scale_env):
    guard_scale_env(None)
    work = Work(10, "counted thing")
    work.units += 11  # unchecked until the next add or done()
    with pytest.raises(ResourceGuardError, match="counted thing: size 11 "):
        work.done()
    work = Work(10, "counted thing")
    work.add(10)
    work.done()
    with pytest.raises(ResourceGuardError, match="size 12 "):
        work.add(2)
    guard_scale_env("2")
    work = Work(10, "counted thing")  # the limit is scaled when the count starts
    work.add(20)
    assert work.limit == 20
    work.done()


def test_exact_division():
    assert _exact_div(-12, 4, "unused {}", 1) == -3
    with pytest.raises(InternalConsistencyError, match=r"^f\(2, 3\): non-integral value 7/2$"):
        _exact_div(7, 2, "f({}, {})", 2, 3)


def test_integer_reads_one_sign_and_ascii_digits():
    for text, value in (("0", 0), (" 5 ", 5), ("+4", 4), ("-1", -1), ("007", 7),
                        ("9" * 4300, int("9" * 4300))):
        assert _integer(text) == value, text
    for text in ("", " ", "+", "-", "1_0", "\u0663", "\u00b2", "--2", "+-2", "4.0", "0x10",
                 "1 2", "1e3", "9" * 4301, "-" + "9" * 4301):
        assert _integer(text) is None, text

"""Acceptance battery: every cross-validation criterion at full range.

The full battery runs once, through the same `selfcheck.run_suite` that the
CLI `fatdiag verify` uses.  Each criterion then has its own test, made by
one factory and named test_criterion_NN_<check>, which checks the outcome
against its time budget and prints a single pass line (visible with
pytest -v through the test name, and in captured output on failure).
"""

from __future__ import annotations

import ast
import math
import re
import subprocess
import sys

import pytest
from test_cli import _child_env
from test_layout import _trees
from test_mutants import MUTANTS

from fatdiag import eulerchar, selfcheck
from fatdiag.cli import main

# Every criterion's budget: each takes well under 0.1 s, so 5 s catches a
# regression by orders of magnitude without failing on a slow host.
BUDGET = 5.0

# What each check covers, case counts included, so that work shared
# between the criteria cannot drop a case unnoticed.
DETAILS = [
    "143 cases, 13 products of symmetric groups, degree <= 8",
    "308 cases three-way, n <= 8",
    "308 oracle cases; coefficient-free variant rejected (6 != 2)",
    "fixtures plus 80 series identities on products of symmetric groups",
    "30 fixture values",
    "396 oracle cases, 198 product identities, n <= 8",
    "fixtures plus 50 random graphs",
    "depth of 18 and length of 9 products of symmetric groups, battery of 9 groups",
    "11 transitive groups, branch table 78 cells",
    "Bell + 66 type counts, Stirling identity, n <= 8",
]

VERIFY_ALL_STDOUT = (
    '{"command": "verify", "inputs": {"suite": "all"}, "result": {"checks": ['
    '{"name": "macdonald-burnside", "status": "ok"}, '
    '{"name": "bd-three-way", "status": "ok"}, '
    '{"name": "fd-corrected", "status": "ok"}, '
    '{"name": "invariant-poincare", "status": "ok"}, '
    '{"name": "sphere-fixtures", "status": "ok"}, '
    '{"name": "complement-product", "status": "ok"}, '
    '{"name": "graph-configuration", "status": "ok"}, '
    '{"name": "depth-length", "status": "ok"}, '
    '{"name": "pi1-descriptors", "status": "ok"}, '
    '{"name": "partition-infrastructure", "status": "ok"}], '
    '"failed": "0", "passed": "10", "suite": "all"}, "schema": "fatdiag/1"}\n'
)


@pytest.fixture(scope="module")
def outcomes() -> list[selfcheck.CheckOutcome]:
    return selfcheck.run_suite()


def _criterion_test(number: int, name: str):
    def test(outcomes):
        outcome = next(o for o in outcomes if o.name == name)
        status = "PASS" if outcome.passed else "FAIL"
        print(f"criterion {number} ({name}): {status} in {outcome.elapsed:.2f}s"
              f" ({outcome.detail})")
        assert outcome.passed, f"criterion {number}: {outcome.detail}"
        assert outcome.elapsed < BUDGET, (
            f"criterion {number} took {outcome.elapsed:.2f}s, budget {BUDGET}s")

    test.__name__ = test.__qualname__ = f"test_criterion_{number:02}_{name.replace('-', '_')}"
    return test


# one test per criterion, test_criterion_01_macdonald_burnside ...
# test_criterion_10_partition_infrastructure, in the battery's order
for _number, (_name, _) in enumerate(selfcheck.CHECKS, start=1):
    _test = _criterion_test(_number, _name)
    globals()[_test.__name__] = _test


def test_cli_verify_runs_all_criteria(outcomes):
    assert [o.name for o in outcomes] == [name for name, _ in selfcheck.CHECKS]
    assert all(o.passed for o in outcomes), [o.name for o in outcomes if not o.passed]


def test_checks_report_their_case_counts(outcomes):
    assert [o.detail for o in outcomes] == DETAILS


def test_identities_read_the_columns_compared_with_the_oracles(monkeypatch):
    # criteria 3 and 6 check their identities on the columns that
    # _against_oracles built for their own kind, and build no other
    for check, kind in ((selfcheck.check_fd_corrected, "fd"),
                        (selfcheck.check_complement_product, "bupper")):
        kinds = set()

        def recorded(called, *args):
            kinds.add(called)
            return eulerchar.chi_columns(called, *args)

        monkeypatch.setattr(selfcheck, "chi_columns", recorded)
        check()
        assert kinds == {kind}, check.__name__


def test_product_groups_have_their_blocks():
    # criteria 1, 4 and 8 read each group's expected values off its blocks
    # (m, k): S_m acting alike on k sets of m points, the rest fixed
    for degree, blocks in selfcheck.PRODUCTS + selfcheck.DEPTH_PRODUCTS:
        group = selfcheck.product_group(degree, blocks)
        fixed = degree - sum(m * k for m, k in blocks)
        orbits = [1] * fixed + [m for m, k in blocks for _ in range(k) if m]
        assert group.order() == math.prod(math.factorial(m) for m, _ in blocks), blocks
        assert group.orbit_sizes() == sorted(orbits), blocks
        # a block with k > 1 ties its orbits into one factor
        assert len(group.direct_factors()) == sum(m >= 2 for m, _ in blocks), blocks


def test_cli_verify_stdout_is_pinned(capsys):
    # --suite keeps its one value, all, which is also the default; each
    # check's time goes to stderr, in milliseconds
    for argv in (["verify", "--suite", "all"], ["verify"]):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == VERIFY_ALL_STDOUT
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            f"ok   {name}" for name, _ in selfcheck.CHECKS]
        assert all(re.search(r" \(\d+\.\d ms\)$", line) for line in lines), lines


def test_cli_verify_reports_a_broken_build_as_failed_checks(monkeypatch, capsys):
    # with the coset-orbit weights dropped from the histograms, the
    # averages of criteria 1 and 4 are not whole, and their exactness
    # assertions raise InternalConsistencyError: verify reports each as
    # its criterion's failure, runs the other eight and prints the envelope
    MUTANTS["chi-gamma-coset-orbit-weight-dropped"][0](monkeypatch)
    selfcheck.product_group.cache_clear()
    try:
        assert main(["verify"]) == 3
    finally:
        monkeypatch.undo()
        selfcheck.product_group.cache_clear()
    out, err = capsys.readouterr()
    failed = ("macdonald-burnside", "invariant-poincare")
    want = VERIFY_ALL_STDOUT.replace('"failed": "0", "passed": "10"', '"failed": "2", "passed": "8"')
    for name in failed:
        want = want.replace(f'"{name}", "status": "ok"', f'"{name}", "status": "fail"')
    assert out == want
    assert [re.sub(r" \(\d+\.\d ms\)$", "", line) for line in err.splitlines()] == [
        "FAIL macdonald-burnside: chi_gamma_product: non-integral value -80/6",
        f"ok   bd-three-way: {DETAILS[1]}",
        f"ok   fd-corrected: {DETAILS[2]}",
        "FAIL invariant-poincare: coefficient in degree 0: non-integral value 4/6",
    ] + [f"ok   {name}: {detail}"
         for (name, _), detail in zip(selfcheck.CHECKS[4:], DETAILS[4:])]


# The battery in a child, with the symmetric-product formula made wrong:
# prints whether asserts run, then each failed check's name and detail.
_WRONG_FORMULA_BATTERY = """
from fatdiag import selfcheck
selfcheck.chi_sp = lambda chi, n: 12345
print(__debug__)
for outcome in selfcheck.run_suite():
    if not outcome.passed:
        print(outcome.name, outcome.detail, sep=": ")
"""


def test_battery_checks_under_python_O():
    # python -O strips assert statements; the checks raise AssertionError
    # themselves, so a wrong formula still fails its criterion
    proc = subprocess.run([sys.executable, "-O", "-c", _WRONG_FORMULA_BATTERY],
                          env=_child_env(), capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    wrong = "macdonald-burnside: chi=-5, blocks ((0, 1),) on 0 points: 12345 != 1"
    assert wrong in lines[1:], lines


def test_every_failure_carries_a_message():
    # verify prints a failed criterion's message, and a bare AssertionError
    # has none: "assertion failed" would not say which case broke
    bare = [node.lineno for node in ast.walk(_trees()["selfcheck"])
            if isinstance(node, ast.Raise) and node.exc is not None
            and ast.unparse(node.exc) in ("AssertionError", "AssertionError()")]
    assert bare == []

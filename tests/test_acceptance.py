"""Acceptance battery: every cross-validation criterion at full range.

The full battery runs once, through the same `selfcheck.run_suite` that the
CLI `fatdiag verify` uses.  Each criterion test then checks its own outcome
against its time budget and prints a single pass line (visible with
pytest -v through the test name, and in captured output on failure).
"""

from __future__ import annotations

import pytest

from fatdiag import selfcheck


@pytest.fixture(scope="module")
def outcomes() -> list[selfcheck.CheckOutcome]:
    return selfcheck.run_suite("all")


def _criterion(outcomes, number: int, name: str, budget: float | None) -> None:
    outcome = next(o for o in outcomes if o.name == name)
    status = "PASS" if outcome.passed else "FAIL"
    print(f"criterion {number} ({name}): {status} in {outcome.elapsed:.2f}s ({outcome.detail})")
    assert outcome.passed, f"criterion {number}: {outcome.detail}"
    if budget is not None:
        assert outcome.elapsed < budget, (
            f"criterion {number} took {outcome.elapsed:.2f}s, budget {budget}s")


def test_criterion_01_macdonald_burnside(outcomes):
    _criterion(outcomes, 1, "macdonald-burnside", 5.0)


def test_criterion_02_bd_three_way(outcomes):
    _criterion(outcomes, 2, "bd-three-way", 60.0)


def test_criterion_03_fd_corrected(outcomes):
    _criterion(outcomes, 3, "fd-corrected", 10.0)


def test_criterion_04_invariant_poincare(outcomes):
    _criterion(outcomes, 4, "invariant-poincare", 5.0)


def test_criterion_05_sphere_fixtures(outcomes):
    _criterion(outcomes, 5, "sphere-fixtures", 5.0)


def test_criterion_06_complement_product(outcomes):
    _criterion(outcomes, 6, "complement-product", None)


def test_criterion_07_graph_configuration(outcomes):
    _criterion(outcomes, 7, "graph-configuration", 120.0)


def test_criterion_08_depth_length(outcomes):
    _criterion(outcomes, 8, "depth-length", 120.0)


def test_criterion_09_pi1_descriptors(outcomes):
    _criterion(outcomes, 9, "pi1-descriptors", 5.0)


def test_criterion_10_partition_infrastructure(outcomes):
    _criterion(outcomes, 10, "partition-infrastructure", 10.0)


def test_cli_verify_runs_all_criteria(outcomes):
    assert [o.name for o in outcomes] == [name for name, _ in selfcheck.CHECKS]
    assert all(o.passed for o in outcomes), [o.name for o in outcomes if not o.passed]

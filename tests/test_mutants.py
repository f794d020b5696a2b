"""Named wrong programs that `fatdiag verify` must catch.

Each entry is a name, a monkeypatch that makes the program wrong, and the
verify criteria that must then each fail, as `verify` reports them
(selfcheck.run_suite).  The memoized models are cleared first, so that
no answer computed by the right program is reused, and only the named
criteria run.
"""

from __future__ import annotations

import inspect
import textwrap

import pytest

from fatdiag import eulerchar, fundgroup, invariants, permgroup, selfcheck, strata
from fatdiag.algebra import GradedPolynomial
from fatdiag.permgroup import PermutationGroupModel


def _rewritten(function, old: str, new: str):
    """function with the one occurrence of old in its source replaced by
    new, compiled in its module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace: dict = {}
    exec(source.replace(old, new), vars(inspect.getmodule(function)), namespace)
    return namespace[function.__name__]


def _fixed_points_removed(monkeypatch) -> None:
    # chi_gamma_product answers for G acting on its moved points only
    def mutant(chi, group):
        moved = sorted({p for g in group.generators for p, q in enumerate(g) if p != q})
        return eulerchar.chi_gamma_product(chi, permgroup._restrict(group.generators, moved))

    monkeypatch.setattr(selfcheck, "chi_gamma_product", mutant)


def _factor_left_out(monkeypatch) -> None:
    # invariant_poincare folds over all direct factors but the last of
    # several, whose points then count as fixed
    direct_factors = PermutationGroupModel.direct_factors
    monkeypatch.setattr(PermutationGroupModel, "direct_factors",
                        lambda group: direct_factors(group)[:-1] or direct_factors(group))


def _half_bound_dropped(monkeypatch) -> None:
    # pi1_bgamma_abelian claims an abelian group wherever the group is
    # d-transitive, past d = n/2 too (S_4 at d = 3)
    monkeypatch.setattr(selfcheck, "pi1_bgamma_abelian",
                        lambda group, d: group.is_d_transitive(d))


def _split_branch_off(monkeypatch) -> None:
    # pi1_bd at n - d = 1 keeps an H1(X) factor as if n - d were 2 or more,
    # where the fat diagonal is X x SP^1(X) = X x X
    monkeypatch.setattr(selfcheck, "pi1_bd",
                        _rewritten(fundgroup.pi1_bd, "pi1_exponent=2, h1_exponent=0",
                                   "pi1_exponent=2, h1_exponent=1"))


def _fixed_points_as_h1(monkeypatch) -> None:
    # pi1_gamma_product counts a fixed point as an H1(X) factor, not Pi1(X)
    monkeypatch.setattr(selfcheck, "pi1_gamma_product",
                        _rewritten(fundgroup.pi1_gamma_product,
                                   "pi1_exponent=group.degree - sum(map(len, moved)), "
                                   "h1_exponent=len(moved)",
                                   "pi1_exponent=0, "
                                   "h1_exponent=group.degree - sum(map(len, moved)) + len(moved)"))


def _tied_orbits_split(monkeypatch) -> None:
    # every moved orbit is its own direct factor, tied or not: <(1 2)(3 4)>
    # would answer as S_2 x S_2
    monkeypatch.setattr(PermutationGroupModel, "direct_factors",
                        lambda group: [permgroup._restrict(group.generators, orbit)
                                       for orbit in group._moved_orbits()])


def _length_plus_one_on_products(monkeypatch) -> None:
    # group_length is one too long on a group of several direct factors
    monkeypatch.setattr(selfcheck, "group_length",
                        lambda group: strata.group_length(group)
                        + (len(group.direct_factors()) > 1))


def _length_equal_factors_once(monkeypatch) -> None:
    # group_length adds the climb of each distinct factor model once:
    # S_2 x S_2 would answer as S_2
    monkeypatch.setattr(selfcheck, "group_length",
                        lambda group: sum(map(strata.group_length,
                                              dict.fromkeys(group.direct_factors()))))


def _coset_orbit_weight_dropped(monkeypatch) -> None:
    # a histogram counts one coset for each H-orbit of cosets, not the
    # orbit's size: the averages over S_3 and larger are no longer whole
    monkeypatch.setattr(permgroup, "_chain_histogram",
                        _rewritten(permgroup._chain_histogram,
                                   "len(orbit) * count", "count"))


def _products_equal_factors_once(monkeypatch) -> None:
    # the fold combines a repeated factor model's value only once, its
    # points still not fixed: S_2 x S_2 x S_3 would answer as S_2 x S_3
    monkeypatch.setattr(PermutationGroupModel, "fold_factors",
                        _rewritten(PermutationGroupModel.fold_factors,
                                   "for factor in factors:",
                                   "for factor in dict.fromkeys(factors):"))


def _chi_plus_one_on_products(monkeypatch) -> None:
    # chi_gamma_product is one too large on a group of several direct
    # factors
    monkeypatch.setattr(selfcheck, "chi_gamma_product",
                        lambda chi, group: eulerchar.chi_gamma_product(chi, group)
                        + (len(group.direct_factors()) > 1))


def _betti_plus_one_on_products(monkeypatch) -> None:
    # invariant_poincare is one too large in degree 0 on a group of several
    # direct factors
    monkeypatch.setattr(selfcheck, "invariant_poincare",
                        lambda poly, group: invariants.invariant_poincare(poly, group)
                        + GradedPolynomial({0: int(len(group.direct_factors()) > 1)}))


def _join_miscounts_blocks(monkeypatch) -> None:
    # the depth search's join reports one block fewer than it makes, so
    # every bound is one short
    monkeypatch.setattr(strata, "_join", _rewritten(strata._join, "labels)), k", "labels)), k - 1"))


def _closed_d2_off_at_five(form: str):
    # the closed d = 2 form is one too large at |chi| = 5, which the oracle
    # table chi_oracles reads through its module's binding
    def mutate(monkeypatch) -> None:
        right = getattr(eulerchar, form)
        monkeypatch.setattr(eulerchar, form,
                            lambda chi, n: right(chi, n) + (abs(chi) == 5))

    return mutate


def _complement_oracle_off_by_one(monkeypatch) -> None:
    # bupper's complement oracle, read by criterion 6 and by `chi bupper
    # --verify`, is one too large
    monkeypatch.setattr(selfcheck, "chi_oracles",
                        _rewritten(eulerchar.chi_oracles, "chi_sp(chi, n) - fat}",
                                   "chi_sp(chi, n) - fat + 1}"))


MUTANTS = {
    "chi-gamma-fixed-points-removed": (_fixed_points_removed, ["macdonald-burnside"]),
    "betti-gamma-factor-left-out": (_factor_left_out, ["invariant-poincare"]),
    "pi1-bgamma-half-bound-dropped": (_half_bound_dropped, ["pi1-descriptors"]),
    "pi1-bd-split-branch-off": (_split_branch_off, ["pi1-descriptors"]),
    "pi1-gamma-fixed-points-as-h1": (_fixed_points_as_h1, ["pi1-descriptors"]),
    "direct-factors-split-tied-orbits": (_tied_orbits_split,
                                         ["macdonald-burnside", "invariant-poincare"]),
    "group-length-plus-one-on-products": (_length_plus_one_on_products, ["depth-length"]),
    "group-length-equal-factors-once": (_length_equal_factors_once, ["depth-length"]),
    "chi-gamma-coset-orbit-weight-dropped": (_coset_orbit_weight_dropped,
                                             ["macdonald-burnside", "invariant-poincare"]),
    "products-equal-factors-once": (_products_equal_factors_once,
                                    ["macdonald-burnside", "invariant-poincare",
                                     "depth-length"]),
    "chi-gamma-plus-one-on-products": (_chi_plus_one_on_products, ["macdonald-burnside"]),
    "betti-gamma-plus-one-on-products": (_betti_plus_one_on_products, ["invariant-poincare"]),
    "depth-join-miscounts-blocks": (_join_miscounts_blocks, ["depth-length"]),
    "closed-d2-bd-off-at-five": (_closed_d2_off_at_five("chi_b2"), ["bd-three-way"]),
    "closed-d2-fd-off-at-five": (_closed_d2_off_at_five("chi_f2"), ["fd-corrected"]),
    "bupper-complement-oracle-off-by-one": (_complement_oracle_off_by_one,
                                            ["complement-product"]),
}


def _failed(monkeypatch, criteria: list[str]) -> list[str]:
    """The criteria that fail when run_suite, as `verify` calls it, runs
    only them."""
    checks = dict(selfcheck.CHECKS)
    with monkeypatch.context() as patch:
        patch.setattr(selfcheck, "CHECKS", [(name, checks[name]) for name in criteria])
        selfcheck.product_group.cache_clear()
        return [outcome.name for outcome in selfcheck.run_suite() if not outcome.passed]


@pytest.mark.parametrize("name", MUTANTS)
def test_verify_catches_the_mutant(monkeypatch, name):
    mutate, criteria = MUTANTS[name]
    assert _failed(monkeypatch, criteria) == []
    mutate(monkeypatch)
    try:
        assert _failed(monkeypatch, criteria) == criteria
    finally:
        monkeypatch.undo()
        selfcheck.product_group.cache_clear()

from __future__ import annotations

import pytest

from fatdiag.errors import UnsupportedSpaceError
from fatdiag.eulerchar import (
    chi_b2,
    chi_b_upper,
    chi_bd,
    chi_f2,
    chi_f_config,
    chi_fd,
    chi_gamma_product,
    chi_sp,
    chi_stratum,
    oracle_bd_burnside,
    oracle_fd_setpartitions,
    stratification_sum_bd,
)
from fatdiag.permgroup import (
    alternating_group,
    cyclic_group,
    regular_representation,
    symmetric_group,
    trivial_group,
)


def test_chi_sp_fixed_values():
    assert chi_sp(2, 4) == 5
    assert chi_sp(2, 1) == 2
    assert chi_sp(0, 5) == 0
    assert chi_sp(-2, 2) == 1
    assert chi_sp(-2, 3) == 0
    assert chi_sp(3, 0) == 1


def test_chi_sp_recurrence():
    # chi_sp(x, n) = chi_sp(x-1, n) + chi_sp(x, n-1) for the generalized binomial
    for chi in range(-5, 6):
        for n in range(1, 7):
            assert chi_sp(chi, n) == chi_sp(chi - 1, n) + chi_sp(chi, n - 1)


def test_chi_gamma_product_known_groups():
    # trivial group: plain power; full symmetric group: symmetric product
    for chi in range(-4, 5):
        for n in range(1, 6):
            assert chi_gamma_product(chi, trivial_group(n)) == chi**n
            assert chi_gamma_product(chi, symmetric_group(n)) == chi_sp(chi, n)


def test_chi_gamma_product_cyclic():
    assert chi_gamma_product(2, cyclic_group(3)) == 4
    # C_p: (chi^p + (p-1) chi) / p
    for p in (2, 3, 5, 7):
        for chi in range(-4, 5):
            assert chi_gamma_product(chi, cyclic_group(p)) == (chi**p + (p - 1) * chi) // p


def _orbit_count_on_colorings(group, colors: int) -> int:
    """Count orbits of the coordinate-permutation action on colorings directly."""
    import itertools

    seen: set[tuple[int, ...]] = set()
    total = 0
    inverses = [tuple(sorted(range(group.degree), key=g.__getitem__)) for g in group]
    for start in itertools.product(range(colors), repeat=group.degree):
        if start in seen:
            continue
        total += 1
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for ginv in inverses:
                y = tuple(x[ginv[i]] for i in range(group.degree))
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return total


def test_chi_gamma_product_counts_orbits_for_positive_chi():
    # for chi = c >= 0 the average over the group counts orbits on c-colorings
    groups = [
        trivial_group(3),
        cyclic_group(4),
        symmetric_group(3),
        alternating_group(4),
    ]
    for g in groups:
        for colors in range(0, 4):
            assert chi_gamma_product(colors, g) == _orbit_count_on_colorings(g, colors)


def test_chi_gamma_product_regular_representation():
    g = regular_representation(cyclic_group(4))
    assert chi_gamma_product(2, g) == (2**4 + 2**2 + 2 * 2) // 4


def test_chi_f_config():
    for chi in range(-4, 5):
        assert chi_f_config(chi, 1, "even") == chi
        assert chi_f_config(chi, 2, "even") == chi * (chi - 1)
        assert chi_f_config(chi, 3, "even") == chi * (chi - 1) * (chi - 2)
    # odd-dimensional manifolds have vanishing chi and vanishing configuration chi
    assert chi_f_config(0, 3, "odd") == 0


def test_chi_stratum_values_and_integrality():
    from fatdiag.algebra import binomial_gen
    from fatdiag.combinatorics import alpha_sequences

    # n singleton blocks: unordered configurations, C(chi, n)
    for chi in range(-5, 6):
        for n in range(1, 7):
            assert chi_stratum(chi, (n,)) == binomial_gen(chi, n)
    assert chi_stratum(2, (1, 1)) == 2
    for chi in range(-6, 7):
        for n in range(1, 8):
            for alpha in alpha_sequences(n, n):
                v = chi_stratum(chi, alpha)
                assert isinstance(v, int)


def test_chi_fd_fixed_values():
    assert chi_fd(2, 3, 2) == 8
    assert chi_fd(2, 4, 3) == 10
    assert chi_fd(2, 3, 3) == 2
    assert chi_fd(2, 2, 2) == 2
    assert chi_fd(3, 3, 2) == 21


def test_chi_fd_thin_diagonal_is_space_itself():
    # multiplicity n on n points forces all coordinates equal
    for chi in range(-5, 6):
        for n in range(2, 8):
            assert chi_fd(chi, n, n) == chi


def test_chi_fd_small_d_closed_forms():
    # d=2: everything minus the all-distinct configurations
    for chi in range(-5, 6):
        assert chi_fd(chi, 3, 2) == 3 * chi**2 - 2 * chi
        for n in range(2, 8):
            assert chi_fd(chi, n, 2) == chi**n - chi_f_config(chi, n, "even")
    # d = n-1: thin diagonal plus one point split off
    for chi in range(-5, 6):
        for n in range(3, 8):
            assert chi_fd(chi, n, n - 1) == n * chi**2 - (n - 1) * chi


def test_chi_fd_matches_oracle():
    for chi in range(-3, 4):
        for n in range(2, 7):
            for d in range(2, n + 1):
                assert chi_fd(chi, n, d) == oracle_fd_setpartitions(chi, n, d)


def test_chi_fd_uncorrected_form_would_be_wrong():
    # dropping the partition-type multiplicities breaks the thin diagonal at n = d = 3
    from fatdiag.algebra import falling_factorial
    from fatdiag.combinatorics import alpha_sequences

    chi, n, d = 2, 3, 3
    bad = chi**n
    for alpha in alpha_sequences(n, d - 1):
        bad -= falling_factorial(chi, sum(alpha))
    assert bad == 6
    assert chi_fd(chi, n, d) == 2


def test_chi_bd_fixed_values():
    assert chi_bd(2, 4, 2) == 5
    assert chi_bd(2, 5, 2) == 6
    assert chi_bd(0, 5, 2) == 0
    assert chi_bd(2, 3, 3) == 2
    assert chi_bd(2, 2, 2) == 2


def test_chi_bd_matches_oracles():
    for chi in range(-3, 4):
        for n in range(2, 7):
            for d in range(2, n + 1):
                closed = chi_bd(chi, n, d)
                assert closed == oracle_bd_burnside(chi, n, d)
                assert closed == stratification_sum_bd(chi, n, d)


def test_chi_bd_product_identity():
    # for d > n/2 a deep point determines the rest: chi * chi_sp(chi, n - d)
    for chi in range(-4, 5):
        for n in range(3, 9):
            for d in range(n // 2 + 1, n + 1):
                assert chi_bd(chi, n, d) == chi * chi_sp(chi, n - d)


def test_chi_b_upper_fixed_values():
    from fatdiag.algebra import binomial_gen

    assert chi_b_upper(2, 2, 1) == 1
    assert chi_b_upper(2, 3, 2) == 2
    for chi in range(-4, 5):
        for n in range(1, 7):
            # d = n: no bound at all; d = 1: unordered configurations
            assert chi_b_upper(chi, n, n) == chi_sp(chi, n)
            assert chi_b_upper(chi, n, 1) == binomial_gen(chi, n)


def test_complement_identity():
    # strata with all parts <= d plus strata with some part > d partition everything
    for chi in range(-4, 5):
        for n in range(2, 8):
            for d in range(1, n):
                assert chi_b_upper(chi, n, d) + chi_bd(chi, n, d + 1) == chi_sp(chi, n)


def test_d2_closed_forms():
    for chi in range(-5, 6):
        for n in range(2, 8):
            assert chi_f2(chi, n) == chi_fd(chi, n, 2)
            assert chi_b2(chi, n) == chi_bd(chi, n, 2)


def test_parity_gating():
    # the stratification formulas need a closed even-dimensional manifold
    for parity in ("odd", "none"):
        with pytest.raises(UnsupportedSpaceError):
            chi_fd(2, 3, 2, parity=parity)
        with pytest.raises(UnsupportedSpaceError):
            chi_bd(2, 3, 2, parity=parity)
        with pytest.raises(UnsupportedSpaceError):
            chi_b_upper(2, 3, 2, parity=parity)
    with pytest.raises(UnsupportedSpaceError):
        chi_f_config(2, 2, "none")
    # the plain configuration space formula does extend to odd parity
    assert chi_f_config(0, 3, "odd") == 0
    assert chi_f_config(-2, 2, "odd") == 2


def test_bad_arguments():
    with pytest.raises(ValueError):
        chi_fd(2, 3, 0)
    with pytest.raises(ValueError):
        chi_fd(2, 3, 4)
    with pytest.raises(ValueError):
        chi_bd(2, 0, 1)


# sparse grid up to n = 200; the closed formulas enumerate nothing, so these
# run in well under a second
LARGE_N = (33, 64, 127, 200)
CHIS = range(-4, 5)


def test_large_n_fat_diagonal_identities():
    for n in LARGE_N:
        for chi in CHIS:
            # a point of multiplicity d > n/2 is unique and splits off
            for d in (n // 2 + 1, (3 * n) // 4, n - 1, n):
                assert chi_bd(chi, n, d) == chi * chi_sp(chi, n - d)
            assert chi_fd(chi, n, n) == chi
            assert chi_fd(chi, n, n - 1) == n * chi**2 - (n - 1) * chi
            assert chi_f2(chi, n) == chi_fd(chi, n, 2)
            assert chi_b2(chi, n) == chi_bd(chi, n, 2)


def test_large_n_bounded_multiplicity_and_vanishing():
    from fatdiag.algebra import binomial_gen

    for n in LARGE_N:
        for chi in CHIS:
            assert chi_b_upper(chi, n, 1) == binomial_gen(chi, n)
            assert chi_b_upper(chi, n, n) == chi_sp(chi, n)
        for d in (2, 3, n // 3, n // 2 + 1, n):
            assert chi_bd(0, n, d) == 0
            assert chi_b_upper(0, n, d) == 0
        for d in (2, 3, n - 2, n):
            assert chi_fd(0, n, d) == 0


def test_closed_forms_match_stratum_enumeration():
    # the sums over multiplicity vectors that the closed formulas replaced
    from fatdiag.algebra import falling_factorial
    from fatdiag.combinatorics import alpha_sequences, count_set_partitions_of_type

    for n in (9, 16):
        for d in range(2, n + 1):
            bounded = alpha_sequences(n, d - 1)
            weights = [(count_set_partitions_of_type(a), sum(a)) for a in bounded]
            for chi in CHIS:
                assert chi_bd(chi, n, d) == stratification_sum_bd(chi, n, d)
                ordered = sum(w * falling_factorial(chi, k) for w, k in weights)
                assert chi_fd(chi, n, d) == chi**n - ordered

from __future__ import annotations

import pytest

from fatdiag.algebra import binomial_gen
from fatdiag.errors import UnsupportedSpaceError
from fatdiag.eulerchar import (
    KINDS,
    chi_b2,
    chi_b_upper,
    chi_bd,
    chi_cell_bits,
    chi_columns,
    chi_f2,
    chi_fd,
    chi_gamma_bits,
    chi_gamma_product,
    chi_oracles,
    chi_sp,
    chi_sp_bits,
    chi_stratum,
    oracle_bd_burnside,
    oracle_fd_setpartitions,
    require_manifold,
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
    # trivial group: plain power
    for chi in range(-4, 5):
        for n in range(1, 6):
            assert chi_gamma_product(chi, trivial_group(n)) == chi**n


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
    inverses = [tuple(sorted(range(group.degree), key=g.__getitem__)) for g in group.stream()]
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


def test_chi_bd_fixed_values():
    assert chi_bd(2, 4, 2) == 5
    assert chi_bd(2, 5, 2) == 6
    assert chi_bd(0, 5, 2) == 0
    assert chi_bd(2, 3, 3) == 2
    assert chi_bd(2, 2, 2) == 2


def _fat_table_scan(weights):
    # every one of the Bell(c) set partitions of the weighted points, by
    # (heaviest block weight, number of blocks)
    from collections import Counter

    from fatdiag.combinatorics import set_partitions

    table = Counter()
    for labels in set_partitions(len(weights)):
        blocks = [0] * (max(labels, default=-1) + 1)
        for lab, w in zip(labels, weights):
            blocks[lab] += w
        table[max(blocks, default=0), len(blocks)] += 1
    return table


def _fat_scan(chi, weights, d):
    # the oracles' definition: falling(chi, #blocks) summed over the set
    # partitions of the weighted points whose heaviest block weighs >= d
    from fatdiag.algebra import falling_factorial

    return sum(count * falling_factorial(chi, k)
               for (heaviest, k), count in _fat_table_scan(weights).items()
               if heaviest >= d)


def _burnside_scan(chi, n, d):
    import math

    from fatdiag.combinatorics import conjugacy_classes_sn

    total = 0
    for ctype, size in conjugacy_classes_sn(n):
        weights = [l for l, a in enumerate(ctype, start=1) for _ in range(a)]
        total += size * _fat_scan(chi, weights, d)
    average, rest = divmod(total, math.factorial(n))
    assert rest == 0
    return average


def test_oracles_match_their_definition():
    from fatdiag.eulerchar import _fat_counts

    cases = [(chi, n, d) for n in range(2, 8) for d in range(2, n + 1)
             for chi in range(-4, 5)]
    for chi, n, d in cases + [(-2, 9, 3), (2, 9, 3)]:
        assert oracle_fd_setpartitions(chi, n, d) == _fat_scan(chi, [1] * n, d)
        assert oracle_bd_burnside(chi, n, d) == _burnside_scan(chi, n, d)
    assert _fat_counts((1, 1, 1)) == {(3, 1): 1, (2, 2): 3, (1, 3): 1}


def test_fat_counts_equal_the_full_scan():
    from fatdiag.eulerchar import _fat_counts
    from fatdiag.combinatorics import conjugacy_classes_sn

    for n in range(1, 11):
        for ctype, _ in conjugacy_classes_sn(n):
            weights = tuple(l for l, a in enumerate(ctype, start=1) for _ in range(a))
            if len(weights) <= 8:
                assert _fat_counts(weights) == _fat_table_scan(weights), weights
    assert _fat_counts(()) == _fat_table_scan(()) == {(0, 0): 1}
    assert _fat_counts((4,)) == {(4, 1): 1}


def test_fat_counts_walk_only_the_long_cycles(monkeypatch):
    # Bell(c) partitions of the c points of weight >= 2; the points of
    # weight 1 are placed by counting
    from fatdiag import eulerchar
    from fatdiag.combinatorics import bell_number, set_partitions

    walked = []

    def counted(n):
        for labels in set_partitions(n):
            walked.append(labels)
            yield labels

    monkeypatch.setattr(eulerchar, "set_partitions", counted)
    for weights, partitions in (((1,) * 9, 1), ((2, 2, 2, 1, 1, 1), 5),
                                ((3, 2, 2, 2, 1), 15)):
        walked.clear()
        table = eulerchar._fat_counts(weights)
        assert len(walked) == partitions, weights
        assert sum(table.values()) == bell_number(len(weights))
        assert table == _fat_table_scan(weights)


def test_unit_counts_are_the_stirling_numbers():
    # partitions of r unit points by (largest block, blocks): they sum to
    # Bell(r), and to the Stirling numbers S(r, k) per block count
    from fatdiag.combinatorics import bell_number
    from fatdiag.eulerchar import _unit_counts

    stirling = [[1]]  # S(r, k) = k S(r - 1, k) + S(r - 1, k - 1)
    for r in range(1, 21):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, r + 1)])
    for r in range(21):
        table = _unit_counts(r)
        assert sum(table.values()) == bell_number(r)
        by_blocks = [0] * (r + 1)
        for (largest, k), count in table.items():
            assert (largest == 0) == (r == 0) and largest + k - 1 <= r
            by_blocks[k] += count
        assert by_blocks == stirling[r], r
    # the largest block: one block of r, or r singletons
    assert _unit_counts(5)[5, 1] == _unit_counts(5)[1, 5] == 1
    assert _unit_counts(4)[2, 2] == 3


def test_oracle_work_counts_what_the_oracles_do():
    # bd: Bell(long cycles) per cycle type of S_n; fd: C(n + 3, 4) bounds
    # the terms the _unit_counts recurrence reads up to n
    import math

    from fatdiag.combinatorics import bell_number
    from fatdiag.eulerchar import _unit_counts, bd_oracle_work, fd_oracle_work
    from fatdiag.combinatorics import conjugacy_classes_sn

    for n in range(2, 15):
        walked = sum(bell_number(sum(ctype[1:])) for ctype, _ in conjugacy_classes_sn(n))
        assert bd_oracle_work(n, math.inf) == walked, n
    assert [bd_oracle_work(n, math.inf) for n in (10, 16, 17, 18)] == [209, 12836, 22069, 59507]
    # past the cap the sum of Bell(m), m <= n / 2, is returned at once
    assert bd_oracle_work(10**9, 3 * 10**4) == sum(map(bell_number, range(11)))
    for n in range(2, 25):
        read = sum(len(_unit_counts(m)) for r in range(1, n + 1) for m in range(r))
        assert read <= fd_oracle_work(n) == math.comb(n + 3, 4)


def test_oracle_guards_limit_work(monkeypatch):
    # the largest admitted n is 17 for the Burnside oracle and 50 for the
    # ordered one; past them the guard trips before any table is built
    import math

    from fatdiag import eulerchar
    from fatdiag.errors import ResourceGuardError
    from fatdiag.eulerchar import (
        MAX_BD_ORACLE_WORK,
        MAX_FD_ORACLE_WORK,
        bd_oracle_work,
        fd_oracle_work,
    )

    assert max(n for n in range(2, 30) if bd_oracle_work(n, math.inf) <= MAX_BD_ORACLE_WORK) == 17
    assert max(n for n in range(2, 200) if fd_oracle_work(n) <= MAX_FD_ORACLE_WORK) == 50
    assert oracle_bd_burnside(2, 11, 3) == chi_bd(2, 11, 3)
    assert oracle_fd_setpartitions(-2, 20, 7) == chi_fd(-2, 20, 7)

    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(eulerchar, "_burnside_table", refuse)
    monkeypatch.setattr(eulerchar, "_fat_counts", refuse)
    for oracle, n in ((oracle_bd_burnside, 18), (oracle_fd_setpartitions, 51),
                      (oracle_bd_burnside, 10**9), (oracle_fd_setpartitions, 10**9)):
        with pytest.raises(ResourceGuardError, match=oracle.__name__):
            oracle(2, n, 3)


def test_oracles_enumerate_once_per_weight_vector(monkeypatch):
    # a count, not a time: one table per cycle type of S_2 ... S_8, the
    # Burnside oracle's work estimated once per n, and the ordered oracle's
    # 308 calls read the unit-point recurrence, never a _fat_counts table
    from fatdiag import eulerchar
    from fatdiag.eulerchar import _burnside_table, _fat_counts, bd_oracle_work
    from fatdiag.selfcheck import check_bd_three_way, check_fd_corrected

    tables = []

    def counted(weights):
        tables.append(weights)
        return _fat_counts(weights)

    monkeypatch.setattr(eulerchar, "_fat_counts", counted)
    _burnside_table.cache_clear()
    bd_oracle_work.cache_clear()
    check_bd_three_way()
    assert _burnside_table.cache_info().misses == 7  # one table per n
    work = bd_oracle_work.cache_info()
    assert (work.misses, work.hits) == (7, 308 - 7)  # 11 chi x 28 cells (n, d)
    assert len(tables) == len(set(tables)) == 65
    assert check_fd_corrected().startswith("308 oracle cases")
    assert len(tables) == 65


def test_chi_b_upper_fixed_values():
    from fatdiag.algebra import binomial_gen

    assert chi_b_upper(2, 2, 1) == 1
    assert chi_b_upper(2, 3, 2) == 2
    for chi in range(-4, 5):
        for n in range(1, 7):
            # d = n: no bound at all; d = 1: unordered configurations
            assert chi_b_upper(chi, n, n) == chi_sp(chi, n)
            assert chi_b_upper(chi, n, 1) == binomial_gen(chi, n)


def test_parity_gating():
    # the one gate of the stratification formulas: a closed even-dimensional
    # manifold, named by the locus of each kind
    loci = {"bd": "unordered fat diagonal", "fd": "ordered fat diagonal",
            "bupper": "multiplicity-bounded symmetric product"}
    assert set(KINDS) == set(loci)
    for kind, locus in loci.items():
        assert require_manifold(kind, "even") is None
        for parity in ("odd", "none"):
            with pytest.raises(UnsupportedSpaceError) as raised:
                require_manifold(kind, parity)
            assert str(raised.value) == (f"{locus} is only defined over closed"
                                         f" even-dimensional manifolds; got parity {parity!r}")


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


def test_result_bit_bounds():
    # chi_gamma_bits is the bit length of chi^degree, the identity's term,
    # which bounds every term; chi_sp_bits never exceeds the bit length of
    # chi_sp, and is within a factor of about two of it when n is large.
    # Past float range: C(m, k) >= 2^k where k = min(n, m - n)
    gamma = [(chi, degree) for chi in range(-40, 41) for degree in range(1, 200, 7)]
    assert [chi_gamma_bits(*case) for case in gamma] == [
        (chi**degree).bit_length() if abs(chi) > 1 else 0 for chi, degree in gamma]
    sp = [(chi, n) for chi in range(-40, 41) for n in range(80)]
    sp += [(2, 10**400), (10**400, 5), (-10**400, 5)]
    assert all(chi_sp_bits(*case) <= chi_sp(*case).bit_length() for case in sp)
    assert 0.45 < chi_sp_bits(100001, 10**6) / chi_sp(100001, 10**6).bit_length() <= 1
    assert [chi_sp_bits(2, 10**400), chi_sp_bits(10**400, 10**400)] == [1329, 10**400]
    assert [chi_gamma_bits(10**400, 3), chi_gamma_bits(3, 10**400)] == [
        (10**1200).bit_length(), 10**400 + 1]
    group = symmetric_group(5)
    assert all(abs(chi_gamma_product(chi, group)).bit_length() <= chi_gamma_bits(chi, 5)
               for chi in (-7, -2, 3, 10))


# The algorithms the power-series engine replaced, kept as references: the
# binomial sum of chi_b_upper, [q^n] (1 - q^(d+1))^chi (1 - q)^(-chi), and
# the single-cell recurrence of chi_fd, here run once per d up to the last n.
def _b_upper_binomial_sum(chi, n, d):
    return sum((-1) ** j * binomial_gen(chi, j) * chi_sp(chi, n - j * (d + 1))
               for j in range(n // (d + 1) + 1))


def _fd_single_cell_recurrence(chi, n, d):
    a = [chi**k for k in range(d)]
    for k in range(d, n + 1):
        acc, binom = 0, 1
        for j in range(1, d):
            binom = binom * (k - j + 1) // j
            acc += ((chi + 1) * j - k) * (binom * a[k - j])
        a.append(acc // k)
    return [chi**m - a[m] for m in range(n + 1)]


@pytest.mark.parametrize("chi", (-8, -4, -1, 0, 1, 2, 7, 13))
def test_engine_matches_the_replaced_algorithms(chi):
    top = 60
    bupper = chi_columns("bupper", chi, range(1, top + 1), top)
    bd = chi_columns("bd", chi, range(2, top + 1), top)
    fd = chi_columns("fd", chi, range(2, top + 1), top)
    for d in range(1, top + 1):
        fd_reference = _fd_single_cell_recurrence(chi, top, d) if d > 1 else None
        for n in range(d, top + 1):
            assert bupper[d][n] == _b_upper_binomial_sum(chi, n, d), (n, d)
            if d > 1:
                assert bd[d][n] == chi_sp(chi, n) - _b_upper_binomial_sum(chi, n, d - 1)
                assert fd[d][n] == fd_reference[n], (n, d)
    # the scalar formulas read the same columns
    for n in range(1, 21):
        for d in range(1, n + 1):
            assert chi_b_upper(chi, n, d) == bupper[d][n]
            if d > 1:
                assert (chi_bd(chi, n, d), chi_fd(chi, n, d)) == (bd[d][n], fd[d][n])


def test_columns_check_once_for_every_d(monkeypatch):
    # one range check and one guard on the summed work of the columns,
    # before any is built
    import fatdiag.eulerchar
    from fatdiag.errors import ResourceGuardError
    from fatdiag.eulerchar import MAX_FORMULA_WORK, series_work

    for kind, ds in (("bd", (1, 2)), ("fd", (2, 6)), ("bupper", (0,))):
        with pytest.raises(ValueError):
            chi_columns(kind, 2, ds, 5)
    # steps times n * bitlength(|chi| + 2): on surface:3 (chi = -4) the fd
    # grid of side 200 fits the limit and that of side 440 does not
    assert series_work(0, 5, 300, False) == 300 * 300 * 2
    assert series_work(-4, 5, 300, True) == 295 * 5 * 300 * 3
    side = {n: sum(series_work(-4, d - 1, n, True) for d in range(2, n + 1)) for n in (200, 440)}
    assert side[200] <= MAX_FORMULA_WORK < side[440]

    def refuse(*args):
        raise AssertionError("a column was built")

    monkeypatch.setattr(fatdiag.eulerchar, "_series", refuse)
    with pytest.raises(ResourceGuardError, match="closed formula work"):
        chi_columns("fd", -4, range(2, 441), 440)


def test_ordinary_series_work_follows_the_coefficients():
    # the ordinary form is charged the bit length of a bound on its
    # coefficients, at least STEP_BITS a step, and never more than the
    # n * bitlength(|chi| + 2) of the exponential form
    import random

    from fatdiag.eulerchar import STEP_BITS, _series, series_work

    rng = random.Random(17)
    cases = [(rng.choice([0, 1, 2, 3, -1, -2, -4, -6, 13, -13, 400, -400, 3000, -3000]),
              rng.randint(1, 300)) for _ in range(300)]
    cases = [(chi, rng.randint(1, n), n) for chi, n in cases]
    # coefficients past STEP_BITS, below the old length
    cases += [(-10000, 1, 2000), (-10000, 3, 2000), (10000, 2000, 2000), (10000, 7, 2000)]
    for chi, top, n in cases:
        longest = max(abs(a).bit_length() for a in _series(chi, top, n, False))
        per_step = series_work(chi, top, n, False) // n
        assert longest <= per_step <= n * (abs(chi) + 2).bit_length(), (chi, top, n)
    assert series_work(3000, 300, 300, False) == 300 * 300 * 12  # the cap
    assert STEP_BITS < series_work(3000, 1000, 3000, False) // 3000 < 3000 * 12
    # (1 + q + ... + q^30000)^-6 is (1 - q)^6 up to q^30000: every step is
    # charged STEP_BITS, where the exponential length is 30000 * 4 bits
    assert series_work(-6, 30000, 30000, False) == 30000 * STEP_BITS
    assert series_work(0, 1, 10**6, False) == 10**6 * STEP_BITS


@pytest.mark.parametrize("kind", ["bd", "fd", "bupper"])
@pytest.mark.parametrize("n, d", [(6, 2), (6, 4), (6, 6)])
def test_chi_oracles_table(kind, n, d):
    # the oracle names `chi --verify` prints, as perfbench/gate.py expects
    # them, each equal to the formula's cell
    names = {"bd": {"cycle_type_average", "stratification_sum"},
             "fd": {"set_partition_sum"}, "bupper": {"complement"}}[kind]
    if kind != "bupper" and d == 2:
        names |= {"closed_d2_form"}
    for chi in (-3, -1, 0, 1, 2, 5):
        want = chi_columns(kind, chi, (d,), n)[d][n]
        assert chi_oracles(kind, chi, n, d) == dict.fromkeys(names, want), (chi, kind, n, d)


def test_cell_bits_bound_the_formulas():
    # for chi >= 1 every stratum adds a term >= 0, so one stratum's term
    # bounds the cell from below; for chi = -c with c >= 32 n^2 one term
    # dominates; no bound is known for -32 n^2 < chi <= 0
    n_max = 60
    for kind, d_min in (("bd", 2), ("fd", 2), ("bupper", 1)):
        for chi in range(1, 41):
            columns = chi_columns(kind, chi, range(d_min, n_max + 1), n_max)
            for d, column in columns.items():
                for n in range(d, n_max + 1):
                    assert chi_cell_bits(kind, chi, n, d) <= column[n].bit_length(), (
                        kind, chi, n, d)
        for n in range(d_min, 13):
            for c in (32 * n * n, 32 * n * n + 7, 10**6):
                columns = chi_columns(kind, -c, range(d_min, n + 1), n)
                for d, column in columns.items():
                    assert 0 < chi_cell_bits(kind, -c, n, d) <= column[n].bit_length(), (
                        kind, -c, n, d)
        assert chi_cell_bits(kind, -(32 * 12 * 12 - 1), 12, 2) == 0
        assert chi_cell_bits(kind, 0, 12, 2) == 0
        # chi = +-2^1000 at n = 1730 has results of about 1.7 * 10^6 bits
        assert chi_cell_bits(kind, 2**1000, 1730, 2) > 1.69 * 10**6
        assert chi_cell_bits(kind, -2**1000, 1730, 2) > 1.69 * 10**6

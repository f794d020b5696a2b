from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import pytest
from test_permgroup import _random_groups, _roster

from fatdiag import combinatorics, permgroup, strata
from fatdiag.combinatorics import set_partitions, set_partitions_cached
from fatdiag.errors import ResourceGuardError
from fatdiag.permgroup import (
    PermutationGroupModel,
    _compose,
    alternating_group,
    cyclic_group,
    regular_representation,
    symmetric_group,
    trivial_group,
)
from fatdiag.strata import (
    MAX_DEPTH_WORK,
    MAX_SUBGROUP_WORK,
    _cycle_partition,
    all_subgroups,
    depth,
    group_length,
    length_sn,
)

# Primitive groups of degree 9, with their orders: the affine groups act on
# F_3^2 (point 1 + x + 3y), the projective ones on the line over F_8.
PRIMITIVE_9 = {
    "AGL(1,9)": (72, ["(1 2 3)(4 5 6)(7 8 9)", "(1 4 7)(2 5 8)(3 6 9)",
                      "(2 5 7 8 3 9 4 6)"]),
    "ASL(2,3)": (216, ["(1 2 3)(4 5 6)(7 8 9)", "(1 4 7)(2 5 8)(3 6 9)",
                       "(4 5 6)(7 9 8)", "(2 5 8)(3 9 6)"]),
    "AGL(2,3)": (432, ["(1 2 3)(4 5 6)(7 8 9)", "(1 4 7)(2 5 8)(3 6 9)",
                       "(4 5 6)(7 9 8)", "(2 5 8)(3 9 6)", "(2 3)(5 6)(8 9)"]),
    "PSL(2,8)": (504, ["(1 2)(3 4)(5 6)(7 8)", "(2 3 5 4 7 8 6)", "(1 9)(3 6)(4 7)(5 8)"]),
    "PGammaL(2,8)": (1512, ["(1 2)(3 4)(5 6)(7 8)", "(2 3 5 4 7 8 6)",
                            "(1 9)(3 6)(4 7)(5 8)", "(3 5 7)(4 6 8)"]),
}


def _cycle_partitions(group: PermutationGroupModel) -> Counter[tuple[int, ...]]:
    """Map each cycle partition to the number of elements that have it."""
    return Counter(map(_cycle_partition, group.stream()))


def _stabilizer_sizes(by_cycles: Counter[tuple[int, ...]]) -> Counter[tuple[int, ...]]:
    """Map each of the Bell(n) patterns (as a label vector) to the order of
    its stabilizer: the zeta transform of the element counts over the
    partition lattice, summed upward.  A cycle partition c with k blocks
    adds its count to every coarsening of c, the images of the k-point
    set partitions q under the labels of c."""
    sizes: Counter[tuple[int, ...]] = Counter()
    for cycles, count in by_cycles.items():
        for q in set_partitions_cached(max(cycles) + 1):
            sizes[tuple(map(q.__getitem__, cycles))] += count
    return sizes


def _reference_depth(group: PermutationGroupModel) -> int:
    """The zeta search that strata.depth replaced, kept as its oracle: the
    stabilizer orders of all Bell(n) patterns, then a memoized climb over
    single block merges counting the strict stabilizer jumps.  A path from
    b blocks has at most b - 1 steps, and its jumps are at most the longest
    chain of proper multiples among the stabilizer orders above it."""
    n = group.degree
    if n == 0:
        return 0
    stab_size = _stabilizer_sizes(_cycle_partitions(group))
    chain: dict[int, int] = {}
    for size in sorted(set(stab_size.values()), reverse=True):
        chain[size] = max((chain[t] + 1 for t in chain if t % size == 0), default=0)
    tables = [[tuple(i if lab == j else lab - (lab > j) for lab in range(b))
               for i, j in combinations(range(b), 2)] for b in range(n + 1)]
    best: dict[tuple[int, ...], int] = {}

    def climb(labels: tuple[int, ...], b: int) -> int:
        score = best.get(labels)
        if score is not None:
            return score
        here = stab_size[labels]
        cap = min(b - 1, chain[here])
        score = 0
        for table in tables[b]:
            if score == cap:
                break
            merged = tuple(map(table.__getitem__, labels))
            size = stab_size[merged]
            jump = size > here
            if min(b - 2, chain[size]) + jump > score:
                score = max(score, climb(merged, b - 1) + jump)
        best[labels] = score
        return score

    return climb(tuple(range(n)), n)


def test_stabilizer_sizes_match_element_scan():
    # the reference's zeta sum against a direct scan of the elements
    s3 = _stabilizer_sizes(_cycle_partitions(symmetric_group(3)))
    assert s3[(0, 0, 1)] == 2
    assert s3[(0, 0, 0)] == 6
    assert s3[(0, 1, 2)] == 1
    groups = [
        symmetric_group(3),
        symmetric_group(4),
        alternating_group(4),
        PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),  # D4
        cyclic_group(6),
        regular_representation(symmetric_group(3)),
        PermutationGroupModel(5, ["(1 2)", "(3 4 5)", "(3 4)"]),  # S2 x S3
        PermutationGroupModel(7, ["(1 2 3)", "(1 2)", "(4 5 6 7)", "(4 5)"]),  # S3 x S4
        cyclic_group(8),
    ]
    for group in groups:
        sizes = _stabilizer_sizes(_cycle_partitions(group))
        patterns = list(set_partitions(group.degree))
        assert len(sizes) == len(patterns)
        for labels in patterns:
            # g fixes the pattern when i and g(i) always share a block
            direct = sum(1 for g in group.elements()
                         if all(labels[g[i]] == labels[i] for i in range(group.degree)))
            assert sizes[labels] == direct, (group.generators, labels)


def test_depth_matches_zeta_search(monkeypatch):
    groups = [symmetric_group(n) for n in range(1, 9)]
    groups += _roster(monkeypatch)
    for order, gens in PRIMITIVE_9.values():
        group = PermutationGroupModel(9, gens)
        assert group.order() == order and group.is_transitive()
        groups.append(group)
    groups += _random_groups(40, seed=12)
    for group in groups:
        assert depth(group) == _reference_depth(group), (group.degree, group.generators)


def test_depth_enumerates_no_set_partitions(monkeypatch):
    def refuse(*args):
        raise AssertionError("depth walked the set partitions")

    monkeypatch.setattr(combinatorics, "set_partitions", refuse)
    monkeypatch.setattr(combinatorics, "set_partitions_cached", refuse)
    assert not [name for name in vars(strata) if "set_partitions" in name]
    assert depth(symmetric_group(7)) == 6
    assert depth(PermutationGroupModel(12, ["(1 2)(3 4)", "(5 6 7)", "(9 10 11 12)"])) == 4


def test_depth_symmetric_groups():
    for n in range(1, 9):
        assert depth(symmetric_group(n)) == n - 1


def test_depth_small_groups():
    assert depth(trivial_group(5)) == 0
    assert depth(cyclic_group(2)) == 1
    assert depth(cyclic_group(3)) == 1
    assert depth(cyclic_group(4)) == 2
    assert depth(cyclic_group(6)) == 2
    assert depth(alternating_group(4)) == 2
    # S_4 with four fixed points: stabilizer orders 1, 2, 4, 6, 24, so at
    # most three jumps, although 24 has four prime factors
    assert depth(PermutationGroupModel(8, ["(1 2 3 4)", "(1 2)"])) == 3


def test_depth_regular_representation():
    reg = regular_representation(symmetric_group(3))
    assert depth(reg) == 2
    assert depth(reg) == group_length(symmetric_group(3))


def test_depth_bounded_by_degree_minus_one():
    groups = [
        cyclic_group(5),
        alternating_group(5),
        PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),
        PermutationGroupModel(6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]),
    ]
    for g in groups:
        assert 0 <= depth(g) <= g.degree - 1


def _depth_guard_at(monkeypatch, units: float) -> None:
    """Scale the guards so that the depth guard admits `units`.  The group
    walk guard, which such a scale would trip first, is lifted."""
    monkeypatch.setattr(permgroup, "MAX_GROUP_WORK", 10**12)
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", str(units / MAX_DEPTH_WORK))


def test_depth_work_counts(monkeypatch):
    # on S_n the search climbs one transposition at a time: at i + 1 blocks
    # merged into the first, it tests the C(i + 1, 2) transpositions inside
    # that block, then tests and joins the next one, n units each.  So the
    # work is n (C(n, 3) + 2 (n - 1)) units, not Bell(n) patterns
    for n in range(2, 8):
        units = n * (math.comb(n, 3) + 2 * (n - 1))
        _depth_guard_at(monkeypatch, units + 0.5)
        assert depth(symmetric_group(n)) == n - 1
        _depth_guard_at(monkeypatch, units - 0.5)
        with pytest.raises(ResourceGuardError):
            depth(symmetric_group(n))
    # fixed points cost nothing: the search runs on the moved points
    _depth_guard_at(monkeypatch, 0.5)
    assert depth(trivial_group(1000)) == 0


def test_depth_guard(monkeypatch):
    # the guard counts the tests and joins as the search makes them, so a
    # large degree alone does not trip it
    assert depth(trivial_group(11)) == 0
    assert depth(cyclic_group(30)) == 3
    assert depth(PermutationGroupModel(40, ["(1 2)"])) == 1
    # A_4^3 on 12 points would take 2.6 * 10^6 units
    a4_cubed = PermutationGroupModel(
        12, [f"({i} {i + 1} {i + 2})" for b in (1, 5, 9) for i in (b, b + 1)])
    assert a4_cubed.order() == 12**3
    with pytest.raises(ResourceGuardError, match="stratification depth"):
        depth(a4_cubed)
    # S_4 takes 40 units: 10 tests and joins of 4 points each
    _depth_guard_at(monkeypatch, 40.5)
    assert depth(symmetric_group(4)) == 3
    _depth_guard_at(monkeypatch, 39.5)
    with pytest.raises(ResourceGuardError):
        depth(symmetric_group(4))


def test_length_sn_values():
    assert [length_sn(n) for n in range(1, 11)] == [0, 1, 2, 4, 5, 6, 7, 10, 11, 12]
    # independent form of the same count
    for n in range(1, 60):
        assert length_sn(n) == math.ceil(3 * n / 2) - bin(n).count("1") - 1


def test_all_subgroups_counts():
    # classical subgroup counts: C4 -> 3, V4 -> 5, S3 -> 6, A4 -> 10, S4 -> 30,
    # A5 -> 59, S5 -> 156
    assert len(all_subgroups(cyclic_group(4))) == 3
    v4 = PermutationGroupModel(4, ["(1 2)(3 4)", "(1 3)(2 4)"])
    assert len(all_subgroups(v4)) == 5
    assert len(all_subgroups(symmetric_group(3))) == 6
    assert len(all_subgroups(alternating_group(4))) == 10
    assert len(all_subgroups(symmetric_group(4))) == 30
    assert len(all_subgroups(alternating_group(5))) == 59
    assert len(all_subgroups(symmetric_group(5))) == 156


def test_all_subgroups_are_closed():
    for sub in all_subgroups(symmetric_group(3)):
        for a in sub:
            for b in sub:
                assert _compose(a, b) in sub


def test_group_length_small():
    assert group_length(trivial_group(3)) == 0
    assert group_length(cyclic_group(2)) == 1
    assert group_length(cyclic_group(4)) == 2
    assert group_length(cyclic_group(12)) == 3
    assert group_length(symmetric_group(3)) == 2
    assert group_length(alternating_group(4)) == 3


def test_group_length_matches_closed_form():
    for n in range(1, 5):
        assert group_length(symmetric_group(n)) == length_sn(n)


def test_group_length_s5():
    # S_5 on its own five points, then with 55 fixed points added
    for degree in (5, 60):
        s5 = PermutationGroupModel(degree, ["(1 2 3 4 5)", "(1 2)"])
        assert group_length(s5) == length_sn(5) == 5


def test_group_length_prime_power_is_exponent_sum():
    # chains in a p-group descend one prime at a time
    assert group_length(cyclic_group(8)) == 3
    assert group_length(cyclic_group(9)) == 2
    e = PermutationGroupModel(6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"])
    assert e.order() == 6
    assert group_length(e) == 2


def test_depth_strictly_below_sn_length_for_larger_n():
    for n in (5, 6):
        assert depth(symmetric_group(n)) < length_sn(n)


def test_subgroup_order_guard(monkeypatch):
    # the guard counts the search's work as it goes.  C_2 takes 13 units:
    # two coset passes over 2 tuples of 2 entries, one join walk of 2
    # compositions, and 1 pair for the chain pass
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", str(13.5 / MAX_SUBGROUP_WORK))
    assert len(all_subgroups(cyclic_group(2))) == 2
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", str(12.5 / MAX_SUBGROUP_WORK))
    with pytest.raises(ResourceGuardError):
        all_subgroups(cyclic_group(2))
    monkeypatch.delenv("FATDIAG_GUARD_SCALE")
    # C_40 (1.5 * 10^5 units) answers; C2^6 on 12 points, 2825 subgroups of
    # a group of order 64, trips the guard
    assert group_length(cyclic_group(40)) == 4
    c2_6 = PermutationGroupModel(12, [f"({i} {i + 1})" for i in range(1, 12, 2)])
    with pytest.raises(ResourceGuardError):
        group_length(c2_6)

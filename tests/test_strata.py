from __future__ import annotations

import math

import pytest

from fatdiag.combinatorics import set_partitions
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
    _cycle_partitions,
    _lattice_counts,
    _stabilizer_sizes,
    all_subgroups,
    depth,
    group_length,
    length_sn,
)


def test_stabilizer_sizes_match_element_scan():
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


def test_depth_work_counts():
    # Bell numbers and the merge counts of the depth guard, against enumeration
    for n in range(9):
        bell, merges = _lattice_counts(n)
        patterns = list(set_partitions(n))
        assert bell[n] == len(patterns)
        assert merges == sum(math.comb(max(p, default=0) + 1, 2) for p in patterns)


def test_depth_guard(monkeypatch):
    # degree 10 is inside the work limit for the trivial group (Bell(10)
    # zeta pairs plus at most 1146931 merges); degree 11 is past it for
    # every group, and trips before the group is enumerated
    assert depth(trivial_group(10)) == 0
    with pytest.raises(ResourceGuardError):
        depth(trivial_group(11))
    # S_4 is estimated at 91 units: every set partition of 4 points is a
    # cycle partition, with 60 coarsenings in all, plus 31 merges
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", str(91.5 / MAX_DEPTH_WORK))
    assert depth(symmetric_group(4)) == 3
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", str(90.5 / MAX_DEPTH_WORK))
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

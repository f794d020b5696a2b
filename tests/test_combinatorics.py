from __future__ import annotations

import math

import pytest

from fatdiag.combinatorics import (
    alpha_sequences,
    bell_number,
    count_set_partitions_of_type,
    factorial_product,
    set_partitions,
)
from fatdiag.errors import ResourceGuardError

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_alpha_sequence_basics():
    # (1, 2): one singleton and two pairs
    assert (1, 2) in alpha_sequences(5, 2)
    assert factorial_product((1, 2)) == 2
    assert factorial_product((0, 0, 4)) == 24
    assert factorial_product(()) == 1


def test_alpha_sequences_enumeration_order():
    got = alpha_sequences(5, 2)
    assert got == [(5, 0), (3, 1), (1, 2)]
    got4 = alpha_sequences(4, 4)
    assert (4, 0, 0, 0) in got4
    assert (0, 0, 0, 1) in got4
    assert len(got4) == len(set(got4)) == 5


def test_alpha_sequences_partition_count():
    # sequences with max part <= n enumerate all partitions of n
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n in range(1, 9):
        assert len(list(alpha_sequences(n, n))) == expected[n]


def test_alpha_sequences_weight_invariant():
    for n in range(1, 9):
        for cap in range(1, n + 1):
            for a in alpha_sequences(n, cap):
                assert sum(i * c for i, c in enumerate(a, start=1)) == n
                assert len(a) == cap


def test_set_partitions_label_order():
    # labels[i] is the block of point i, blocks numbered by first point
    assert list(set_partitions(0)) == [()]
    assert list(set_partitions(1)) == [(0,)]
    got = list(set_partitions(4))
    assert got == sorted(got)
    assert got[0] == (0, 0, 0, 0) and got[-1] == (0, 1, 2, 3)
    assert (0, 0, 1, 0) in got and (0, 0, 2, 1) not in got


def test_set_partitions_count_is_bell():
    for n in range(1, 9):
        assert sum(1 for _ in set_partitions(n)) == BELL[n]
        assert bell_number(n) == BELL[n]


def test_set_partitions_distinct_and_valid():
    for n in range(1, 8):
        seen = set()
        for labels in set_partitions(n):
            assert len(labels) == n
            # restricted growth: each label at most one past all before it
            assert all(lab <= max(labels[:i], default=-1) + 1
                       for i, lab in enumerate(labels))
            seen.add(labels)
        assert len(seen) == BELL[n]


def test_count_set_partitions_of_type():
    # pairs on 4 points: 3 ways; singletons-only: 1 way
    assert count_set_partitions_of_type((0, 2, 0, 0)) == 3
    assert count_set_partitions_of_type((4, 0, 0, 0)) == 1
    assert count_set_partitions_of_type((1, 0, 1, 0)) == 4
    assert count_set_partitions_of_type((0, 0, 0, 1)) == 1


def test_type_counts_sum_to_bell():
    for n in range(1, 10):
        total = sum(count_set_partitions_of_type(a) for a in alpha_sequences(n, n))
        assert total == bell_number(n)


def test_type_histogram_matches_enumeration():
    for n in range(1, 8):
        hist: dict = {}
        for labels in set_partitions(n):
            sizes = [labels.count(b) for b in range(max(labels) + 1)]
            key = tuple(sizes.count(i) for i in range(1, n + 1))
            hist[key] = hist.get(key, 0) + 1
        for a in alpha_sequences(n, n):
            assert hist.get(a, 0) == count_set_partitions_of_type(a)


def test_set_partition_guard():
    with pytest.raises(ResourceGuardError):
        next(iter(set_partitions(40)))


def test_bell_number_big():
    assert bell_number(0) == 1
    assert bell_number(12) == 4213597
    assert math.comb(4, 2) == 6

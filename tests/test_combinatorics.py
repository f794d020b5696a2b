from __future__ import annotations

import math

import pytest

from fatdiag.combinatorics import (
    AlphaSequence,
    SetPartition,
    alpha_sequences,
    bell_number,
    count_set_partitions_of_type,
    set_partitions,
)
from fatdiag.errors import ResourceGuardError

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_alpha_sequence_basics():
    a = AlphaSequence((1, 2))
    assert a.weight == 5
    assert a.num_blocks == 3
    assert a.factorial_product() == 2
    assert list(a) == [1, 2]


def test_alpha_sequences_enumeration_order():
    got = [a.parts for a in alpha_sequences(5, 2)]
    assert got == [(5, 0), (3, 1), (1, 2)]
    got4 = [a.parts for a in alpha_sequences(4, 4)]
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
                assert a.weight == n
                assert len(a.parts) == cap


def test_set_partition_from_blocks():
    p = SetPartition.from_blocks([[1, 0], [2]])
    assert p.n == 3
    assert p.num_blocks == 2
    assert p.max_block_size() == 2
    assert p.as_labels() == (0, 0, 1)
    assert p.type_alpha().parts[:2] == (1, 1)


def test_set_partition_rejects_bad_cover():
    with pytest.raises(ValueError):
        SetPartition.from_blocks([[0], [0, 1]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks([[0, 2]])


def test_set_partitions_count_is_bell():
    for n in range(1, 9):
        assert sum(1 for _ in set_partitions(n)) == BELL[n]
        assert bell_number(n) == BELL[n]


def test_set_partitions_distinct_and_valid():
    for n in range(1, 8):
        seen = set()
        for p in set_partitions(n):
            assert p.n == n
            seen.add(p.as_labels())
        assert len(seen) == BELL[n]


def test_count_set_partitions_of_type():
    # pairs on 4 points: 3 ways; singletons-only: 1 way
    assert count_set_partitions_of_type(AlphaSequence((0, 2, 0, 0))) == 3
    assert count_set_partitions_of_type(AlphaSequence((4, 0, 0, 0))) == 1
    assert count_set_partitions_of_type(AlphaSequence((1, 0, 1, 0))) == 4
    assert count_set_partitions_of_type(AlphaSequence((0, 0, 0, 1))) == 1


def test_type_counts_sum_to_bell():
    for n in range(1, 10):
        total = sum(count_set_partitions_of_type(a) for a in alpha_sequences(n, n))
        assert total == bell_number(n)


def test_type_histogram_matches_enumeration():
    for n in range(1, 8):
        hist: dict = {}
        for p in set_partitions(n):
            key = p.type_alpha().parts
            hist[key] = hist.get(key, 0) + 1
        for a in alpha_sequences(n, n):
            padded = a.parts + (0,) * (n - len(a.parts))
            assert hist.get(padded, 0) == count_set_partitions_of_type(a)


def test_set_partition_guard():
    with pytest.raises(ResourceGuardError):
        next(iter(set_partitions(40)))


def test_bell_number_big():
    assert bell_number(0) == 1
    assert bell_number(12) == 4213597
    assert math.comb(4, 2) == 6

from __future__ import annotations

import math

import pytest

from fatdiag.errors import ResourceGuardError
from fatdiag.permgroup import (
    PermutationGroupModel,
    _compose,
    _cycle_type,
    _cycles,
    alternating_group,
    conjugacy_classes_sn,
    cyclic_group,
    format_cycles,
    parse_cycles,
    regular_representation,
    symmetric_group,
    trivial_group,
)


def test_parse_and_format_cycles():
    g = parse_cycles("(1 2 3)(4 5)", 6)
    assert g == (1, 2, 0, 4, 3, 5)
    assert format_cycles(g) == "(1 2 3)(4 5)"
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("", 3) == (0, 1, 2)
    assert parse_cycles("e", 3) == (0, 1, 2)
    assert format_cycles((0, 1, 2, 3)) == "e"
    assert parse_cycles("(1, 2)", 2) == (1, 0)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 4)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)


def test_group_model_validates_inputs():
    # generators are checked once, where they enter
    with pytest.raises(ValueError):
        PermutationGroupModel(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        PermutationGroupModel(3, [(1, 0)])
    with pytest.raises(ValueError):
        PermutationGroupModel(3, ["(1 4)"])
    with pytest.raises(ValueError):
        PermutationGroupModel(-1, [])
    assert PermutationGroupModel(0, []).order() == 1
    assert PermutationGroupModel(3, [(1, 0, 2), "(2 3)"]).order() == 6


def test_composition_convention():
    # (a*b) applies b first, then a
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    ab = _compose(a, b)
    assert ab == (1, 2, 0)
    assert format_cycles(ab) == "(1 2 3)"
    ba = _compose(b, a)
    assert format_cycles(ba) == "(1 3 2)"
    assert _compose(a, a) == (0, 1, 2)


def test_cycle_structure():
    g = parse_cycles("(1 2 3)(4 5)", 7)
    assert _cycles(g, include_fixed=True) == [(0, 1, 2), (3, 4), (5,), (6,)]
    assert _cycle_type(g) == (2, 1, 1, 0, 0, 0, 0)
    assert sorted(len(c) for c in _cycles(g)) == [2, 3]


def test_cycle_type_helper():
    # cycle types are multiplicity vectors: entry l - 1 counts l-cycles
    hist = symmetric_group(4).cycle_type_histogram()
    transposition = (2, 1, 0, 0)
    assert _cycle_type(parse_cycles("(2 3)", 4)) == transposition
    assert hist[transposition] == 6  # 4! over the centralizer order 2! * 2
    assert dict(conjugacy_classes_sn(4))[transposition] == 6


def test_conjugacy_classes_sum_to_group_order():
    for n in range(1, 9):
        total = sum(size for _, size in conjugacy_classes_sn(n))
        assert total == math.factorial(n)


def test_conjugacy_class_count():
    # number of classes = number of partitions of n
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n in range(1, 9):
        assert len(conjugacy_classes_sn(n)) == expected[n]


def test_symmetric_and_alternating_orders():
    for n in range(1, 7):
        assert symmetric_group(n).order() == math.factorial(n)
    for n in range(3, 7):
        assert alternating_group(n).order() == math.factorial(n) // 2


def test_cyclic_and_trivial():
    c = cyclic_group(6)
    assert c.order() == 6
    assert c.is_transitive()
    t = trivial_group(4)
    assert t.order() == 1
    assert not t.is_transitive()
    assert t.orbits() == [{0}, {1}, {2}, {3}]


def test_group_membership_and_iteration():
    g = symmetric_group(3)
    assert parse_cycles("(1 3)", 3) in g
    assert len(list(g)) == 6
    names = {format_cycles(p) for p in g}
    assert "(1 2 3)" in names and "e" in names


def test_cycle_count_histogram_matches_classes():
    g = symmetric_group(5)
    hist = g.cycle_count_histogram()
    assert sum(hist.values()) == 120
    by_classes: dict = {}
    for ct, size in conjugacy_classes_sn(5):
        by_classes[sum(ct)] = by_classes.get(sum(ct), 0) + size
    assert hist == by_classes
    # the centralizer formula of conjugacy_classes_sn against enumeration
    for n in range(1, 7):
        assert symmetric_group(n).cycle_type_histogram() == dict(conjugacy_classes_sn(n))


def test_orbits_and_transitivity():
    g = cyclic_group(3)
    assert g.orbits() == [{0, 1, 2}]
    split = regular_representation(cyclic_group(2))
    assert split.degree == 2
    s4 = symmetric_group(4)
    assert s4.is_d_transitive(2)
    assert s4.is_d_transitive(4)
    a4 = alternating_group(4)
    assert a4.is_d_transitive(2)
    assert not a4.is_d_transitive(3)
    assert not cyclic_group(4).is_d_transitive(2)


def test_regular_representation_structure():
    r = regular_representation(symmetric_group(3))
    assert r.degree == 6
    assert r.order() == 6
    assert r.is_transitive()
    # regular action of a nontrivial group is never 2-transitive
    assert not r.is_d_transitive(2)


def test_group_order_guard(monkeypatch):
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", "0.0001")
    with pytest.raises(ResourceGuardError):
        symmetric_group(9).order()
    monkeypatch.setenv("FATDIAG_GUARD_SCALE", "1")
    assert symmetric_group(6).order() == 720

from __future__ import annotations

import importlib
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from fatdiag import permgroup
from fatdiag.errors import ResourceGuardError
from fatdiag.permgroup import (
    PermutationGroupModel,
    _closure,
    _compose,
    _cycle_type,
    alternating_group,
    conjugacy_classes_sn,
    cyclic_group,
    parse_cycles,
    regular_representation,
    symmetric_group,
    trivial_group,
)
from fatdiag.strata import _cycle_partition, _steps


def test_parse_cycles():
    g = parse_cycles("(1 2 3)(4 5)", 6)
    assert g == (1, 2, 0, 4, 3, 5)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("", 3) == (0, 1, 2)
    assert parse_cycles("e", 3) == (0, 1, 2)
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
    assert ab == (1, 2, 0) == parse_cycles("(1 2 3)", 3)
    ba = _compose(b, a)
    assert ba == parse_cycles("(1 3 2)", 3)
    assert _compose(a, a) == (0, 1, 2)


def test_cycle_structure():
    g = parse_cycles("(1 2 3)(4 5)", 7)
    assert _cycle_type(g) == (2, 1, 1, 0, 0, 0, 0)
    assert _cycle_type(parse_cycles("(1 7 2 6 3 5 4)", 7)) == (0, 0, 0, 0, 0, 0, 1)
    assert _cycle_type(()) == ()


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
    assert t.orbit_sizes() == [1, 1, 1, 1]


def test_group_membership_and_iteration():
    g = symmetric_group(3)
    assert parse_cycles("(1 3)", 3) in g
    assert len(list(g)) == 6
    assert parse_cycles("(1 2 3)", 3) in set(g) and (0, 1, 2) in set(g)


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


def test_cycle_type_histogram_is_a_copy():
    g = symmetric_group(4)
    hist = g.cycle_type_histogram()
    hist[(4, 0, 0, 0)] += 5
    hist.clear()
    assert g.cycle_type_histogram() == dict(conjugacy_classes_sn(4))
    assert g.cycle_count_histogram() == {4: 1, 3: 6, 2: 11, 1: 6}


def test_orbits_and_transitivity():
    g = cyclic_group(3)
    assert g.orbit_sizes() == [3]
    assert PermutationGroupModel(7, ["(1 5)(6 7)", "(5 3)"]).orbit_sizes() == [1, 1, 2, 3]
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


def _roster(monkeypatch):
    """The benchmark's group-strata roster: 20 families of degree 3-8."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    return [PermutationGroupModel(f.degree, f.gens) for f in workloads.GROUP_ROSTER]


def _random_groups(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        gens = []
        for _ in range(rng.randint(0, 3)):
            images = list(range(n))
            if n > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(n), 2)
                images[i], images[j] = images[j], images[i]
            else:
                rng.shuffle(images)
            gens.append(tuple(images))
        yield PermutationGroupModel(n, gens)


def test_stabilizer_chain_matches_closure(monkeypatch):
    # groups from the other tests, the benchmark roster and random groups:
    # the chain's order, elements, histograms and cycle partitions against
    # the closure walk from the identity
    groups = [
        symmetric_group(n) for n in range(7)] + [
        alternating_group(n) for n in range(3, 7)] + [
        cyclic_group(6), cyclic_group(8), trivial_group(4), trivial_group(0),
        PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),
        PermutationGroupModel(5, ["(1 2)", "(3 4 5)", "(3 4)"]),
        PermutationGroupModel(7, ["(1 2 3)", "(1 2)", "(4 5 6 7)", "(4 5)"]),
        PermutationGroupModel(7, ["(1 5)(6 7)", "(5 3)"]),
        regular_representation(symmetric_group(3)),
        regular_representation(cyclic_group(2)),
    ]
    roster = _roster(monkeypatch)
    assert len(roster) == 20
    groups += roster
    groups += _random_groups(40, seed=10)
    for group in groups:
        walk = _closure(tuple(range(group.degree)), group.generators)
        streamed = list(group.stream())
        assert group.order() == len(walk) == len(streamed), group.generators
        assert set(streamed) == walk == group.elements()
        assert group.cycle_type_histogram() == Counter(map(_cycle_type, walk))
        # the depth search steps by the distinct cycle partitions other than
        # the discrete one; each step's successor map has those cycles
        partitions = set(map(_cycle_partition, walk)) - {tuple(range(group.degree))}
        steps = [_cycle_partition(successor) for successor, _ in _steps(group)]
        assert len(steps) == len(partitions) and set(steps) == partitions


def test_order_needs_no_enumeration():
    # the chain of S_n has n - 1 levels and a few hundred compositions
    for n in (10, 12, 20):
        assert symmetric_group(n).order() == math.factorial(n)
    assert alternating_group(12).order() == math.factorial(12) // 2


def test_s10_is_refused_before_any_element_is_built(monkeypatch):
    # every element is one composition; the chain of S_10 takes a few
    # hundred, the group has 3628800 elements
    calls = Counter()
    compose = permgroup._compose

    def counted(g, h):
        calls["compose"] += 1
        return compose(g, h)

    monkeypatch.setattr(permgroup, "_compose", counted)
    group = symmetric_group(10)
    assert group.order() == math.factorial(10)
    for walk in (group.cycle_type_histogram, group.elements, group.stream):
        with pytest.raises(ResourceGuardError, match="group enumeration"):
            walk()
    assert 0 < calls["compose"] < 1000


def _regular_product(a: int, b: int) -> PermutationGroupModel:
    """Z_a x Z_b acting on itself, on a * b points, by its two generators."""
    points = [(i, j) for i in range(a) for j in range(b)]
    index = {p: k for k, p in enumerate(points)}
    return PermutationGroupModel(a * b, [
        tuple(index[(i + 1) % a, j] for i, j in points),
        tuple(index[i, (j + 1) % b] for i, j in points)])


def test_chain_work_guard():
    # the chain composes each of the 1500 points' transversal elements with
    # both generators: 4.5 * 10^6 entries, past the guard, although the
    # walk over the group, |G| * degree = 2.25 * 10^6, would be admitted
    group = _regular_product(30, 50)
    with pytest.raises(ResourceGuardError, match="group enumeration"):
        group.order()
    assert _regular_product(10, 50).order() == 500

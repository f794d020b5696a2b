from __future__ import annotations

import functools
import importlib
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from fatdiag import permgroup
from fatdiag.combinatorics import conjugacy_classes_sn
from fatdiag.errors import ResourceGuardError
from fatdiag.permgroup import (
    PermutationGroupModel,
    _closure,
    _compose,
    _cycle_type,
    alternating_group,
    cyclic_group,
    parse_cycles,
    regular_representation,
    symmetric_group,
    trivial_group,
)
from fatdiag.strata import _cycle_partition, _steps, depth, group_length


def test_parse_cycles():
    g = parse_cycles("(1 2 3)(4 5)", 6)
    assert g == (1, 2, 0, 4, 3, 5)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles("", 3) == (0, 1, 2)
    assert parse_cycles("e", 3) == (0, 1, 2)
    assert parse_cycles("(1, 2)", 2) == (1, 0)
    assert parse_cycles("(1 2) (3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("(1 2)()", 3) == (1, 0, 2)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(0 1)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 4)", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2 1)", 3)
    for text in ("(1 2", ")(", "((1 2))", "(1 2)x", "1 2)", "x(1 2)", "(1 (2)"):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_cycles(text, 3)


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
    assert c.is_d_transitive(1)
    t = trivial_group(4)
    assert t.order() == 1
    assert not t.is_d_transitive(1)
    assert t.orbit_sizes() == [1, 1, 1, 1]
    # one point is one orbit; no points are none
    assert trivial_group(1).is_d_transitive(1) and not trivial_group(0).is_d_transitive(1)


def _member(group: PermutationGroupModel, g) -> bool:
    """Whether g lies in the group: its residue after sifting through the
    chain is the identity."""
    return permgroup._sift(group._stabilizers(), g)[0] == tuple(range(group.degree))


def test_group_membership_and_iteration():
    g = symmetric_group(3)
    assert _member(g, parse_cycles("(1 3)", 3))
    assert _member(g, parse_cycles("(1 2 3)", 3)) and _member(g, (0, 1, 2))
    assert not _member(alternating_group(3), parse_cycles("(1 2)", 3))


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
    counts = g.cycle_count_histogram()
    assert counts == {4: 1, 3: 6, 2: 11, 1: 6}
    # the counts are summed once and kept; each call returns a copy
    counts.clear()
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
    assert r.is_d_transitive(1)
    # regular action of a nontrivial group is never 2-transitive
    assert not r.is_d_transitive(2)


def test_group_order_guard(guard_scale_env):
    guard_scale_env("0.0001")
    with pytest.raises(ResourceGuardError):
        symmetric_group(9).order()
    guard_scale_env("1")
    assert symmetric_group(6).order() == 720


def _families(monkeypatch) -> dict:
    """The benchmark's group-strata roster by name: 20 families of degree
    3-8."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("workloads").FAMILIES


def _roster(monkeypatch):
    return [PermutationGroupModel(f.degree, f.gens) for f in _families(monkeypatch).values()]


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


def _battery(monkeypatch) -> list[PermutationGroupModel]:
    """Groups from the other tests, the benchmark roster and 40 random
    groups."""
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
    return groups


def test_stabilizer_chain_matches_closure(monkeypatch):
    # the chain's order, elements, histograms and cycle partitions against
    # the closure walk from the identity
    for group in _battery(monkeypatch):
        walk = _closure(tuple(range(group.degree)), group.generators)
        streamed = list(group.stream())
        assert group.order() == len(walk) == len(streamed), group.generators
        assert set(streamed) == walk == group.elements()
        assert group.cycle_type_histogram() == Counter(map(_cycle_type, walk))
        # the depth search steps by one element for each distinct cycle
        # partition other than the discrete one
        partitions = set(map(_cycle_partition, walk)) - {tuple(range(group.degree))}
        steps = list(map(_cycle_partition, _steps(group)))
        assert len(steps) == len(partitions) and set(steps) == partitions


def test_d_transitivity_matches_the_tuple_walk(monkeypatch):
    # the product of the first d orbit sizes along the chain against the
    # orbit of (0, ..., d-1) on ordered d-tuples of distinct points
    answers = Counter()
    for group in _battery(monkeypatch):
        n = group.degree
        for d in range(1, 5):
            walk = n >= d and len(_closure(tuple(range(d)), group.generators)) == math.perm(n, d)
            assert group.is_d_transitive(d) == walk, (group.generators, d)
            answers[walk] += 1
    assert answers == {True: 113, False: 211}


def test_d_transitivity_past_the_tuple_walk():
    # 30! / 20! tuples of S_30, and A_12 is 10- but not 11-transitive
    assert symmetric_group(30).is_d_transitive(10)
    a12 = alternating_group(12)
    assert a12.is_d_transitive(10) and not a12.is_d_transitive(11)
    assert symmetric_group(12).is_d_transitive(12)
    assert not symmetric_group(5).is_d_transitive(6)
    assert not trivial_group(0).is_d_transitive(1)
    for d in (0, -1):
        with pytest.raises(ValueError):
            symmetric_group(4).is_d_transitive(d)


def test_membership_by_sifting(monkeypatch):
    # every streamed element sifts to the identity, and random permutations
    # are members exactly when they lie in the element set
    rng = random.Random(15)
    for group in _battery(monkeypatch):
        elements = group.elements()
        assert all(_member(group, g) for g in group.stream())
        for _ in range(20):
            g = list(range(group.degree))
            rng.shuffle(g)
            assert _member(group, tuple(g)) == (tuple(g) in elements)
    assert _member(trivial_group(0), ())


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
    for walk in (group.elements, group.stream):
        with pytest.raises(ResourceGuardError, match="group enumeration"):
            walk()
    assert 0 < calls["compose"] < 1000
    # the histogram answers: it builds the 720 upper and 5040 lower
    # products, then walks one coset of S_7 for each of the 34 S_7-orbits
    # of base images, 171360 elements.  S_11 is refused after its chain
    # and its 7920 + 5040 products, about 15000 compositions, before the
    # walk of 209 cosets of S_7
    calls.clear()
    assert group.cycle_type_histogram() == dict(conjugacy_classes_sn(10))
    assert calls["compose"] < 180000
    calls.clear()
    with pytest.raises(ResourceGuardError, match="group enumeration"):
        symmetric_group(11).cycle_type_histogram()
    assert calls["compose"] < 16000


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


def _embed(parts, extra: int, rng: random.Random) -> PermutationGroupModel:
    """The direct product of the given groups on disjoint blocks of points,
    plus `extra` fixed points, with the points shuffled."""
    degree = sum(part.degree for part in parts) + extra
    points = list(range(degree))
    rng.shuffle(points)
    gens, offset = [], 0
    for part in parts:
        for g in part.generators:
            images = list(range(degree))
            for i, j in enumerate(g):
                images[points[offset + i]] = points[offset + j]
            gens.append(tuple(images))
        offset += part.degree
    rng.shuffle(gens)
    return PermutationGroupModel(degree, gens)


def _product_groups(count: int, seed: int, max_degree: int = 9):
    """Seeded direct products of one to three small groups (symmetric,
    alternating, cyclic, <(1 2)(3 4)> and random ones), with fixed points;
    each with its parts."""
    rng = random.Random(seed)
    makers = [symmetric_group, alternating_group, cyclic_group,
              lambda k: PermutationGroupModel(4, ["(1 2)(3 4)"]),
              lambda k: next(_random_groups(1, rng.randrange(10**6)))]
    made = 0
    while made < count:
        parts = [rng.choice(makers)(rng.randint(2, 4)) for _ in range(rng.randint(1, 3))]
        extra = rng.randint(0, 2)
        if sum(part.degree for part in parts) + extra <= max_degree:
            made += 1
            yield _embed(parts, extra, rng), parts


def test_direct_factors():
    # orbits no generator ties together are factors at once; tied orbits
    # split only when the orders multiply: <(1 2)(3 4)> does not split,
    # and <(1 2)(3 4), (1 2)> does.  In the mixed case the 3-cycle is a
    # factor and the two tied transpositions stay together; fixed points
    # belong to no factor
    tied = PermutationGroupModel(4, ["(1 2)(3 4)"])
    assert [(f.degree, f.order()) for f in tied.direct_factors()] == [(4, 2)]
    untied = PermutationGroupModel(4, ["(1 2)(3 4)", "(1 2)"])
    assert [(f.degree, f.order()) for f in untied.direct_factors()] == [(2, 2), (2, 2)]
    mixed = PermutationGroupModel(9, ["(1 2)(3 4)", "(5 6 7)"])
    assert [(f.degree, f.order()) for f in mixed.direct_factors()] == [(4, 2), (3, 3)]
    pairs = PermutationGroupModel(8, ["(1 2)(3 4)", "(5 6)(7 8)"])
    assert [(f.degree, f.order()) for f in pairs.direct_factors()] == [(4, 2), (4, 2)]
    assert trivial_group(5).direct_factors() == []
    young = PermutationGroupModel(9, ["(1 2 3)", "(1 2)", "(4 5 6 7)", "(4 5)"])
    assert [(f.degree, f.order()) for f in young.direct_factors()] == [(3, 6), (4, 24)]
    for group, parts in _product_groups(60, seed=13):
        factors = group.direct_factors()
        assert math.prod(f.order() for f in factors) == group.order()
        assert group.order() == math.prod(part.order() for part in parts)
        # no factor of a factor splits further than the factor list shows
        assert sum(len(f.direct_factors()) for f in factors) == len(factors)


def test_factor_search_is_bounded(monkeypatch):
    # one involution with 9000 2-cycles ties its orbits, and none splits
    # off.  Each orbit's test builds one element of 18000 entries and sifts
    # it; the first sift also inverts and composes one transversal element.
    # So the shared count passes MAX_GROUP_WORK after 221 tests, not 9000,
    # and the whole group stays one factor, restricted to nothing
    calls = Counter()
    compose, restrict, sift = permgroup._compose, permgroup._restrict, permgroup._sift

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # the chain builder sifts too, so the chain is built before counting
    involution = PermutationGroupModel(
        18000, ["".join(f"({i} {i + 1})" for i in range(1, 18000, 2))])
    assert involution.order() == 2
    monkeypatch.setattr(permgroup, "_compose", counted("compose", compose))
    monkeypatch.setattr(permgroup, "_restrict", counted("restrict", restrict))
    monkeypatch.setattr(permgroup, "_sift", counted("sift", sift))
    assert involution.direct_factors() == [involution]
    assert calls == {"sift": 221, "compose": 1}
    assert depth(involution) == 1 and group_length(involution) == 1


def test_histograms_of_products_match_the_stream():
    cases = [PermutationGroupModel(4, ["(1 2)(3 4)"]),
             PermutationGroupModel(9, ["(1 2)(3 4)", "(5 6 7)"]),
             PermutationGroupModel(8, ["(1 2)(3 4)", "(5 6 7 8)", "(1 3)(2 4)(5 7)"])]
    cases += [group for group, _ in _product_groups(150, seed=14)]
    for group in cases:
        streamed = Counter(map(_cycle_type, group.stream()))
        assert group.cycle_type_histogram() == streamed, group.generators


# S_n shared by the two tests below, so that S_10's histogram is built once
_symmetric = functools.cache(symmetric_group)


def test_histograms_match_classes_up_to_s10():
    # S_n against the centralizer formula; A_n holds every even class of
    # S_n whole, so its histogram is the even part of the same table
    for n in range(1, 11):
        classes = dict(conjugacy_classes_sn(n))
        assert _symmetric(n).cycle_type_histogram() == classes, n
        even = {t: size for t, size in classes.items()
                if sum((l - 1) * a for l, a in enumerate(t, start=1)) % 2 == 0}
        if n < 10:
            assert alternating_group(n).cycle_type_histogram() == even, n


def test_conjugacy_classes_from_s0_to_s12():
    # S_0 is the trivial group: one class, of the empty cycle type; the class
    # sizes sum to n! up to n = 12, and they are the histogram of S_n up to
    # n = 10 (the histograms of S_11 and S_12 exceed the group work guard)
    assert conjugacy_classes_sn(0) == [((), 1)]
    for n in range(13):
        classes = conjugacy_classes_sn(n)
        assert sum(size for _, size in classes) == math.factorial(n), n
        if n <= 10:
            assert _symmetric(n).cycle_type_histogram() == dict(classes), n

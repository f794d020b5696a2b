from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations

import pytest
from test_permgroup import _product_groups, _random_groups, _roster

from fatdiag import combinatorics, permgroup, strata
from fatdiag.combinatorics import set_partitions, set_partitions_cached
from fatdiag.errors import ResourceGuardError, Work
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
    _factor_depth,
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
        assert group.order() == order and group.is_d_transitive(1)
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


def test_join_merges_the_labels_each_cycle_touches():
    # the join with g's cycle partition against the union-find over the
    # label pairs (labels[p], labels[g[p]]), renumbered in order of first
    # appearance
    rng = random.Random(73)
    for _ in range(500):
        n = rng.randint(0, 12)
        labels = _first_appearance(rng.randrange(n) for _ in range(n))
        g = tuple(rng.sample(range(n), n))
        classes = permgroup._classes((labels[p], labels[q]) for p, q in enumerate(g))
        class_of = {label: i for i, members in enumerate(classes) for label in members}
        want = _first_appearance(class_of[label] for label in labels)
        assert strata._join(labels, max(labels, default=-1) + 1, g) == (want, len(classes)), g


def _first_appearance(values) -> tuple[int, ...]:
    """values renumbered 0, 1, ... in order of first appearance."""
    numbers: dict = {}
    return tuple(numbers.setdefault(value, len(numbers)) for value in values)


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


def _depth_guard_at(monkeypatch, guard_scale_env, units: float) -> None:
    """Scale the guards so that the depth guard admits `units`.  The group
    walk guard, which such a scale would trip first, is lifted."""
    monkeypatch.setattr(permgroup, "MAX_GROUP_WORK", 10**12)
    guard_scale_env(str(units / MAX_DEPTH_WORK))


def test_depth_work_counts(monkeypatch, guard_scale_env):
    # on S_n the search climbs one transposition at a time: at i + 1 blocks
    # merged into the first, it tests the C(i + 1, 2) transpositions inside
    # that block, then tests and joins the next one, n units each.  So the
    # work is n (C(n, 3) + 2 (n - 1)) units, not Bell(n) patterns
    for n in range(2, 8):
        units = n * (math.comb(n, 3) + 2 * (n - 1))
        _depth_guard_at(monkeypatch, guard_scale_env, units + 0.5)
        assert depth(symmetric_group(n)) == n - 1
        _depth_guard_at(monkeypatch, guard_scale_env, units - 0.5)
        with pytest.raises(ResourceGuardError):
            depth(symmetric_group(n))
    # fixed points cost nothing: the search runs on the moved points
    _depth_guard_at(monkeypatch, guard_scale_env, 0.5)
    assert depth(trivial_group(1000)) == 0


def test_depth_guard(monkeypatch, guard_scale_env):
    # the guard counts the tests and joins as the search makes them, so a
    # large degree alone does not trip it
    assert depth(trivial_group(11)) == 0
    assert depth(cyclic_group(30)) == 3
    assert depth(PermutationGroupModel(40, ["(1 2)"])) == 1
    # A_4^3 on 12 points splits into three A_4 factors of 68 units each,
    # and the guard counts them together: 204 units, not the 2.6 * 10^6
    # of the search on all 12 points
    a4_cubed = PermutationGroupModel(
        12, [f"({i} {i + 1} {i + 2})" for b in (1, 5, 9) for i in (b, b + 1)])
    assert a4_cubed.order() == 12**3
    assert [f.degree for f in a4_cubed.direct_factors()] == [4, 4, 4]
    assert depth(a4_cubed) == 6
    _depth_guard_at(monkeypatch, guard_scale_env, 204.5)
    assert depth(a4_cubed) == 6
    _depth_guard_at(monkeypatch, guard_scale_env, 203.5)
    with pytest.raises(ResourceGuardError, match="stratification depth"):
        depth(a4_cubed)
    # S_4 takes 40 units: 10 tests and joins of 4 points each
    _depth_guard_at(monkeypatch, guard_scale_env, 40.5)
    assert depth(symmetric_group(4)) == 3
    _depth_guard_at(monkeypatch, guard_scale_env, 39.5)
    with pytest.raises(ResourceGuardError):
        depth(symmetric_group(4))
    # S_4 acting on two copies of its points at once does not split, and
    # its search runs on all 8 points: 2888 units
    diagonal = PermutationGroupModel(8, ["(1 2 3 4)(5 6 7 8)", "(1 2)(5 6)"])
    assert [f.degree for f in diagonal.direct_factors()] == [8]
    _depth_guard_at(monkeypatch, guard_scale_env, 2888.5)
    assert depth(diagonal) == 3
    _depth_guard_at(monkeypatch, guard_scale_env, 2887.5)
    with pytest.raises(ResourceGuardError, match="stratification depth"):
        depth(diagonal)


def test_length_sn_values():
    assert [length_sn(n) for n in range(1, 11)] == [0, 1, 2, 4, 5, 6, 7, 10, 11, 12]
    # independent form of the same count
    for n in range(1, 60):
        assert length_sn(n) == math.ceil(3 * n / 2) - bin(n).count("1") - 1


def test_all_subgroups_counts(guard_scale_env):
    # classical subgroup counts: C4 -> 3, V4 -> 5, S3 -> 6, A4 -> 10, S4 -> 30,
    # A5 -> 59, S5 -> 156
    assert len(all_subgroups(cyclic_group(4))) == 3
    v4 = PermutationGroupModel(4, ["(1 2)(3 4)", "(1 3)(2 4)"])
    assert len(all_subgroups(v4)) == 5
    assert len(all_subgroups(symmetric_group(3))) == 6
    assert len(all_subgroups(alternating_group(4))) == 10
    assert len(all_subgroups(symmetric_group(4))) == 30
    assert len(all_subgroups(alternating_group(5))) == 59
    # S5's search takes about 98% of MAX_SUBGROUP_WORK, and the order in
    # which it first reaches each subgroup sets its join cost: the guard is
    # doubled so that a change of order alone cannot trip it
    guard_scale_env("2")
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


def test_group_length_s5(monkeypatch, guard_scale_env):
    # S_5 on its own five points, then with 55 fixed points added: the
    # climb reaches 8 of the 156 subgroups and takes 54,350 units at either
    # degree, where the search of all_subgroups takes 3.9 * 10^6
    monkeypatch.setattr(permgroup, "MAX_GROUP_WORK", 10**12)
    for degree in (5, 60):
        s5 = PermutationGroupModel(degree, ["(1 2 3 4 5)", "(1 2)"])
        guard_scale_env(str(54350.5 / MAX_SUBGROUP_WORK))
        assert group_length(s5) == length_sn(5) == 5
        guard_scale_env(str(54349.5 / MAX_SUBGROUP_WORK))
        with pytest.raises(ResourceGuardError, match="subgroup enumeration"):
            group_length(s5)


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


def test_subgroup_order_guard(guard_scale_env):
    # the guard counts the search's work as it goes.  all_subgroups(C_2)
    # takes 12 units: two coset passes over 2 tuples of 2 entries and one
    # join walk of 2 compositions
    guard_scale_env(str(12.5 / MAX_SUBGROUP_WORK))
    assert len(all_subgroups(cyclic_group(2))) == 2
    guard_scale_env(str(11.5 / MAX_SUBGROUP_WORK))
    with pytest.raises(ResourceGuardError):
        all_subgroups(cyclic_group(2))
    guard_scale_env(None)
    # C_40 answers (30,520 units; its 8 subgroups take 146,320).  C2^6 on
    # 12 points has 2825 subgroups, and the search over them all trips the
    # guard; its length is the sum over its six C_2 factors
    assert group_length(cyclic_group(40)) == 4
    c2_6 = PermutationGroupModel(12, [f"({i} {i + 1})" for i in range(1, 12, 2)])
    with pytest.raises(ResourceGuardError):
        all_subgroups(c2_6)
    assert group_length(c2_6) == 6


def test_group_length_searches_each_factor(monkeypatch, guard_scale_env):
    # the climbs of the direct factors share one guard count: S_3 x S_3 on
    # 6 points trips a limit that S_3 alone (78 units) passes, at 156 units,
    # when the second factor, the same model, counts its climb again
    s3_s3 = PermutationGroupModel(6, ["(1 2 3)", "(1 2)", "(4 5 6)", "(4 5)"])
    assert group_length(s3_s3) == 4
    monkeypatch.setattr(permgroup, "MAX_GROUP_WORK", 10**12)
    guard_scale_env(str(78.5 / MAX_SUBGROUP_WORK))
    assert group_length(symmetric_group(3)) == 2
    with pytest.raises(ResourceGuardError, match="subgroup enumeration: size 156 "):
        group_length(s3_s3)
    guard_scale_env(str(77.5 / MAX_SUBGROUP_WORK))
    with pytest.raises(ResourceGuardError, match="subgroup enumeration: size 78 "):
        group_length(symmetric_group(3))


def test_equal_direct_factors_are_climbed_once(monkeypatch):
    # S_m^4 on four blocks of m points has four equal direct factors, one
    # model, so its climb runs once and counts four times
    calls = Counter()
    for name in ("_factor_depth", "_subgroup_climb"):
        def counted(*args, _name=name, _climb=getattr(strata, name)):
            calls[_name] += 1
            return _climb(*args)

        monkeypatch.setattr(strata, name, counted)

    def power(m: int) -> PermutationGroupModel:
        blocks = [range(start, start + m) for start in range(1, 4 * m, m)]
        return PermutationGroupModel(4 * m, [f"({' '.join(map(str, b))})" for b in blocks]
                                     + [f"({b[0]} {b[1]})" for b in blocks])

    assert depth(power(7)) == 4 * 6
    assert group_length(power(5)) == 4 * length_sn(5)
    assert calls == {"_factor_depth": 1, "_subgroup_climb": 1}


def _longest_chain(subgroups) -> int:
    """The longest strict chain from the smallest to the largest of a
    group's subgroups."""
    ordered = sorted(subgroups, key=len)
    longest = {}
    for sub in ordered:
        best = 0
        for smaller in ordered:
            if len(smaller) >= len(sub):
                break
            if len(sub) % len(smaller) == 0 and smaller < sub:
                best = max(best, longest[smaller] + 1)
        longest[sub] = best
    return longest[ordered[-1]]


def test_products_equal_their_factors():
    # depth and chain length summed over the direct factors equal the
    # zeta search and the longest chain among all subgroups of the whole
    # product
    cases = [
        PermutationGroupModel(4, ["(1 2)(3 4)"]),
        PermutationGroupModel(7, ["(1 2)(3 4)", "(5 6 7)"]),
        PermutationGroupModel(7, ["(1 2 3)", "(1 2)", "(4 5 6 7)", "(4 5)"]),
        PermutationGroupModel(8, ["(1 2 3)", "(2 3 4)", "(5 6)", "(7 8)"]),
        PermutationGroupModel(6, ["(1 2)", "(3 4)", "(5 6)"]),
        # S_2 x S_3 x S_2, the two S_2 one model, apart in factor order
        PermutationGroupModel(7, ["(1 2)", "(3 4 5)", "(3 4)", "(6 7)"]),
    ]
    cases += [group for group, _ in _product_groups(40, seed=15, max_degree=8)]
    for group in cases:
        factors = group.direct_factors()
        whole = _factor_depth(group, Work(math.inf, "stratification depth"))
        assert depth(group) == whole == _reference_depth(group), group.generators
        assert depth(group) == sum(depth(f) for f in factors)
        if group.order() <= 48:
            length = _longest_chain(all_subgroups(group))
            assert group_length(group) == length, group.generators
            assert length == sum(group_length(f) for f in factors)

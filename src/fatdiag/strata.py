"""Equality-pattern stratification of a cartesian power under a permutation
group: stratification depth, and subgroup chain length.

A set partition P of the n coordinates is an equality pattern; its
stabilizer in G consists of the elements mapping every block to itself.
Coarsening patterns only grows the stabilizer, and the depth of G is the
longest chain of strict coarsenings along which the stabilizer strictly
grows at every step.  Over a manifold base of positive dimension every
pattern is realized by actual points and this combinatorial depth is the
depth of the orbit-type stratification of the quotient; that geometric
reading is an assumption of the caller, not checked here.

g stabilizes P exactly when its cycle partition refines P, so G_P
consists of the elements whose cycle partitions refine P, and its orbit
partition, the join of their cycle partitions, has the same stabilizer.
The stabilizers that occur are therefore those of the lattice L of joins
of cycle partitions, one member of L for each (a Galois connection:
Birkhoff, Lattice Theory, ch. V), and the depth is the height of L.  It
is found by a memoized longest-path search from the discrete pattern,
each step joining one more cycle partition; L is usually far smaller than
the Bell(n) set partitions, and when it is not (S_n, where every pattern
is a join of cycle partitions) the search stops as soon as a path reaches
the most steps the block counts allow.  depth is guarded on the
refinement tests and joins it makes, counted as the search goes.

Subgroup chains (group_length) run over every subgroup.  Each subgroup is
found as a join <S, g> of a known subgroup S and one more element, built by
the closure walk of permgroup from the generators of S plus g, so a join
costs a walk over its own elements rather than products of all pairs.
Fixed points do not change the subgroup lattice, so group_length first
restricts the group to the points it moves.
"""

from __future__ import annotations

from .errors import check_guard, guard_scale
from .permgroup import Perm, PermutationGroupModel, _closure, _compose

# Refinement tests and joins of the depth search, counted as it makes them,
# one unit per moved point each: S_9 takes 900 units, A_9 1.9 * 10^5 and
# PGammaL(2, 8) on 9 points 1.24 * 10^6 (about 0.5 s); M_11 would take
# 9 * 10^6, and trips the guard after about 1 s.
MAX_DEPTH_WORK = 2 * 10**6
# Subgroup search work, counted as it goes: tuple entries composed, plus
# the subgroup pairs the chain pass compares.  S_5 takes 3.7 * 10^6 units
# (about 1.3 s); C2^6 on 12 points, 2.1 * 10^7 units in 4.5 s, trips the
# guard after about 1 s.
MAX_SUBGROUP_WORK = 4 * 10**6


def _cycle_partition(g: Perm) -> tuple[int, ...]:
    """The partition of the points into the cycles of g, as a label tuple
    (blocks numbered in order of their first point)."""
    labels = [-1] * len(g)
    blocks = 0
    for start in range(len(g)):
        if labels[start] < 0:
            p = start
            while labels[p] < 0:
                labels[p] = blocks
                p = g[p]
            blocks += 1
    return tuple(labels)


def _steps(group: PermutationGroupModel) -> list[tuple[Perm, tuple[tuple[int, ...], ...]]]:
    """The distinct cycle partitions of the elements other than the
    identity, with the most blocks first.

    Each is kept as a successor map s, which sends every point to the next
    point of its block, and its blocks of two or more points: a pattern P
    is refined by it exactly when P[s[p]] = P[p] for every p, and the join
    with P merges the labels of P that each of those blocks touches.
    """
    partitions = set(map(_cycle_partition, group.stream()))
    partitions.discard(tuple(range(group.degree)))
    steps = []
    for cycles in sorted(partitions, key=lambda c: (-max(c), c)):
        blocks: list[list[int]] = [[] for _ in range(max(cycles) + 1)]
        for p, label in enumerate(cycles):
            blocks[label].append(p)
        successor = list(range(group.degree))
        for block in blocks:
            for p, q in zip(block, block[1:] + block[:1]):
                successor[p] = q
        steps.append((tuple(successor), tuple(tuple(b) for b in blocks if len(b) > 1)))
    return steps


def _join(labels: tuple[int, ...], b: int,
          blocks: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], int]:
    """The join of the pattern labels (b blocks) with the partition whose
    blocks of two or more points are given, and its number of blocks.

    Each merged class of labels is rooted at its smallest label.  Labels
    number the blocks in order of first appearance, so the classes appear
    in the order of their roots, and a root's rank among the roots is the
    class's new label.
    """
    root = list(range(b))
    for block in blocks:
        r = root[labels[block[0]]]
        while root[r] != r:
            r = root[r]
        for p in block[1:]:
            s = root[labels[p]]
            while root[s] != s:
                s = root[s]
            if s < r:
                root[r] = s
                r = s
            elif s > r:
                root[s] = r
    # root becomes the rank table in place: a label that is not a root
    # points to a smaller label, whose entry already holds its class's rank
    rank = root
    k = 0
    for label in range(b):
        r = root[label]
        if r == label:
            rank[label] = k
            k += 1
        else:
            rank[label] = rank[r]
    return tuple(map(rank.__getitem__, labels)), k


def depth(group: PermutationGroupModel) -> int:
    """Longest chain of strict pattern coarsenings with strictly growing
    stabilizers: the height of the lattice L of joins of cycle partitions.

    The orbit partition of a pattern stabilizer G_P is the join of the
    cycle partitions of its elements and has the same stabilizer, and a
    join of cycle partitions is the orbit partition of its own stabilizer.
    So replacing each pattern of a chain by the orbit partition of its
    stabilizer keeps every stabilizer, distinct members of L have distinct
    stabilizers, and the depth is the height of L (a Galois connection:
    Birkhoff, Lattice Theory, ch. V).  L runs from the discrete pattern
    to the orbit partition of G, and it has one member per pattern
    stabilizer, not one per set partition.

    Memoized longest path from the discrete pattern: a step goes from P to
    P v c for a cycle partition c not refining P.  Every cover of L is a
    step and every step strictly enlarges the stabilizer, so the longest
    path is the height.  Steps from the cycle partitions with the most
    blocks come first, and a pattern stops once its path reaches
    blocks(P) - blocks(orbit partition), the most any path from it can
    make; a step whose join cannot beat the best found is not followed.
    Fixed points are singletons of every member of L, so the search runs
    on the moved points.  The guard counts the refinement tests and joins,
    degree units each, as the search makes them.

    >>> from .permgroup import symmetric_group, trivial_group
    >>> depth(symmetric_group(4))
    3
    >>> depth(trivial_group(5))
    0
    """
    group = _on_moved_points(group)
    n = group.degree
    steps = _steps(group)
    top = len(group.orbit_sizes())
    limit = MAX_DEPTH_WORK * guard_scale()
    work = 0
    best: dict[tuple[int, ...], int] = {}

    def climb(labels: tuple[int, ...], b: int) -> int:
        nonlocal work
        score = best.get(labels)
        if score is not None:
            return score
        cap = b - top
        score = 0
        label_of = labels.__getitem__
        for successor, blocks in steps:
            if score == cap:
                break
            work += n
            if work > limit:
                check_guard(work, MAX_DEPTH_WORK, "stratification depth")
            if tuple(map(label_of, successor)) == labels:
                continue
            work += n
            joined, k = _join(labels, b, blocks)
            if k - top >= score:
                score = max(score, climb(joined, k) + 1)
        best[labels] = score
        return score

    result = climb(tuple(range(n)), n)
    check_guard(work, MAX_DEPTH_WORK, "stratification depth")
    return result


def length_sn(n: int) -> int:
    """Longest subgroup chain length in the full symmetric group on n
    points: floor((3n-1)/2) minus the number of ones in the binary
    expansion of n.

    >>> [length_sn(n) for n in range(1, 7)]
    [0, 1, 2, 4, 5, 6]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (3 * n - 1) // 2 - bin(n).count("1")


def all_subgroups(group: PermutationGroupModel) -> set[frozenset[Perm]]:
    """Every subgroup, as a frozenset of elements.

    A search over one-generator joins: each known subgroup, kept with a
    generator tuple, is joined with one representative of each of its
    cosets, and the join is the closure of the identity under those
    generators plus the representative.

    Its time follows the number of subgroups, not the group order, so the
    guard counts the work as the search goes: the coset pass composes |G|
    tuples for each subgroup, a join walk composes each element it finds
    with each of its generators, every tuple carries degree entries, and
    each new subgroup adds the pairs that group_length compares it in.
    """
    elements = group.sorted_elements()
    identity = tuple(range(group.degree))
    trivial = frozenset([identity])
    found: set[frozenset[Perm]] = {trivial}
    queue: list[tuple[frozenset[Perm], tuple[Perm, ...]]] = [(trivial, ())]
    work = 0
    while queue:
        sub, gens = queue.pop()
        work += len(elements) * group.degree
        check_guard(work, MAX_SUBGROUP_WORK, "subgroup enumeration")
        covered = set(sub)
        for g in elements:
            if g in covered:
                continue
            covered.update(_compose(h, g) for h in sub)
            bigger = _closure(identity, gens + (g,))
            work += len(bigger) * (len(gens) + 1) * group.degree
            if bigger not in found:
                work += len(found)
                found.add(bigger)
                queue.append((bigger, gens + (g,)))
            check_guard(work, MAX_SUBGROUP_WORK, "subgroup enumeration")
    return found


def _on_moved_points(group: PermutationGroupModel) -> PermutationGroupModel:
    """The same group acting only on the points it moves, renumbered in
    order: an isomorphic group on shorter tuples."""
    moved = [p for p in range(group.degree) if any(g[p] != p for g in group.generators)]
    index = {p: i for i, p in enumerate(moved)}
    return PermutationGroupModel(
        len(moved), [tuple(index[g[p]] for p in moved) for g in group.generators])


def group_length(group: PermutationGroupModel) -> int:
    """Length of the longest strict chain of subgroups from the trivial
    group to the whole group, found on the moved points only.

    >>> from .permgroup import symmetric_group, cyclic_group
    >>> group_length(symmetric_group(3))
    2
    >>> group_length(cyclic_group(4))
    2
    """
    group = _on_moved_points(group)
    subgroups = sorted(all_subgroups(group), key=len)
    longest: dict[frozenset[Perm], int] = {}
    for sub in subgroups:
        best = 0
        for smaller in subgroups:
            if len(smaller) >= len(sub):
                break
            if len(sub) % len(smaller) == 0 and smaller < sub:
                best = max(best, longest[smaller] + 1)
        longest[sub] = best
    return longest[frozenset(group.elements())]

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

Both invariants are sums over the direct factors of permgroup (each on its
own renumbered points, so fixed points cost nothing).  Cycle partitions
never cross orbits, so the lattice of joins of cycle partitions of a
direct product is the product of the factors' lattices, whose height is
the sum of their heights; and the chain length l is additive over any
normal subgroup N, l(G) = l(N) + l(G/N) (a chain meets N and G/N in
chains, and a step that neither grows is no step), so over direct
products.  Each guard counts the work of all factors together.
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

# The subgroup-search count that group_length carries from one factor's
# search into the next, so that one guard covers them all: one entry while
# group_length runs, which empties it again when it returns or raises, and
# empty otherwise, where each search counts from 0.  It is carried beside
# the calls because all_subgroups keeps its one-argument signature.
_carried_work: list[int] = []


def _cycle_partition(g: Perm) -> tuple[int, ...]:
    """The partition of the points into the cycles of g, as a label tuple
    (blocks numbered in order of their first point)."""
    labels = [-1] * len(g)
    blocks = 0
    for start, p in enumerate(g):
        if labels[start] < 0:
            labels[start] = blocks
            while p != start:
                labels[p] = blocks
                p = g[p]
            blocks += 1
    return tuple(labels)


def _steps(group: PermutationGroupModel) -> list[list]:
    """The distinct cycle partitions of the elements other than the
    identity, with the most blocks first.

    Each is kept as [g, None] for one element g that has it: g sends every
    point to the next point of its cycle, so a pattern P is refined by the
    cycle partition exactly when P[g[p]] = P[p] for every p.  The join with
    P merges the labels of P that each cycle of two or more points touches;
    _blocks lists those cycles, and the search stores them in the second
    slot on the step's first join.
    """
    identity = tuple(range(group.degree))
    elements = {}
    for g in group.stream():
        elements[_cycle_partition(g)] = g
    elements.pop(identity, None)
    return [[elements[c], None] for c in sorted(elements, key=lambda c: (-max(c), c))]


def _blocks(g: Perm) -> tuple[tuple[int, ...], ...]:
    """The cycles of g of two or more points, each as its sorted points."""
    labels = _cycle_partition(g)
    blocks: list[list[int]] = [[] for _ in range(max(labels) + 1)]
    for p, label in enumerate(labels):
        blocks[label].append(p)
    return tuple(tuple(block) for block in blocks if len(block) > 1)


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
    stabilizers: the height of the lattice L of joins of cycle partitions,
    summed over the direct factors.

    The orbit partition of a pattern stabilizer G_P is the join of the
    cycle partitions of its elements and has the same stabilizer, and a
    join of cycle partitions is the orbit partition of its own stabilizer.
    So replacing each pattern of a chain by the orbit partition of its
    stabilizer keeps every stabilizer, distinct members of L have distinct
    stabilizers, and the depth is the height of L (a Galois connection:
    Birkhoff, Lattice Theory, ch. V).  L runs from the discrete pattern
    to the orbit partition of G, and it has one member per pattern
    stabilizer, not one per set partition.  Over a direct product L is the
    product of the factors' lattices, so the heights add.

    On each factor, a memoized longest path from the discrete pattern: a
    step goes from P to P v c for a cycle partition c not refining P.
    Every cover of L is a step and every step strictly enlarges the
    stabilizer, so the longest path is the height.  Steps from the cycle
    partitions with the most blocks come first, and a pattern stops once
    its path reaches blocks(P) - blocks(orbit partition), the most any path
    from it can make; a step whose join cannot beat the best found is not
    followed.  The guard counts the refinement tests and joins, one unit
    per point of the factor each, over all factors, as the search makes
    them.

    >>> from .permgroup import symmetric_group, trivial_group
    >>> depth(symmetric_group(4))
    3
    >>> depth(trivial_group(5))
    0
    """
    limit = MAX_DEPTH_WORK * guard_scale()
    total = work = 0
    for factor in group.direct_factors():
        height, work = _factor_depth(factor, work, limit)
        total += height
    check_guard(work, MAX_DEPTH_WORK, "stratification depth")
    return total


def _factor_depth(group: PermutationGroupModel, work: int, limit: float) -> tuple[int, int]:
    """The height of the join lattice of one factor, and the work count
    after its search."""
    n = group.degree
    steps = _steps(group)
    top = len(group.orbit_sizes())
    best: dict[tuple[int, ...], int] = {}

    def climb(labels: tuple[int, ...], b: int) -> int:
        nonlocal work
        score = best.get(labels)
        if score is not None:
            return score
        cap = b - top
        score = 0
        label_of = labels.__getitem__
        for step in steps:
            if score == cap:
                break
            work += n
            if work > limit:
                check_guard(work, MAX_DEPTH_WORK, "stratification depth")
            if tuple(map(label_of, step[0])) == labels:
                continue
            work += n
            if step[1] is None:
                step[1] = _blocks(step[0])
            joined, k = _join(labels, b, step[1])
            if k - top >= score:
                score = max(score, climb(joined, k) + 1)
        best[labels] = score
        return score

    return climb(tuple(range(n)), n), work


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
    Within group_length the count starts from the earlier factors' searches.
    The count is compared with the limit scaled once, before the search.
    """
    elements = sorted(group.elements())
    identity = tuple(range(group.degree))
    trivial = frozenset([identity])
    found: set[frozenset[Perm]] = {trivial}
    queue: list[tuple[frozenset[Perm], tuple[Perm, ...]]] = [(trivial, ())]
    work = _carried_work[0] if _carried_work else 0
    limit = MAX_SUBGROUP_WORK * guard_scale()
    while queue:
        sub, gens = queue.pop()
        work += len(elements) * group.degree
        if work > limit:
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
            if work > limit:
                check_guard(work, MAX_SUBGROUP_WORK, "subgroup enumeration")
    check_guard(work, MAX_SUBGROUP_WORK, "subgroup enumeration")
    if _carried_work:
        _carried_work[0] = work
    return found


def group_length(group: PermutationGroupModel) -> int:
    """Length of the longest strict chain of subgroups from the trivial
    group to the whole group: the sum over the direct factors of the
    longest chain among each factor's subgroups.  The subgroup searches
    share one guard count.

    >>> from .permgroup import symmetric_group, cyclic_group
    >>> group_length(symmetric_group(3))
    2
    >>> group_length(cyclic_group(4))
    2
    """
    _carried_work.append(0)
    try:
        return sum(_longest_chain(all_subgroups(factor)) for factor in group.direct_factors())
    finally:
        _carried_work.clear()


def _longest_chain(subgroups: set[frozenset[Perm]]) -> int:
    """The longest strict chain from the smallest to the largest of a
    group's subgroups."""
    ordered = sorted(subgroups, key=len)
    longest: dict[frozenset[Perm], int] = {}
    for sub in ordered:
        best = 0
        for smaller in ordered:
            if len(smaller) >= len(sub):
                break
            if len(sub) % len(smaller) == 0 and smaller < sub:
                best = max(best, longest[smaller] + 1)
        longest[sub] = best
    return longest[ordered[-1]]

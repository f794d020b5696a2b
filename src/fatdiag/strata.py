"""Equality-pattern stratification of a cartesian power under a permutation
group: pattern stabilizer orders, stratification depth, and subgroup chain
length.

A set partition P of the n coordinates is an equality pattern; its
stabilizer in G consists of the elements mapping every block to itself.
Coarsening patterns only grows the stabilizer, and the depth of G is the
longest chain of strict coarsenings along which the stabilizer strictly
grows at every step.  Over a manifold base of positive dimension every
pattern is realized by actual points and this combinatorial depth is the
depth of the orbit-type stratification of the quotient; that geometric
reading is an assumption of the caller, not checked here.

g stabilizes P exactly when its cycle partition refines P, so the
stabilizer orders are the zeta transform, over the partition lattice, of
the number of elements of each cycle partition (Rota, On the foundations
of combinatorial theory I, 1964; Stanley, Enumerative Combinatorics 1,
section 3.10).  It is summed upward: each cycle partition with k blocks
adds its count to its Bell(k) coarsenings, so the work is the sum of
Bell(k) over the distinct cycle partitions, not Bell(n) patterns each
tested against every cycle partition.  Since stabilizers along a chain are nested, two of them are
conjugate in G exactly when they are equal, so strict growth of the
conjugacy class is tested by comparing orders.  depth is guarded on its
estimated work, the zeta pairs plus the most block merges its search can
make, which are both known before either starts.

Subgroup chains (group_length) run over every subgroup.  Each subgroup is
found as a join <S, g> of a known subgroup S and one more element, built by
the closure walk of permgroup from the generators of S plus g, so a join
costs a walk over its own elements rather than products of all pairs.
Fixed points do not change the subgroup lattice, so group_length first
restricts the group to the points it moves.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .combinatorics import set_partitions_cached
from .errors import check_guard
from .permgroup import Perm, PermutationGroupModel, _closure, _compose

# Lattice steps of depth (zeta pairs plus merges), a few microseconds each:
# S_9 takes 1.8 * 10^6 of them, every group of degree 11 more than 8 * 10^6.
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


def _cycle_partitions(group: PermutationGroupModel) -> Counter[tuple[int, ...]]:
    """Map each cycle partition to the number of elements that have it."""
    return Counter(map(_cycle_partition, group.stream()))


def _stabilizer_sizes(by_cycles: Counter[tuple[int, ...]]) -> Counter[tuple[int, ...]]:
    """Map each pattern (as a label vector) to the order of its stabilizer,
    from the element counts by cycle partition.

    g fixes a pattern exactly when its cycle partition refines it, so this
    is the zeta transform of the counts over the partition lattice (Rota
    1964; Stanley, Enumerative Combinatorics 1, section 3.10), summed
    upward: a cycle partition c with k blocks adds its count to every
    coarsening of c.  The coarsenings are the images of the k-point set
    partitions q under the labels of c, and (q[c[0]], q[c[1]], ...) is
    already a canonical label vector, because c and q both number their
    blocks in order of first appearance.  The work is the sum of Bell(k)
    over the distinct cycle partitions; the identity alone reaches all
    Bell(n) patterns.
    """
    sizes: Counter[tuple[int, ...]] = Counter()
    for cycles, count in by_cycles.items():
        for q in set_partitions_cached(max(cycles) + 1):
            sizes[tuple(map(q.__getitem__, cycles))] += count
    return sizes


def _lattice_counts(n: int) -> tuple[list[int], int]:
    """Bell(0), ..., Bell(n), and the merges sum_b S(n, b) C(b, 2) that the
    search of depth makes at most over the patterns of n points, from the
    rows of the Stirling triangle.

    The work estimate of depth at degree n is at least Bell(m) zeta pairs
    (the coarsenings of the identity) plus the merges of degree m, for any
    m <= n, so each row is checked against the depth guard as it is built
    and a large degree trips after a dozen rows.
    """
    bell, row, merges = [1], [1], 0
    for _ in range(n):
        row = [b * s + t for b, (s, t) in enumerate(zip(row + [0], [0] + row))]
        bell.append(sum(row))
        merges = sum(s * b * (b - 1) // 2 for b, s in enumerate(row))
        check_guard(bell[-1] + merges, MAX_DEPTH_WORK, "stratification depth")
    return bell, merges


def depth(group: PermutationGroupModel) -> int:
    """Longest chain of strict pattern coarsenings with strictly growing
    stabilizers.

    Memoized search over the partition lattice: climb(P) is the most
    strict stabilizer jumps on any coarsening path from P up to the
    one-block pattern, and the answer is climb at the discrete pattern,
    where the stabilizer is the kernel of the action.  Merging blocks
    i < j of a pattern with b blocks relabels j as i and every label above
    j one lower, which keeps the labels canonical; each of the C(b, 2)
    merges is one precomputed table.  A path from b blocks has at most
    b - 1 steps, and each strict jump moves to a stabilizer whose order is
    a proper multiple, so the jumps above a pattern are also at most the
    longest chain of proper multiples, among the stabilizer orders that
    occur, from its own order up to |G|.  The search stops at a pattern
    once the smaller bound is reached, and skips a merge that cannot beat
    the best found; it visits every pattern and merge at most once.

    >>> from .permgroup import symmetric_group, trivial_group
    >>> depth(symmetric_group(4))
    3
    >>> depth(trivial_group(5))
    0
    """
    n = group.degree
    if n == 0:
        return 0
    bell, merges = _lattice_counts(n)
    by_cycles = _cycle_partitions(group)
    zeta_pairs = sum(bell[max(cycles) + 1] for cycles in by_cycles)
    check_guard(zeta_pairs + merges, MAX_DEPTH_WORK, "stratification depth")
    stab_size = _stabilizer_sizes(by_cycles)
    chain: dict[int, int] = {}
    for size in sorted(set(stab_size.values()), reverse=True):
        chain[size] = max((chain[t] + 1 for t in chain if t % size == 0), default=0)
    tables = [[tuple(i if lab == j else lab - (lab > j) for lab in range(b))
               for i, j in combinations(range(b), 2)] for b in range(n + 1)]

    def bound(size: int, b: int) -> int:
        return min(b - 1, chain[size])

    best: dict[tuple[int, ...], int] = {}

    def climb(labels: tuple[int, ...], b: int) -> int:
        score = best.get(labels)
        if score is not None:
            return score
        here = stab_size[labels]
        cap = bound(here, b)
        score = 0
        for table in tables[b]:
            if score == cap:
                break
            merged = tuple(map(table.__getitem__, labels))
            size = stab_size[merged]
            jump = size > here
            if bound(size, b - 1) + jump > score:
                score = max(score, climb(merged, b - 1) + jump)
        best[labels] = score
        return score

    return climb(tuple(range(n)), n)


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

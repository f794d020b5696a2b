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

Since stabilizers along a chain are nested, two of them are conjugate in G
exactly when they are equal, so strict growth of the conjugacy class is
tested by comparing orders.
"""

from __future__ import annotations

from collections import Counter

from .combinatorics import set_partitions
from .errors import check_guard
from .permgroup import Perm, PermutationGroupModel, _compose

MAX_DEPTH_DEGREE = 9
MAX_SUBGROUP_ORDER = 120


def _cycle_minima(g: Perm) -> tuple[int, ...]:
    """For each point, the minimum of its cycle under g."""
    root = [-1] * len(g)
    for start in range(len(g)):
        p = start
        while root[p] < 0:
            root[p] = start
            p = g[p]
    return tuple(root)


def _stabilizer_sizes(group: PermutationGroupModel) -> dict[tuple[int, ...], int]:
    """Map each pattern (as a label vector) to the order of its stabilizer.

    g fixes a pattern exactly when each of its cycles lies inside one block,
    that is when every point shares a block with the minimum of its cycle.
    The elements are therefore counted once by cycle partition, keyed by the
    vector of cycle minima, and each pattern sums the counts of the cycle
    partitions that refine it: at most min(|G|, Bell(n)) vectors per pattern.
    """
    n = group.degree
    by_cycles = Counter(map(_cycle_minima, group.elements()))
    out: dict[tuple[int, ...], int] = {}
    for labels in set_partitions(n):
        out[labels] = sum(
            count
            for root, count in by_cycles.items()
            if all(labels[root[i]] == labels[i] for i in range(n))
        )
    return out


def _merge_labels(labels: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Canonical label vector after merging blocks a and b (a < b)."""
    remap: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab == b:
            lab = a
        if lab not in remap:
            remap[lab] = len(remap)
        out.append(remap[lab])
    return tuple(out)


def depth(group: PermutationGroupModel) -> int:
    """Longest chain of strict pattern coarsenings with strictly growing
    stabilizers.

    Dynamic program over the partition lattice: best(P) is the most strict
    stabilizer jumps on any coarsening path from P up to the one-block
    pattern, and the answer is best at the discrete pattern, where the
    stabilizer is the kernel of the action.

    >>> from .permgroup import symmetric_group, trivial_group
    >>> depth(symmetric_group(4))
    3
    >>> depth(trivial_group(5))
    0
    """
    n = group.degree
    check_guard(n, MAX_DEPTH_DEGREE, "stratification depth")
    if n == 0:
        return 0
    stab_size = _stabilizer_sizes(group)
    by_blocks: dict[int, list[tuple[int, ...]]] = {}
    for labels in stab_size:
        b = max(labels) + 1
        by_blocks.setdefault(b, []).append(labels)

    best: dict[tuple[int, ...], int] = {}
    for b in range(1, n + 1):
        for labels in by_blocks.get(b, ()):
            if b == 1:
                best[labels] = 0
                continue
            here = stab_size[labels]
            score = 0
            for i in range(b):
                for j in range(i + 1, b):
                    merged = _merge_labels(labels, i, j)
                    jump = 1 if stab_size[merged] > here else 0
                    score = max(score, best[merged] + jump)
            best[labels] = score
    discrete = tuple(range(n))
    return best[discrete]


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


def _closure(subgroup: frozenset[Perm], extra: Perm) -> frozenset[Perm]:
    """Subgroup generated by a known subgroup and one more element."""
    elems = set(subgroup)
    frontier = [extra]
    while frontier:
        x = frontier.pop()
        if x in elems:
            continue
        elems.add(x)
        for y in list(elems):
            for p in (_compose(x, y), _compose(y, x)):
                if p not in elems:
                    frontier.append(p)
    return frozenset(elems)


def all_subgroups(group: PermutationGroupModel) -> set[frozenset[Perm]]:
    """Every subgroup, as a frozenset of elements.

    Breadth-first over one-generator extensions: each known subgroup is
    extended by one representative of each of its cosets.  Guarded at
    group order 120.
    """
    check_guard(group.order(), MAX_SUBGROUP_ORDER, "subgroup enumeration")
    elements = group.sorted_elements()
    trivial = frozenset([tuple(range(group.degree))])
    found: set[frozenset[Perm]] = {trivial}
    queue = [trivial]
    while queue:
        sub = queue.pop()
        covered = set(sub)
        for g in elements:
            if g in covered:
                continue
            covered.update(_compose(h, g) for h in sub)
            bigger = _closure(sub, g)
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return found


def group_length(group: PermutationGroupModel) -> int:
    """Length of the longest strict chain of subgroups from the trivial
    group to the whole group.

    >>> from .permgroup import symmetric_group, cyclic_group
    >>> group_length(symmetric_group(3))
    2
    >>> group_length(cyclic_group(4))
    2
    """
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

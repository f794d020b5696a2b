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
Birkhoff, Lattice Theory, ch. V), and the depth is the height of L.  L is
usually far smaller than the Bell(n) set partitions.

Both invariants are heights of lattices built by joins, found by one
memoized longest-path search from the bottom, _climb, which stops at a
state once its path reaches a bound on the steps any path from it can
make, and skips a step whose bound cannot beat the best path found, so
every path length it records is exact.  For depth a state is a pattern,
a step joins one more cycle partition, and the bound is the blocks less
the orbits; a step merges the blocks that each cycle of one element
touches.  For the subgroup chain length (group_length) a state is a
subgroup S, a step joins S with one element of each coset of S, and the
bound is Omega(|G:S|), the prime factors of the index counted with
multiplicity, since each step of a strict chain multiplies the order by
at least a prime.  With no bound the climb reaches every subgroup
(all_subgroups, the tests' reference).

Both invariants add over the direct factors, with 0 for the fixed
points, as permgroup's fold_factors: one climb for each distinct factor
model, and one guard count for all the factors.  Cycle partitions never
cross orbits, so the lattice of joins of cycle partitions of a direct
product is the product of the factors' lattices, whose height is the sum
of their heights; and the chain length l is additive over any normal
subgroup N, l(G) = l(N) + l(G/N) (a chain meets N and G/N in chains, and
a step that neither grows is no step), so over direct products.
"""

import math
from functools import lru_cache

from .errors import Work
from .permgroup import Perm, PermutationGroupModel, _closure, _compose

# Refinement tests and joins of the depth search, counted as it makes them,
# one unit per moved point each: S_9 takes 900 units, A_9 1.9 * 10^5 and
# PGammaL(2, 8) on 9 points 1.24 * 10^6 (about 0.5 s); M_11 would take
# 9 * 10^6, and trips the guard after about 1 s.
MAX_DEPTH_WORK = 2 * 10**6
# Subgroup climb work, counted as it goes: tuple entries composed by the
# coset passes and join walks.  S_5's climb takes 54,350 units (about
# 16 ms), the search of all its 156 subgroups 3.9 * 10^6 (1.2 s); S_6, A_6
# and A_7 trip the guard after about 1 s.
MAX_SUBGROUP_WORK = 4 * 10**6


def _climb(start, moves, bound):
    """The longest path from start, a step going to any successor that
    moves(state) yields, and the longest path from every state reached: a
    state stops once its path reaches bound(state), and a successor whose
    bound cannot beat the best path found is skipped."""
    best = {}

    def climb(state) -> int:
        score = best.get(state)
        if score is not None:
            return score
        cap = bound(state)
        score = 0
        if cap:
            for successor in moves(state):
                if bound(successor) >= score:
                    score = max(score, climb(successor) + 1)
                    if score == cap:
                        break
        best[state] = score
        return score

    return climb(start), best


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


def _steps(group: PermutationGroupModel) -> list[Perm]:
    """One element for each distinct cycle partition other than the
    discrete one, with the most blocks first.

    A step is the element itself: g sends every point to the next point of
    its cycle, so a pattern P is refined by g's cycle partition exactly
    when P[g[p]] = P[p] for every p, and _join follows the same pairs.
    """
    identity = tuple(range(group.degree))
    elements = {}
    for g in group.stream():
        elements[_cycle_partition(g)] = g
    elements.pop(identity, None)
    return [elements[c] for c in sorted(elements, key=lambda c: (-max(c), c))]


def _join(labels: tuple[int, ...], b: int, g: Perm) -> tuple[tuple[int, ...], int]:
    """The join of the pattern labels (b blocks) with the cycle partition
    of g, and its number of blocks.

    The label of each point p merges with the label of g[p], which merges
    exactly the labels that each cycle of g touches.  Each merged class of
    labels is rooted at its smallest label.  Labels number the blocks in
    order of first appearance, so the classes appear in the order of their
    roots, and a root's rank among the roots is the class's new label.
    """
    root = list(range(b))
    for r, s in zip(labels, map(labels.__getitem__, g)):
        if r != s:
            while root[r] != r:
                r = root[r]
            while root[s] != s:
                s = root[s]
            if s < r:
                root[r] = s
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

    Replacing each pattern of a chain by the orbit partition of its
    stabilizer, a member of L with the same stabilizer, keeps the chain,
    and distinct members of L have distinct stabilizers.  On each factor,
    the climb from the discrete pattern: a step goes from P to P v c for a
    cycle partition c not refining P, those with the most blocks first.
    Every cover of L is a step and every step strictly enlarges the
    stabilizer, so the longest path is the height.  The bound of P is
    blocks(P) - blocks(orbit partition).  The guard counts the refinement
    tests and joins, one unit per point of the factor each.

    >>> from .permgroup import symmetric_group, trivial_group
    >>> depth(symmetric_group(4))
    3
    >>> depth(trivial_group(5))
    0
    """
    work = Work(MAX_DEPTH_WORK, "stratification depth")
    return group.fold_factors(lambda f: 0, lambda factor: _factor_depth(factor, work),
                              int.__add__, work)


def _factor_depth(group: PermutationGroupModel, work: Work) -> int:
    """The height of the join lattice of one factor; a state is a pattern's
    labels and number of blocks."""
    n = group.degree
    steps = _steps(group)
    top = len(group.orbit_sizes())

    def moves(state):
        labels, b = state
        label_of = labels.__getitem__
        for step in steps:
            work.units += n  # checked at the next join, or when the climbs end
            if tuple(map(label_of, step)) == labels:
                continue
            work.add(n)
            yield _join(labels, b, step)

    return _climb((tuple(range(n)), n), moves, lambda state: state[1] - top)[0]


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


@lru_cache(maxsize=None)
def _omega(m: int) -> int:
    """The number of prime factors of m, counted with multiplicity."""
    p = next((p for p in range(2, math.isqrt(m) + 1) if m % p == 0), m)
    return 0 if m == 1 else 1 + _omega(m // p)


def _subgroup_climb(group: PermutationGroupModel, work: Work, bound):
    """_climb over the subgroups, as frozensets of elements, from the
    trivial one, with bound(|G:S|) the bound of S: a subgroup S, kept with
    generators, steps to its join with one representative g of each coset
    Sg, the closure of the identity under those generators plus g.  Every
    cover S < T is a step, as T = <S, g> for any g in T outside S.  The
    work counts the tuple entries composed: |G| tuples for each coset
    pass, and each element a join walk finds times its generators.
    """
    elements = sorted(group.elements())
    identity = tuple(range(group.degree))
    trivial = frozenset([identity])
    generators = {trivial: ()}

    def moves(sub):
        gens = generators[sub]
        work.add(len(elements) * group.degree)
        covered = set(sub)
        for g in elements:
            if g in covered:
                continue
            covered.update(_compose(h, g) for h in sub)
            joined = gens + (g,)
            bigger = _closure(identity, joined)
            work.add(len(bigger) * len(joined) * group.degree)
            generators.setdefault(bigger, joined)
            yield bigger

    return _climb(trivial, moves, lambda sub: bound(len(elements) // len(sub)))


def all_subgroups(group: PermutationGroupModel) -> set[frozenset[Perm]]:
    """Every subgroup, as a frozenset of elements: the subgroup climb with
    no bound, guarded on its own work."""
    work = Work(MAX_SUBGROUP_WORK, "subgroup enumeration")
    found = _subgroup_climb(group, work, lambda index: math.inf)[1]
    work.done()
    return set(found)


def group_length(group: PermutationGroupModel) -> int:
    """Length of the longest strict chain of subgroups from the trivial
    group to the whole group: the sum over the direct factors of the
    height of each factor's subgroup lattice, found by the subgroup climb
    with the bound Omega(|G:S|).  The climbs share one guard count.

    >>> from .permgroup import symmetric_group, cyclic_group
    >>> group_length(symmetric_group(3))
    2
    >>> group_length(cyclic_group(4))
    2
    """
    work = Work(MAX_SUBGROUP_WORK, "subgroup enumeration")
    return group.fold_factors(lambda f: 0, lambda factor: _subgroup_climb(factor, work, _omega)[0],
                              int.__add__, work)


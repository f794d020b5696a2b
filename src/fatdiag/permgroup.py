"""Permutations, cycle types, and finite permutation groups.

A permutation of the points {0, ..., degree-1} is the plain tuple of its
images: g[i] is the image of i.  The product g*h applies h first, so its
image tuple is (g[h[0]], g[h[1]], ...).  Inputs are validated once, where
they enter: parse_cycles checks cycle notation and PermutationGroupModel
checks each generator; everything built from those is a permutation by
construction.  A cycle type is a multiplicity vector (see combinatorics):
entry l - 1 is the number of cycles of length l.

The cycle notation parser uses 1-indexed points, matching the usual written
form "(1 2 3)(4 5)".

A group is held as a stabilizer chain, built by the Schreier-Sims
algorithm (Sims 1970; Seress, Permutation Group Algorithms, 2003, ch. 4):
base points b_0, b_1, ... and, at each level, one element for each point of
the orbit of b_i under the stabilizer of b_0, ..., b_{i-1}.  The order is
the product of the orbit sizes, found without enumerating, and every element
is the product of one transversal element per level, so the elements are
streamed once each without a visited set (PermutationGroupModel.stream).

The closure walk, _closure, is the orbit of a tuple under the group
generated by some permutations, found breadth-first by left multiplication.
From the identity it enumerates the subgroup joins of strata.all_subgroups;
from (0, ..., d-1) it is the orbit on ordered d-tuples of distinct points
(is_d_transitive).

Convention for the induced action on coordinate tuples, used throughout:
(g . x)_i = x_{g^{-1}(i)}, so that g moves the coordinate sitting in slot j
to slot g(j) and (g h) . x = g . (h . x).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache
from typing import Iterator

from .combinatorics import alpha_sequences, factorial_product
from .errors import check_guard

# Group work, in tuple entries: the entries the stabilizer chain composes,
# counted as it is built, and |G| * degree before the first element is
# streamed, which bounds both the time of a walk over the group and the
# memory of an element set.
MAX_GROUP_WORK = 4 * 10**6
MAX_TUPLE_ORBIT = 10**6
MAX_TRANSITIVITY_DEGREE = 4
MAX_CONJUGACY_N = 20

Perm = tuple[int, ...]


def _compose(g: Perm, h: Perm) -> Perm:
    """The product g*h: apply h, then g."""
    return tuple(map(g.__getitem__, h))


def _from_cycles(cycles, degree: int) -> Perm:
    """Image tuple of disjoint cycles of 0-indexed points (not checked)."""
    images = list(range(degree))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            images[p] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def _cycle_type(g: Perm) -> tuple[int, ...]:
    """Cycle-length counts: entry l - 1 is the number of cycles of length l."""
    counts = [0] * len(g)
    seen = bytearray(len(g))
    for start in range(len(g)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = 1
            p = g[p]
            length += 1
        counts[length - 1] += 1
    return tuple(counts)


def _closure(start: tuple[int, ...], generators) -> frozenset[tuple[int, ...]]:
    """Orbit of start under the group the generators generate, acting on
    entries: g maps (t_0, t_1, ...) to (g[t_0], g[t_1], ...), which for a
    permutation t is the product g*t.

    Breadth-first under left multiplication by the generators; the group
    enumeration work guard, on tuples found times tuple length, is checked
    after each layer.
    """
    found = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for g in generators:
                u = _compose(g, t)
                if u not in found:
                    found.add(u)
                    nxt.append(u)
        check_guard(len(found) * len(start), MAX_GROUP_WORK, "group enumeration")
        frontier = nxt
    return frozenset(found)


def _stabilizer_chain(degree: int, generators) -> list[list[Perm]]:
    """Transversals of a stabilizer chain of the group the generators
    generate, by the Schreier-Sims algorithm: for each base point b_i, one
    element u with u[b_i] = p for every point p of the orbit of b_i under
    the stabilizer of the earlier base points.

    Level i keeps the strong generators that fix b_0, ..., b_{i-1}, and its
    transversal is closed under them.  For every strong generator s and
    transversal element u of a level, the Schreier generator
    t^-1 s u, with t the transversal element at s u(b_i), must lie in the
    levels below: it is sifted through them, and a residue other than the
    identity becomes a strong generator of each level it passed and of the
    one where it stopped (a new level, at its first moved point, if it
    passed them all).  Each pair is tested once, so the chain is complete
    when no pair is pending.  The group work guard counts the tuple entries
    composed as the chain is built.
    """
    identity = tuple(range(degree))
    points: list[int] = []
    strong: list[list[Perm]] = []
    reps: list[dict[int, Perm]] = []
    inverses: list[dict[int, Perm]] = []
    pending: list[tuple[int, Perm, Perm]] = []
    work = 0

    def sift(g: Perm, level: int) -> tuple[Perm, int]:
        nonlocal work
        for j in range(level, len(points)):
            p = g[points[j]]
            if p not in reps[j]:
                return g, j
            if p != points[j]:
                inv = inverses[j].get(p)
                if inv is None:
                    inv = inverses[j][p] = tuple(sorted(identity, key=reps[j][p].__getitem__))
                    work += degree
                g = _compose(inv, g)
                work += degree
        return g, len(points)

    def add(g: Perm, first: int, last: int) -> None:
        if last == len(points):
            b = next(p for p in identity if g[p] != p)
            points.append(b)
            strong.append([])
            reps.append({b: identity})
            inverses.append({})
        for level in range(first, last + 1):
            strong[level].append(g)
            pending.extend((level, g, u) for u in reps[level].values())

    for g in generators:
        residue, level = sift(g, 0)
        if residue != identity:
            add(residue, 0, level)
        check_guard(work, MAX_GROUP_WORK, "group enumeration")
        while pending:
            level, s, u = pending.pop()
            v = _compose(s, u)
            work += degree
            p = v[points[level]]
            t = reps[level].get(p)
            if t is None:
                reps[level][p] = v
                pending.extend((level, s2, v) for s2 in strong[level])
            elif t != v:
                residue, stop = sift(v, level)
                if residue != identity:
                    add(residue, level + 1, stop)
            check_guard(work, MAX_GROUP_WORK, "group enumeration")
    return [list(transversal.values()) for transversal in reps]


def _products(levels: list[list[Perm]], identity: Perm) -> list[Perm]:
    """Every product u_0 u_1 ... of one transversal element per level."""
    if not levels:
        return [identity]
    out = levels[-1]
    for transversal in reversed(levels[:-1]):
        out = [_compose(u, x) for u in transversal for x in out]
    return out


def _chain_elements(levels: list[list[Perm]], identity: Perm) -> Iterator[Perm]:
    """Every element of the group of a stabilizer chain, once each.

    The products of the lowest levels and those of the levels above are
    built as two lists, split where the lists are shortest together (about
    sqrt(|G|) each when the orbits are alike); each element is then one
    composition of an upper product with a lower one, and none is kept.  A
    chain of one level is its own list of elements.
    """
    order = math.prod(map(len, levels))
    lower_sizes = [math.prod(map(len, levels[k:])) for k in range(len(levels) + 1)]
    split = min(range(len(levels) + 1), key=lambda k: lower_sizes[k] + order // lower_sizes[k])
    lower = _products(levels[split:], identity)
    if not split:
        yield from lower
        return
    for upper in _products(levels[:split], identity):
        for x in lower:
            yield _compose(upper, x)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-indexed cycle notation like "(1 2 3)(4 5)".

    Points may be separated by spaces or commas; "e", "()" and "" denote the
    identity.  Points not mentioned are fixed.

    >>> parse_cycles("(1 2 3)(4 5)", 5)
    (1, 2, 0, 4, 3)
    """
    text = text.strip()
    if text in ("", "e", "()", "id"):
        return tuple(range(degree))
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"cannot parse cycle notation: {text!r}")
    cycles = []
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        cyc = []
        for p in body.replace(",", " ").split():
            if not p.isdigit() or int(p) < 1:
                raise ValueError(f"bad point {p!r} in {text!r} (points are 1-indexed)")
            point = int(p) - 1
            if point >= degree:
                raise ValueError(f"point {p} exceeds degree {degree}")
            if point in seen:
                raise ValueError(f"point {p} repeated across cycles")
            seen.add(point)
            cyc.append(point)
        cycles.append(cyc)
    return _from_cycles(cycles, degree)


def conjugacy_classes_sn(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Conjugacy classes of the full symmetric group on n points.

    Returns (cycle type, class size) pairs in a deterministic order; the
    class size is n! over the centralizer order prod_l (alpha_l! l^alpha_l),
    and the sizes sum to n!.

    >>> conjugacy_classes_sn(3)
    [((3, 0, 0), 1), ((1, 1, 0), 3), ((0, 0, 1), 2)]
    """
    check_guard(n, MAX_CONJUGACY_N, "conjugacy_classes_sn")
    out = []
    for alpha in alpha_sequences(n, n):
        centralizer = factorial_product(alpha) * math.prod(
            l**a for l, a in enumerate(alpha, start=1))
        out.append((alpha, math.factorial(n) // centralizer))
    return out


class PermutationGroupModel:
    """Finite permutation group given by generators, held as a stabilizer
    chain built on first use.

    Generators are image tuples or cycle-notation strings.  The chain is
    guarded on the degree before it is built and on the entries it composes
    while it is built; a walk over the elements (stream, the histograms and
    elements) is guarded on its work |G| * degree before the first element.
    The chain, the element set and the cycle-type histogram are computed
    once.
    """

    def __init__(self, degree: int, generators) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.degree = degree
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_cycles(g, degree)
            elif sorted(g) != list(range(degree)):
                raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
            gens.append(tuple(g))
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._chain: list[list[Perm]] | None = None
        self._elements: frozenset[Perm] | None = None
        self._cycle_types: Counter[tuple[int, ...]] | None = None

    def _levels(self) -> list[list[Perm]]:
        if self._chain is None:
            check_guard(self.degree, MAX_GROUP_WORK, "group enumeration")
            self._chain = _stabilizer_chain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        """|G|, the product of the orbit sizes along the chain."""
        return math.prod(map(len, self._levels()))

    def stream(self) -> Iterator[Perm]:
        """Every element once, in chain order, each built by one composition
        and none kept."""
        check_guard(self.order() * self.degree, MAX_GROUP_WORK, "group enumeration")
        return _chain_elements(self._levels(), tuple(range(self.degree)))

    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            self._elements = frozenset(self.stream())
        return self._elements

    def sorted_elements(self) -> list[Perm]:
        """Elements in lexicographic order of their image tuples."""
        return sorted(self.elements())

    def __contains__(self, g: Perm) -> bool:
        return g in self.elements()

    def __iter__(self):
        return iter(self.sorted_elements())

    def cycle_type_histogram(self) -> Counter[tuple[int, ...]]:
        """Map cycle type -> number of elements of that type (a copy)."""
        if self._cycle_types is None:
            self._cycle_types = Counter(map(_cycle_type, self.stream()))
        return Counter(self._cycle_types)

    def cycle_count_histogram(self) -> dict[int, int]:
        """Map cycle count -> number of elements with that many cycles."""
        out: dict[int, int] = {}
        for ctype, count in self.cycle_type_histogram().items():
            cycles = sum(ctype)
            out[cycles] = out.get(cycles, 0) + count
        return out

    def orbit_sizes(self) -> list[int]:
        """Sizes of the orbits on points, in increasing order."""
        parent = list(range(self.degree))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.generators:
            for i, j in enumerate(g):
                parent[find(i)] = find(j)
        sizes = [0] * self.degree
        for p in range(self.degree):
            sizes[find(p)] += 1
        return sorted(size for size in sizes if size)

    def is_transitive(self) -> bool:
        return self.degree > 0 and len(self.orbit_sizes()) == 1

    def is_d_transitive(self, d: int) -> bool:
        """Whether the action on ordered d-tuples of distinct points is
        transitive.  Guarded at d <= 4."""
        check_guard(d, MAX_TRANSITIVITY_DEGREE, "transitivity degree")
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        n = self.degree
        if n < d:
            return False
        target = 1
        for j in range(d):
            target *= n - j
        check_guard(target, MAX_TUPLE_ORBIT, "tuple orbit enumeration")
        return len(_closure(tuple(range(d)), self.generators)) == target


def symmetric_group(n: int) -> PermutationGroupModel:
    if n <= 1:
        return PermutationGroupModel(n, [])
    return PermutationGroupModel(n, [_from_cycles([range(n)], n), _from_cycles([(0, 1)], n)])


def alternating_group(n: int) -> PermutationGroupModel:
    if n <= 2:
        return PermutationGroupModel(n, [])
    return PermutationGroupModel(n, [_from_cycles([(i, i + 1, i + 2)], n) for i in range(n - 2)])


def cyclic_group(n: int) -> PermutationGroupModel:
    if n <= 1:
        return PermutationGroupModel(n, [])
    return PermutationGroupModel(n, [_from_cycles([range(n)], n)])


def trivial_group(n: int) -> PermutationGroupModel:
    return PermutationGroupModel(n, [])


def regular_representation(group: PermutationGroupModel) -> PermutationGroupModel:
    """The group acting on itself by left multiplication, as a permutation
    group of degree equal to the group order."""
    elems = group.sorted_elements()
    index = {g: i for i, g in enumerate(elems)}
    gens = [tuple(index[_compose(g, h)] for h in elems) for g in group.generators]
    return PermutationGroupModel(len(elems), gens)


@lru_cache(maxsize=8)
def symmetric_group_cached(n: int) -> PermutationGroupModel:
    """Memoized full symmetric group, so that its chain and cycle-type
    histogram are computed once per process."""
    return symmetric_group(n)

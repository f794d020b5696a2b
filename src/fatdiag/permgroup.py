"""Permutations, cycle types, and finite permutation groups.

A permutation of the points {0, ..., degree-1} is the plain tuple of its
images: g[i] is the image of i.  The product g*h applies h first, so its
image tuple is (g[h[0]], g[h[1]], ...).  Inputs are validated once, where
they enter: parse_cycles checks cycle notation and PermutationGroupModel
checks each generator; everything built from those is a permutation by
construction.  A cycle type is an AlphaSequence: parts[l - 1] cycles of
length l.

The cycle notation parser and formatter use 1-indexed points, matching the
usual written form "(1 2 3)(4 5)".

Convention for the induced action on coordinate tuples, used throughout:
(g . x)_i = x_{g^{-1}(i)}, so that g moves the coordinate sitting in slot j
to slot g(j) and (g h) . x = g . (h . x).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from functools import lru_cache

from .combinatorics import AlphaSequence, alpha_sequences
from .errors import check_guard

MAX_GROUP_ORDER = 10**6
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


def _cycles(g: Perm, include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its minimum, ordered by minimum."""
    seen = [False] * len(g)
    out = []
    for start in range(len(g)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        p = g[start]
        while p != start:
            cyc.append(p)
            seen[p] = True
            p = g[p]
        if len(cyc) > 1 or include_fixed:
            out.append(tuple(cyc))
    return out


def _cycle_type(g: Perm) -> tuple[int, ...]:
    """Cycle-length counts: entry l - 1 is the number of cycles of length l."""
    counts = [0] * len(g)
    for cyc in _cycles(g, include_fixed=True):
        counts[len(cyc) - 1] += 1
    return tuple(counts)


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


def format_cycles(g: Perm) -> str:
    """1-indexed cycle notation; fixed points omitted; identity is "e"."""
    cycles = _cycles(g)
    if not cycles:
        return "e"
    return "".join("(" + " ".join(str(p + 1) for p in cyc) + ")" for cyc in cycles)


def conjugacy_classes_sn(n: int) -> list[tuple[AlphaSequence, int]]:
    """Conjugacy classes of the full symmetric group on n points.

    Returns (cycle type, class size) pairs in a deterministic order; the
    class size is n! over the centralizer order prod_l (alpha_l! l^alpha_l),
    and the sizes sum to n!.

    >>> [(t.parts, s) for t, s in conjugacy_classes_sn(3)]
    [((3, 0, 0), 1), ((1, 1, 0), 3), ((0, 0, 1), 2)]
    """
    check_guard(n, MAX_CONJUGACY_N, "conjugacy_classes_sn")
    out = []
    for alpha in alpha_sequences(n, n):
        centralizer = alpha.factorial_product() * math.prod(
            l**a for l, a in enumerate(alpha.parts, start=1))
        out.append((alpha, math.factorial(n) // centralizer))
    return out


class PermutationGroupModel:
    """Finite permutation group given by generators; elements enumerated lazily.

    Generators are image tuples or cycle-notation strings.  Enumeration is a
    plain closure walk and is guarded at 10^6 elements.
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
        self._elements: frozenset[Perm] | None = None

    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            found = {tuple(range(self.degree))}
            frontier = list(found)
            while frontier:
                nxt = []
                for h in frontier:
                    for g in self.generators:
                        p = _compose(g, h)
                        if p not in found:
                            found.add(p)
                            nxt.append(p)
                check_guard(len(found), MAX_GROUP_ORDER, "group enumeration")
                frontier = nxt
            self._elements = frozenset(found)
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def sorted_elements(self) -> list[Perm]:
        """Elements in lexicographic order of their image tuples."""
        return sorted(self.elements())

    def __contains__(self, g: Perm) -> bool:
        return g in self.elements()

    def __iter__(self):
        return iter(self.sorted_elements())

    def cycle_count_histogram(self) -> dict[int, int]:
        """Map cycle count -> number of elements with that many cycles."""
        return dict(Counter(len(_cycles(g, include_fixed=True)) for g in self.elements()))

    def cycle_type_histogram(self) -> dict[AlphaSequence, int]:
        """Map cycle type -> number of elements of that type."""
        hist = Counter(map(_cycle_type, self.elements()))
        return {AlphaSequence(t): count for t, count in hist.items()}

    def orbits(self) -> list[frozenset[int]]:
        """Orbits on points, ordered by minimum element."""
        parent = list(range(self.degree))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in self.generators:
            for i, j in enumerate(g):
                parent[find(i)] = find(j)
        groups: dict[int, set[int]] = {}
        for p in range(self.degree):
            groups.setdefault(find(p), set()).add(p)
        return sorted((frozenset(s) for s in groups.values()), key=min)

    def is_transitive(self) -> bool:
        return self.degree > 0 and len(self.orbits()) == 1

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
        check_guard(target, MAX_GROUP_ORDER, "tuple orbit enumeration")
        start = tuple(range(d))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for t in frontier:
                for g in self.generators:
                    u = _compose(g, t)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return len(seen) == target


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
    """Memoized full symmetric group with its elements already enumerated."""
    group = symmetric_group(n)
    group.elements()
    return group

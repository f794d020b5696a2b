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
Every group question is answered from the chain.  Sifting g (_sift)
divides it, level by level, by the transversal element that agrees with
it on the base point; the residue is the identity exactly when g lies in
the group, so membership needs no element set.  The orbit of the base
tuple (b_0, ..., b_{d-1}) has the product of the first d orbit sizes as
its size, so d-transitivity needs no walk over tuples.

The cycle-type histogram does not walk every element.  Split the chain
into upper levels, whose products u are coset representatives of the
pointwise stabilizer H of the upper base points, and lower levels, whose
products are the elements of H.  The coset uH is named by its base image
(u(b_0), ..., u(b_{k-1})); conjugating by h in H sends uH to (h u)H, whose
base image is h applied entrywise, and keeps every cycle type.  So the
histogram is the sum over the H-orbits of base images, the classes of
_classes under H's strong generators, of the orbit size times the
histogram of one coset (Seress, ch. 4-5, for the chain and its strong
generators).

A group that is a direct product over its orbits is split into factors,
each a group on its own renumbered points, by sifting through the chain
(direct_factors).  X^n / G is X^f times the X^(n_i) / G_i of the
factors G_i, for the f fixed points, so chi and the Poincare polynomial
multiply over the factors (Kunneth; Macdonald, Topology 1, 1962), and
stratification depth and subgroup chain length add (strata).  Each is
one fold, fold_factors: its value on the fixed points, its rule on one
factor, run once for each distinct factor model, and how values combine.

The closure walk, _closure, is the orbit of a tuple under the group
generated by some permutations, found breadth-first by left multiplication.
From the identity it closes the subgroup joins of the subgroup climb of
strata, the one place where elements are kept.

Convention for the induced action on coordinate tuples, used throughout:
(g . x)_i = x_{g^{-1}(i)}, so that g moves the coordinate sitting in slot j
to slot g(j) and (g h) . x = g . (h . x).
"""

import math
from collections import Counter
from collections.abc import Iterator

from .errors import Work, _integer, check_guard

# Group work, in tuple entries: the entries the stabilizer chain composes,
# counted as it is built, and |G| * degree before the first element is
# streamed, which bounds both the time of a walk over the group and the
# memory of an element set.  A histogram is guarded on the entries of its
# coset lists before they are built, and on the elements of the cosets it
# walks (times the degree) before the walk.  The same limit ends the
# search for direct factors, counted in the entries of the elements it
# builds and sifts: past it, the orbits not yet tested stay unsplit.
MAX_GROUP_WORK = 4 * 10**6

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
    seen = [False] * len(g)
    for start, p in enumerate(g):
        if seen[start]:
            continue
        length = 1
        while p != start:
            seen[p] = True
            p = g[p]
            length += 1
        counts[length - 1] += 1
    return tuple(counts)


def _closure(start: tuple[int, ...], generators) -> frozenset[tuple[int, ...]]:
    """Orbit of start under the group the generators generate, acting on
    entries: g maps (t_0, t_1, ...) to (g[t_0], g[t_1], ...), which for a
    permutation t is the product g*t.

    Breadth-first under left multiplication by the generators.  Not
    guarded: the subgroup climb of strata, its one caller, closes
    subgroups of a group whose element walk is guarded on |G| * degree
    before it starts, and no subgroup is larger.
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
        frontier = nxt
    return frozenset(found)


class _Chain:
    """A stabilizer chain: base points b_0, b_1, ...; at each level i the
    strong generators fixing b_0, ..., b_{i-1}, which generate the pointwise
    stabilizer of those points; the transversal of level i, keyed by the
    image of b_i and, once the chain is complete, as a list; and the
    inverses of its elements found so far, keyed the same way.  A plain
    class: a NamedTuple costs about 0.3 ms to create at import, which every
    group command pays."""

    __slots__ = ("points", "strong", "levels", "transversals", "inverses")

    def __init__(self) -> None:
        self.points: list[int] = []
        self.strong: list[list[Perm]] = []
        self.levels: list[list[Perm]] = []
        self.transversals: list[dict[int, Perm]] = []
        self.inverses: list[dict[int, Perm]] = []


def _sift(chain: _Chain, g: Perm, level: int = 0) -> tuple[Perm, int, int]:
    """g divided, level by level from the given one, by the transversal
    element that agrees with it on the base point, until a base image has
    no transversal element or the levels run out: the residue, the level
    where it stopped, and the tuple entries composed and inverted.  From
    level 0, the residue is the identity exactly when g lies in the group
    of the chain."""
    work = 0
    points = chain.points
    for j in range(level, len(points)):
        b = points[j]
        p = g[b]
        transversal = chain.transversals[j]
        if p not in transversal:
            return g, j, work
        if p != b:
            inverses = chain.inverses[j]
            inv = inverses.get(p)
            if inv is None:
                inv = inverses[p] = tuple(sorted(range(len(g)), key=transversal[p].__getitem__))
                work += len(g)
            g = _compose(inv, g)
            work += len(g)
    return g, len(points), work


def _stabilizer_chain(degree: int, generators) -> _Chain:
    """A stabilizer chain of the group the generators generate, by the
    Schreier-Sims algorithm: for each base point b_i, one element u with
    u[b_i] = p for every point p of the orbit of b_i under the stabilizer of
    the earlier base points, and the strong generators of each level.

    Level i keeps the strong generators that fix b_0, ..., b_{i-1}, and its
    transversal is closed under them.  For every strong generator s and
    transversal element u of a level, the Schreier generator
    t^-1 s u, with t the transversal element at s u(b_i), must lie in the
    levels below: it is sifted through them, and a residue other than the
    identity becomes a strong generator of each level it passed and of the
    one where it stopped (a new level, at its first moved point, if it
    passed them all).  Each pair is tested once, so the chain is complete
    when no pair is pending.  The group work guard counts the tuple entries
    composed as the chain is built, after each generator's sift and each
    pending pair.
    """
    work = Work(MAX_GROUP_WORK, "group enumeration")
    identity = tuple(range(degree))
    chain = _Chain()
    points, strong, reps = chain.points, chain.strong, chain.transversals
    pending: list[tuple[int, Perm, Perm]] = []

    def add(g: Perm, first: int, last: int) -> None:
        if last == len(points):
            b = next(p for p in identity if g[p] != p)
            points.append(b)
            strong.append([])
            reps.append({b: identity})
            chain.inverses.append({})
        for level in range(first, last + 1):
            strong[level].append(g)
            pending.extend((level, g, u) for u in reps[level].values())

    for g in generators:
        residue, level, sifted = _sift(chain, g)
        if residue != identity:
            add(residue, 0, level)
        work.add(sifted)
        while pending:
            level, s, u = pending.pop()
            v = _compose(s, u)
            p = v[points[level]]
            t = reps[level].get(p)
            if t is None:
                reps[level][p] = v
                pending.extend((level, s2, v) for s2 in strong[level])
            elif t != v:
                residue, stop, sifted = _sift(chain, v, level)
                if residue != identity:
                    add(residue, level + 1, stop)
                work.units += sifted
            work.add(degree)
    work.done()
    chain.levels = [list(transversal.values()) for transversal in reps]
    return chain


def _products(levels: list[list[Perm]], identity: Perm) -> list[Perm]:
    """Every product u_0 u_1 ... of one transversal element per level."""
    if not levels:
        return [identity]
    out = levels[-1]
    for transversal in reversed(levels[:-1]):
        out = [_compose(u, x) for u in transversal for x in out]
    return out


def _split(levels: list[list[Perm]]) -> int:
    """The level k at which the products of levels below k and those of
    levels k and above make the shortest two lists together (about
    sqrt(|G|) each when the orbits are alike).  k = len(levels) ties with
    k = 0 at |G| + 1, and min takes 0, so a split k > 0 has a level k."""
    order = math.prod(map(len, levels))
    lower_sizes = [math.prod(map(len, levels[k:])) for k in range(len(levels) + 1)]
    return min(range(len(levels) + 1), key=lambda k: lower_sizes[k] + order // lower_sizes[k])


def _chain_elements(levels: list[list[Perm]], identity: Perm) -> Iterator[Perm]:
    """Every element of the group of a stabilizer chain, once each.

    The products of the lower levels and those of the upper levels are
    built as two lists, split by _split; each element is then one
    composition of an upper product with a lower one, and none is kept.  A
    chain of one level is its own list of elements.
    """
    split = _split(levels)
    lower = _products(levels[split:], identity)
    if not split:
        yield from lower
        return
    for upper in _products(levels[:split], identity):
        for x in lower:
            yield _compose(upper, x)


def _chain_histogram(chain: _Chain, degree: int) -> Counter[tuple[int, ...]]:
    """Cycle-type histogram of the group of a stabilizer chain, walking one
    coset of H per H-conjugacy orbit of cosets.

    With the split k of _chain_elements, H is the pointwise stabilizer of
    b_0, ..., b_{k-1}: its elements are the lower products, and its strong
    generators those of level k.  Each upper product u is keyed by its base
    image, which names the coset uH; h in H conjugates uH to the coset
    keyed by h applied to that key, with the same cycle types.  The keys'
    H-orbits are the classes of _classes joining each key with its images
    under those generators, and each adds its size times the histogram of
    the coset of its first key.  Guarded on the entries of the two lists
    before they are built, and on the elements walked, times the degree,
    before the walk.
    """
    levels = chain.levels
    split = _split(levels)
    lower_size = math.prod(map(len, levels[split:]))
    upper_size = math.prod(map(len, levels[:split]))
    check_guard((upper_size + lower_size) * degree, MAX_GROUP_WORK, "group enumeration")
    identity = tuple(range(degree))
    lower = _products(levels[split:], identity)
    if not split:
        return Counter(map(_cycle_type, lower))
    base = chain.points[:split]
    coset = {tuple(map(u.__getitem__, base)): u for u in _products(levels[:split], identity)}
    conjugators = chain.strong[split]
    orbits = _classes([key] + [tuple(map(h.__getitem__, key)) for h in conjugators]
                      for key in coset)
    check_guard(len(orbits) * lower_size * degree, MAX_GROUP_WORK, "group enumeration")
    hist: Counter[tuple[int, ...]] = Counter()
    for orbit in orbits:
        u = coset[orbit[0]]
        for ctype, count in Counter(_cycle_type(_compose(u, x)) for x in lower).items():
            hist[ctype] += len(orbit) * count
    return hist


def _restrict(generators, points: list[int]) -> "PermutationGroupModel":
    """The group the generators generate, acting on a union of its orbits,
    renumbered in order.  Each restricted generator is kept once, in order,
    and one that restricts to the identity is dropped, so orbits on which
    the generators act alike but for repeats and identities give one
    generator list: the three S_2 of <(1 2)(3 4)(5 6), (1 2), (3 4)> are
    each <(1 2)>."""
    index = dict(zip(points, range(len(points))))
    restricted = dict.fromkeys(tuple(map(index.__getitem__, map(g.__getitem__, points)))
                               for g in generators)
    restricted.pop(tuple(range(len(points))), None)
    return PermutationGroupModel(len(points), list(restricted))


def _classes(groups) -> list[list]:
    """The classes of the points that the given groups of points join, each
    in increasing order, in order of their first point; a point in no group
    is in no class."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = parent.setdefault(x, x)
        while root != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    for first, *rest in filter(None, groups):
        root = find(first)
        for p in rest:
            parent[find(p)] = root
    classes: dict[int, list[int]] = {}
    for p in sorted(parent):
        classes.setdefault(find(p), []).append(p)
    return list(classes.values())


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-indexed cycle notation like "(1 2 3)(4 5)".

    Points may be separated by spaces or commas, and each is read by
    errors._integer (ASCII digits, at most one sign); "e", "id", "()" and
    "" denote the identity.  Points not mentioned are fixed.

    >>> parse_cycles("(1 2 3)(4 5)", 5)
    (1, 2, 0, 4, 3)
    """
    text = text.strip()
    if text in ("", "e", "()", "id"):
        return tuple(range(degree))
    # each ")" ends a cycle: whitespace, "(", then a body with no "("
    *pieces, tail = text.split(")")
    parts = [piece.partition("(") for piece in pieces]
    if tail or any(space.strip() or not paren or "(" in body for space, paren, body in parts):
        raise ValueError(f"cannot parse cycle notation: {text!r}")
    cycles = []
    seen: set[int] = set()
    for _, _, body in parts:
        cyc = []
        for p in body.replace(",", " ").split():
            point = _integer(p)
            if point is None or point < 1:
                raise ValueError(f"bad point {p!r} in {text!r} (points are 1-indexed)")
            point -= 1
            if point >= degree:
                raise ValueError(f"point {p} exceeds degree {degree}")
            if point in seen:
                raise ValueError(f"point {p} repeated across cycles")
            seen.add(point)
            cyc.append(point)
        cycles.append(cyc)
    return _from_cycles(cycles, degree)


class PermutationGroupModel:
    """Finite permutation group given by generators, held as a stabilizer
    chain built on first use.

    Generators are image tuples or cycle-notation strings.  The degree is
    guarded before any generator is read, the chain on the entries it
    composes while it is built, a walk over the elements (stream and
    elements) on its work |G| * degree before the first element, and the
    histograms on their coset lists and coset walks.  The chain, the direct
    factors, the element set and the cycle-type and cycle-count histograms
    are computed once.
    """

    def __init__(self, degree: int, generators) -> None:
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        check_guard(degree, MAX_GROUP_WORK, "group enumeration")
        self.degree = degree
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_cycles(g, degree)
            elif sorted(g) != list(range(degree)):
                raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
            gens.append(tuple(g))
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._chain: _Chain | None = None
        self._factors: list[PermutationGroupModel] | None = None
        self._elements: frozenset[Perm] | None = None
        self._cycle_types: Counter[tuple[int, ...]] | None = None
        self._cycle_counts: dict[int, int] | None = None

    def _stabilizers(self) -> _Chain:
        if self._chain is None:
            self._chain = _stabilizer_chain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        """|G|, the product of the orbit sizes along the chain."""
        return math.prod(map(len, self._stabilizers().levels))

    def stream(self) -> Iterator[Perm]:
        """Every element once, in chain order, each built by one composition
        and none kept."""
        check_guard(self.order() * self.degree, MAX_GROUP_WORK, "group enumeration")
        return _chain_elements(self._stabilizers().levels, tuple(range(self.degree)))

    def elements(self) -> frozenset[Perm]:
        """The element set, kept for the subgroup climb of strata."""
        if self._elements is None:
            self._elements = frozenset(self.stream())
        return self._elements

    def direct_factors(self) -> list["PermutationGroupModel"]:
        """Groups on renumbered points whose direct product, on disjoint
        point sets, is this group on the points it moves (none for the
        trivial group).

        The moved orbits are first grouped where one generator moves points
        of several: the generators of different groups commute, so each
        group of orbits carries a factor, found by restricting the
        generators.  Within a group of tied orbits, an orbit O splits off
        exactly when, for each generator g, the element g_O that acts as g
        on O and fixes every other point lies in G (found by sifting it
        through the chain): then the g_O generate G restricted to O, the
        g g_O^-1 the rest, and G is their direct product, and conversely.
        The orbits that split are factors, in order of their first point,
        and the rest of the group of orbits is one more.  So <(1 2)(3 4)>
        does not split, and <(1 2)(3 4), (1 2)> does.  The tests count the
        entries they build and compose, over all groups of orbits; once the
        count passes MAX_GROUP_WORK, scaled, the orbits not yet tested stay
        with the rest.  Factors of the same degree and renumbered
        generators, as _restrict lists them, are one model, listed once each.
        """
        if self._factors is None:
            chain = self._stabilizers()  # the chain guard comes first
            moved = [[p for p, q in enumerate(g) if p != q] for g in self.generators]
            tie = {p: i for i, points in enumerate(_classes(moved)) for p in points}
            tied: dict[int, list[list[int]]] = {}
            for orbit in self._moved_orbits():
                tied.setdefault(tie[orbit[0]], []).append(orbit)
            gens: dict[int, list[Perm]] = {}
            for g, points in zip(self.generators, moved):
                if points:
                    gens.setdefault(tie[points[0]], []).append(g)
            identity = tuple(range(self.degree))
            work = Work(MAX_GROUP_WORK, "group enumeration")

            def splits_off(orbit: list[int], generators: list[Perm]) -> bool:
                for g in generators:
                    part = list(identity)
                    for p in orbit:
                        part[p] = g[p]
                    residue, _, sifted = _sift(chain, tuple(part))
                    work.units += self.degree + sifted
                    if residue != identity:
                        return False
                return True

            shared: dict[tuple, PermutationGroupModel] = {}

            def factor(generators: list[Perm], points: list[int]) -> PermutationGroupModel:
                model = _restrict(generators, points)
                return shared.setdefault((model.degree, model.generators), model)

            factors: list[PermutationGroupModel] = []
            for root, group_orbits in tied.items():
                rest: list[int] = []
                for orbit in group_orbits:
                    if (len(group_orbits) > 1 and work.units <= work.limit
                            and splits_off(orbit, gens[root])):
                        factors.append(factor(gens[root], orbit))
                    else:
                        rest += orbit
                if rest:
                    factors.append(self if len(rest) == self.degree
                                   else factor(gens[root], sorted(rest)))
            self._factors = factors
        return list(self._factors)

    def fold_factors(self, fixed, rule, combine, work: Work | None = None):
        """fixed(f), f the fixed points, combined in order with rule(factor)
        for each direct factor, run once per model; on work, if given, a
        repeat counts its rule's units again, and the count is checked last."""
        factors = self.direct_factors()
        value = fixed(self.degree - sum(factor.degree for factor in factors))
        done: dict[PermutationGroupModel, tuple] = {}
        for factor in factors:
            if factor not in done:
                units = work.units if work else 0
                done[factor] = rule(factor), (work.units if work else 0) - units
            elif work:
                work.add(done[factor][1])
            value = combine(value, done[factor][0])
        if work:
            work.done()
        return value

    def cycle_type_histogram(self) -> Counter[tuple[int, ...]]:
        """Map cycle type -> number of elements of that type (a copy), by
        _chain_histogram over the group's own chain."""
        if self._cycle_types is None:
            self._cycle_types = _chain_histogram(self._stabilizers(), self.degree)
        return Counter(self._cycle_types)

    def cycle_count_histogram(self) -> dict[int, int]:
        """Map cycle count -> number of elements with that many cycles (a
        copy), summed once from the cycle-type histogram."""
        if self._cycle_counts is None:
            out: dict[int, int] = {}
            for ctype, count in self.cycle_type_histogram().items():
                cycles = sum(ctype)
                out[cycles] = out.get(cycles, 0) + count
            self._cycle_counts = out
        return dict(self._cycle_counts)

    def _moved_orbits(self) -> list[list[int]]:
        """The orbits of two or more points, each in increasing order, in
        order of their first point."""
        return _classes((i, j) for g in self.generators for i, j in enumerate(g) if i != j)

    def orbit_sizes(self) -> list[int]:
        """Sizes of the orbits on points, in increasing order."""
        sizes = [len(orbit) for orbit in self._moved_orbits()]
        return [1] * (self.degree - sum(sizes)) + sorted(sizes)

    def is_d_transitive(self, d: int) -> bool:
        """Whether the action on ordered d-tuples of distinct points is
        transitive.

        The orbit of the first d base points (b_0, ..., b_{d-1}) has
        |G| / |G_(b_0, ..., b_{d-1})| elements, the product of the first d
        orbit sizes along the chain, with a level missing at the end
        counting 1 (extend the base by any other points).  So G is
        d-transitive exactly when that product is n! / (n - d)!.
        """
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        n = self.degree
        return n >= d and math.prod(map(len, self._stabilizers().levels[:d])) == math.perm(n, d)


def symmetric_group(n: int) -> PermutationGroupModel:
    if n <= 1:
        return PermutationGroupModel(n, [])
    return PermutationGroupModel(n, [_from_cycles([range(n)], n), _from_cycles([(0, 1)], n)])


def alternating_group(n: int) -> PermutationGroupModel:
    """A_n from two generators: (1 2 3) and the long cycle (1 2 ... n) for
    odd n, or (2 3 ... n) for even n, an even permutation either way.
    Together they generate A_n (n >= 3).  Schreier-Sims tests each strong
    generator against each transversal element, so two generators instead
    of the n - 2 three-cycles (i i+1 i+2) build the chains of A_1 ... A_12
    in about 40% of the time."""
    if n <= 2:
        return PermutationGroupModel(n, [])
    long_cycle = range(n) if n % 2 else range(1, n)
    return PermutationGroupModel(n, [_from_cycles([(0, 1, 2)], n), _from_cycles([long_cycle], n)])


def cyclic_group(n: int) -> PermutationGroupModel:
    if n <= 1:
        return PermutationGroupModel(n, [])
    return PermutationGroupModel(n, [_from_cycles([range(n)], n)])


def trivial_group(n: int) -> PermutationGroupModel:
    return PermutationGroupModel(n, [])


def regular_representation(group: PermutationGroupModel) -> PermutationGroupModel:
    """The group acting on itself by left multiplication, as a permutation
    group of degree equal to the group order, on its elements numbered in
    lexicographic order of their image tuples."""
    elems = sorted(group.stream())
    index = {g: i for i, g in enumerate(elems)}
    gens = [tuple(index[_compose(g, h)] for h in elems) for g in group.generators]
    return PermutationGroupModel(len(elems), gens)


"""A small model of a topological space, carrying exactly the data the
invariant formulas consume.

A SpaceModel records rational Betti numbers, the first integral homology as
an AbelianDescriptor, what is known about the fundamental group (trivial,
abelian, or opaque: neither known to be), and a manifold parity flag:

  "even"  closed manifold of even dimension
  "odd"   closed manifold of odd dimension
  "none"  no manifold structure assumed

The formulas for the ordered and unordered fat diagonals and their
bounded-multiplicity complements (`chi bd|fd|bupper`) are stated for closed
even-dimensional manifolds: on a space of parity "odd" or "none" the one
gate, eulerchar.require_manifold, raises UnsupportedSpaceError instead of
returning a number that is not known to be right.  Every other invariant
takes a space of any parity.

Torsion is tracked only in H_1, where the fundamental-group descriptors need
it; higher integral homology is out of scope.
"""

import operator
from collections import Counter

from .algebra import GradedPolynomial
from .errors import Work, _integer, check_guard

PARITIES = ("even", "odd", "none")
PI1_KINDS = ("trivial", "abelian", "opaque")
# Betti entries a space may carry, and convolution steps its products may
# take: sphere:99999 answers chi sp in about 0.2 s, most of it the echo.
MAX_SPACE_SIZE = 10**5
# Lists and objects a JSON label may nest.  The envelope encoder of cli
# echoes a label with up to three stack frames per level, and about 330
# levels of objects exhaust Python's default recursion limit of 1000.
MAX_LABEL_DEPTH = 100


def _prime_factors(n: int, work: Work) -> dict[int, int]:
    """The prime factorization of n by trial division, each trial divisor
    counted on work."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        work.add(1)
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(torsion) -> tuple[int, ...]:
    """Normalize a list of finite cyclic orders to invariant factor form
    d_1 | d_2 | ... | d_k.

    >>> invariant_factors([2, 3])
    (6,)
    >>> invariant_factors([4, 2, 3])
    (2, 12)
    """
    by_prime: dict[int, list[int]] = {}
    work = Work(MAX_SPACE_SIZE, "space size")
    for t, copies in Counter(torsion).items():
        if t < 2:
            raise ValueError(f"torsion orders must be >= 2, got {t}")
        for p, e in _prime_factors(t, work).items():
            by_prime.setdefault(p, []).extend([e] * copies)
    work.done()
    k = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * k
    for p, exps in by_prime.items():
        exps.sort(reverse=True)
        for i, e in enumerate(exps):
            factors[i] *= p**e
    factors.sort()
    return tuple(factors)


class Record:
    """Immutable record whose fields are its __slots__, set in order by
    __init__: equality, hash and repr come from the field values, and
    assignment raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def power_text(symbol: str, k: int) -> list[str]:
    """The power symbol^k as the written groups spell it, as a list of the
    factors to join: none for k = 0 and the bare symbol for k = 1.

    >>> power_text("Z", 0), power_text("Z", 1), power_text("Z", 3)
    ([], ['Z'], ['Z^3'])
    """
    return [symbol if k == 1 else f"{symbol}^{k}"] if k else []


class AbelianDescriptor(Record):
    """Finitely generated abelian group Z^rank + Z/d_1 + ... + Z/d_k in
    invariant factor normal form."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()) -> None:
        super().__init__(rank, torsion)
        if self.rank < 0:
            raise ValueError("negative rank")
        # the form is a divisor chain 2 <= d_1 | d_2 | ..., checked without factoring
        t = self.torsion
        if min(t, default=2) < 2 or any(map(operator.mod, t[1:], t)):
            raise ValueError(f"torsion {t} not in invariant factor form")

    @classmethod
    def of(cls, rank: int, torsion=()) -> "AbelianDescriptor":
        return cls(rank, invariant_factors(torsion))

    def direct_sum(self, other: "AbelianDescriptor") -> "AbelianDescriptor":
        return AbelianDescriptor.of(self.rank + other.rank, self.torsion + other.torsion)

    def power(self, k: int) -> "AbelianDescriptor":
        """Direct sum of k copies: the sorted k-fold copy of a divisor chain
        is again one, so nothing is factored."""
        if k < 0:
            raise ValueError("negative power")
        return AbelianDescriptor(self.rank * k, tuple(sorted(self.torsion * k)))

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = power_text("Z", self.rank) + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) or "0"


TRIVIAL_GROUP = AbelianDescriptor(0, ())


class SpaceModel(Record):
    """Connected-space data consumed by the invariant formulas."""

    __slots__ = ("label", "betti", "h1", "pi1_kind", "parity")

    def __init__(
        self,
        label: str,
        betti: tuple[int, ...],
        h1: AbelianDescriptor = TRIVIAL_GROUP,
        pi1_kind: str = "trivial",
        parity: str = "none",
    ) -> None:
        super().__init__(label, betti, h1, pi1_kind, parity)
        if not self.betti or any(b < 0 for b in self.betti):
            raise ValueError(f"bad Betti vector {self.betti}")
        if self.betti[0] != 1:
            raise ValueError(f"connected space needs b_0 = 1, got {self.betti[0]}")
        b1 = self.betti[1] if len(self.betti) > 1 else 0
        if self.h1.rank != b1:
            raise ValueError(f"h1 rank {self.h1.rank} != b_1 = {b1}")
        if self.pi1_kind not in PI1_KINDS:
            raise ValueError(f"unknown pi1 kind {self.pi1_kind!r}")
        if self.pi1_kind == "trivial" and not self.h1.is_trivial():
            raise ValueError("trivial fundamental group forces trivial H_1")
        if self.parity not in PARITIES:
            raise ValueError(f"unknown parity {self.parity!r}")

    def euler(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))

    def poincare(self) -> GradedPolynomial:
        return GradedPolynomial.from_list(self.betti)


# One row per preset.  A plain preset's row is its model: Betti numbers,
# H_1 torsion, pi1 kind and parity.  A family's row is its least parameter,
# the parameter's name, the small parameters that name another preset, and
# the model of every other parameter k, its Betti numbers given by degree.
# H_1's rank is b_1 throughout.
_PRESETS = {
    "point": ((1,), (), "trivial", "even"),
    "circle": ((1, 1), (), "abelian", "odd"),
    "torus": ((1, 2, 1), (), "abelian", "even"),
    "projective_plane": ((1, 0, 0), (2,), "abelian", "even"),
    "sphere": (1, "sphere dimension", {1: "circle"},
               lambda k: ({0: 1, k: 1}, (), "trivial", "odd" if k % 2 else "even")),
    "surface": (0, "genus", {0: "sphere:2", 1: "torus"},
                lambda g: ({0: 1, 1: 2 * g, 2: 1}, (), "opaque", "even")),
    "wedge_circles": (0, "rank", {0: "point", 1: "circle"},
                      lambda r: ({0: 1, 1: r}, (), "opaque", "none")),
}


def preset(name: str) -> SpaceModel:
    """Look up a named space in the one preset table.

    Plain presets: point, circle, torus, projective_plane.  Families:
    sphere:k (k >= 1, sphere:1 = circle), surface:g (g >= 0, orientable,
    surface:0 = sphere:2, surface:1 = torus) and wedge_circles:r (r >= 0,
    wedge_circles:0 = point, wedge_circles:1 = circle); an alias answers
    with the model of the preset it names.  The parameter is read by
    errors._integer: ASCII digits with at most one sign.  A family's Betti
    vector is guarded on its length before it is laid out, so sphere:k
    refuses k + 1 > MAX_SPACE_SIZE without building anything.

    >>> preset("torus").betti
    (1, 2, 1)
    >>> preset("surface:2").euler()
    -2
    """
    name = name.strip()
    base, _, arg = name.partition(":")
    base, arg = base.strip(), arg.strip()
    row = _PRESETS.get(base)
    if row is None:
        raise ValueError(f"unknown space preset {name!r}")
    if not callable(row[-1]):
        if arg:
            raise ValueError(f"preset {base!r} takes no parameter")
        label, (betti, torsion, kind, parity) = base, row
    else:
        least, what, aliases, model = row
        k = _integer(arg)
        if k is None:
            raise ValueError(f"preset {base!r} needs an integer parameter, e.g. {base}:2")
        if k < least:
            raise ValueError(f"{what} must be >= {least}")
        if k in aliases:
            return preset(aliases[k])
        by_degree, torsion, kind, parity = model(k)
        size = max(by_degree) + 1
        check_guard(size, MAX_SPACE_SIZE, "space size")
        betti = [0] * size
        for i, b in by_degree.items():
            betti[i] = b
        label = f"{base}:{k}"
    h1 = AbelianDescriptor(betti[1] if len(betti) > 1 else 0, torsion)
    return SpaceModel(label, tuple(betti), h1, kind, parity)


def _combine_parity(a: str, b: str) -> str:
    if a == "none" or b == "none":
        return "none"
    return "even" if a == b else "odd"


def product(a: SpaceModel, b: SpaceModel) -> SpaceModel:
    """Cartesian product: Betti convolution, H_1 direct sum, parities add.
    Unguarded: it takes len(a.betti) * len(b.betti) steps, which
    parse_space, its one caller, counts into the guarded total of a chain
    of products before each product."""
    betti = [0] * (len(a.betti) + len(b.betti) - 1)
    for i, x in enumerate(a.betti):
        for j, y in enumerate(b.betti):
            betti[i + j] += x * y
    if a.pi1_kind == "trivial" and b.pi1_kind == "trivial":
        kind = "trivial"
    elif a.pi1_kind in ("trivial", "abelian") and b.pi1_kind in ("trivial", "abelian"):
        kind = "abelian"
    else:
        kind = "opaque"
    return SpaceModel(
        label=f"{a.label} x {b.label}",
        betti=tuple(betti),
        h1=a.h1.direct_sum(b.h1),
        pi1_kind=kind,
        parity=_combine_parity(a.parity, b.parity),
    )


def _count(value) -> int:
    """value if it is a JSON integer: not a float, a string or a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not an integer")
    return value


def space_from_json(data) -> SpaceModel:
    """Build a space from decoded JSON of the schema
    {"betti": [...], "h1": {"rank": r, "torsion": [...]},
     "pi1": "trivial|abelian|opaque", "parity": "even|odd|none"}.
    "opaque", the default, may be followed by a colon and any text, which
    nothing reads.  The Betti numbers, the rank and the torsion orders are
    JSON integers, and an optional "label", echoed as given, nests at most
    MAX_LABEL_DEPTH lists and objects.
    """
    if not isinstance(data, dict):
        raise ValueError("space JSON must be an object")
    try:
        betti = tuple(_count(b) for b in data["betti"])
    except (KeyError, TypeError):
        raise ValueError('space JSON needs "betti": [ints]')
    h1_raw = data.get("h1", {"rank": betti[1] if len(betti) > 1 else 0, "torsion": []})
    try:
        rank = _count(h1_raw.get("rank", 0))
        torsion = tuple(_count(t) for t in h1_raw.get("torsion", ()))
    except (AttributeError, TypeError):
        raise ValueError('space JSON needs "h1": {"rank": int, "torsion": [ints]}')
    h1 = AbelianDescriptor.of(rank, torsion)
    pi1 = data.get("pi1", "opaque")
    parity = data.get("parity", "none")
    if not isinstance(pi1, str) or not isinstance(parity, str):
        raise ValueError('space JSON "pi1" and "parity" are strings')
    kind = "opaque" if pi1 == "opaque" or pi1.startswith("opaque:") else pi1
    if kind not in PI1_KINDS:
        raise ValueError(f'bad "pi1" value {pi1!r}')
    label = data.get("label", "custom")
    level, depth = [label], 0
    while level := [v for v in level if isinstance(v, (list, dict))]:
        depth += 1
        if depth > MAX_LABEL_DEPTH:
            raise ValueError(f'space JSON "label" nests over {MAX_LABEL_DEPTH} lists and objects')
        level = [x for v in level for x in (v.values() if isinstance(v, dict) else v)]
    return SpaceModel(label=label, betti=betti, h1=h1, pi1_kind=kind, parity=parity)


def parse_space(text: str) -> SpaceModel:
    """Parse a space description: a preset name, an infix product like
    "sphere:2 x circle", inline JSON (starts with "{"), or an @file.json /
    *.json path holding the JSON schema."""
    text = text.strip()
    if text.startswith(("{", "@")) or text.endswith(".json"):
        from .jsonread import load

        return space_from_json(load(text))
    factors = [part.strip() for part in text.split(" x ")]
    if not all(factors):
        raise ValueError(f"cannot parse space {text!r}")
    model = preset(factors[0])
    steps = 0
    for factor in factors[1:]:
        right = preset(factor)
        # the convolution steps of the products so far are guarded on their
        # total, so one large product and a chain of small ones, such as
        # "circle x circle x ...", are refused alike
        steps += len(model.betti) * len(right.betti)
        check_guard(steps, MAX_SPACE_SIZE, "space size")
        model = product(model, right)
    return model

"""A small model of a topological space, carrying exactly the data the
invariant formulas consume.

A SpaceModel records rational Betti numbers, the first integral homology as
an AbelianDescriptor, what is known about the fundamental group (trivial,
abelian, or an opaque label), and a manifold parity flag:

  "even"  closed manifold of even dimension
  "odd"   closed manifold of odd dimension
  "none"  no manifold structure assumed

Parity "none" disables the manifold-only formulas (ordered configuration
spaces, ordered/unordered fat diagonals for d >= 3, bounded-multiplicity
complements); those entry points raise UnsupportedSpaceError instead of
returning a silently wrong number, because for general complexes the answers
are genuinely not functions of the Euler characteristic alone.

Torsion is tracked only in H_1, where the fundamental-group descriptors need
it; higher integral homology is out of scope.
"""

from __future__ import annotations

from .algebra import GradedPolynomial
from .errors import check_guard

PARITIES = ("even", "odd", "none")
PI1_KINDS = ("trivial", "abelian", "opaque")
# Betti entries a space may carry, and convolution steps its products may
# take: sphere:99999 answers chi sp in about 0.2 s, most of it the echo.
MAX_SPACE_SIZE = 10**5


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
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
    for t in torsion:
        if t < 2:
            raise ValueError(f"torsion orders must be >= 2, got {t}")
        for p, e in _prime_factors(t).items():
            by_prime.setdefault(p, []).append(e)
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


class AbelianDescriptor(Record):
    """Finitely generated abelian group Z^rank + Z/d_1 + ... + Z/d_k in
    invariant factor normal form."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()) -> None:
        super().__init__(rank, torsion)
        if self.rank < 0:
            raise ValueError("negative rank")
        if invariant_factors(self.torsion) != tuple(self.torsion):
            raise ValueError(f"torsion {self.torsion} not in invariant factor form")

    @classmethod
    def of(cls, rank: int, torsion=()) -> "AbelianDescriptor":
        return cls(rank, invariant_factors(torsion))

    def direct_sum(self, other: "AbelianDescriptor") -> "AbelianDescriptor":
        return AbelianDescriptor.of(self.rank + other.rank, self.torsion + other.torsion)

    def power(self, k: int) -> "AbelianDescriptor":
        """Direct sum of k copies."""
        if k < 0:
            raise ValueError("negative power")
        return AbelianDescriptor.of(self.rank * k, self.torsion * k)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


TRIVIAL_GROUP = AbelianDescriptor(0, ())


class SpaceModel(Record):
    """Connected-space data consumed by the invariant formulas."""

    __slots__ = ("label", "betti", "h1", "pi1_kind", "pi1_label", "parity")

    def __init__(
        self,
        label: str,
        betti: tuple[int, ...],
        h1: AbelianDescriptor = TRIVIAL_GROUP,
        pi1_kind: str = "trivial",
        pi1_label: str | None = None,
        parity: str = "none",
    ) -> None:
        super().__init__(label, betti, h1, pi1_kind, pi1_label, parity)
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
        if self.pi1_kind == "opaque" and not self.pi1_label:
            raise ValueError("opaque pi1 needs a label")
        if self.parity not in PARITIES:
            raise ValueError(f"unknown parity {self.parity!r}")

    def euler(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))

    def poincare(self) -> GradedPolynomial:
        return GradedPolynomial.from_list(self.betti)


def _sphere(k: int) -> SpaceModel:
    if k < 1:
        raise ValueError("sphere dimension must be >= 1")
    check_guard(k + 1, MAX_SPACE_SIZE, "space size")
    if k == 1:
        return SpaceModel(
            label="circle",
            betti=(1, 1),
            h1=AbelianDescriptor(1),
            pi1_kind="abelian",
            parity="odd",
        )
    betti = (1,) + (0,) * (k - 1) + (1,)
    return SpaceModel(
        label=f"sphere:{k}",
        betti=betti,
        pi1_kind="trivial",
        parity="even" if k % 2 == 0 else "odd",
    )


def _surface(genus: int) -> SpaceModel:
    if genus < 0:
        raise ValueError("genus must be >= 0")
    if genus == 0:
        return _sphere(2)
    if genus == 1:
        return preset("torus")
    return SpaceModel(
        label=f"surface:{genus}",
        betti=(1, 2 * genus, 1),
        h1=AbelianDescriptor(2 * genus),
        pi1_kind="opaque",
        pi1_label=f"surface group of genus {genus}",
        parity="even",
    )


def _wedge_circles(r: int) -> SpaceModel:
    if r < 0:
        raise ValueError("rank must be >= 0")
    if r == 0:
        return preset("point")
    if r == 1:
        return _sphere(1)
    return SpaceModel(
        label=f"wedge_circles:{r}",
        betti=(1, r),
        h1=AbelianDescriptor(r),
        pi1_kind="opaque",
        pi1_label=f"free group of rank {r}",
        parity="none",
    )


def preset(name: str) -> SpaceModel:
    """Look up a named space.

    Registry: point, circle, torus, projective_plane, sphere:k (k >= 1),
    surface:g (g >= 0, orientable, surface:0 = sphere:2, surface:1 = torus),
    wedge_circles:r (r >= 0).

    >>> preset("torus").betti
    (1, 2, 1)
    >>> preset("surface:2").euler()
    -2
    """
    name = name.strip()
    base, _, arg = name.partition(":")
    base = base.strip()
    arg = arg.strip()
    plain = {
        "point": lambda: SpaceModel(label="point", betti=(1,), parity="even"),
        "circle": lambda: _sphere(1),
        "torus": lambda: SpaceModel(
            label="torus",
            betti=(1, 2, 1),
            h1=AbelianDescriptor(2),
            pi1_kind="abelian",
            parity="even",
        ),
        "projective_plane": lambda: SpaceModel(
            label="projective_plane",
            betti=(1, 0, 0),
            h1=AbelianDescriptor(0, (2,)),
            pi1_kind="abelian",
            parity="even",
        ),
    }
    if base in plain:
        if arg:
            raise ValueError(f"preset {base!r} takes no parameter")
        return plain[base]()
    parametrized = {"sphere": _sphere, "surface": _surface, "wedge_circles": _wedge_circles}
    if base in parametrized:
        if not arg or not arg.lstrip("-").isdigit():
            raise ValueError(f"preset {base!r} needs an integer parameter, e.g. {base}:2")
        return parametrized[base](int(arg))
    raise ValueError(f"unknown space preset {name!r}")


def _combine_parity(a: str, b: str) -> str:
    if a == "none" or b == "none":
        return "none"
    return "even" if a == b else "odd"


def product(a: SpaceModel, b: SpaceModel) -> SpaceModel:
    """Cartesian product: Betti convolution, H_1 direct sum, parities add.
    Guarded on the convolution steps, the product of the Betti lengths."""
    check_guard(len(a.betti) * len(b.betti), MAX_SPACE_SIZE, "space size")
    betti = [0] * (len(a.betti) + len(b.betti) - 1)
    for i, x in enumerate(a.betti):
        for j, y in enumerate(b.betti):
            betti[i + j] += x * y
    if a.pi1_kind == "trivial" and b.pi1_kind == "trivial":
        kind, plabel = "trivial", None
    elif a.pi1_kind in ("trivial", "abelian") and b.pi1_kind in ("trivial", "abelian"):
        kind, plabel = "abelian", None
    else:
        kind, plabel = "opaque", f"product of {a.label} and {b.label} groups"
    return SpaceModel(
        label=f"{a.label} x {b.label}",
        betti=tuple(betti),
        h1=a.h1.direct_sum(b.h1),
        pi1_kind=kind,
        pi1_label=plabel,
        parity=_combine_parity(a.parity, b.parity),
    )


def space_from_json(data) -> SpaceModel:
    """Build a space from the JSON schema
    {"betti": [...], "h1": {"rank": r, "torsion": [...]},
     "pi1": "trivial|abelian|opaque:<label>", "parity": "even|odd|none"}.
    """
    if isinstance(data, str):
        import json

        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("space JSON must be an object")
    try:
        betti = tuple(int(b) for b in data["betti"])
    except (KeyError, TypeError, ValueError):
        raise ValueError('space JSON needs "betti": [ints]')
    h1_raw = data.get("h1", {"rank": betti[1] if len(betti) > 1 else 0, "torsion": []})
    try:
        rank = int(h1_raw.get("rank", 0))
        torsion = tuple(int(t) for t in h1_raw.get("torsion", ()))
    except (AttributeError, TypeError, ValueError):
        raise ValueError('space JSON needs "h1": {"rank": int, "torsion": [ints]}')
    h1 = AbelianDescriptor.of(rank, torsion)
    pi1 = data.get("pi1", "opaque:unspecified")
    if pi1 in ("trivial", "abelian"):
        kind, plabel = pi1, None
    elif isinstance(pi1, str) and pi1.startswith("opaque:"):
        kind, plabel = "opaque", pi1[len("opaque:"):] or "unspecified"
    elif pi1 == "opaque":
        kind, plabel = "opaque", "unspecified"
    else:
        raise ValueError(f'bad "pi1" value {pi1!r}')
    parity = data.get("parity", "none")
    label = data.get("label", "custom")
    return SpaceModel(
        label=label, betti=betti, h1=h1, pi1_kind=kind, pi1_label=plabel, parity=parity
    )


def parse_space(text: str) -> SpaceModel:
    """Parse a space description: a preset name, an infix product like
    "sphere:2 x circle", inline JSON (starts with "{"), or an @file.json /
    *.json path holding the JSON schema."""
    text = text.strip()
    if text.startswith("{"):
        return space_from_json(text)
    if text.startswith("@") or text.endswith(".json"):
        path = text[1:] if text.startswith("@") else text
        import json

        with open(path, "r", encoding="utf-8") as fh:
            return space_from_json(json.load(fh))
    factors = [part.strip() for part in text.split(" x ")]
    if not all(factors):
        raise ValueError(f"cannot parse space {text!r}")
    model = preset(factors[0])
    steps = 0
    for factor in factors[1:]:
        right = preset(factor)
        # each product is guarded alone; a chain of small ones, such as
        # "circle x circle x ...", is guarded on its total
        steps += len(model.betti) * len(right.betti)
        check_guard(steps, MAX_SPACE_SIZE, "space size")
        model = product(model, right)
    return model

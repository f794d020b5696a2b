"""Exact integer arithmetic and graded polynomials.

Integers are plain Python ints (arbitrary precision); averages that must be
integral are taken as exact integer divisions by their callers.  A
GradedPolynomial models a Poincare polynomial: finitely many non-negative
degrees with integer coefficients.
"""

import math
from collections.abc import Iterable


def falling_factorial(x: int, k: int) -> int:
    """x (x-1) (x-2) ... (x-k+1), with the empty product equal to 1.

    >>> falling_factorial(5, 2)
    20
    >>> falling_factorial(-1, 3)
    -6
    >>> falling_factorial(7, 0)
    1
    """
    if k < 0:
        raise ValueError(f"falling_factorial needs k >= 0, got {k}")
    out = 1
    for j in range(k):
        out *= x - j
    return out


def binomial_gen(a: int, k: int) -> int:
    """Generalized binomial coefficient falling_factorial(a, k) / k!.

    Defined for any integer a, including negative a, where it equals
    (-1)^k binomial(k - a - 1, k); for 0 <= a < k it is 0.

    >>> binomial_gen(6, 4)
    15
    >>> binomial_gen(-2, 3)
    -4
    """
    if k < 0:
        raise ValueError(f"binomial_gen needs k >= 0, got {k}")
    if a >= 0:
        return math.comb(a, k)
    return (-1) ** k * math.comb(k - a - 1, k)


class GradedPolynomial:
    """Polynomial in one variable t with integer coefficients, degrees >= 0.

    Immutable in practice: all operations return new instances.  Zero
    coefficients are dropped on construction, so equality is structural.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, int]):
        for deg in coeffs:
            if deg < 0:
                raise ValueError(f"negative degree {deg} in graded polynomial")
        self._coeffs = {deg: c for deg, c in coeffs.items() if c}

    @classmethod
    def from_list(cls, coeffs: Iterable[int]) -> "GradedPolynomial":
        """Build from a dense coefficient list, index = degree.

        >>> GradedPolynomial.from_list([1, 2, 1]).coefficient(1)
        2
        """
        return cls(dict(enumerate(coeffs)))

    @classmethod
    def zero(cls) -> "GradedPolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "GradedPolynomial":
        return cls({0: 1})

    def coefficient(self, deg: int) -> int:
        return self._coeffs.get(deg, 0)

    def coefficients(self) -> dict[int, int]:
        """Degree -> coefficient map (a copy, zero entries omitted)."""
        return dict(self._coeffs)

    def to_list(self) -> list[int]:
        """Dense coefficient list from degree 0 through the degree."""
        if not self._coeffs:
            return [0]
        return [self.coefficient(d) for d in range(self.degree() + 1)]

    def degree(self) -> int:
        """Largest degree with a nonzero coefficient; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        out = dict(self._coeffs)
        for deg, c in other._coeffs.items():
            out[deg] = out.get(deg, 0) + c
        return GradedPolynomial(out)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        out = dict(self._coeffs)
        for deg, c in other._coeffs.items():
            out[deg] = out.get(deg, 0) - c
        return GradedPolynomial(out)

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        out: dict[int, int] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                deg = d1 + d2
                out[deg] = out.get(deg, 0) + c1 * c2
        return GradedPolynomial(out)

    def scale(self, factor: int) -> "GradedPolynomial":
        return GradedPolynomial({d: factor * c for d, c in self._coeffs.items()})

    def __pow__(self, exponent: int) -> "GradedPolynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        out = GradedPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:  # the square is needed only for a higher bit
                base = base * base
        return out

    def substitute_power(self, power: int) -> "GradedPolynomial":
        """Substitute t -> t**power.

        >>> GradedPolynomial.from_list([1, 1]).substitute_power(3).to_list()
        [1, 0, 0, 1]
        """
        if power < 1:
            raise ValueError(f"substitute_power needs power >= 1, got {power}")
        return GradedPolynomial({d * power: c for d, c in self._coeffs.items()})

    def even_part(self) -> "GradedPolynomial":
        """Terms of even degree."""
        return GradedPolynomial({d: c for d, c in self._coeffs.items() if d % 2 == 0})

    def odd_part(self) -> "GradedPolynomial":
        """Terms of odd degree."""
        return GradedPolynomial({d: c for d, c in self._coeffs.items() if d % 2 == 1})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "GradedPolynomial(0)"
        terms = []
        for d in sorted(self._coeffs):
            c = self._coeffs[d]
            if d == 0:
                terms.append(f"{c}")
            elif d == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{d}")
        return "GradedPolynomial(" + " + ".join(terms) + ")"

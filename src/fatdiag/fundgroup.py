"""Fundamental-group descriptors of permutation quotients of cartesian
powers and of unordered fat diagonals.

The results these spaces admit are product shapes built from two symbols:
Pi1(X), the fundamental group of the base, and H1(X), its abelianization.
A GroupExpression records the two exponents rather than a presentation;
when the base has abelian fundamental group the Pi1 factors are normalized
away into H1 factors, and the expression then resolves to a concrete
finitely generated abelian group.

For a permutation quotient the exponents count orbits of the group on the
coordinates, read from its orbit sizes alone: one Pi1(X) per fixed point,
one H1(X) per larger orbit.  Every SpaceModel is connected (b_0 = 1), so no
descriptor has a connectedness case.

Groups are read through their own methods and named in annotations only
as text, so pi1 bd never loads the group engine.
"""

from .errors import UnsupportedSpaceError
from .spaces import AbelianDescriptor, Record, SpaceModel, power_text


class GroupExpression(Record):
    """Formal product Pi1(X)^a x H1(X)^b, with what is known about Pi1(X)
    carried along so the expression can resolve itself when possible.
    """

    __slots__ = ("pi1_exponent", "h1_exponent", "pi1_kind", "h1")

    def __init__(
        self,
        pi1_exponent: int,
        h1_exponent: int,
        pi1_kind: str,
        h1: AbelianDescriptor,
    ) -> None:
        super().__init__(pi1_exponent, h1_exponent, pi1_kind, h1)
        if self.pi1_exponent < 0 or self.h1_exponent < 0:
            raise ValueError("negative exponent")
        if self.pi1_kind in ("trivial", "abelian") and self.pi1_exponent:
            raise ValueError("resolvable Pi1 factors must be normalized away")

    @classmethod
    def for_space(
        cls, space: SpaceModel, pi1_exponent: int, h1_exponent: int
    ) -> "GroupExpression":
        """Build the expression, folding Pi1 factors into H1 factors when
        the fundamental group of the space is (known to be) abelian."""
        if space.pi1_kind == "trivial":
            # simply connected: H1 is trivial too, nothing survives
            pi1_exponent = 0
            h1_exponent = 0
        elif space.pi1_kind == "abelian":
            h1_exponent += pi1_exponent
            pi1_exponent = 0
        return cls(
            pi1_exponent=pi1_exponent,
            h1_exponent=h1_exponent,
            pi1_kind=space.pi1_kind,
            h1=space.h1,
        )

    def is_concrete(self) -> bool:
        """Whether the expression resolves to a known abelian group."""
        return self.pi1_exponent == 0

    def abelian_descriptor(self) -> AbelianDescriptor:
        """The concrete group, when is_concrete()."""
        if not self.is_concrete():
            raise UnsupportedSpaceError(
                f"expression {self.display()} has opaque Pi1 factors"
            )
        return self.h1.power(self.h1_exponent)

    def display(self) -> str:
        parts = power_text("Pi1(X)", self.pi1_exponent) + power_text("H1(X)", self.h1_exponent)
        return " x ".join(parts) or "1"


def pi1_gamma_product(space: SpaceModel, group: "PermutationGroupModel") -> GroupExpression:
    """Fundamental group of the quotient of X^n by a permutation group:
    one Pi1(X) factor per fixed point of the action, one H1(X) factor per
    orbit of size >= 2.  The fixed points are the degree less the points of
    those orbits, so no point is listed on its own.

    >>> from .spaces import preset
    >>> from .permgroup import PermutationGroupModel
    >>> pi1_gamma_product(preset("wedge_circles:2"),
    ...                   PermutationGroupModel(4, ["(1 2)"])).display()
    'Pi1(X)^2 x H1(X)'
    """
    moved = group._moved_orbits()
    return GroupExpression.for_space(
        space, pi1_exponent=group.degree - sum(map(len, moved)), h1_exponent=len(moved)
    )


def pi1_bd(space: SpaceModel, n: int, d: int) -> GroupExpression:
    """Fundamental group of the unordered fat diagonal.

    For 2d <= n the space is simply connected relative to the base:
    pi_1 = H1(X).  For d beyond n/2 it splits as X x sp(X, n-d), giving
    Pi1(X) x H1(X) when n - d >= 2, Pi1(X)^2 when n - d = 1, and the thin
    diagonal Pi1(X) when d = n.

    >>> from .spaces import preset
    >>> pi1_bd(preset("circle"), 4, 2).display()
    'H1(X)'
    >>> str(pi1_bd(preset("circle"), 4, 2).abelian_descriptor())
    'Z'
    """
    if not 1 <= d <= n:
        raise ValueError(f"needs 1 <= d <= n, got d={d}, n={n}")
    if 2 * d <= n:
        return GroupExpression.for_space(space, pi1_exponent=0, h1_exponent=1)
    if d == n:
        return GroupExpression.for_space(space, pi1_exponent=1, h1_exponent=0)
    if n - d == 1:
        return GroupExpression.for_space(space, pi1_exponent=2, h1_exponent=0)
    return GroupExpression.for_space(space, pi1_exponent=1, h1_exponent=1)


def pi1_bgamma_abelian(group: "PermutationGroupModel", d: int) -> bool:
    """Whether the quotient of the ordered fat diagonal of X^n by the group,
    n its degree, is guaranteed to have abelian fundamental group: the
    group must act d-transitively and d must be at most n/2.  Transitivity
    is read off the group's stabilizer chain, so any d is answered at once.

    False means "no claim", not "non-abelian".

    >>> from .permgroup import alternating_group, cyclic_group
    >>> pi1_bgamma_abelian(cyclic_group(3), 1)
    True
    >>> pi1_bgamma_abelian(alternating_group(12), 6)
    True
    """
    n = group.degree
    if not 1 <= d <= n:
        raise ValueError(f"needs 1 <= d <= n, got d={d}, n={n}")
    if 2 * d > n:
        return False
    return group.is_d_transitive(d)

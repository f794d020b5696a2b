"""Rational Betti numbers of quotients of cartesian powers by permutation
groups, computed from the invariant subspace of the tensor power of the
homology of the base.

The permutation action on a tensor power of graded vector spaces carries
the Koszul sign: transposing two odd-degree classes contributes -1.  The
graded trace of a single cycle of length l acting on the l-th tensor power
is therefore P_even(t^l) + (-1)^(l-1) P_odd(t^l), and averaging the product
over all group elements yields the Poincare polynomial of the quotient.

The sign convention is not a choice: with the unsigned trace, the quotient
of the 3-torus by the cyclic rotation would come out wrong in odd degrees.
Only free ranks are computed here; torsion of the quotients is out of scope.
"""

from __future__ import annotations

from .algebra import GradedPolynomial
from .errors import InternalConsistencyError
from .permgroup import PermutationGroupModel


def graded_trace_cycle(poincare: GradedPolynomial, length: int) -> GradedPolynomial:
    """Graded trace of one cycle of the given length acting on the
    corresponding tensor power.

    >>> graded_trace_cycle(GradedPolynomial.from_list([1, 2, 1]), 3).to_list()
    [1, 0, 0, 2, 0, 0, 1]
    >>> graded_trace_cycle(GradedPolynomial.from_list([1, 1]), 2).to_list()
    [1, 0, -1]
    """
    if length < 1:
        raise ValueError(f"cycle length must be >= 1, got {length}")
    even = poincare.even_part().substitute_power(length)
    odd = poincare.odd_part().substitute_power(length)
    if length % 2 == 0:
        return even - odd
    return even + odd


def invariant_poincare(
    poincare: GradedPolynomial, group: PermutationGroupModel
) -> GradedPolynomial:
    """Poincare polynomial of the quotient of X^n by a permutation group,
    where poincare is the Poincare polynomial of X.

    Averages, over the group, the product over cycles of the graded trace:
    the integer sum is divided by |G| coefficient by coefficient.  The
    result must have non-negative integer coefficients (they are dimensions
    of invariant subspaces), and anything else is a bug.

    >>> torus = GradedPolynomial.from_list([1, 2, 1])
    >>> from .permgroup import cyclic_group
    >>> invariant_poincare(torus, cyclic_group(3)).to_list()
    [1, 2, 5, 8, 5, 2, 1]
    """
    order = group.order()
    acc = GradedPolynomial.zero()
    for ctype, count in group.cycle_type_histogram().items():
        term = GradedPolynomial.one()
        for length, mult in enumerate(ctype, start=1):
            if mult:
                term = term * graded_trace_cycle(poincare, length) ** mult
        acc = acc + term.scale(count)
    ranks = {}
    for deg, c in acc.coefficients().items():
        rank, rest = divmod(c, order)
        if rest:
            raise InternalConsistencyError(
                f"non-integral coefficient {c}/{order} in degree {deg}"
            )
        if rank < 0:
            raise InternalConsistencyError(
                f"negative invariant rank {rank} in degree {deg}"
            )
        ranks[deg] = rank
    return GradedPolynomial(ranks)


def macdonald_poincare_sp(poincare: GradedPolynomial, n: int) -> GradedPolynomial:
    """Poincare polynomial of the n-th symmetric product, extracted as the
    coefficient of q^n in the product over degrees i of

        (1 + q t^i)^(b_i)        for odd i,
        1 / (1 - q t^i)^(b_i)    for even i.

    >>> macdonald_poincare_sp(GradedPolynomial.from_list([1, 0, 1]), 2).to_list()
    [1, 0, 1, 0, 1]
    >>> macdonald_poincare_sp(GradedPolynomial.from_list([1, 1]), 4).to_list()
    [1, 1]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    # series[a] is the coefficient of q^a, a polynomial in t, truncated at q^n.
    series: list[GradedPolynomial] = [GradedPolynomial.one()] + [
        GradedPolynomial.zero() for _ in range(n)
    ]
    for deg, betti in sorted(poincare.coefficients().items()):
        tpow = GradedPolynomial({deg: 1})
        for _ in range(betti):
            if deg % 2 == 1:
                # one factor (1 + q t^deg): descending, reads old values
                for a in range(n, 0, -1):
                    series[a] = series[a] + tpow * series[a - 1]
            else:
                # one factor 1/(1 - q t^deg): new[a] = old[a] + t^deg new[a-1],
                # so ascending, reads already-updated values
                for a in range(1, n + 1):
                    series[a] = series[a] + tpow * series[a - 1]
    return series[n]

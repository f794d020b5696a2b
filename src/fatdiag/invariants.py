"""Rational Betti numbers of quotients of cartesian powers by permutation
groups, computed from the invariant subspace of the tensor power of the
homology of the base.

The permutation action on a tensor power of graded vector spaces carries
the Koszul sign: transposing two odd-degree classes contributes -1.  A
cycle of length l on the l-th tensor power fixes only the l-fold copies
of one basis class, and cycling those of degree i has sign (-1)^(i(l-1)),
so its graded trace is the sum of (-1)^(i(l-1)) b_i t^(il).  Averaging
the product over all group elements yields the Poincare polynomial of the
quotient.

The sign convention is not a choice: with the unsigned trace, the quotient
of the 3-torus by the cyclic rotation would come out wrong in odd degrees.
Only free ranks are computed here; torsion of the quotients is out of scope.
"""

import math
from functools import cache, partial, reduce

from .algebra import GradedPolynomial
from .errors import InternalConsistencyError, _exact_div, check_guard
from .permgroup import PermutationGroupModel

# Coefficient products of invariant_poincare, bounded by _poincare_work
# before the first: about 5 * 10^7 a second.  1,501 Betti numbers of 1 on
# the trivial group of degree 2 are 2.7 * 10^7 (about 0.5 s); 3,001 are
# 1.1 * 10^8 and trip the guard.
MAX_POINCARE_WORK = 3 * 10**7


def graded_trace_cycle(poincare: GradedPolynomial, length: int) -> GradedPolynomial:
    """Graded trace of one cycle of length l acting on the l-th tensor
    power: b_i t^(il) for each Betti number b_i, with the Koszul sign
    (-1)^(i(l-1)).

    >>> graded_trace_cycle(GradedPolynomial.from_list([1, 2, 1]), 3).to_list()
    [1, 0, 0, 2, 0, 0, 1]
    >>> graded_trace_cycle(GradedPolynomial.from_list([1, 1]), 2).to_list()
    [1, 0, -1]
    """
    if length < 1:
        raise ValueError(f"cycle length must be >= 1, got {length}")
    return GradedPolynomial({i * length: (-1) ** (i * (length - 1)) * b
                             for i, b in poincare.coefficients().items()})


def _terms(poincare: GradedPolynomial, n: int) -> int:
    """The bound T of _poincare_work on the terms of a product of n traces."""
    span = n * max(poincare.degree(), 0) + 1
    return min(span, len(poincare.coefficients()) ** min(n, span.bit_length()))


def _poincare_work(poincare: GradedPolynomial, n: int, hist) -> int:
    """A bound on the coefficient products of the group average over a
    group of degree n with cycle-type histogram hist.

    Each cycle type of m_l cycles of length l makes, for each l, the
    bit_length(m_l) + popcount(m_l) products of the power trace_l ** m_l
    and of its product with the term.  Each factor of such a product has
    at most T terms: its degree is at most n * D, for D the top degree of
    poincare, and it is a product of at most n traces of B terms each, B
    the nonzero Betti numbers.  So a product costs at most T ** 2, where
    T = min(n * D + 1, B ** n); the exponent is capped at the bit length
    of n * D + 1, past which B ** n, for B >= 2, is the larger anyway.
    """
    products = sum(m.bit_length() + bin(m).count("1") for ctype in hist for m in ctype if m)
    return products * _terms(poincare, n) ** 2


def invariant_poincare(
    poincare: GradedPolynomial, group: PermutationGroupModel
) -> GradedPolynomial:
    """Poincare polynomial of the quotient of X^n by a permutation group,
    where poincare is the Poincare polynomial P of X.

    Over Q it is P^f, for the f fixed points, times each direct factor's
    average of the product over cycles of the graded trace (Kunneth): the
    integer sum is divided by the factor's order coefficient by
    coefficient.  The result must have non-negative integer coefficients
    (they are dimensions of invariant subspaces), and anything else is a
    bug.  The products, joins included, are guarded before the first, on a
    bound that is one more fold (permgroup.fold_factors).

    >>> torus = GradedPolynomial.from_list([1, 2, 1])
    >>> from .permgroup import cyclic_group
    >>> invariant_poincare(torus, cyclic_group(3)).to_list()
    [1, 2, 5, 8, 5, 2, 1]
    """
    # (products, points): each factor's, and the join with the points before it
    work, _ = group.fold_factors(
        lambda f: (_poincare_work(poincare, f, [(f,)]), f),
        lambda g: (_poincare_work(poincare, g.degree, g.cycle_type_histogram()), g.degree),
        lambda a, b: (a[0] + b[0] + _terms(poincare, a[1]) * _terms(poincare, b[1]), a[1] + b[1]))
    check_guard(work, MAX_POINCARE_WORK, "invariant Poincare products")
    trace = cache(partial(graded_trace_cycle, poincare))  # each cycle length made once

    def average(factor: PermutationGroupModel) -> GradedPolynomial:
        acc = GradedPolynomial.zero()
        for ctype, count in factor.cycle_type_histogram().items():
            # a factor moves some point, so there is a power to start from
            powers = [trace(length) ** mult for length, mult in enumerate(ctype, start=1) if mult]
            acc = acc + reduce(GradedPolynomial.__mul__, powers).scale(count)
        ranks = {}
        for deg, c in acc.coefficients().items():
            rank = _exact_div(c, factor.order(), "coefficient in degree {}", deg)
            if rank < 0:
                raise InternalConsistencyError(f"negative invariant rank {rank} in degree {deg}")
            ranks[deg] = rank
        return GradedPolynomial(ranks)

    return group.fold_factors(poincare.__pow__, average, GradedPolynomial.__mul__)


def macdonald_poincare_sp(poincare: GradedPolynomial, n: int) -> GradedPolynomial:
    """Poincare polynomial of the n-th symmetric product, extracted as the
    coefficient of q^n in the product over degrees i of

        (1 + q t^i)^(b_i)        for odd i,
        1 / (1 - q t^i)^(b_i)    for even i.

    Each degree takes one pass over the series by the binomial theorem,
    with the terms C(b_i, k) q^k t^(ik) for 1 <= k <= min(b_i, n): an odd
    degree multiplies by (1 + q t^i)^(b_i), and an even one divides by
    (1 - q t^i)^(b_i), whose terms carry the sign (-1)^(k+1) once moved to
    the other side.  So the cost grows with n and the number of degrees,
    not with the Betti numbers' values.

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
        odd = deg % 2
        terms = [GradedPolynomial({deg * k: math.comb(betti, k) * (1 if odd else (-1) ** (k + 1))})
                 for k in range(1, min(betti, n) + 1)]
        # a product reads the old series[a - k], so it goes down; a quotient
        # new[a] = old[a] + sum (-1)^(k+1) C(b, k) t^(ik) new[a - k] goes up
        for a in range(n, 0, -1) if odd else range(1, n + 1):
            for k, term in enumerate(terms[:a], start=1):
                series[a] = series[a] + term * series[a - k]
    return series[n]

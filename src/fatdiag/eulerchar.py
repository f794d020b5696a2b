"""Euler characteristics of symmetric products, quotients of cartesian
powers, and bounded-multiplicity configuration spaces.

All functions take the Euler characteristic chi of the base space as a plain
integer and return exact integers.  The functions for ordered/unordered fat
diagonals (multiplicity >= d loci) and their complements are only valid for
closed even-dimensional manifolds; they check a parity argument and raise
UnsupportedSpaceError otherwise, because on general complexes these numbers
are not functions of chi at all.

Conventions:

  sp(X, n)       n-th symmetric product, the quotient of X^n by the full
                 symmetric group
  fat_o(X, n, d) ordered points in X^n with some value repeated >= d times
  fat_u(X, n, d) its image in sp(X, n)
  cap(X, n, d)   complement sp(X, n) - fat_u(X, n, d+1): unordered n-tuples
                 where no value has multiplicity > d

chi is additive over the strata of these loci.  A stratum of X^n (a set
partition with k blocks) is a configuration space of k points, with chi
falling(chi, k); a stratum of sp(X, n) with alpha_i points of multiplicity
i is that modulo prod S_{alpha_i}, with chi falling(chi, k) / prod(alpha_i!).
The strata sums are coefficients of power series, which the closed formulas
read off without enumerating anything; the enumerations stay as oracles.

  chi_sp       [q^n] (1 - q)^(-chi)
  chi_b_upper  [q^n] (1 + q + ... + q^d)^chi
  chi_bd       chi_sp - chi_b_upper(d - 1)
  chi_fd       chi^n - n! [x^n] (sum_{j<d} x^j / j!)^chi
"""

from __future__ import annotations

import math

from .algebra import binomial_gen, falling_factorial
from .combinatorics import alpha_sequences, factorial_product, set_partitions_cached
from .errors import InternalConsistencyError, UnsupportedSpaceError, check_guard
from .permgroup import PermutationGroupModel, conjugacy_classes_sn

MAX_ORACLE_N = 10
MAX_STRATA_N = 40
# Closed-formula work: big-integer products made, times n for their length.
MAX_FORMULA_WORK = 10**9


def _require_even(parity: str, what: str) -> None:
    if parity != "even":
        raise UnsupportedSpaceError(
            f"{what} is only defined over closed even-dimensional manifolds;"
            f" got parity {parity!r}"
        )


def _exact_div(num: int, den: int, what: str) -> int:
    value, rest = divmod(num, den)
    if rest:
        raise InternalConsistencyError(f"{what}: non-integral value {num}/{den}")
    return value


def chi_sp(chi: int, n: int) -> int:
    """Euler characteristic of the n-th symmetric product.

    Equals binomial_gen(chi + n - 1, n), the coefficient of q^n in
    (1 - q)^(-chi); valid for any integer chi.

    >>> chi_sp(2, 4)
    5
    >>> chi_sp(0, 3)
    0
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return binomial_gen(chi + n - 1, n)


def chi_gamma_product(chi: int, group: PermutationGroupModel) -> int:
    """Euler characteristic of the quotient of X^n by a permutation group.

    Average of chi^(number of cycles) over the group; the average is always
    an exact integer, and a failure of that is a bug.

    >>> from .permgroup import cyclic_group
    >>> chi_gamma_product(2, cyclic_group(3))
    4
    """
    total = 0
    for cycle_count, elements in group.cycle_count_histogram().items():
        total += elements * chi**cycle_count
    return _exact_div(total, group.order(), "chi_gamma_product")


def chi_f_config(chi: int, k: int, parity: str) -> int:
    """Euler characteristic of the ordered configuration space of k distinct
    points in a closed manifold: prod_{j=0}^{k-1} (chi - j) in even dimension,
    prod (chi + j) in odd dimension.

    >>> chi_f_config(2, 2, "even")
    2
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if parity == "even":
        sign = -1
    elif parity == "odd":
        sign = 1
    else:
        raise UnsupportedSpaceError(
            f"configuration-space formula needs a manifold parity, got {parity!r}"
        )
    out = 1
    for j in range(k):
        out *= chi + sign * j
    return out


def chi_stratum(chi: int, alpha: tuple[int, ...]) -> int:
    """Euler characteristic of one multiplicity stratum of the symmetric
    product: unordered collections of sum(alpha_i) distinct points, alpha_i
    of them carrying multiplicity i.

    Equals falling_factorial(chi, sum(alpha_i)) / prod(alpha_i!); the
    division is exact.  Valid over closed even-dimensional manifolds.
    """
    value = falling_factorial(chi, sum(alpha))
    return _exact_div(value, factorial_product(alpha), f"chi_stratum({chi}, {alpha})")


def chi_fd(chi: int, n: int, d: int, parity: str = "even") -> int:
    """Euler characteristic of the ordered fat diagonal: n-tuples in which
    some value occurs at least d times.  Even-dimensional closed manifolds.

    chi^n minus a_n, the sum of the strata whose blocks are all smaller
    than d: n! [x^n] (sum_{j<d} x^j / j!)^chi.  So a_k = chi^k for k < d,
    and J.C.P. Miller's recurrence for powers of a series gives the rest in
    integers, for any chi: k a_k = sum_{0<j<d} ((chi+1) j - k) C(k, j) a_{k-j}.

    >>> chi_fd(2, 3, 2)
    8
    >>> chi_fd(2, 4, 3)
    10
    """
    _require_even(parity, "ordered fat diagonal")
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    check_guard((n - d + 1) * (d - 1) * n, MAX_FORMULA_WORK, "closed formula work")
    a = [chi**k for k in range(d)]
    for k in range(d, n + 1):
        acc, binom = 0, 1
        for j in range(1, d):
            binom = binom * (k - j + 1) // j
            acc += ((chi + 1) * j - k) * (binom * a[k - j])
        a.append(_exact_div(acc, k, f"chi_fd({chi}, {n}, {d})"))
    return chi**n - a[n]


def chi_bd(chi: int, n: int, d: int, parity: str = "even") -> int:
    """Euler characteristic of the unordered fat diagonal: points of the
    n-th symmetric product where some value has multiplicity >= d.  Even-
    dimensional closed manifolds.  Its strata are those of sp(X, n) that
    chi_b_upper(d - 1) leaves out, so by additivity it is the difference.

    >>> chi_bd(2, 4, 2)
    5
    >>> chi_bd(2, 5, 2)
    6
    """
    _require_even(parity, "unordered fat diagonal")
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    return chi_sp(chi, n) - chi_b_upper(chi, n, d - 1, parity)


def chi_f2(chi: int, n: int) -> int:
    """Closed form for the ordered fat diagonal at d = 2: chi^n minus the
    configuration-space product.  Needs no parity assumption.

    >>> chi_f2(2, 3)
    8
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    return chi**n - falling_factorial(chi, n)


def chi_b2(chi: int, n: int) -> int:
    """Closed form for the unordered fat diagonal at d = 2.

    >>> chi_b2(2, 4)
    5
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    return chi_sp(chi, n) - binomial_gen(chi, n)


def chi_b_upper(chi: int, n: int, d: int, parity: str = "even") -> int:
    """Euler characteristic of the multiplicity-at-most-d part of the n-th
    symmetric product.  Even-dimensional closed manifolds only; for general
    complexes this is not a function of chi.

    The strata with all multiplicities <= d sum to [q^n] (1 + q + ... +
    q^d)^chi = [q^n] (1 - q^(d+1))^chi (1 - q)^(-chi), that is
    sum_{j <= n/(d+1)} (-1)^j binomial_gen(chi, j) chi_sp(chi, n - j(d+1)).

    >>> chi_b_upper(2, 2, 1)
    1
    >>> chi_b_upper(2, 3, 2)
    2
    """
    _require_even(parity, "multiplicity-bounded symmetric product")
    if not 1 <= d <= n:
        raise ValueError(f"needs 1 <= d <= n, got d={d}, n={n}")
    terms = n // (d + 1) + 1
    check_guard(n * terms * n, MAX_FORMULA_WORK, "closed formula work")
    return sum((-1) ** j * binomial_gen(chi, j) * chi_sp(chi, n - j * (d + 1))
               for j in range(terms))


def stratification_sum_bd(chi: int, n: int, d: int) -> int:
    """Recompute chi_bd as the direct sum of its strata: multiplicity
    vectors of weight n whose largest used part is >= d.  Used as a
    cross-check of the closed formula."""
    check_guard(n, MAX_STRATA_N, "stratification_sum_bd")
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    return sum(chi_stratum(chi, alpha) for alpha in alpha_sequences(n, n)
               if any(alpha[d - 1:]))


def _block_weights(labels: tuple[int, ...], weights) -> list[int]:
    """Total weight of each block of the set partition with these labels."""
    out = [0] * (max(labels) + 1)
    for lab, w in zip(labels, weights):
        out[lab] += w
    return out


def oracle_fd_setpartitions(chi: int, n: int, d: int) -> int:
    """Independent oracle for chi_fd by exhaustive enumeration: sum over all
    set partitions of the n coordinates having a block of size >= d of the
    configuration-space count falling_factorial(chi, #blocks).

    >>> oracle_fd_setpartitions(2, 3, 2)
    8
    """
    check_guard(n, MAX_ORACLE_N, "oracle_fd_setpartitions")
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    total = 0
    ones = [1] * n
    for labels in set_partitions_cached(n):
        sizes = _block_weights(labels, ones)
        if max(sizes) >= d:
            total += falling_factorial(chi, len(sizes))
    return total


def oracle_bd_burnside(chi: int, n: int, d: int) -> int:
    """Independent oracle for chi_bd: average over the symmetric group of
    the Euler characteristic of the fixed ordered fat diagonal.

    An element with cycle type of c cycles fixes a copy of X^c whose
    coordinates carry the cycle lengths as weights; its fat part sums, over
    set partitions of the cycle set with some block of total weight >= d,
    the counts falling_factorial(chi, #blocks).  The class-weighted average
    is asserted integral.

    >>> oracle_bd_burnside(2, 5, 3)
    6
    """
    check_guard(n, MAX_ORACLE_N, "oracle_bd_burnside")
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    total = 0
    for ctype, class_size in conjugacy_classes_sn(n):
        weights = [l for l, a in enumerate(ctype, start=1) for _ in range(a)]
        fixed = 0
        for labels in set_partitions_cached(len(weights)):
            blocks = _block_weights(labels, weights)
            if max(blocks) >= d:
                fixed += falling_factorial(chi, len(blocks))
        total += class_size * fixed
    return _exact_div(total, math.factorial(n), f"oracle_bd_burnside({chi}, {n}, {d})")

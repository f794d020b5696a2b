"""Euler characteristics of symmetric products, quotients of cartesian
powers, and bounded-multiplicity configuration spaces.

All functions take the Euler characteristic chi of the base space as a plain
integer and return exact integers.  The formulas for the ordered and
unordered fat diagonals (multiplicity >= d loci) and their complements,
chi_columns and the three scalar ones read from it, are stated for a base
that is a closed even-dimensional manifold.  That is a property of the
space, not of the integer chi, so they take integers only: the caller
that holds the space asks the one gate, require_manifold, first.  KINDS
is the one table of the three kinds, read by the formulas, the gate and
the command line.

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
Since a stratum's count depends on its set partition only through the
number of blocks, the set-partition oracles count into a table of
partitions by (heaviest block weight, number of blocks), and read every
(d, chi) from it.  The ordered oracle's table, of n points of weight 1,
is one memoized recurrence.  The Burnside oracle makes one table per
cycle type, with the cycle lengths as weights: only the points of weight
>= 2 (the long cycles) are walked as set partitions, and the points of
weight 1 are placed by binomial counts, into the walked blocks or into
blocks of their own, whose partitions the recurrence counts; it sums the
class-weighted tables into one table per n.  The oracles sum the fat
partitions per block count k before they take one falling(chi, k) per
k, and each is guarded on the work it would do before it starts.

  chi_sp       [q^n] (1 - q)^(-chi)
  chi_b_upper  [q^n] (1 + q + ... + q^d)^chi
  chi_bd       chi_sp - chi_b_upper(d - 1)
  chi_fd       chi^n - n! [x^n] (sum_{j<d} x^j / j!)^chi

The last three are coefficient n of the chi-th power of one truncated
series, ordinary or exponential, and one recurrence (_series) gives every
coefficient up to n in one pass.  chi_columns reads a column per d from
it for a whole grid, under one range check and work guard (series_work);
the three formulas read one cell of it.
"""

import math
from collections.abc import Collection, Mapping
from functools import lru_cache
from types import MappingProxyType

from .algebra import binomial_gen, falling_factorial
from .combinatorics import (alpha_sequences, bell_number, conjugacy_classes_sn, factorial_product,
                            set_partitions)
from .errors import UnsupportedSpaceError, _exact_div, check_guard, guard_scale

# Oracle work, counted before the oracle runs: set partitions of long
# cycles walked (bd_oracle_work; 22069 at n = 17, about 0.2 s) and terms of
# the unit-point recurrence (fd_oracle_work; 292825 at n = 50, about 0.2 s).
MAX_BD_ORACLE_WORK = 3 * 10**4
MAX_FD_ORACLE_WORK = 3 * 10**5
MAX_STRATA_N = 40
# Closed-formula work (series_work): recurrence steps times the bits of
# their coefficients.  About 10^9 units take a second: chi fd -n 1000 -d 501
# on surface:3 is 7.5 * 10^8 and takes 0.3 s past start-up.
MAX_FORMULA_WORK = 3 * 10**9
# The least a step of the ordinary form is charged: its loop (about 0.25 us,
# the time of a few hundred bits of arithmetic) and the int it keeps, so
# that a column of short coefficients stays under 732,000 entries.
STEP_BITS = 4096


# The kinds of chi_columns: smallest d, top - d of the truncated series,
# exponential form, and the locus that require_manifold names.
KINDS = {
    "bd": (2, -1, False, "unordered fat diagonal"),
    "fd": (2, -1, True, "ordered fat diagonal"),
    "bupper": (1, 0, False, "multiplicity-bounded symmetric product"),
}


def require_manifold(kind: str, parity: str) -> None:
    """The hypothesis of the chi_columns formulas of a kind: the base is a
    closed even-dimensional manifold, given by its parity ("even", "odd"
    or "none").  UnsupportedSpaceError names the kind's locus otherwise.

    The open locus bupper needs it: over a graph its chi is not a function
    of chi(X).  On the gamma2 fixture (chi = -1) the ordered two-point
    configuration space has chi -6, not chi^2 - chi = 2, so bupper at n = 2,
    d = 1 is -3, not C(chi, 2) = 1.  For the compact loci bd and fd it
    is stricter than the mathematics: their chi is chi_c, which adds over
    strata, and chi_c(F(X, k)) = falling(chi, k) on any finite complex.
    """
    if parity != "even":
        raise UnsupportedSpaceError(
            f"{KINDS[kind][3]} is only defined over closed even-dimensional manifolds;"
            f" got parity {parity!r}"
        )


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


# the group is annotated by name only: the closed formulas run without the
# group layer
def chi_gamma_product(chi: int, group: "PermutationGroupModel") -> int:
    """Euler characteristic of the quotient of X^n by a permutation group.

    chi^f, for the f fixed points, times each direct factor's average of
    chi^(number of cycles), an exact integer (anything else is a bug).

    >>> from .permgroup import cyclic_group
    >>> chi_gamma_product(2, cyclic_group(3))
    4
    """
    def average(factor) -> int:
        total = sum(count * chi**c for c, count in factor.cycle_count_histogram().items())
        return _exact_div(total, factor.order(), "chi_gamma_product")

    return group.fold_factors(chi.__pow__, average, int.__mul__)


def chi_stratum(chi: int, alpha: tuple[int, ...]) -> int:
    """Euler characteristic of one multiplicity stratum of the symmetric
    product: unordered collections of sum(alpha_i) distinct points, alpha_i
    of them carrying multiplicity i.

    Equals falling_factorial(chi, sum(alpha_i)) / prod(alpha_i!); the
    division is exact.  Valid over closed even-dimensional manifolds.
    """
    value = falling_factorial(chi, sum(alpha))
    return _exact_div(value, factorial_product(alpha), "chi_stratum({}, {})", chi, alpha)


def _bits_at_least(count: int, log2_each: float) -> int:
    """A lower bound on the bit length of an integer of at least
    2^(count * log2_each), for log2_each >= 1: the product in floating point,
    less a relative margin for the rounding.  For a count near the range of
    a float the integer is at least 2^count, which has count + 1 bits."""
    if count <= 0:
        return 0
    if count.bit_length() > 512:
        return count + 1
    return math.floor(count * log2_each * (1 - 1e-9)) + 1


def chi_gamma_bits(chi: int, degree: int) -> int:
    """A lower bound on the bit length of chi^degree, the largest term of
    chi_gamma_product's sum (the identity has the most cycles), found
    without computing it: exact for a power of two, and otherwise up to
    the rounding of degree * log2|chi|, which is never an integer."""
    base = abs(chi)
    if base < 2:
        return 0
    if base & (base - 1) == 0:
        return degree * (base.bit_length() - 1) + 1
    return _bits_at_least(degree, math.log2(base))


def _binomial_bits(m: int, k: int) -> int:
    """A lower bound on the bit length of C(m, k), 0 <= k: C(m, j) >= (m /
    j)^j for the smaller side j = min(k, m - k), where m / j >= 2, and 0
    when C(m, k) is 0 or 1."""
    j = min(k, m - k)
    return _bits_at_least(j, math.log2(m) - math.log2(j)) if j > 0 else 0


def chi_sp_bits(chi: int, n: int) -> int:
    """A lower bound on the bit length of chi_sp(chi, n), found without
    computing it: |chi_sp| is C(m, n), with m = chi + n - 1 for chi >= 1
    and m = -chi for chi <= 0."""
    return _binomial_bits(chi + n - 1 if chi >= 1 else -chi, n)


def chi_cell_bits(kind: str, chi: int, n: int, d: int) -> int:
    """A lower bound on the bit length of the cell (n, d) of chi_columns,
    found without building it.  For chi >= 1 each stratum adds a term >= 0,
    so the cell is at least one stratum's: bd chi C(chi - 1, n - d) (one
    d-fold point, n - d simple), fd falling(chi, n - d + 1), bupper C(chi,
    n); a binomial bounds each.

    For chi = -c with c >= 32 n^2 the terms alternate in sign, but one
    dominates and each later one is smaller by a factor <= 8 n^2 / c, so
    the cell is at least 2/3 of it, which has at most one bit fewer: bupper
    C(c, n), the j = 0 term of its alternating sum; bd c C(c, n - d), the
    j = 1 term, as the j = 0 terms of chi_sp and bupper cancel; fd C(n, d)
    c (c + 1) ... (c + n - d), the one stratum with a d-fold block.  A
    product has at least the bits of its factors less one for each factor
    after the first.  0 for -32 n^2 < chi <= 0, where none is known."""
    if chi >= 1:
        m, k = {"bd": (chi - 1, n - d), "fd": (chi, n - d + 1), "bupper": (chi, n)}[kind]
        return _binomial_bits(m, k)
    c = -chi
    if c < 32 * n * n:
        return 0
    if kind == "bupper":
        bits = _binomial_bits(c, n)
    elif kind == "bd":
        bits = c.bit_length() + _binomial_bits(c, n - d) - 1
    else:  # c (c + 1) ... (c + n - d) >= c^(n - d + 1)
        bits = _binomial_bits(n, d) + _bits_at_least(n - d + 1, math.log2(c)) - 1
    return max(bits - 1, 0)


def _log2_binomial_at_most(m: int, k: int) -> float:
    """An upper bound on log2 C(m, k): C(m, k) <= (e m / j)^j for the
    smaller side j = min(k, m - k)."""
    j = min(k, m - k)
    return j * math.log2(math.e * m / j) if j > 0 else 0.0


def series_work(chi: int, top: int, n: int, exponential: bool) -> int:
    """Estimated work of _series(chi, top, n, exponential): its steps (one
    per coefficient, or in the exponential form top for each coefficient
    past top) times the length of the coefficients, at most n log2(|chi| +
    2) bits.

    The ordinary form's coefficients are shorter.  Those of (1 + q + ... +
    q^top)^chi are at most C(chi + n - 1, n) and (top + 1)^chi for chi > 0;
    for chi < 0 the series is (1 - q)^|chi| (1 - q^(top + 1))^(-|chi|), so
    they are at most 2^|chi| C(|chi| - 1 + m, m) with m = n // (top + 1).
    There a step is charged the bit length of that bound, but at least
    STEP_BITS and never more than the length above.
    """
    length = n * (abs(chi) + 2).bit_length()
    if exponential:
        return max(n - top, 0) * top * length
    if length > STEP_BITS and max(n, abs(chi)).bit_length() <= 512:
        if chi >= 0:
            log2_max = min(chi * math.log2(top + 1), _log2_binomial_at_most(chi + n - 1, n))
        else:
            log2_max = -chi + _log2_binomial_at_most(-chi - 1 + n // (top + 1), -chi - 1)
        length = min(length, max(math.ceil(log2_max * (1 + 1e-9)) + 1, STEP_BITS))
    return n * length


def _series(chi: int, top: int, n: int, exponential: bool) -> list[int]:
    """a_0 ... a_n for the chi-th power of the truncated series f = sum_{j <=
    top} q^j, or of f = sum_{j <= top} x^j / j! with a_k = k! [x^k] f^chi
    (exponential).  J.C.P. Miller's recurrence for powers of a series (Knuth,
    TAOCP vol. 2, 4.7) gives them in integers, for any chi:
    k a_k = sum_{0<j<=min(k,top)} ((chi+1) j - k) w a_{k-j}, with w = 1, or
    w = C(k, j) in the exponential form.

    The ordinary weights are constant, so the window sums of a_{k-j} and of
    j a_{k-j} slide by one term a step.  The exponential form agrees with
    e^(chi x) up to x^top, so a_k = chi^k for k <= top.  With top >= n the
    series are those of chi_sp, (1 - q)^(-chi), and of chi^n, e^(chi x).
    """
    call = (chi, top, n, exponential)  # formatted only if a division is not exact
    a = [1]
    if exponential:
        for _ in range(min(top, n)):
            a.append(a[-1] * chi)
    plain = weighted = 0  # sums of a_{k-j} and of j a_{k-j} over 0 < j <= min(k, top)
    for k in range(len(a), n + 1):
        if exponential:
            acc, binom = 0, 1
            for j in range(1, top + 1):
                binom = binom * (k - j + 1) // j
                acc += ((chi + 1) * j - k) * (binom * a[k - j])
        else:
            gone = a[k - 1 - top] if k > top else 0
            plain += a[k - 1] - gone
            weighted += plain - top * gone
            acc = (chi + 1) * weighted - k * plain
        a.append(_exact_div(acc, k, "_series{}", call))
    return a


def chi_columns(kind: str, chi: int, ds: Collection[int], n: int) -> dict[int, list[int]]:
    """Columns of chi_bd, chi_fd or chi_b_upper (kind "bd", "fd" or
    "bupper" of KINDS): for each d of ds, the values at every m = 0 ... n,
    over a closed even-dimensional manifold of Euler characteristic chi
    (require_manifold is the caller's).  This is the one range check and
    work guard of the three formulas, and the work of all the columns, and
    of the untruncated series they are taken from, is guarded before any
    is built.

    A chi_b_upper column is _series(chi, d, n).  A chi_bd or chi_fd column
    is the untruncated series (chi_sp, or chi^m) less the one with top
    d - 1, ordinary or exponential; the untruncated one is made once.

    >>> chi_columns("bd", 2, [2, 3], 4)
    {2: [0, 0, 2, 4, 5], 3: [0, 0, 0, 2, 4]}
    """
    d_min, shift, exponential, _ = KINDS[kind]
    for d in ds:
        if not d_min <= d <= n:
            raise ValueError(f"needs {d_min} <= d <= n, got d={d}, n={n}")
    work = sum(series_work(chi, d + shift, n, exponential) for d in ds)
    if kind == "bd":
        # The untruncated series too (chi_sp, whose coefficients reach
        # log2 C(chi + n - 1, n) bits), with the total kept within the
        # ceiling of n log2(|chi| + 2) bits a coefficient, which bounds the
        # coefficients of both series.  The exponential one, chi^m, is n
        # short products, less than any fd column is charged.
        work = min(work + series_work(chi, n, n, False),
                   len(ds) * n * n * (abs(chi) + 2).bit_length())
    check_guard(work, MAX_FORMULA_WORK, "closed formula work")
    columns = {d: _series(chi, d + shift, n, exponential) for d in ds}
    if kind != "bupper":
        whole = _series(chi, n, n, exponential)
        for d, column in columns.items():
            columns[d] = [w - a for w, a in zip(whole, column)]
    return columns


def chi_fd(chi: int, n: int, d: int) -> int:
    """Euler characteristic of the ordered fat diagonal: n-tuples in which
    some value occurs at least d times.  Even-dimensional closed manifolds.

    chi^n minus a_n, the sum of the strata whose blocks are all smaller
    than d: n! [x^n] (sum_{j<d} x^j / j!)^chi, read from chi_columns.

    >>> chi_fd(2, 3, 2)
    8
    >>> chi_fd(2, 4, 3)
    10
    """
    return chi_columns("fd", chi, (d,), n)[d][n]


def chi_bd(chi: int, n: int, d: int) -> int:
    """Euler characteristic of the unordered fat diagonal: points of the
    n-th symmetric product where some value has multiplicity >= d.  Even-
    dimensional closed manifolds.  Its strata are those of sp(X, n) that
    chi_b_upper(d - 1) leaves out, so by additivity it is the difference,
    read from chi_columns.

    >>> chi_bd(2, 4, 2)
    5
    >>> chi_bd(2, 5, 2)
    6
    """
    return chi_columns("bd", chi, (d,), n)[d][n]


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


def chi_b_upper(chi: int, n: int, d: int) -> int:
    """Euler characteristic of the multiplicity-at-most-d part of the n-th
    symmetric product.  Even-dimensional closed manifolds only; for general
    complexes this is not a function of chi.

    The strata with all multiplicities <= d sum to [q^n] (1 + q + ... +
    q^d)^chi, read from chi_columns.

    >>> chi_b_upper(2, 2, 1)
    1
    >>> chi_b_upper(2, 3, 2)
    2
    """
    return chi_columns("bupper", chi, (d,), n)[d][n]


def stratification_sum_bd(chi: int, n: int, d: int) -> int:
    """Recompute chi_bd as the direct sum of its strata: multiplicity
    vectors of weight n whose largest used part is >= d.  Used as a
    cross-check of the closed formula."""
    check_guard(n, MAX_STRATA_N, "stratification_sum_bd")
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    return sum(chi_stratum(chi, alpha) for alpha in _strata(n) if any(alpha[d - 1:]))


@lru_cache(maxsize=8)
def _strata(n: int) -> tuple[tuple[int, ...], ...]:
    """The multiplicity vectors of weight n, the strata of sp(X, n), kept
    for the other (chi, d) of the same n."""
    return tuple(alpha_sequences(n, n))


@lru_cache(maxsize=None)
def _unit_counts(r: int) -> Mapping[tuple[int, int], int]:
    """Set partitions of r points of weight 1, counted by (size of the
    largest block, number of blocks).  The first point's block has s
    points, its s - 1 companions chosen in C(r - 1, s - 1) ways, and the
    other r - s points are partitioned alike: T(r) = sum_s C(r - 1, s - 1)
    T(r - s).  T(0) is the one partition with no blocks.  The T(r - s) are
    read from T(0) up, so each is made from tables already kept, without
    deep recursion.
    """
    if r == 0:
        return MappingProxyType({(0, 0): 1})
    counts: dict[tuple[int, int], int] = {}
    for s in range(r, 0, -1):
        ways = math.comb(r - 1, s - 1)
        for (largest, blocks), count in _unit_counts(r - s).items():
            key = (max(s, largest), blocks + 1)
            counts[key] = counts.get(key, 0) + ways * count
    return MappingProxyType(counts)


# Not memoized: its one caller, _burnside_table, is, and asks once per
# cycle type.  Each table walks the set partitions of its long cycles only,
# as a stream.
def _fat_counts(weights: tuple[int, ...]) -> Mapping[tuple[int, int], int]:
    """Set partitions of points carrying these weights, counted by (weight
    of the heaviest block, number of blocks): the table of one cycle type
    that the Burnside oracle reads.

    Only the points of weight >= 2 are walked: the Bell(c) set partitions
    of those c points, grouped by their sorted block weights.  The f points
    of weight 1 are then placed by counting.  Each set partition of all the
    points is one of the long points with some unit points joined to each
    of its blocks and the rest partitioned among themselves.  So, block by
    block, j of the free unit points join it in C(free, j) ways, with
    states keyed by (unit points used, heaviest block so far), and the
    unit points left over are partitioned as _unit_counts counts them.
    The empty vector has one partition, with no blocks.
    """
    long = [w for w in weights if w > 1]
    units = len(weights) - len(long)
    heads: dict[tuple[int, ...], int] = {}
    for labels in set_partitions(len(long)):
        blocks = [0] * (max(labels, default=-1) + 1)
        for lab, w in zip(labels, long):
            blocks[lab] += w
        key = tuple(sorted(blocks))
        heads[key] = heads.get(key, 0) + 1
    counts: dict[tuple[int, int], int] = {}
    for blocks, partitions in heads.items():
        states = {(0, 0): partitions}  # (unit points used, heaviest block)
        for b in blocks:
            placed: dict[tuple[int, int], int] = {}
            for (used, heaviest), count in states.items():
                free = units - used
                for j in range(free + 1):
                    key = (used + j, b + j if b + j > heaviest else heaviest)
                    placed[key] = placed.get(key, 0) + count * math.comb(free, j)
            states = placed
        for (used, heaviest), count in states.items():
            for (largest, k), ways in _unit_counts(units - used).items():
                key = (largest if largest > heaviest else heaviest, len(blocks) + k)
                counts[key] = counts.get(key, 0) + count * ways
    return MappingProxyType(counts)


def fd_oracle_work(n: int) -> int:
    """Work of oracle_fd_setpartitions at n: the terms of the _unit_counts
    recurrence up to n.  T(m) has at most C(m + 2, 2) entries (largest
    block a, b blocks, a + b <= m + 1), T(r) reads T(0) ... T(r - 1), and
    the sum over r <= n of sum_{m < r} C(m + 2, 2) is C(n + 3, 4)."""
    return math.comb(n + 3, 4)


@lru_cache(maxsize=64)
def bd_oracle_work(n: int, cap: float) -> int:
    """Work of oracle_bd_burnside at n: the set partitions it walks, Bell(m)
    for each cycle type of S_n with m cycles of length >= 2, summed over the
    multiplicity vectors of alpha_sequences(n, n).  Every m <= n / 2 has
    such a type, so once the Bell(m) alone pass cap, their sum is returned
    and no vector is listed.  Computed once per (n, cap): every (chi, d) of
    a battery asks.
    """
    bells: list[int] = []
    for m in range(n // 2 + 1):
        bells.append(bell_number(m))
        if sum(bells) > cap:
            return sum(bells)
    return sum(bells[sum(alpha[1:])] for alpha in alpha_sequences(n, n))


def _fat_sum(table: Mapping[tuple[int, int], int], chi: int, d: int) -> int:
    """The stratum sum of a (heaviest block, block count) table: the
    partitions with a block of weight >= d, summed per block count k, each
    k then taking one falling_factorial(chi, k)."""
    by_blocks: dict[int, int] = {}
    for (heaviest, k), count in table.items():
        if heaviest >= d:
            by_blocks[k] = by_blocks.get(k, 0) + count
    return sum(count * falling_factorial(chi, k) for k, count in by_blocks.items())


def oracle_fd_setpartitions(chi: int, n: int, d: int) -> int:
    """Independent oracle for chi_fd by exhaustive enumeration: sum over all
    set partitions of the n coordinates having a block of size >= d of the
    configuration-space count falling_factorial(chi, #blocks).

    By additivity each partition adds the Euler characteristic of its
    stratum, which depends on the partition only through its number of
    blocks, so the partitions are counted once per n, into the (largest
    block, block count) table of the _unit_counts recurrence (guarded on
    its terms, fd_oracle_work), and every (d, chi) is read from it by
    _fat_sum.

    >>> oracle_fd_setpartitions(2, 3, 2)
    8
    """
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    check_guard(fd_oracle_work(n), MAX_FD_ORACLE_WORK, "oracle_fd_setpartitions")
    return _fat_sum(_unit_counts(n), chi, d)


@lru_cache(maxsize=32)
def _burnside_table(n: int) -> Mapping[tuple[int, int], int]:
    """The class-weighted sum over the cycle types of S_n of their
    _fat_counts tables, by (heaviest block, block count)."""
    table: dict[tuple[int, int], int] = {}
    for ctype, class_size in conjugacy_classes_sn(n):
        weights = tuple(l for l, a in enumerate(ctype, start=1) for _ in range(a))
        for key, count in _fat_counts(weights).items():
            table[key] = table.get(key, 0) + class_size * count
    return MappingProxyType(table)


def oracle_bd_burnside(chi: int, n: int, d: int) -> int:
    """Independent oracle for chi_bd: average over the symmetric group of
    the Euler characteristic of the fixed ordered fat diagonal.

    An element with cycle type of c cycles fixes a copy of X^c whose
    coordinates carry the cycle lengths as weights; its fat part sums, over
    set partitions of the cycle set with some block of total weight >= d,
    the counts falling_factorial(chi, #blocks).  Since that count depends
    on a stratum only through its number of blocks, each cycle type's set
    partitions are counted once, into the (heaviest block, block count)
    table of _fat_counts, which walks the partitions of the cycles of
    length >= 2 and places the fixed points by counting.  The tables,
    weighted by class size, are summed into one table per n, which every
    (d, chi) reads by _fat_sum.  The guard counts the partitions walked
    (bd_oracle_work); the class-weighted average is asserted integral.

    >>> oracle_bd_burnside(2, 5, 3)
    6
    """
    if not 2 <= d <= n:
        raise ValueError(f"needs 2 <= d <= n, got d={d}, n={n}")
    work = bd_oracle_work(n, MAX_BD_ORACLE_WORK * guard_scale())
    check_guard(work, MAX_BD_ORACLE_WORK, "oracle_bd_burnside")
    total = _fat_sum(_burnside_table(n), chi, d)
    return _exact_div(total, math.factorial(n), "oracle_bd_burnside({}, {}, {})", chi, n, d)


def chi_oracles(kind: str, chi: int, n: int, d: int) -> dict[str, int]:
    """The independent oracles of the cell (n, d) of chi_columns, by name:
    the one table of which oracle checks which formula, read by `chi
    --verify` and by the verify battery.  bd is checked by the cycle-type
    average and the stratum sum, fd by the set-partition sum, both by their
    closed form at d = 2, and bupper by the complement, chi_sp less the
    strata of the fat diagonal one level up, summed directly so that it
    does not reuse chi_b_upper (chi_sp alone at d = n).

    >>> chi_oracles("bd", 2, 4, 2)
    {'cycle_type_average': 5, 'stratification_sum': 5, 'closed_d2_form': 5}
    """
    if kind == "bupper":
        fat = stratification_sum_bd(chi, n, d + 1) if d < n else 0
        return {"complement": chi_sp(chi, n) - fat}
    if kind == "bd":
        oracles = {"cycle_type_average": oracle_bd_burnside(chi, n, d),
                   "stratification_sum": stratification_sum_bd(chi, n, d)}
    else:
        oracles = {"set_partition_sum": oracle_fd_setpartitions(chi, n, d)}
    if d == 2:
        oracles["closed_d2_form"] = (chi_b2 if kind == "bd" else chi_f2)(chi, n)
    return oracles

"""Multiplicity vectors and set partitions, as plain integer tuples.

A multiplicity vector alpha records a multiset of part sizes: alpha[i - 1]
parts of size i, with total weight sum(i * alpha[i - 1]) and sum(alpha)
parts.  These index both the strata of symmetric products (alpha_i blocks
of i equal coordinates) and the cycle types of permutations, whose
conjugacy classes in S_n conjugacy_classes_sn counts without building the
group.

A set partition of {0, ..., n-1} is its label tuple: labels[i] is the block
of point i, and blocks are numbered in order of their first point (a
restricted-growth string), so the partition has max(labels) + 1 blocks.
"""

import math
from collections.abc import Iterator
from functools import lru_cache

from .errors import _exact_div, check_guard

MAX_SET_PARTITION_N = 12
MAX_CONJUGACY_N = 20


def alpha_sequences(n: int, max_part: int) -> list[tuple[int, ...]]:
    """All multiplicity vectors of weight n using part sizes 1..max_part.

    Each result has length exactly max_part.  Deterministic order: the count
    of the largest part size varies slowest, so the vector using only
    singletons comes first.

    >>> alpha_sequences(5, 2)
    [(5, 0), (3, 1), (1, 2)]
    >>> alpha_sequences(3, 3)
    [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    """
    if n < 0:
        raise ValueError(f"weight must be >= 0, got {n}")
    if max_part < 1:
        raise ValueError(f"max_part must be >= 1, got {max_part}")

    out: list[tuple[int, ...]] = []

    def extend(remaining: int, size: int, acc: tuple[int, ...]) -> None:
        # acc holds the counts of the part sizes above `size`
        if size == 1:
            out.append((remaining,) + acc)
            return
        for count in range(remaining // size + 1):
            extend(remaining - size * count, size - 1, (count,) + acc)

    extend(n, max_part, ())
    return out


def factorial_product(alpha: tuple[int, ...]) -> int:
    """prod(alpha_i!), the symmetry factor permuting equal-size parts.

    >>> factorial_product((1, 2, 3))
    12
    """
    return math.prod(map(math.factorial, alpha))


def conjugacy_classes_sn(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Conjugacy classes of the full symmetric group on n points.

    Returns (cycle type, class size) pairs in a deterministic order; the
    class size is n! over the centralizer order prod_l (alpha_l! l^alpha_l),
    and the sizes sum to n!.  S_0 has one class, of the empty cycle type.

    >>> conjugacy_classes_sn(3)
    [((3, 0, 0), 1), ((1, 1, 0), 3), ((0, 0, 1), 2)]
    """
    check_guard(n, MAX_CONJUGACY_N, "conjugacy_classes_sn")
    if n == 0:
        return [((), 1)]  # S_0 is the trivial group; its one element has no cycles
    out = []
    for alpha in alpha_sequences(n, n):
        centralizer = factorial_product(alpha) * math.prod(
            l**a for l, a in enumerate(alpha, start=1))
        out.append((alpha, math.factorial(n) // centralizer))
    return out


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of {0, ..., n-1} as label tuples, in
    lexicographic order.

    The count is the Bell number, which grows fast; guarded at n <= 12.
    The walk steps through the labels of the first n - 1 points, and each
    of those heads is yielded with every label the last point can take, 0
    up to one past the head's largest: Bell(n - 1) steps for the Bell(n)
    partitions.

    >>> list(set_partitions(3))
    [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    """
    check_guard(n, MAX_SET_PARTITION_N, "set_partitions")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        yield ()
        return
    m = n - 1  # the points of the head
    labels = [0] * m
    top = [0] * m  # top[i] = max(labels[:i + 1])
    while True:
        head = tuple(labels)
        for last in range(top[-1] + 2 if m else 1):
            yield head + (last,)
        # the last head point whose label can still grow: up to one past
        # the largest label before it
        i = m - 1
        while i > 0 and labels[i] > top[i - 1]:
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        top[i] = max(top[i - 1], labels[i])
        labels[i + 1:] = [0] * (m - 1 - i)
        top[i + 1:] = [top[i]] * (m - 1 - i)


@lru_cache(maxsize=16)
def set_partitions_cached(n: int) -> tuple[tuple[int, ...], ...]:
    """Memoized tuple of set_partitions(n).

    The package has no caller of it: the benchmark's tracer wraps it when
    it installs, and the tests' reference depth search reuses it."""
    return tuple(set_partitions(n))


def count_set_partitions_of_type(alpha: tuple[int, ...]) -> int:
    """Number of set partitions of {0..n-1} with block-size multiplicities alpha.

    Equals n! / prod((i!)^alpha_i * alpha_i!).

    >>> count_set_partitions_of_type((1, 1))
    3
    """
    sizes = list(enumerate(alpha, start=1))
    n = sum(i * a for i, a in sizes)
    den = factorial_product(alpha) * math.prod(math.factorial(i) ** a for i, a in sizes)
    return _exact_div(math.factorial(n), den, "count_set_partitions_of_type({})", alpha)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set.

    >>> [bell_number(k) for k in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]

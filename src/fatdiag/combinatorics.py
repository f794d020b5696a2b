"""Multiplicity vectors and set partitions, as plain integer tuples.

A multiplicity vector alpha records a multiset of part sizes: alpha[i - 1]
parts of size i, with total weight sum(i * alpha[i - 1]) and sum(alpha)
parts.  These index both the strata of symmetric products (alpha_i blocks
of i equal coordinates) and the cycle types of permutations.

A set partition of {0, ..., n-1} is its label tuple: labels[i] is the block
of point i, and blocks are numbered in order of their first point (a
restricted-growth string), so the partition has max(labels) + 1 blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .errors import check_guard

MAX_SET_PARTITION_N = 12


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


def set_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of {0, ..., n-1} as label tuples, in
    lexicographic order.

    The count is the Bell number, which grows fast; guarded at n <= 12.

    >>> list(set_partitions(3))
    [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    """
    check_guard(n, MAX_SET_PARTITION_N, "set_partitions")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    labels = [0] * n
    top = [0] * n  # top[i] = max(labels[:i + 1])
    while True:
        yield tuple(labels)
        # the last point whose label can still grow: up to one past the
        # largest label before it
        i = n - 1
        while i > 0 and labels[i] > top[i - 1]:
            i -= 1
        if i <= 0:
            return
        labels[i] += 1
        top[i] = max(top[i - 1], labels[i])
        labels[i + 1:] = [0] * (n - 1 - i)
        top[i + 1:] = [top[i]] * (n - 1 - i)


@lru_cache(maxsize=16)
def set_partitions_cached(n: int) -> tuple[tuple[int, ...], ...]:
    """Memoized tuple of set_partitions(n).

    No code of the package calls it any more (strata.depth no longer sums
    over coarsenings); it stays because the benchmark's tracer wraps it
    when it installs, and the tests' reference depth search reuses it."""
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
    q, r = divmod(math.factorial(n), den)
    assert r == 0
    return q


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

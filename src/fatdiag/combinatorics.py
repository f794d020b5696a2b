"""Multiplicity vectors and set partitions.

A multiplicity vector alpha = (alpha_1, ..., alpha_m) records a multiset of
part sizes: alpha_i parts of size i, with total weight sum(i * alpha_i).
These index both the strata of symmetric products (alpha_i blocks of i equal
coordinates) and the cycle types of permutations.

Set partitions here are partitions of {0, ..., n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import check_guard

MAX_SET_PARTITION_N = 12


@dataclass(frozen=True)
class AlphaSequence:
    """Multiplicity vector: parts[i - 1] parts of size i.

    Trailing zeros are kept as given (the enumerators emit fixed-length
    tuples), and equality is plain tuple equality.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(a < 0 for a in self.parts):
            raise ValueError(f"negative multiplicity in {self.parts}")

    @property
    def weight(self) -> int:
        """Total weight sum(i * alpha_i)."""
        return sum(i * a for i, a in enumerate(self.parts, start=1))

    @property
    def num_blocks(self) -> int:
        """Number of parts sum(alpha_i)."""
        return sum(self.parts)

    def factorial_product(self) -> int:
        """prod(alpha_i!), the symmetry factor permuting equal-size parts."""
        out = 1
        for a in self.parts:
            out *= math.factorial(a)
        return out

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


def alpha_sequences(n: int, max_part: int) -> list[AlphaSequence]:
    """All multiplicity vectors of weight n using part sizes 1..max_part.

    Each result has parts of length exactly max_part.  Deterministic order:
    the count of the largest part size increases last, so the vector using
    only singletons comes first.

    >>> [a.parts for a in alpha_sequences(5, 2)]
    [(5, 0), (3, 1), (1, 2)]
    >>> [a.parts for a in alpha_sequences(3, 3)]
    [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    """
    if n < 0:
        raise ValueError(f"weight must be >= 0, got {n}")
    if max_part < 1:
        raise ValueError(f"max_part must be >= 1, got {max_part}")

    out: list[AlphaSequence] = []

    def extend(remaining: int, size: int, acc: list[int]) -> None:
        if size == 0:
            if remaining == 0:
                out.append(AlphaSequence(tuple(acc)))
            return
        if size == 1:
            extend(0, 0, [remaining] + acc)
            return
        for count in range(remaining // size + 1):
            extend(remaining - size * count, size - 1, [count] + acc)

    # Iterate counts of the largest size in the outermost loop, ascending.
    for top in range(n // max_part + 1):
        extend(n - max_part * top, max_part - 1, [top])
    return out


@dataclass(frozen=True)
class SetPartition:
    """Partition of {0, ..., n-1} into disjoint nonempty blocks.

    Blocks are canonically ordered by their minimum element.
    """

    blocks: tuple[frozenset[int], ...]

    @classmethod
    def from_blocks(cls, blocks) -> "SetPartition":
        canon = tuple(sorted((frozenset(b) for b in blocks), key=min))
        seen: set[int] = set()
        for b in canon:
            if not b:
                raise ValueError("empty block")
            if b & seen:
                raise ValueError("overlapping blocks")
            seen |= b
        if seen != set(range(len(seen))):
            raise ValueError(f"blocks must cover 0..{len(seen) - 1} exactly")
        return cls(canon)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def max_block_size(self) -> int:
        return max(len(b) for b in self.blocks) if self.blocks else 0

    def type_alpha(self) -> AlphaSequence:
        """Multiplicity vector of the block sizes, length n."""
        counts = [0] * self.n
        for b in self.blocks:
            counts[len(b) - 1] += 1
        return AlphaSequence(tuple(counts))

    def as_labels(self) -> tuple[int, ...]:
        """Block index of each element; a restricted-growth string."""
        labels = [0] * self.n
        for i, b in enumerate(self.blocks):
            for x in b:
                labels[x] = i
        return tuple(labels)


def set_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of {0, ..., n-1}, in restricted-growth order.

    The count is the Bell number, which grows fast; guarded at n <= 12.

    >>> sum(1 for _ in set_partitions(4))
    15
    """
    check_guard(n, MAX_SET_PARTITION_N, "set_partitions")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        yield SetPartition(())
        return

    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[SetPartition]:
        if i == n:
            blocks: list[set[int]] = [set() for _ in range(used)]
            for x, lab in enumerate(labels):
                blocks[lab].add(x)
            yield SetPartition(tuple(frozenset(b) for b in blocks))
            return
        for lab in range(used + 1):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1)


@lru_cache(maxsize=16)
def set_partitions_cached(n: int) -> tuple[SetPartition, ...]:
    """Memoized tuple of set_partitions(n), for the enumeration oracles."""
    return tuple(set_partitions(n))


def count_set_partitions_of_type(alpha: AlphaSequence) -> int:
    """Number of set partitions of {0..n-1} with block-size multiplicities alpha.

    Equals n! / prod((i!)^alpha_i * alpha_i!).

    >>> count_set_partitions_of_type(AlphaSequence((1, 1)))
    3
    """
    n = alpha.weight
    den = 1
    for i, a in enumerate(alpha.parts, start=1):
        den *= math.factorial(i) ** a * math.factorial(a)
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

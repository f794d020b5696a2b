"""Batch verification battery.

Each check re-derives a family of published or independently-derived values
and compares them against the closed formulas, raising AssertionError with
a pinpointed message on the first disagreement.  The acceptance test suite
runs every check at full ranges; the command line `fatdiag verify` runs
them too, with --suite fast trimming the ranges for a quick smoke run.

Checks are pure and deterministic, including the randomized graph check,
which uses a fixed seed.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Callable, NamedTuple

from .algebra import falling_factorial
from .combinatorics import (
    alpha_sequences,
    bell_number,
    count_set_partitions_of_type,
    set_partitions,
)
from .eulerchar import (
    chi_b2,
    chi_bd,
    chi_b_upper,
    chi_f2,
    chi_fd,
    chi_gamma_product,
    chi_sp,
    oracle_bd_burnside,
    oracle_fd_setpartitions,
    stratification_sum_bd,
)
from .fundgroup import pi1_bd, pi1_bgamma_abelian, pi1_gamma_product
from .graphconf import Graph, discretized_chi_f2, farber_chi_f2, fixture
from .invariants import invariant_poincare, macdonald_poincare_sp
from .permgroup import (
    PermutationGroupModel,
    alternating_group,
    cyclic_group,
    regular_representation,
    symmetric_group,
    symmetric_group_cached,
    trivial_group,
)
from .spaces import preset
from .strata import depth, group_length, length_sn

GRAPH_SEED = 20260821


def check_macdonald_burnside(fast: bool = False) -> str:
    """Symmetric-product formula equals the group average over the full
    symmetric group."""
    n_max = 6 if fast else 8
    cases = 0
    for n in range(0, n_max + 1):
        group = symmetric_group_cached(n)
        for chi in range(-5, 6):
            left = chi_sp(chi, n)
            right = chi_gamma_product(chi, group)
            assert left == right, f"chi_sp({chi},{n})={left} != average {right}"
            cases += 1
    return f"{cases} cases, n <= {n_max}"


def check_bd_three_way(fast: bool = False) -> str:
    """Closed unordered-fat-diagonal formula, stratification sum, and the
    cycle-type average all agree."""
    n_max = 6 if fast else 8
    cases = 0
    for n in range(2, n_max + 1):
        for d in range(2, n + 1):
            for chi in range(-4, 5):
                a = chi_bd(chi, n, d)
                b = stratification_sum_bd(chi, n, d)
                c = oracle_bd_burnside(chi, n, d)
                assert a == b == c, (
                    f"chi_bd({chi},{n},{d}): formula {a}, strata {b}, average {c}"
                )
                cases += 1
    return f"{cases} cases three-way, n <= {n_max}"


def check_fd_corrected(fast: bool = False) -> str:
    """Ordered fat diagonal: the formula with partition-type coefficients
    matches the set-partition oracle, the d = 2 and d = n - 1 polynomial
    specializations hold, and the coefficient-free variant provably fails
    at n = d = 3."""
    n_max = 6 if fast else 8
    cases = 0
    for n in range(2, n_max + 1):
        for d in range(2, n + 1):
            for chi in range(-4, 5):
                left = chi_fd(chi, n, d)
                right = oracle_fd_setpartitions(chi, n, d)
                assert left == right, (
                    f"chi_fd({chi},{n},{d})={left} != oracle {right}"
                )
                cases += 1
    for chi in range(-5, 6):
        assert chi_fd(chi, 3, 2) == 3 * chi**2 - 2 * chi
        for n in range(2, n_max + 1):
            assert chi_fd(chi, n, n) == chi, f"thin diagonal at n={n}"
        for n in range(3, n_max + 1):
            assert chi_fd(chi, n, n - 1) == n * chi**2 - (n - 1) * chi, (
                f"two-block case at n={n}, chi={chi}"
            )
    # the coefficient-free variant: wrong for d >= 3
    chi = 2
    uncorrected = chi**3 - sum(
        falling_factorial(chi, sum(alpha)) for alpha in alpha_sequences(3, 2)
    )
    assert uncorrected == 6 and chi_fd(2, 3, 3) == 2, (
        f"coefficient witness: without {uncorrected}, with {chi_fd(2, 3, 3)}"
    )
    return f"{cases} oracle cases; coefficient-free variant rejected (6 != 2)"


def check_invariant_poincare(fast: bool = False) -> str:
    """Quotient Betti fixtures and the symmetric-product series identity."""
    torus = preset("torus").poincare()
    circle = preset("circle").poincare()
    z3 = cyclic_group(3)
    got_torus = invariant_poincare(torus, z3).to_list()
    assert got_torus == [1, 2, 5, 8, 5, 2, 1], f"torus/Z3 ranks {got_torus}"
    got_circle = invariant_poincare(circle, z3).to_list()
    assert got_circle == [1, 1, 1, 1], f"circle/Z3 ranks {got_circle}"
    names = ["point", "circle", "sphere:2", "sphere:3", "torus", "surface:2",
             "projective_plane", "wedge_circles:3"]
    n_max = 4 if fast else 5
    cases = 0
    for name in names:
        poly = preset(name).poincare()
        for n in range(1, n_max + 1):
            left = invariant_poincare(poly, symmetric_group_cached(n))
            right = macdonald_poincare_sp(poly, n)
            assert left == right, (
                f"{name}, n={n}: invariants {left.to_list()} != series {right.to_list()}"
            )
            cases += 1
    return f"fixtures plus {cases} series identities"


def check_sphere_fixtures(fast: bool = False) -> str:
    """Published sphere fat-diagonal values and the chi = 0 vanishing."""
    assert chi_bd(2, 4, 2) == 5
    assert chi_bd(2, 5, 2) == 6
    assert chi_bd(0, 5, 2) == 0
    cases = 3
    for n in range(2, 9):
        for d in range(2, n + 1):
            assert chi_bd(0, n, d) == 0, f"chi_bd(0,{n},{d}) != 0"
            cases += 1
    return f"{cases} fixture values"


def check_complement_product(fast: bool = False) -> str:
    """Complement identity and the product splitting for large d."""
    n_max = 6 if fast else 8
    cases = 0
    for n in range(2, n_max + 1):
        for chi in range(-4, 5):
            for d in range(1, n):
                assert chi_b_upper(chi, n, d) + chi_bd(chi, n, d + 1) == chi_sp(chi, n), (
                    f"complement identity fails at chi={chi}, n={n}, d={d}"
                )
                cases += 1
            for d in range(2, n + 1):
                if n >= 3 and d > n // 2:
                    assert chi_bd(chi, n, d) == chi * chi_sp(chi, n - d), (
                        f"product identity fails at chi={chi}, n={n}, d={d}"
                    )
                    cases += 1
    return f"{cases} identity cases, n <= {n_max}"


def random_connected_graphs(count: int, max_vertices: int = 8, seed: int = GRAPH_SEED):
    """Deterministic stream of random connected simple graphs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_vertices)
        names = [chr(ord("a") + i) for i in range(n)]
        edges = [
            (a, b)
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if rng.random() < 0.45
        ]
        graph = Graph.from_parts(names, edges)
        if graph.is_connected():
            out.append(graph)
    return out


def check_graph_configuration(fast: bool = False) -> str:
    """Closed graph formula against the discretized cell count."""
    gamma1, gamma2 = fixture("gamma1"), fixture("gamma2")
    assert farber_chi_f2(gamma1) == -4
    assert farber_chi_f2(gamma2) == -6
    assert discretized_chi_f2(gamma1) == -4
    assert discretized_chi_f2(gamma2) == -6
    count = 20 if fast else 50
    for graph in random_connected_graphs(count):
        left = farber_chi_f2(graph)
        right = discretized_chi_f2(graph)
        assert left == right, (
            f"graph {graph.vertices}/{graph.edges}: formula {left}, cells {right}"
        )
    return f"fixtures plus {count} random graphs"


def check_depth_length(fast: bool = False) -> str:
    """Stratification depth values and the subgroup chain-length bound."""
    n_max = 5 if fast else 6
    for n in range(1, n_max + 1):
        assert depth(symmetric_group(n)) == n - 1, f"depth(S_{n})"
    regular = regular_representation(symmetric_group(3))
    assert depth(regular) == 2 == group_length(symmetric_group(3))
    expected = [0, 1, 2, 4, 5, 6, 7, 10, 11, 12]
    for n in range(1, 11):
        assert length_sn(n) == expected[n - 1], f"length_sn({n})"
    for n in range(1, 5):
        assert group_length(symmetric_group(n)) == length_sn(n), n
    battery = [
        trivial_group(3),
        cyclic_group(4),
        cyclic_group(6),
        symmetric_group(3),
        symmetric_group(4),
        alternating_group(4),
        PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),  # dihedral
        regular,
        PermutationGroupModel(6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]),
    ]
    for group in battery:
        d_val, l_val = depth(group), group_length(group)
        assert d_val <= l_val, (
            f"depth {d_val} > length {l_val} at degree {group.degree}"
        )
    for n in (5, 6):
        assert depth(symmetric_group(n)) == n - 1 < length_sn(n)
    # a Young subgroup S_l1 x S_l2 x ... stabilizes exactly the patterns
    # that refine its orbits, a product of partition lattices, so its depth
    # is the degree minus the number of orbits (fixed points included)
    young = [(5, (2, 3)), (7, (3, 4)), (8, (3, 3)), (8, (2, 3, 3)),
             (12, (3, 3, 3, 3)), (12, (2, 2, 2, 2, 2, 2))]
    if not fast:
        young.append((12, (4, 4, 4)))  # 13824 elements, about 0.1 s
    for degree, sizes in young:
        gens, start = [], 1
        for size in sizes:
            block = " ".join(map(str, range(start, start + size)))
            gens += [f"({block})", f"({start} {start + 1})"]
            start += size
        orbits = len(sizes) + degree - sum(sizes)
        got = depth(PermutationGroupModel(degree, gens))
        assert got == degree - orbits, f"depth(S_{sizes} on {degree} points) = {got}"
    return (f"depth table n <= {n_max}, battery of {len(battery)} groups, "
            f"{len(young)} Young subgroups")


def check_pi1_descriptors(fast: bool = False) -> str:
    """Fundamental-group descriptor shapes."""
    opaque = preset("wedge_circles:2")
    circle = preset("circle")
    transitive = [
        cyclic_group(2), cyclic_group(3), symmetric_group(3),
        cyclic_group(4), PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),
        alternating_group(4), cyclic_group(5), symmetric_group(5),
        cyclic_group(6), regular_representation(symmetric_group(3)),
        symmetric_group(6),
    ]
    for group in transitive:
        assert group.is_transitive()
        expr = pi1_gamma_product(opaque, group)
        assert (expr.pi1_exponent, expr.h1_exponent) == (0, 1), (
            f"transitive degree {group.degree} gave {expr.display()}"
        )
    embed_fix = PermutationGroupModel(4, ["(1 2)"])
    embed_free = PermutationGroupModel(4, ["(1 3)(2 4)"])
    first = pi1_gamma_product(opaque, embed_fix)
    second = pi1_gamma_product(opaque, embed_free)
    assert (first.pi1_exponent, first.h1_exponent) == (2, 1), first.display()
    assert (second.pi1_exponent, second.h1_exponent) == (0, 2), second.display()
    assert first != second
    cases = 0
    for n in range(1, 9):
        for d in range(1, n + 1):
            expr = pi1_bd(opaque, n, d)
            if 2 * d <= n:
                want = (0, 1)
            elif d == n:
                want = (1, 0)
            elif n - d == 1:
                want = (2, 0)
            else:
                want = (1, 1)
            assert (expr.pi1_exponent, expr.h1_exponent) == want, (
                f"pi1_bd branch at n={n}, d={d}: {expr.display()}"
            )
            cases += 1
    # the abelian criterion for quotients of the ordered fat diagonal agrees
    # with the unordered branch table where both speak
    for n in range(1, 7):
        for d in range(1, n // 2 + 1):
            assert pi1_bgamma_abelian(symmetric_group(n), n, d), (n, d)
            assert pi1_bd(opaque, n, d).pi1_exponent == 0, (n, d)
    assert not pi1_bgamma_abelian(cyclic_group(4), 4, 2)
    assert str(pi1_bd(circle, 4, 2).abelian_descriptor()) == "Z"
    assert pi1_bd(circle, 4, 3).display() == "H1(X)^2"
    return f"{len(transitive)} transitive groups, branch table {cases} cells"


def check_partition_infrastructure(fast: bool = False) -> str:
    """Set-partition counts and the Stirling identity."""
    n_max = 7 if fast else 8
    cases = 0
    for n in range(0, n_max + 1):
        parts = list(set_partitions(n))
        assert len(parts) == bell_number(n), f"Bell({n})"
        by_type: Counter[tuple[int, ...]] = Counter()
        for labels in parts:
            alpha = [0] * n
            for size in Counter(labels).values():
                alpha[size - 1] += 1
            by_type[tuple(alpha)] += 1
        for alpha in alpha_sequences(n, n) if n else []:
            want = count_set_partitions_of_type(alpha)
            got = by_type[alpha]
            assert want == got, f"type {alpha}: count {want} != {got}"
            cases += 1
        for chi in range(-4, 5):
            total = sum(falling_factorial(chi, max(labels, default=-1) + 1)
                        for labels in parts)
            assert total == chi**n, f"Stirling identity at chi={chi}, n={n}"
    # d = 2 closed forms against the general ones
    for n in range(2, n_max + 1):
        for chi in range(-5, 6):
            assert chi_f2(chi, n) == chi_fd(chi, n, 2)
            assert chi_b2(chi, n) == chi_bd(chi, n, 2)
    return f"Bell + {cases} type counts, Stirling identity, d=2 forms, n <= {n_max}"


class CheckOutcome(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed: float


CHECKS: list[tuple[str, Callable[[bool], str]]] = [
    ("macdonald-burnside", check_macdonald_burnside),
    ("bd-three-way", check_bd_three_way),
    ("fd-corrected", check_fd_corrected),
    ("invariant-poincare", check_invariant_poincare),
    ("sphere-fixtures", check_sphere_fixtures),
    ("complement-product", check_complement_product),
    ("graph-configuration", check_graph_configuration),
    ("depth-length", check_depth_length),
    ("pi1-descriptors", check_pi1_descriptors),
    ("partition-infrastructure", check_partition_infrastructure),
]


def run_suite(suite: str = "all") -> list[CheckOutcome]:
    """Run every check; suite "fast" trims ranges to finish quickly."""
    if suite not in ("all", "fast"):
        raise ValueError(f"suite must be all or fast, got {suite!r}")
    fast = suite == "fast"
    outcomes = []
    for name, check in CHECKS:
        start = time.monotonic()
        try:
            detail = check(fast)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        outcomes.append(CheckOutcome(name, passed, detail, time.monotonic() - start))
    return outcomes

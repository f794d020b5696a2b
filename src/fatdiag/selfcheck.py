"""Batch verification battery.

Each check re-derives a family of published or independently-derived values
and compares them against the closed formulas, raising AssertionError with
a pinpointed message on the first disagreement.  The acceptance tests and
`fatdiag verify` run them alike, over one set of ranges.

Checks are pure and deterministic, including the randomized graph check,
which uses a fixed seed.

Each piece of work is done once.  The closed formulas chi_bd, chi_fd and
chi_b_upper are read a whole (kind, chi) at a time, as the columns of
eulerchar.chi_columns over every d and every n up to the range, as a
command-line grid reads them; S_n is the one memoized model of
permgroup.symmetric_group_cached, so its chain and histogram are shared
between checks; and check_depth_length takes each group's depth and chain
length once.  The formulas are compared per cell with the oracles of
eulerchar.chi_oracles, which `chi --verify` reads too.
"""

import random
import time
from collections import Counter, namedtuple
from collections.abc import Callable
from functools import cache

from .algebra import falling_factorial
from .combinatorics import (
    alpha_sequences,
    bell_number,
    count_set_partitions_of_type,
    set_partitions,
)
from .eulerchar import (
    chi_b2,
    chi_columns,
    chi_f2,
    chi_fd,
    chi_gamma_product,
    chi_oracles,
    chi_sp,
)
from .fundgroup import pi1_bd, pi1_bgamma_abelian, pi1_gamma_product
from .graphconf import Graph, discretized_chi_f2, farber_chi_f2, fixture
from .invariants import invariant_poincare, macdonald_poincare_sp
from .permgroup import (
    PermutationGroupModel,
    alternating_group,
    cyclic_group,
    regular_representation,
    symmetric_group_cached,
    trivial_group,
)
from .spaces import preset
from .strata import depth, group_length, length_sn

GRAPH_SEED = 20260821


def check_macdonald_burnside() -> str:
    """Symmetric-product formula equals the group average over the full
    symmetric group."""
    n_max = 8
    cases = 0
    for n in range(0, n_max + 1):
        group = symmetric_group_cached(n)
        for chi in range(-5, 6):
            left = chi_sp(chi, n)
            right = chi_gamma_product(chi, group)
            assert left == right, f"chi_sp({chi},{n})={left} != average {right}"
            cases += 1
    return f"{cases} cases, n <= {n_max}"


def _against_oracles(kind: str, chi: int, columns: dict[int, list[int]]) -> int:
    """Every cell (n, d), d <= n, of kind's columns at chi against each of
    its oracles in eulerchar.chi_oracles; the number of cells."""
    cases = 0
    for d, column in columns.items():
        for n in range(d, len(column)):
            for name, got in chi_oracles(kind, chi, n, d).items():
                assert got == column[n], (
                    f"chi_{kind}({chi},{n},{d}): formula {column[n]}, {name} {got}")
            cases += 1
    return cases


def check_bd_three_way() -> str:
    """Closed unordered-fat-diagonal formula, stratification sum, and the
    cycle-type average all agree (and the closed form at d = 2)."""
    n_max = 8
    cases = sum(_against_oracles("bd", chi, chi_columns("bd", chi, range(2, n_max + 1), n_max))
                for chi in range(-4, 5))
    return f"{cases} cases three-way, n <= {n_max}"


def check_fd_corrected() -> str:
    """Ordered fat diagonal: the formula with partition-type coefficients
    matches the set-partition oracle, the d = 2 and d = n - 1 polynomial
    specializations hold, and the coefficient-free variant provably fails
    at n = d = 3."""
    n_max = 8
    cases = 0
    for chi in range(-5, 6):
        # formula[d][n] is chi_fd(chi, n, d)
        formula = chi_columns("fd", chi, range(2, n_max + 1), n_max)
        if -4 <= chi <= 4:
            cases += _against_oracles("fd", chi, formula)
        assert formula[2][3] == 3 * chi**2 - 2 * chi
        for n in range(2, n_max + 1):
            assert formula[n][n] == chi, f"thin diagonal at n={n}"
        for n in range(3, n_max + 1):
            assert formula[n - 1][n] == n * chi**2 - (n - 1) * chi, (
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


def check_invariant_poincare() -> str:
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
    n_max = 5
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


def check_sphere_fixtures() -> str:
    """Published sphere fat-diagonal values and the chi = 0 vanishing."""
    sphere = chi_columns("bd", 2, (2,), 5)[2]
    vanishing = chi_columns("bd", 0, range(2, 9), 8)
    assert sphere[4] == 5
    assert sphere[5] == 6
    assert vanishing[2][5] == 0
    cases = 3
    for n in range(2, 9):
        for d in range(2, n + 1):
            assert vanishing[d][n] == 0, f"chi_bd(0,{n},{d}) != 0"
            cases += 1
    return f"{cases} fixture values"


def check_complement_product() -> str:
    """Complement identity and the product splitting for large d."""
    n_max = 8
    cases = 0
    for chi in range(-4, 5):
        upper = chi_columns("bupper", chi, range(1, n_max), n_max)
        fat = chi_columns("bd", chi, range(2, n_max + 1), n_max)
        for n in range(2, n_max + 1):
            for d in range(1, n):
                assert upper[d][n] + fat[d + 1][n] == chi_sp(chi, n), (
                    f"complement identity fails at chi={chi}, n={n}, d={d}"
                )
                cases += 1
            for d in range(2, n + 1):
                if n >= 3 and d > n // 2:
                    assert fat[d][n] == chi * chi_sp(chi, n - d), (
                        f"product identity fails at chi={chi}, n={n}, d={d}"
                    )
                    cases += 1
    return f"{cases} identity cases, n <= {n_max}"


def random_connected_graphs(count: int):
    """Deterministic stream of random connected simple graphs on 2 to 8
    vertices."""
    rng = random.Random(GRAPH_SEED)
    out = []
    while len(out) < count:
        n = rng.randint(2, 8)
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


def check_graph_configuration() -> str:
    """Closed graph formula against the discretized cell count."""
    gamma1, gamma2 = fixture("gamma1"), fixture("gamma2")
    assert farber_chi_f2(gamma1) == -4
    assert farber_chi_f2(gamma2) == -6
    assert discretized_chi_f2(gamma1) == -4
    assert discretized_chi_f2(gamma2) == -6
    count = 50
    for graph in random_connected_graphs(count):
        left = farber_chi_f2(graph)
        right = discretized_chi_f2(graph)
        assert left == right, (
            f"graph {graph.vertices}/{graph.edges}: formula {left}, cells {right}"
        )
    return f"fixtures plus {count} random graphs"


def check_depth_length() -> str:
    """Stratification depth values and the subgroup chain-length bound."""
    n_max = 6
    # each group's depth and chain length once: the S_n of the table come
    # back in the battery and in the comparison with length_sn
    depth_of, length_of = cache(depth), cache(group_length)
    sym = symmetric_group_cached
    for n in range(1, n_max + 1):
        assert depth_of(sym(n)) == n - 1, f"depth(S_{n})"
    regular = regular_representation(sym(3))
    assert depth_of(regular) == 2 == length_of(sym(3))
    expected = [0, 1, 2, 4, 5, 6, 7, 10, 11, 12]
    for n in range(1, 11):
        assert length_sn(n) == expected[n - 1], f"length_sn({n})"
    for n in range(1, 5):
        assert length_of(sym(n)) == length_sn(n), n
    battery = [
        trivial_group(3),
        cyclic_group(4),
        cyclic_group(6),
        sym(3),
        sym(4),
        alternating_group(4),
        PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),  # dihedral
        regular,
        PermutationGroupModel(6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]),
    ]
    for group in battery:
        d_val, l_val = depth_of(group), length_of(group)
        assert d_val <= l_val, (
            f"depth {d_val} > length {l_val} at degree {group.degree}"
        )
    for n in (5, 6):
        assert depth_of(sym(n)) == n - 1 < length_sn(n)
    # a Young subgroup S_l1 x S_l2 x ... stabilizes exactly the patterns
    # that refine its orbits, a product of partition lattices, so its depth
    # is the degree minus the number of orbits (fixed points included)
    young = [(5, (2, 3)), (7, (3, 4)), (8, (3, 3)), (8, (2, 3, 3)),
             (12, (3, 3, 3, 3)), (12, (2, 2, 2, 2, 2, 2)),
             (12, (4, 4, 4))]  # 13824 elements, three S_4 factors
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


def check_pi1_descriptors() -> str:
    """Fundamental-group descriptor shapes."""
    opaque = preset("wedge_circles:2")
    circle = preset("circle")
    sym = symmetric_group_cached
    transitive = [
        cyclic_group(2), cyclic_group(3), sym(3),
        cyclic_group(4), PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),
        alternating_group(4), cyclic_group(5), sym(5),
        cyclic_group(6), regular_representation(sym(3)),
        sym(6),
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
    # with the unordered branch table where both speak, for S_n and for A_n,
    # which is (n - 2)- but not (n - 1)-transitive
    for n in range(1, 13):
        full, even = sym(n), alternating_group(n)
        for d in range(1, n // 2 + 1):
            assert pi1_bgamma_abelian(full, n, d), (n, d)
            assert n < 3 or pi1_bgamma_abelian(even, n, d), (n, d)
            assert pi1_bd(opaque, n, d).pi1_exponent == 0, (n, d)
        if n >= 4:
            assert even.is_d_transitive(n - 2) and not even.is_d_transitive(n - 1), n
    assert not pi1_bgamma_abelian(cyclic_group(4), 4, 2)
    assert str(pi1_bd(circle, 4, 2).abelian_descriptor()) == "Z"
    assert pi1_bd(circle, 4, 3).display() == "H1(X)^2"
    return f"{len(transitive)} transitive groups, branch table {cases} cells"


def check_partition_infrastructure() -> str:
    """Set-partition counts and the Stirling identity."""
    n_max = 8
    cases = 0
    for n in range(0, n_max + 1):
        # one pass over the partitions, tallied by their sorted labels, a
        # run of each label 0 ... blocks - 1 as long as its block, which
        # give the block count and the type
        by_runs = Counter(map(tuple, map(sorted, set_partitions(n))))
        by_blocks: Counter[int] = Counter()
        by_type: Counter[tuple[int, ...]] = Counter()
        for runs, count in by_runs.items():
            blocks = runs[-1] + 1 if runs else 0
            alpha = [0] * n
            for label in range(blocks):
                alpha[runs.count(label) - 1] += 1
            by_blocks[blocks] += count
            by_type[tuple(alpha)] += count
        assert sum(by_blocks.values()) == bell_number(n), f"Bell({n})"
        for alpha in alpha_sequences(n, n) if n else []:
            want = count_set_partitions_of_type(alpha)
            got = by_type[alpha]
            assert want == got, f"type {alpha}: count {want} != {got}"
            cases += 1
        for chi in range(-4, 5):
            total = sum(count * falling_factorial(chi, k) for k, count in by_blocks.items())
            assert total == chi**n, f"Stirling identity at chi={chi}, n={n}"
    # d = 2 closed forms against the general ones, at the chi = +-5 that
    # criteria 2 and 3 (chi in -4..4) leave out
    for chi in (-5, 5):
        ordered = chi_columns("fd", chi, (2,), n_max)[2]
        unordered = chi_columns("bd", chi, (2,), n_max)[2]
        for n in range(2, n_max + 1):
            assert chi_f2(chi, n) == ordered[n]
            assert chi_b2(chi, n) == unordered[n]
    return f"Bell + {cases} type counts, Stirling identity, d=2 forms, n <= {n_max}"


# elapsed is in seconds
CheckOutcome = namedtuple("CheckOutcome", "name passed detail elapsed")


CHECKS: list[tuple[str, Callable[[], str]]] = [
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


def run_suite() -> list[CheckOutcome]:
    """Run every check."""
    outcomes = []
    for name, check in CHECKS:
        start = time.monotonic()
        try:
            detail = check()
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        outcomes.append(CheckOutcome(name, passed, detail, time.monotonic() - start))
    return outcomes

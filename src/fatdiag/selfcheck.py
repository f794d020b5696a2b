"""Batch verification battery.

Each check re-derives a family of published or independently-derived values
and compares them against the closed formulas, raising AssertionError with
a pinpointed message on the first disagreement.  The acceptance tests and
`fatdiag verify` run them alike, over one set of ranges: every check of
Euler characteristics reads chi over CHIS and n up to N_MAX.

Checks are pure and deterministic, including the randomized graph check,
which uses a fixed seed.

Each piece of work is done once, except criterion 5's chi = 0 columns, which
criterion 2 builds too.  The closed formulas chi_bd, chi_fd and chi_b_upper
are read a whole (kind, chi) at a time, as the columns of
eulerchar.chi_columns over every d and n up to the range, as a command-line
grid reads them; criteria 1, 4 and 8 read one table of products of symmetric
groups, PRODUCTS, and every such group, S_n included, is one model of one
memoized builder, product_group, so its chain and histogram are shared
between checks; and check_depth_length takes each group's depth and chain
length once.  The formulas are compared per cell with the oracles of
eulerchar.chi_oracles, which `chi --verify` reads too.
"""

import math
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
from .errors import InternalConsistencyError
from .eulerchar import KINDS, chi_columns, chi_gamma_product, chi_oracles, chi_sp
from .fundgroup import pi1_bd, pi1_bgamma_abelian, pi1_gamma_product
from .graphconf import Graph, discretized_chi_f2, farber_chi_f2, fixture
from .invariants import invariant_poincare, macdonald_poincare_sp
from .permgroup import (
    PermutationGroupModel,
    alternating_group,
    cyclic_group,
    regular_representation,
    symmetric_group,
    trivial_group,
)
from .spaces import preset
from .strata import depth, group_length, length_sn

GRAPH_SEED = 20260821
# The chi and the largest n of every check of Euler characteristics
CHIS = range(-5, 6)
N_MAX = 8

# Products of symmetric groups, whose quotients are known in closed form, as
# (degree, blocks).  A block (m, k) is S_m acting alike on k consecutive
# sets of m points; the blocks start at point 1, and the other
# f = degree - sum(m k) points are fixed.  X^degree / G is X^f times the
# symmetric products SP^m(X^k) over the blocks (Macdonald 1962, with
# Kunneth).  The entries are S_0 ... S_8, two Young subgroups, and two
# diagonal groups, whose tied orbits make them no direct product.
PRODUCTS = [(n, ((n, 1),)) for n in range(N_MAX + 1)] + [
    (7, ((2, 1), (3, 1))), (8, ((2, 1), (2, 1), (3, 1))),
    (4, ((2, 2),)), (6, ((3, 2),)),
]
# Young subgroups whose depth criterion 8 checks too, kept out of PRODUCTS
# so that criteria 1 and 4 do not average over them
DEPTH_PRODUCTS = [(5, ((2, 1), (3, 1))), (7, ((3, 1), (4, 1))), (8, ((3, 1), (3, 1))),
                  (8, ((2, 1), (3, 1), (3, 1))), (12, ((3, 1),) * 4), (12, ((2, 1),) * 6),
                  (12, ((4, 1),) * 3)]  # 13824 elements, three S_4 factors


@cache
def product_group(degree: int, blocks: tuple[tuple[int, int], ...]) -> PermutationGroupModel:
    """The group of a (degree, blocks) entry: each generator of S_m copied
    onto every set of its block.  Memoized, so that the criteria share
    each model; S_n is (n, ((n, 1),))."""
    gens, start = [], 0
    for m, k in blocks:
        for g in symmetric_group(m).generators:
            images = list(range(degree))
            for offset in range(start, start + m * k, m):
                images[offset:offset + m] = [offset + p for p in g]
            gens.append(images)
        start += m * k
    return PermutationGroupModel(degree, gens)


def _sym(n: int) -> PermutationGroupModel:
    return product_group(n, ((n, 1),))


def _products(table: list, largest: int):
    """Each entry of table whose blocks have m <= largest, as its group, its
    blocks, its number f of fixed points, and its name in a message."""
    for degree, blocks in table:
        if max(m for m, _ in blocks) <= largest:
            yield (product_group(degree, blocks), blocks,
                   degree - sum(m * k for m, k in blocks), f"blocks {blocks} on {degree} points")


def check_macdonald_burnside() -> str:
    """The Burnside average over each group of PRODUCTS equals chi^f times
    chi_sp(chi^k, m) over its blocks (m, k)."""
    cases = 0
    for group, blocks, f, name in _products(PRODUCTS, N_MAX):
        for chi in CHIS:
            left = math.prod((chi_sp(chi**k, m) for m, k in blocks), start=chi**f)
            right = chi_gamma_product(chi, group)
            if left != right:
                raise AssertionError(f"chi={chi}, {name}: {left} != {right}")
            cases += 1
    return f"{cases} cases, {len(PRODUCTS)} products of symmetric groups, degree <= {N_MAX}"


def _against_oracles(kind: str) -> tuple[int, dict[int, dict[int, list[int]]]]:
    """Every cell (n, d), d <= n <= N_MAX, of kind's columns at each chi of
    CHIS, d from the least of KINDS, against each of its oracles in
    eulerchar.chi_oracles; the number of cells, and the columns by chi."""
    cases, by_chi = 0, {}
    for chi in CHIS:
        columns = by_chi[chi] = chi_columns(kind, chi, range(KINDS[kind][0], N_MAX + 1), N_MAX)
        for d, column in columns.items():
            for n in range(d, N_MAX + 1):
                for name, got in chi_oracles(kind, chi, n, d).items():
                    if got != column[n]:
                        raise AssertionError(
                            f"chi_{kind}({chi},{n},{d}): formula {column[n]}, {name} {got}")
                cases += 1
    return cases, by_chi


def check_bd_three_way() -> str:
    """Closed unordered-fat-diagonal formula, stratification sum, and the
    cycle-type average all agree (and the closed form at d = 2)."""
    cases, _ = _against_oracles("bd")
    return f"{cases} cases three-way, n <= {N_MAX}"


def check_fd_corrected() -> str:
    """Ordered fat diagonal: the formula with partition-type coefficients
    matches the set-partition oracle and the closed form at d = 2, the
    d = n and d = n - 1 polynomial specializations hold, and the
    coefficient-free variant provably fails at n = d = 3."""
    cases, columns = _against_oracles("fd")
    # formula[d][n] is chi_fd(chi, n, d)
    for chi, formula in columns.items():
        for n in range(2, N_MAX + 1):
            if formula[n][n] != chi:
                raise AssertionError(f"thin diagonal at n={n}")
        for n in range(3, N_MAX + 1):
            if formula[n - 1][n] != n * chi**2 - (n - 1) * chi:
                raise AssertionError(f"two-block case at n={n}, chi={chi}")
    # the coefficient-free variant: wrong for d >= 3
    chi = 2
    uncorrected = chi**3 - sum(
        falling_factorial(chi, sum(alpha)) for alpha in alpha_sequences(3, 2)
    )
    if not (uncorrected == 6 and columns[2][3][3] == 2):
        raise AssertionError(f"coefficient witness: without {uncorrected}, with {columns[2][3][3]}")
    return f"{cases} oracle cases; coefficient-free variant rejected (6 != 2)"


def check_invariant_poincare() -> str:
    """Quotient Betti fixtures, and the invariant Poincare series over each
    group of PRODUCTS with m <= 5 equals P^f times the series of SP^m at
    P^k over its blocks (m, k)."""
    polys = {name: preset(name).poincare() for name in [
        "point", "circle", "sphere:2", "sphere:3", "torus", "surface:2", "projective_plane",
        "wedge_circles:3"]}
    z3 = cyclic_group(3)
    got_torus = invariant_poincare(polys["torus"], z3).to_list()
    if got_torus != [1, 2, 5, 8, 5, 2, 1]:
        raise AssertionError(f"torus/Z3 ranks {got_torus}")
    got_circle = invariant_poincare(polys["circle"], z3).to_list()
    if got_circle != [1, 1, 1, 1]:
        raise AssertionError(f"circle/Z3 ranks {got_circle}")
    identities = 0
    for group, blocks, f, name in _products(PRODUCTS, 5):
        for space, poly in polys.items():
            left = invariant_poincare(poly, group)
            right = math.prod((macdonald_poincare_sp(poly**k, m) for m, k in blocks),
                              start=poly**f)
            if left != right:
                raise AssertionError(f"{space}, {name}: {left} != {right}")
            identities += 1
    return f"fixtures plus {identities} series identities on products of symmetric groups"


def check_sphere_fixtures() -> str:
    """Published sphere fat-diagonal values and the chi = 0 vanishing."""
    sphere = chi_columns("bd", 2, (2,), 5)[2]
    vanishing = chi_columns("bd", 0, range(2, N_MAX + 1), N_MAX)
    for n, want in ((4, 5), (5, 6)):
        if sphere[n] != want:
            raise AssertionError(f"chi_bd(2,{n},2) = {sphere[n]}, not {want}")
    cases = 2
    for n in range(2, N_MAX + 1):
        for d in range(2, n + 1):
            if vanishing[d][n] != 0:
                raise AssertionError(f"chi_bd(0,{n},{d}) != 0")
            cases += 1
    return f"{cases} fixture values"


def check_complement_product() -> str:
    """The bounded-multiplicity formula against its complement oracle, and
    the product splitting of the fat diagonal for large d, whose chi is
    chi_sp less the bounded one a level down."""
    cases, columns = _against_oracles("bupper")
    products = 0
    # upper[d][n] is chi_b_upper(chi, n, d)
    for chi, upper in columns.items():
        for n in range(3, N_MAX + 1):
            for d in range(n // 2 + 1, n + 1):
                if chi_sp(chi, n) - upper[d - 1][n] != chi * chi_sp(chi, n - d):
                    raise AssertionError(f"product identity fails at chi={chi}, n={n}, d={d}")
                products += 1
    return f"{cases} oracle cases, {products} product identities, n <= {N_MAX}"


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
    for name, want in (("gamma1", -4), ("gamma2", -6)):
        graph = fixture(name)
        for formula in (farber_chi_f2, discretized_chi_f2):
            got = formula(graph)
            if got != want:
                raise AssertionError(f"{formula.__name__}({name}) = {got}, not {want}")
    count = 50
    for graph in random_connected_graphs(count):
        left = farber_chi_f2(graph)
        right = discretized_chi_f2(graph)
        if left != right:
            raise AssertionError(f"{graph!r}: formula {left}, cells {right}")
    return f"fixtures plus {count} random graphs"


def check_depth_length() -> str:
    """Stratification depth and subgroup chain length on products of
    symmetric groups, and the depth <= length bound on a battery."""
    # each group's depth and chain length once: S_3 and S_4 come back in
    # the battery
    depth_of, length_of = cache(depth), cache(group_length)
    expected = [0, 1, 2, 4, 5, 6, 7, 10, 11, 12]
    for n, want in enumerate(expected, start=1):
        if length_sn(n) != want:
            raise AssertionError(f"length_sn({n}): {length_sn(n)}, not {want}")
    # a product of symmetric groups stabilizes exactly the patterns that
    # refine its orbits, a product of partition lattices, so its depth is
    # the sum of m - 1 over its blocks (m, k); its chain length is the sum
    # of length_sn(m), a diagonal S_m being a copy of S_m
    by_depth = list(_products(PRODUCTS + DEPTH_PRODUCTS, 6))
    for group, blocks, _, name in by_depth:
        want = sum(m - 1 for m, _ in blocks if m > 1)
        if depth_of(group) != want:
            raise AssertionError(f"depth of {name}: {depth_of(group)}, not {want}")
    by_length = list(_products(PRODUCTS, 4))
    for group, blocks, _, name in by_length:
        want = sum(length_sn(m) for m, _ in blocks if m > 1)
        if length_of(group) != want:
            raise AssertionError(f"length of {name}: {length_of(group)}, not {want}")
    regular = regular_representation(_sym(3))
    if not (depth_of(regular) == 2 == length_of(_sym(3))):
        raise AssertionError(f"depth {depth_of(regular)} of the regular S_3,"
                             f" length {length_of(_sym(3))} of S_3, not 2")
    battery = [
        trivial_group(3),
        cyclic_group(4),
        cyclic_group(6),
        _sym(3),
        _sym(4),
        alternating_group(4),
        PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),  # dihedral
        regular,
        PermutationGroupModel(6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]),
    ]
    for group in battery:
        d_val, l_val = depth_of(group), length_of(group)
        if d_val > l_val:
            raise AssertionError(f"depth {d_val} > length {l_val} at degree {group.degree}")
    return (f"depth of {len(by_depth)} and length of {len(by_length)} products of symmetric"
            f" groups, battery of {len(battery)} groups")


def check_pi1_descriptors() -> str:
    """pi_1 descriptors of quotients against their orbits, and of the
    unordered fat diagonal against SP^n(X) for 2d <= n and its splitting
    X x SP^(n-d)(X) for d > n/2; the d-transitivity criterion on S_n, A_n."""
    opaque = preset("wedge_circles:2")
    circle = preset("circle")
    transitive = [
        cyclic_group(2), cyclic_group(3), _sym(3),
        cyclic_group(4), PermutationGroupModel(4, ["(1 2 3 4)", "(1 3)"]),
        alternating_group(4), cyclic_group(5), _sym(5),
        cyclic_group(6), regular_representation(_sym(3)),
        _sym(6),
    ]
    # (group, its (Pi1(X), H1(X)) exponents): one Pi1(X) per fixed point and
    # one H1(X) per larger orbit, so those of a transitive group are (0, 1)
    quotients = [(group, (0, 1)) for group in transitive] + [
        (PermutationGroupModel(4, ["(1 2)"]), (2, 1)),
        (PermutationGroupModel(4, ["(1 3)(2 4)"]), (0, 2)),
    ]
    for group, want in quotients:
        expr = pi1_gamma_product(opaque, group)
        if (expr.pi1_exponent, expr.h1_exponent) != want or (
                want == (0, 1) and not group.is_d_transitive(1)):
            raise AssertionError(f"degree {group.degree} group of order {group.order()}, transitive"
                                 f" {group.is_d_transitive(1)}: {expr.display()}, not {want}")
    # sp[m] is the exponents of pi_1(SP^m(X)), the quotient by S_m
    sp = [(expr.pi1_exponent, expr.h1_exponent)
          for expr in (pi1_gamma_product(opaque, _sym(m)) for m in range(13))]
    # the abelian criterion holds on S_n exactly where pi1_bd has no Pi1(X)
    # factor, and on A_n too from n = 3, A_n being (n - 2)- but not (n - 1)-transitive
    cases = 0
    for n in range(1, 13):
        full, even = _sym(n), alternating_group(n)
        for d in range(1, n + 1):
            small = 2 * d <= n
            want = sp[n] if small else (sp[n - d][0] + 1, sp[n - d][1])
            expr = pi1_bd(opaque, n, d)
            if (expr.pi1_exponent, expr.h1_exponent) != want:
                raise AssertionError(f"pi1_bd at n={n}, d={d}: {expr.display()}, not {want}")
            for label, group, claim in (("S", full, small), ("A", even, small and n >= 3)):
                if pi1_bgamma_abelian(group, d) != claim:
                    raise AssertionError(f"pi1_bgamma_abelian({label}_{n}, {d}) is not {claim}")
            cases += 1
        if n >= 4 and not (even.is_d_transitive(n - 2) and not even.is_d_transitive(n - 1)):
            raise AssertionError(f"A_{n} should be {n - 2}- but not {n - 1}-transitive")
    if pi1_bgamma_abelian(cyclic_group(4), 2):
        raise AssertionError("pi1_bgamma_abelian(Z/4, 2) holds; Z/4 is not 2-transitive")
    got = str(pi1_bd(circle, 4, 2).abelian_descriptor())
    if got != "Z":
        raise AssertionError(f"pi1_bd(circle,4,2) abelianizes to {got}, not Z")
    got = pi1_bd(circle, 4, 3).display()
    if got != "H1(X)^2":
        raise AssertionError(f"pi1_bd(circle,4,3) = {got}, not H1(X)^2")
    return f"{len(transitive)} transitive groups, branch table {cases} cells"


def check_partition_infrastructure() -> str:
    """Set-partition counts and the Stirling identity."""
    cases = 0
    for n in range(0, N_MAX + 1):
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
        if sum(by_blocks.values()) != bell_number(n):
            raise AssertionError(f"Bell({n})")
        for alpha in alpha_sequences(n, n) if n else []:
            want = count_set_partitions_of_type(alpha)
            got = by_type[alpha]
            if want != got:
                raise AssertionError(f"type {alpha}: count {want} != {got}")
            cases += 1
        for chi in CHIS:
            total = sum(count * falling_factorial(chi, k) for k, count in by_blocks.items())
            if total != chi**n:
                raise AssertionError(f"Stirling identity at chi={chi}, n={n}")
    return f"Bell + {cases} type counts, Stirling identity, n <= {N_MAX}"


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
    """Run every check; a broken build's InternalConsistencyError fails it."""
    outcomes = []
    for name, check in CHECKS:
        start = time.monotonic()
        try:
            detail = check()
            passed = True
        except (AssertionError, InternalConsistencyError) as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        outcomes.append(CheckOutcome(name, passed, detail, time.monotonic() - start))
    return outcomes

from __future__ import annotations

from collections import Counter

import pytest
from test_permgroup import _families, _product_groups

from fatdiag import permgroup
from fatdiag.algebra import GradedPolynomial
from fatdiag.eulerchar import chi_gamma_product, chi_sp
from fatdiag.errors import ResourceGuardError
from fatdiag.invariants import (
    MAX_POINCARE_WORK,
    _poincare_work,
    graded_trace_cycle,
    invariant_poincare,
    macdonald_poincare_sp,
)
from fatdiag.permgroup import (
    PermutationGroupModel,
    _closure,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from fatdiag.spaces import parse_space, preset
from fatdiag.strata import depth, group_length

TORUS = GradedPolynomial.from_list([1, 2, 1])
CIRCLE = GradedPolynomial.from_list([1, 1])
SPHERE = GradedPolynomial.from_list([1, 0, 1])


def test_graded_trace_length_one_is_identity():
    for p in (TORUS, CIRCLE, SPHERE, GradedPolynomial.from_list([1, 3, 0, 2])):
        assert graded_trace_cycle(p, 1) == p


def test_graded_trace_koszul_sign():
    # odd part enters a cycle of length l with sign (-1)^(l-1)
    t = graded_trace_cycle(CIRCLE, 2)
    assert t.to_list() == [1, 0, -1]
    t3 = graded_trace_cycle(CIRCLE, 3)
    assert t3.to_list() == [1, 0, 0, 1]
    s = graded_trace_cycle(SPHERE, 2)
    assert s.to_list() == [1, 0, 0, 0, 1]


def test_graded_trace_is_the_even_odd_rule():
    # the reference rule P_even(t^l) + (-1)^(l-1) P_odd(t^l), restated here
    def reference(betti, length):
        out = [0] * ((len(betti) - 1) * length + 1)
        for i, b in enumerate(betti):
            out[i * length] = b if i % 2 == 0 else (-1) ** (length - 1) * b
        return out

    for betti in ([1], [1, 1], [1, 0, 1], [1, 2, 1], [1, 4, 1], [1, 3, 0, 5, 2],
                  [1, 0, 0, 7], [1, 6, 15, 20, 15, 6, 1]):
        for length in range(1, 7):
            got = graded_trace_cycle(GradedPolynomial.from_list(betti), length)
            assert got.to_list() == reference(betti, length), (betti, length)


def test_invariant_poincare_trivial_group_is_plain_power():
    for p in (TORUS, CIRCLE, SPHERE):
        for n in range(1, 5):
            assert invariant_poincare(p, trivial_group(n)) == p**n


def test_invariant_poincare_matches_macdonald_for_full_symmetric_group():
    # Betti numbers above and below n, in odd and even degrees
    for p in (TORUS, CIRCLE, SPHERE, GradedPolynomial.from_list([1, 4, 1]),
              GradedPolynomial.from_list([1, 3, 4, 0, 2]),
              GradedPolynomial.from_list([3, 1, 0, 6])):
        for n in range(1, 6):
            assert invariant_poincare(p, symmetric_group(n)) == macdonald_poincare_sp(p, n)


def test_macdonald_poincare_small_cases():
    assert macdonald_poincare_sp(SPHERE, 2).to_list() == [1, 0, 1, 0, 1]
    assert macdonald_poincare_sp(SPHERE, 3).to_list() == [1, 0, 1, 0, 1, 0, 1]
    assert macdonald_poincare_sp(CIRCLE, 2).to_list() == [1, 1]
    assert macdonald_poincare_sp(CIRCLE, 5).to_list() == [1, 1]
    assert macdonald_poincare_sp(TORUS, 1) == TORUS


def test_macdonald_poincare_takes_huge_betti_numbers():
    # one binomial pass per degree: Betti numbers of about 6001 digits
    # cost a few products, and the S_n average agrees
    big = parse_space(f"torus x surface:{10**3000} x surface:{10**3000}").poincare()
    for n in (2, 3):
        assert macdonald_poincare_sp(big, n) == invariant_poincare(big, symmetric_group(n))


def test_symmetric_power_of_circle_stabilizes():
    # odd generator squares to zero so only [1, 1] survives for every n
    for n in range(1, 7):
        assert macdonald_poincare_sp(CIRCLE, n).to_list() == [1, 1]


def _at_minus_one(p: GradedPolynomial) -> int:
    """The alternating sum of the coefficients: p at t = -1."""
    return sum(c * (-1) ** d for d, c in p.coefficients().items())


def test_euler_characteristic_consistency_at_minus_one():
    # substituting t = -1 in the invariant Poincare polynomial gives the
    # Burnside average of chi powers
    spaces = [TORUS, CIRCLE, SPHERE, GradedPolynomial.from_list([1, 2, 3])]
    groups = [trivial_group(2), cyclic_group(2), cyclic_group(3), symmetric_group(3)]
    for p in spaces:
        for g in groups:
            chi = _at_minus_one(p)
            assert _at_minus_one(invariant_poincare(p, g)) == chi_gamma_product(chi, g)


def test_invariant_poincare_euler_matches_symmetric_product():
    for p in (TORUS, SPHERE):
        for n in range(1, 6):
            got = _at_minus_one(macdonald_poincare_sp(p, n))
            assert got == chi_sp(_at_minus_one(p), n)


def test_invariant_ranks_bounded_by_plain_power():
    # invariants are a subspace: coefficientwise at most the full power
    for g in (cyclic_group(2), cyclic_group(4), symmetric_group(4)):
        full = TORUS ** g.degree
        inv = invariant_poincare(TORUS, g)
        for deg, c in inv.coefficients().items():
            assert 0 <= c <= full.coefficient(deg)


def test_degree_of_invariant_poincare_even_top():
    # even top class survives symmetrization: degree n * deg(P)
    for name in ("torus", "sphere:2", "surface:2"):
        p = preset(name).poincare()
        for n in range(1, 5):
            assert macdonald_poincare_sp(p, n).degree() == n * p.degree()
    # an odd top class does not: the circle caps at degree 1
    assert macdonald_poincare_sp(CIRCLE, 4).degree() == 1


def test_invariant_poincare_palindromic_for_poincare_duality_input():
    # symmetrizing a palindromic (Poincare duality) polynomial stays palindromic
    inv = invariant_poincare(TORUS, cyclic_group(4))
    lst = inv.to_list()
    assert lst == lst[::-1]


def test_macdonald_agrees_with_invariant_definition_wedge():
    # works for non-manifold inputs too; ranks are representation-theoretic
    wedge2 = GradedPolynomial.from_list([1, 2])
    for n in range(1, 6):
        assert invariant_poincare(wedge2, symmetric_group(n)) == macdonald_poincare_sp(
            wedge2, n
        )


def test_graded_trace_rejects_bad_length():
    with pytest.raises(ValueError):
        graded_trace_cycle(TORUS, 0)


def test_coefficient_products_are_guarded_before_the_first(monkeypatch):
    # 3,001 Betti numbers on two points took 1.6 s, 6,001 took 5.2 s; the
    # bound 3 * (2 * 3000 + 1)^2 products is refused before any is made
    long_vector = GradedPolynomial.from_list([1] * 3001)

    def refuse(self, other):
        raise AssertionError("a product was made")

    monkeypatch.setattr(GradedPolynomial, "__mul__", refuse)
    with pytest.raises(ResourceGuardError, match=r"invariant Poincare products: size 108036003 "):
        invariant_poincare(long_vector, trivial_group(2))
    monkeypatch.undo()
    # the bound counts terms, not degrees: a sparse top degree of 10^5 is cheap
    sparse = GradedPolynomial({0: 1, 10**5: 1})
    assert _poincare_work(sparse, 2, trivial_group(2).cycle_type_histogram()) == 3 * 4**2
    assert invariant_poincare(sparse, trivial_group(2)).to_list()[::10**5] == [1, 2, 1]
    # and the roster's spaces stay far below the limit on S_8
    s8 = symmetric_group(8).cycle_type_histogram()
    for name in ("surface:2", "torus", "wedge_circles:2"):
        assert _poincare_work(preset(name).poincare(), 8, s8) < MAX_POINCARE_WORK / 10


def test_products_of_factors_are_guarded_with_their_joins(monkeypatch):
    # <(1 2)> on 3 points and 1,201 Betti numbers of 1: P^1 for the fixed
    # point, 2 products of 1,201^2; S_2's average on its 2 points, 3
    # products for the identity's two 1-cycles and 2 for the transposition,
    # each of 2,401^2; and the product joining the two, 1,201 * 2,401
    size = 2 * 1201**2 + 5 * 2401**2 + 1201 * 2401

    def refuse(self, other):
        raise AssertionError("a product was made")

    monkeypatch.setattr(GradedPolynomial, "__mul__", refuse)
    with pytest.raises(ResourceGuardError, match=rf"invariant Poincare products: size {size} "):
        invariant_poincare(GradedPolynomial.from_list([1] * 1201),
                           PermutationGroupModel(3, ["(1 2)"]))
    # S_2 x S_3 x S_2 on 7 points, the two S_2 one model: 5 products of
    # 2,401^2 for each S_2 and 10 of 3,601^2 for S_3, and the joins in
    # factor order, each factor with the points before it (0, 2 and 5)
    size = 2 * 5 * 2401**2 + 10 * 3601**2 + 1 * 2401 + 2401 * 3601 + 6001 * 2401
    with pytest.raises(ResourceGuardError, match=rf"invariant Poincare products: size {size} "):
        invariant_poincare(GradedPolynomial.from_list([1] * 1201),
                           PermutationGroupModel(7, ["(1 2)", "(3 4 5)", "(3 4)", "(6 7)"]))


def _walked_cycle_lengths(group: PermutationGroupModel) -> Counter:
    """Each element's cycle lengths, sorted, with how many elements have
    them: the elements by the closure walk from the identity, and the
    cycles counted here, so that no stabilizer chain, coset orbit or direct
    factor takes part."""
    lengths: Counter = Counter()
    for g in _closure(tuple(range(group.degree)), group.generators):
        seen, cycles = set(), []
        for start in range(group.degree):
            if start not in seen:
                size, p = 0, start
                while p not in seen:
                    seen.add(p)
                    p, size = g[p], size + 1
                cycles.append(size)
        lengths[tuple(sorted(cycles))] += 1
    return lengths


def test_products_match_the_element_walk(monkeypatch):
    # chi and Betti numbers of X^n / G against averages over every element,
    # on groups with tied orbits, several direct factors and fixed points
    groups = [
        PermutationGroupModel(4, ["(1 2)(3 4)"]),
        PermutationGroupModel(5, ["(1 2)(3 4)", "(1 2)"]),
        PermutationGroupModel(9, ["(1 2)(3 4)", "(5 6 7)"]),
        PermutationGroupModel(7, ["(1 2)", "(3 4 5)", "(3 4)"]),  # S_2 x S_3
        # S_2 x S_3 x S_2, the two S_2 one model, apart in factor order
        PermutationGroupModel(7, ["(1 2)", "(3 4 5)", "(3 4)", "(6 7)"]),
        PermutationGroupModel(9, ["(1 2 3)", "(2 3 4)", "(5 6 7)"]),  # A_4 x C_3
        PermutationGroupModel(10, ["(1 2)", "(3 4 5)", "(3 4)", "(6 7 8 9)", "(6 8)"]),
    ]
    families = _families(monkeypatch)
    groups += [PermutationGroupModel(families[name].degree, families[name].gens)
               for name in ("S3wrS2", "S3xS3+2", "S2xS3xS3")]
    groups += [group for group, _ in _product_groups(40, seed=16)]
    polys = [CIRCLE, GradedPolynomial.from_list([1, 3, 3, 1]), preset("sphere:3").poincare(),
             preset("wedge_circles:2").poincare()]
    for group in groups:
        walk = _walked_cycle_lengths(group)
        order = sum(walk.values())
        for chi in range(-5, 6):
            total = sum(count * chi ** len(cycles) for cycles, count in walk.items())
            assert total % order == 0
            assert chi_gamma_product(chi, group) == total // order, (group.generators, chi)
        for poly in polys:
            total = GradedPolynomial.zero()
            for cycles, count in walk.items():
                term = GradedPolynomial.one()
                for length in cycles:
                    term = term * graded_trace_cycle(poly, length)
                total = total + term.scale(count)
            assert all(c % order == 0 for c in total.coefficients().values())
            want = GradedPolynomial({d: c // order for d, c in total.coefficients().items()})
            assert invariant_poincare(poly, group) == want, (group.generators, poly)


def test_products_walk_each_factor_and_never_the_whole_group(monkeypatch):
    # S_6^5 on 30 points: its five equal factors are one model, so each
    # formula walks one histogram, of 6 points
    walked = []
    chain_histogram = permgroup._chain_histogram

    def counted(chain, degree):
        walked.append(degree)
        return chain_histogram(chain, degree)

    monkeypatch.setattr(permgroup, "_chain_histogram", counted)
    gens = [g for start in range(1, 30, 6)
            for g in ("(" + " ".join(map(str, range(start, start + 6))) + ")",
                      f"({start} {start + 1})")]
    assert chi_gamma_product(3, PermutationGroupModel(30, gens)) == chi_sp(3, 6) ** 5
    assert walked == [6]
    walked.clear()
    assert (invariant_poincare(TORUS, PermutationGroupModel(30, gens))
            == macdonald_poincare_sp(TORUS, 6) ** 5)
    assert walked == [6]


def test_equal_factors_among_tied_orbits_share_one_model(monkeypatch):
    # <(1 2)(3 4)(5 6), (1 2), (3 4)> is S_2^3 on orbits that its first
    # generator ties, and each orbit splits off.  Each factor keeps its
    # restricted generators once and drops the identity, so the three are
    # one model: one chain beside the group's own, one histogram of 2 points
    built, walked = [], []
    chain, histogram = permgroup._stabilizer_chain, permgroup._chain_histogram
    monkeypatch.setattr(permgroup, "_stabilizer_chain",
                        lambda degree, gens: built.append(degree) or chain(degree, gens))
    monkeypatch.setattr(permgroup, "_chain_histogram",
                        lambda c, degree: walked.append(degree) or histogram(c, degree))
    group = PermutationGroupModel(6, ["(1 2)(3 4)(5 6)", "(1 2)", "(3 4)"])
    factors = group.direct_factors()
    assert len(factors) == 3 and len(set(map(id, factors))) == 1
    assert factors[0].generators == ((1, 0),)
    assert chi_gamma_product(2, group) == 27
    assert invariant_poincare(TORUS, group).to_list()[:7] == [1, 6, 18, 38, 63, 84, 92]
    assert built == [6, 2] and walked == [2]
    assert depth(group) == 3 and group_length(group) == 3

from __future__ import annotations

from fractions import Fraction

import pytest

from fatdiag.algebra import GradedPolynomial, binomial_gen, falling_factorial


def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(-1, 3) == -6
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(0, 1) == 0
    assert falling_factorial(3, 5) == 0


def test_falling_factorial_rejects_negative_k():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_binomial_gen_matches_choose_for_nonnegative():
    import math

    # against the falling-factorial definition, an independent path
    for a in range(0, 12):
        for k in range(0, 12):
            assert binomial_gen(a, k) == falling_factorial(a, k) // math.factorial(k)


def test_binomial_gen_negative_upper_index():
    # binomial_gen(-m, k) = (-1)^k * C(m+k-1, k) = falling(-m, k) / k!
    import math

    for m in range(1, 7):
        for k in range(0, 7):
            assert binomial_gen(-m, k) == falling_factorial(-m, k) // math.factorial(k)
    assert binomial_gen(-2, 3) == -4


def test_poly_construction_drops_zeros():
    p = GradedPolynomial({0: 1, 2: 0, 3: 5})
    assert p.coefficients() == {0: 1, 3: 5}
    assert p.degree() == 3
    assert GradedPolynomial.zero().degree() == -1
    assert GradedPolynomial.zero().to_list() == [0]


def test_poly_rejects_negative_degree():
    with pytest.raises(ValueError):
        GradedPolynomial({-1: 2})


def test_poly_arithmetic():
    p = GradedPolynomial.from_list([1, 1])
    q = GradedPolynomial.from_list([1, -1])
    assert (p * q).to_list() == [1, 0, -1]
    assert (p + q).to_list() == [2]
    assert (p - q).to_list() == [0, 2]
    assert (p**3).to_list() == [1, 3, 3, 1]
    assert p.scale(3).to_list() == [3, 3]


def test_poly_substitute_and_parts():
    p = GradedPolynomial.from_list([1, 2, 3, 4])
    assert p.even_part().to_list() == [1, 0, 3]
    assert p.odd_part().to_list() == [0, 2, 0, 4]
    assert p.substitute_power(2).to_list() == [1, 0, 2, 0, 3, 0, 4]
    assert (p.even_part() + p.odd_part()) == p


def test_poly_evaluate():
    p = GradedPolynomial.from_list([1, 2, 1])
    assert p.evaluate(-1) == 0
    assert p.evaluate(2) == 9
    assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)


def test_poly_equality_and_hash():
    a = GradedPolynomial.from_list([1, 0, 2])
    b = GradedPolynomial({2: 2, 0: 1})
    assert a == b and hash(a) == hash(b)
    assert a != GradedPolynomial.from_list([1, 2])

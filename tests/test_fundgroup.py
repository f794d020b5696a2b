from __future__ import annotations

import pytest

from fatdiag.errors import UnsupportedSpaceError
from fatdiag.fundgroup import (
    GroupExpression,
    pi1_bd,
    pi1_bgamma_abelian,
    pi1_gamma_product,
)
from fatdiag.permgroup import (
    PermutationGroupModel,
    alternating_group,
    cyclic_group,
    symmetric_group,
    trivial_group,
)
from fatdiag.spaces import preset


def test_orbit_structure_basic():
    # one Pi1(X) per fixed point, one H1(X) per orbit of size >= 2
    wedge = preset("wedge_circles:2")
    g = PermutationGroupModel(4, ["(1 2)"])
    assert g.orbit_sizes() == [1, 1, 2]
    e = pi1_gamma_product(wedge, g)
    assert (e.pi1_exponent, e.h1_exponent) == (2, 1)
    full = pi1_gamma_product(wedge, symmetric_group(5))
    assert (full.pi1_exponent, full.h1_exponent) == (0, 1)
    t = pi1_gamma_product(wedge, trivial_group(3))
    assert (t.pi1_exponent, t.h1_exponent) == (3, 0)


def test_orbit_structure_two_blocks():
    g = PermutationGroupModel(4, ["(1 3)(2 4)"])
    assert g.orbit_sizes() == [2, 2]
    e = pi1_gamma_product(preset("wedge_circles:2"), g)
    assert (e.pi1_exponent, e.h1_exponent) == (0, 2)


def test_expression_display_and_normalization():
    wedge = preset("wedge_circles:2")
    e = pi1_gamma_product(wedge, PermutationGroupModel(4, ["(1 2)"]))
    assert e.display() == "Pi1(X)^2 x H1(X)"
    assert not e.is_concrete()
    with pytest.raises(UnsupportedSpaceError):
        e.abelian_descriptor()
    # abelian Pi1 folds into H1
    torus_expr = pi1_gamma_product(preset("torus"), PermutationGroupModel(4, ["(1 2)"]))
    assert torus_expr.is_concrete()
    assert torus_expr.display() == "H1(X)^3"
    assert str(torus_expr.abelian_descriptor()) == "Z^6"
    # simply connected: everything collapses
    s2_expr = pi1_gamma_product(preset("sphere:2"), symmetric_group(3))
    assert s2_expr.display() == "1"
    assert s2_expr.abelian_descriptor().is_trivial()


def test_expression_rejects_unnormalized():
    from fatdiag.spaces import AbelianDescriptor

    with pytest.raises(ValueError):
        GroupExpression(
            pi1_exponent=1,
            h1_exponent=0,
            pi1_kind="abelian",
            h1=AbelianDescriptor.of(rank=1),
        )


def test_pi1_gamma_product_transitive_gives_single_h1():
    wedge = preset("wedge_circles:3")
    for g in (cyclic_group(4), symmetric_group(4), alternating_group(4)):
        e = pi1_gamma_product(wedge, g)
        assert e.display() == "H1(X)"
    e = pi1_gamma_product(wedge, trivial_group(3))
    assert e.display() == "Pi1(X)^3"


def test_pi1_gamma_product_mixed_embedding():
    # same abstract group, different actions, different answers
    wedge = preset("wedge_circles:2")
    first = pi1_gamma_product(wedge, PermutationGroupModel(4, ["(1 2)"]))
    second = pi1_gamma_product(wedge, PermutationGroupModel(4, ["(1 3)(2 4)"]))
    assert first.pi1_exponent == 2 and first.h1_exponent == 1
    assert second.pi1_exponent == 0 and second.h1_exponent == 2
    assert first != second


def test_pi1_bd_branches():
    surf = preset("surface:2")
    assert pi1_bd(surf, 6, 2).display() == "H1(X)"
    assert pi1_bd(surf, 6, 3).display() == "H1(X)"
    assert pi1_bd(surf, 6, 6).display() == "Pi1(X)"
    assert pi1_bd(surf, 6, 5).display() == "Pi1(X)^2"
    assert pi1_bd(surf, 6, 4).display() == "Pi1(X) x H1(X)"
    assert pi1_bd(surf, 2, 2).display() == "Pi1(X)"


def test_pi1_bd_concrete_for_nice_spaces():
    circ = preset("circle")
    assert pi1_bd(circ, 4, 2).display() == "H1(X)"
    assert str(pi1_bd(circ, 4, 2).abelian_descriptor()) == "Z"
    assert pi1_bd(circ, 4, 3).display() == "H1(X)^2"
    assert str(pi1_bd(circ, 4, 3).abelian_descriptor()) == "Z^2"
    assert str(pi1_bd(preset("torus"), 8, 4).abelian_descriptor()) == "Z^2"
    rp2 = preset("projective_plane")
    assert str(pi1_bd(rp2, 6, 5).abelian_descriptor()) == "Z/2 + Z/2"


def test_pi1_bd_validation():
    with pytest.raises(ValueError):
        pi1_bd(preset("torus"), 3, 0)
    with pytest.raises(ValueError):
        pi1_bd(preset("torus"), 3, 4)


def test_pi1_bgamma_abelian_table():
    # n is the group's degree
    assert pi1_bgamma_abelian(cyclic_group(3), 1)
    assert pi1_bgamma_abelian(symmetric_group(4), 2)
    assert pi1_bgamma_abelian(symmetric_group(6), 3)
    assert not pi1_bgamma_abelian(cyclic_group(4), 2)
    assert not pi1_bgamma_abelian(symmetric_group(4), 3)
    assert not pi1_bgamma_abelian(cyclic_group(6), 3)
    assert pi1_bgamma_abelian(alternating_group(4), 2)
    assert not pi1_bgamma_abelian(alternating_group(4), 3)


def test_pi1_bgamma_abelian_validation():
    with pytest.raises(ValueError):
        pi1_bgamma_abelian(cyclic_group(3), 0)
    with pytest.raises(ValueError):
        pi1_bgamma_abelian(cyclic_group(3), 4)

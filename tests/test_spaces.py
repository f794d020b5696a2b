from __future__ import annotations

import json

import pytest

from fatdiag.spaces import (
    AbelianDescriptor,
    SpaceModel,
    invariant_factors,
    parse_space,
    preset,
    product,
    space_from_json,
    wedge,
)


def test_invariant_factors_normalization():
    assert invariant_factors([2, 2]) == (2, 2)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([2, 2, 3]) == (2, 6)
    assert invariant_factors([]) == ()


def test_abelian_descriptor():
    a = AbelianDescriptor.of(rank=1, torsion=(2,))
    assert str(a) == "Z + Z/2"
    assert str(AbelianDescriptor.of(rank=0)) == "0"
    assert str(AbelianDescriptor.of(rank=2)) == "Z^2"
    b = a.direct_sum(a)
    assert b.rank == 2 and b.torsion == (2, 2)
    assert a.power(3).rank == 3
    assert AbelianDescriptor.of(rank=0).is_trivial()


def test_abelian_descriptor_rejects_non_normalized():
    with pytest.raises(ValueError):
        AbelianDescriptor(rank=0, torsion=(3, 2))
    with pytest.raises(ValueError):
        AbelianDescriptor(rank=-1, torsion=())


def test_presets():
    pt = preset("point")
    assert pt.euler() == 1 and pt.parity == "even"
    s2 = preset("sphere:2")
    assert s2.betti == (1, 0, 1) and s2.euler() == 2
    s3 = preset("sphere:3")
    assert s3.parity == "odd" and s3.euler() == 0
    torus = preset("torus")
    assert torus.betti == (1, 2, 1)
    assert torus.h1.rank == 2
    surf = preset("surface:2")
    assert surf.euler() == -2 and surf.pi1_kind == "opaque"
    wr = preset("wedge_circles:3")
    assert wr.betti == (1, 3) and wr.parity == "none"
    rp2 = preset("projective_plane")
    assert rp2.euler() == 1 and rp2.h1.torsion == (2,)
    circ = preset("circle")
    assert circ.parity == "odd" and str(circ.h1) == "Z"
    assert preset("surface:0") == preset("sphere:2")
    assert preset("surface:1").betti == preset("torus").betti
    assert preset("wedge_circles:1").betti == preset("circle").betti


def test_preset_unknown():
    with pytest.raises(ValueError):
        preset("klein_bottle")
    with pytest.raises(ValueError):
        preset("sphere")
    with pytest.raises(ValueError):
        preset("torus:2")


def test_product_space():
    t = product(preset("circle"), preset("circle"))
    assert t.betti == (1, 2, 1)
    assert t.parity == "even"
    assert t.h1.rank == 2
    s2xs2 = product(preset("sphere:2"), preset("sphere:2"))
    assert s2xs2.betti == (1, 0, 2, 0, 1)
    assert s2xs2.euler() == 4


def test_product_euler_multiplicative():
    names = ["point", "circle", "sphere:2", "torus", "surface:2", "wedge_circles:2"]
    for a in names:
        for b in names:
            x, y = preset(a), preset(b)
            assert product(x, y).euler() == x.euler() * y.euler()


def test_product_parity_rules():
    even = preset("sphere:2")
    odd = preset("circle")
    none = preset("wedge_circles:2")
    assert product(even, even).parity == "even"
    assert product(odd, odd).parity == "even"
    assert product(even, odd).parity == "odd"
    assert product(even, none).parity == "none"
    assert product(none, odd).parity == "none"


def test_wedge_space():
    w = wedge(preset("circle"), preset("circle"))
    assert w.betti == (1, 2)
    assert w.euler() == -1
    assert wedge(preset("point"), preset("torus")).betti == (1, 2, 1)
    for a in ["circle", "sphere:2", "torus"]:
        for b in ["circle", "sphere:2"]:
            x, y = preset(a), preset(b)
            assert wedge(x, y).euler() == x.euler() + y.euler() - 1


def test_space_from_json_roundtrip():
    raw = {
        "label": "demo",
        "betti": [1, 2, 1],
        "h1": {"rank": 2, "torsion": []},
        "pi1": "abelian",
        "parity": "even",
    }
    m = space_from_json(raw)
    assert m.euler() == 0
    assert m.h1.rank == 2
    assert m.poincare().to_list() == [1, 2, 1]


def test_space_from_json_defaults_h1_from_betti():
    m = space_from_json({"label": "x", "betti": [1, 3], "parity": "none"})
    assert m.h1.rank == 3
    assert m.pi1_kind == "opaque"


def test_space_from_json_validation():
    with pytest.raises(ValueError):
        space_from_json({"label": "x", "betti": [0, 1], "parity": "even"})
    with pytest.raises(ValueError):
        space_from_json({"label": "x", "betti": [1], "parity": "sideways"})
    with pytest.raises(ValueError):
        space_from_json({"label": "x", "betti": [1], "pi1": "green", "parity": "even"})


def test_parse_space_forms(tmp_path):
    assert parse_space("torus").euler() == 0
    assert parse_space("circle x circle").betti == (1, 2, 1)
    assert parse_space("circle x circle x circle").euler() == 0
    inline = json.dumps({"label": "j", "betti": [1, 0, 1], "parity": "even"})
    assert parse_space(inline).euler() == 2
    f = tmp_path / "sp.json"
    f.write_text(inline)
    assert parse_space(str(f)).euler() == 2
    assert parse_space("@" + str(f)).euler() == 2


def test_space_model_validation():
    with pytest.raises(ValueError):
        SpaceModel(label="bad", betti=(2, 0))
    with pytest.raises(ValueError):
        SpaceModel(label="bad", betti=(1, 2))  # h1 rank mismatch
    with pytest.raises(ValueError):
        SpaceModel(label="bad", betti=(1,), pi1_kind="opaque")



from __future__ import annotations

import json

import pytest

from fatdiag.errors import ResourceGuardError
from fatdiag.fundgroup import GroupExpression
from fatdiag.spaces import (
    TRIVIAL_GROUP,
    AbelianDescriptor,
    SpaceModel,
    invariant_factors,
    parse_space,
    preset,
    product,
    space_from_json,
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
    # the form is a divisor chain of orders >= 2
    for torsion in ((2, 3), (1, 2), (0,), (-2,), (4, 2)):
        with pytest.raises(ValueError):
            AbelianDescriptor(rank=0, torsion=torsion)
    assert str(AbelianDescriptor(0, (2, 4, 4, 12))) == "Z/2 + Z/4 + Z/4 + Z/12"


def test_abelian_descriptor_factors_its_torsion_at_most_once(monkeypatch):
    # of() normalizes once; the constructor checks the divisor chain and
    # power() copies it, so neither factors an order
    import fatdiag.spaces
    from fatdiag.fundgroup import pi1_gamma_product
    from fatdiag.permgroup import PermutationGroupModel

    calls = []

    def counted(torsion):
        calls.append(len(torsion))
        return invariant_factors(torsion)

    monkeypatch.setattr(fatdiag.spaces, "invariant_factors", counted)
    a = AbelianDescriptor.of(1, [4, 2, 3])
    assert a.torsion == (2, 12) and calls == [3]
    assert a.power(3) == AbelianDescriptor(3, (2, 2, 2, 12, 12, 12))
    assert a.power(0) == TRIVIAL_GROUP and calls == [3]
    calls.clear()
    expr = pi1_gamma_product(preset("projective_plane"), PermutationGroupModel(1000, []))
    assert expr.abelian_descriptor().torsion == (2,) * 1000
    assert calls == []


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
    for pi1 in ("opaque", "opaque:", "opaque:free group of rank 2"):
        assert space_from_json({"betti": [1], "pi1": pi1}).pi1_kind == "opaque"


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
        SpaceModel(label="bad", betti=(1,), pi1_kind="green")
    # opaque says only that pi1 is not known to be abelian: no label
    assert SpaceModel(label="ok", betti=(1,), pi1_kind="opaque").pi1_kind == "opaque"




def test_records_are_values():
    # equal fields give equal records with equal hashes, keyword and
    # positional construction agree, defaults apply, and fields are fixed
    sphere = preset("sphere:2")
    assert preset("surface:0") == sphere
    assert hash(preset("surface:0")) == hash(sphere)
    assert sphere == SpaceModel("sphere:2", (1, 0, 1), TRIVIAL_GROUP, "trivial", "even")
    assert sphere != SpaceModel(label="sphere:2", betti=(1, 0, 1))  # parity "none"
    z2 = AbelianDescriptor(rank=0, torsion=(2,))
    assert z2 == AbelianDescriptor.of(0, [2]) and hash(z2) == hash(AbelianDescriptor(0, (2,)))
    assert AbelianDescriptor(rank=1) == AbelianDescriptor(1, ())
    expr = GroupExpression(pi1_exponent=2, h1_exponent=1, pi1_kind="opaque",
                           h1=AbelianDescriptor(2))
    same = GroupExpression(2, 1, "opaque", AbelianDescriptor(2))
    assert expr == same and hash(expr) == hash(same)
    assert expr != GroupExpression(2, 1, "opaque", AbelianDescriptor(3))
    assert len({sphere, preset("surface:0"), z2, expr, same}) == 3
    assert repr(z2) == "AbelianDescriptor(rank=0, torsion=(2,))"
    for record, field in ((sphere, "parity"), (z2, "rank"), (expr, "h1_exponent")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
    with pytest.raises(ValueError):
        GroupExpression(pi1_exponent=1, h1_exponent=0, pi1_kind="abelian",
                        h1=AbelianDescriptor(1))
    with pytest.raises(TypeError):
        SpaceModel(label="x")


def test_space_size_guard():
    # sphere:k carries k + 1 Betti numbers; a product convolves len(a) *
    # len(b) pairs, and a chain of products is guarded on its total
    assert len(preset("sphere:99999").betti) == 100000
    with pytest.raises(ResourceGuardError, match="space size"):
        preset("sphere:100000")
    assert len(parse_space("sphere:315 x sphere:315").betti) == 631  # 316^2 = 99856
    with pytest.raises(ResourceGuardError, match="space size"):
        parse_space("sphere:316 x sphere:316")  # 317^2 = 100489
    # 2 * (2 + ... + m) steps for m circles: 90298 at m = 300, 102718 at 320
    assert len(parse_space(" x ".join(["circle"] * 300)).betti) == 301
    with pytest.raises(ResourceGuardError, match="space size"):
        parse_space(" x ".join(["circle"] * 320))


def test_torsion_factoring_is_guarded_on_its_trial_divisions(monkeypatch):
    # trial division up to sqrt(t): a prime order near 10^14 took 3 s, and
    # one near 10^32 would never end; both pass the space-size guard's
    # 10^5 divisors within milliseconds
    for order in (100000000000031, 99999999999999999999999999999989):
        with pytest.raises(ResourceGuardError, match="space size"):
            invariant_factors([order])
    # a smooth order needs few divisors, and each distinct order is
    # factored once, so 10^5 copies cost no more than one
    assert invariant_factors([2**60, 6, 6, 10]) == (2, 2, 6, 2**60 * 15)
    assert invariant_factors([99991] * 10**5) == (99991,) * 10**5
    import fatdiag.spaces

    factored = []
    factor = fatdiag.spaces._prime_factors
    monkeypatch.setattr(fatdiag.spaces, "_prime_factors",
                        lambda n, work: factored.append(n) or factor(n, work))
    assert invariant_factors([4, 2, 3, 2, 4]) == (2, 2, 4, 12)
    assert sorted(factored) == [2, 3, 4]


# Every preset name and spelling with its whole model: label, Betti
# numbers, H_1 as (rank, torsion), pi1 kind and parity.  An alias answers
# with the model of the preset it names, label included.
_CIRCLE = ("circle", (1, 1), (1, ()), "abelian", "odd")
_POINT = ("point", (1,), (0, ()), "trivial", "even")
_SPHERE2 = ("sphere:2", (1, 0, 1), (0, ()), "trivial", "even")
_TORUS = ("torus", (1, 2, 1), (2, ()), "abelian", "even")
_PRESET_MODELS = {
    "point": _POINT,
    "circle": _CIRCLE,
    "torus": _TORUS,
    "projective_plane": ("projective_plane", (1, 0, 0), (0, (2,)), "abelian", "even"),
    "sphere:1": _CIRCLE,
    "sphere:2": _SPHERE2,
    "sphere:3": ("sphere:3", (1, 0, 0, 1), (0, ()), "trivial", "odd"),
    "surface:0": _SPHERE2,
    "surface:1": _TORUS,
    "surface:2": ("surface:2", (1, 4, 1), (4, ()), "opaque", "even"),
    "wedge_circles:0": _POINT,
    "wedge_circles:1": _CIRCLE,
    "wedge_circles:3": ("wedge_circles:3", (1, 3), (3, ()), "opaque", "none"),
    # a sign, leading zeros and surrounding whitespace are read, and an
    # empty parameter is no parameter
    "sphere:+2": _SPHERE2,
    "surface:007": ("surface:7", (1, 14, 1), (14, ()), "opaque", "even"),
    " torus ": _TORUS,
    "torus:": _TORUS,
}


def test_every_preset_is_pinned():
    for name, (label, betti, (rank, torsion), kind, parity) in _PRESET_MODELS.items():
        model = SpaceModel(label, betti, AbelianDescriptor(rank, torsion), kind, parity)
        assert preset(name) == model, name


def test_preset_refusals_are_pinned(guard_scale_env):
    guard_scale_env(None)
    for name, message in (
        ("klein", "unknown space preset 'klein'"),
        ("torus:2", "preset 'torus' takes no parameter"),
        ("sphere", "preset 'sphere' needs an integer parameter, e.g. sphere:2"),
        ("sphere:x", "preset 'sphere' needs an integer parameter, e.g. sphere:2"),
        ("sphere:0", "sphere dimension must be >= 1"),
        ("surface:-1", "genus must be >= 0"),
        ("wedge_circles:-2", "rank must be >= 0"),
    ):
        with pytest.raises(ValueError) as refused:
            preset(name)
        assert str(refused.value) == message, name
    with pytest.raises(ResourceGuardError) as refused:
        preset("sphere:100000")
    assert str(refused.value) == ("space size: size 100001 exceeds guard limit 100000"
                                  " (scale with FATDIAG_GUARD_SCALE)")
    # the guard is on k + 1, checked before any Betti number is laid out
    with pytest.raises(ResourceGuardError, match="space size"):
        preset("sphere:1" + "0" * 4000)

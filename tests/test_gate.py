"""Negative controls for the n = 2m gate and the unit-circle predicate:
every bridge entry point refuses odd n, a u or beta off the circle, u or
beta inside GF(2^m) (1 among them), an element of another field, and an
embedding that is not the half-degree one.  Each entry point also has a
positive control, so a refusal is never the only thing it does."""

import functools

import pytest

from nihobent import (GF, AdelaideParams, BasisPair, FamilySpec, FieldSpec,
                      TruthTable, build_bent, closed_form_g_circle,
                      correspond_adelaide, correspond_subiaco,
                      embed_subfield, half_embedding,
                      has_affine_coset_restrictions, on_unit_circle,
                      to_bivariate, unit_circle_element,
                      verify_trace_identities)

GF32 = GF(5)
GF64 = GF(6)
GF256 = GF(8)


def _inside(big):
    """An element of GF(2^m) in big other than 0 and 1."""
    emb = half_embedding(big)
    return emb(emb.small.gen)


@functools.cache
def _twin_field(degree):
    """GF(degree) built apart from GF(): it prints like GF(degree), but
    field equality is identity, so it is another field."""
    return FieldSpec(degree)


def _twin(x):
    return _twin_field(x.field.degree).el(x.bits)


def _odd_emb():
    return embed_subfield(GF(1), GF32)


# the branch of correspond_subiaco that each field selects, with its b
# and a selector for a valid u: a cube root at m = 3 (m odd), a fifth
# root at m = 2 (m = 2 mod 4) and any circle element at m = 4
# (m = 0 mod 4, where only b = 1 is supported)
SUBIACO = {"cube": (GF64, GF64.gen, "cube"),
           "fifth": (GF(4), GF(4).gen, "fifth:1"),
           "general": (GF256, GF256.one, "general:0")}

# the words of each refusal's message, so that each case is refused by
# the guard it tests and not by some other error on the way
ODD_N = "even degree n = 2m"
HALF = "embedding of the half-degree subfield"
CIRCLE = "on the unit circle"
SHARE = "must share a field"
U_MESSAGE = {"cube": "nontrivial cube root", "fifth": "fifth root of unity",
             "general": CIRCLE}


def _subiaco_cases():
    cases = {"subiaco odd n": (lambda: correspond_subiaco(GF32.gen), ODD_N)}
    for name, (big, b, sel) in SUBIACO.items():
        u = unit_circle_element(big, sel)
        for what, bad in (("off circle", big.gen), ("u = 1", big.one),
                          ("inside GF(2^m)", _inside(big)),
                          ("another field", _twin(u))):
            cases[f"subiaco {name} u {what}"] = (
                lambda b=b, bad=bad: correspond_subiaco(b, u=bad),
                U_MESSAGE[name])
    return cases


def _adelaide_cases():
    beta = unit_circle_element(GF256, "general:0")
    emb = half_embedding(GF256)
    cube = unit_circle_element(GF64, "cube")
    cases = {
        "adelaide odd n": (lambda: correspond_adelaide(GF32.gen), ODD_N),
        "adelaide odd m": (lambda: correspond_adelaide(cube), "m even"),
        "params odd n": (lambda: AdelaideParams(GF32.gen, _odd_emb()), HALF),
        "params odd m": (lambda: AdelaideParams(cube, half_embedding(GF64)),
                         "m even"),
        "params another field": (
            lambda: AdelaideParams(_twin(beta), emb), HALF),
        "params quarter-degree embedding": (
            lambda: AdelaideParams(beta, embed_subfield(GF(2), GF256)),
            HALF),
        "params embedding of another field": (
            lambda: AdelaideParams(beta, half_embedding(GF(8, 0x11d))),
            HALF),
    }
    for what, bad in (("off circle", GF256.gen), ("beta = 1", GF256.one),
                      ("inside GF(2^m)", _inside(GF256))):
        cases[f"adelaide beta {what}"] = (
            lambda bad=bad: correspond_adelaide(bad), CIRCLE)
        cases[f"params beta {what}"] = (
            lambda bad=bad: AdelaideParams(bad, emb), CIRCLE)
    return cases


def _circle_form_cases():
    """closed_form_g_circle and verify_trace_identities at m = 3."""
    b, u = GF64.gen, unit_circle_element(GF64, "general:0")
    emb = half_embedding(GF64)
    cases = {
        "circle form odd n": (lambda: closed_form_g_circle(
            GF32.gen, GF32.gen, _odd_emb()), HALF),
        "circle form b of another field": (
            lambda: closed_form_g_circle(_twin(b), u, emb), SHARE),
        "circle form u of another field": (
            lambda: closed_form_g_circle(b, _twin(u), emb), SHARE),
        "circle form third-degree embedding": (
            lambda: closed_form_g_circle(b, u, embed_subfield(GF(2), GF64)),
            HALF),
        "circle form embedding of another field": (
            lambda: closed_form_g_circle(b, u, half_embedding(GF(6, 0x49))),
            HALF),
        "trace identities odd n": (
            lambda: verify_trace_identities(GF32.gen, GF32.gen), ODD_N),
        "trace identities b of another field": (
            lambda: verify_trace_identities(_twin(b), u), SHARE),
        "trace identities u of another field": (
            lambda: verify_trace_identities(b, _twin(u)), SHARE),
    }
    for what, bad in (("off circle", GF64.gen), ("u = 1", GF64.one),
                      ("inside GF(2^m)", _inside(GF64))):
        cases[f"circle form u {what}"] = (
            lambda bad=bad: closed_form_g_circle(b, bad, emb), CIRCLE)
        cases[f"trace identities u {what}"] = (
            lambda bad=bad: verify_trace_identities(b, bad), CIRCLE)
    return cases


def _bent64():
    return build_bent(FamilySpec("binomial3", 3, b=GF64.gen)).truth_table()


def _split_cases():
    """to_bivariate and has_affine_coset_restrictions."""
    u = unit_circle_element(GF64, "general:0")
    basis = BasisPair(u, GF64.one)
    emb = half_embedding(GF64)
    return {
        # BasisPair refuses odd n before to_bivariate sees it
        "to_bivariate odd n": (lambda: to_bivariate(
            TruthTable(5, [0] * 32), BasisPair(GF32.gen, GF32.one),
            _odd_emb()), ODD_N),
        "to_bivariate basis of another field": (lambda: to_bivariate(
            _bent64(), BasisPair(_twin(u), _twin(GF64.one)), emb), HALF),
        "to_bivariate third-degree embedding": (lambda: to_bivariate(
            _bent64(), basis, embed_subfield(GF(2), GF64)), HALF),
        "to_bivariate embedding of another field": (lambda: to_bivariate(
            _bent64(), basis, half_embedding(GF(6, 0x49))), HALF),
        "to_bivariate table of another size": (lambda: to_bivariate(
            TruthTable(4, [0] * 16), basis, emb), "table size"),
        "coset test odd n": (lambda: has_affine_coset_restrictions(
            TruthTable(5, [0] * 32), GF32), ODD_N),
        "coset test field of another degree": (
            lambda: has_affine_coset_restrictions(_bent64(), GF(4)),
            "table size"),
    }


CASES = (_subiaco_cases() | _adelaide_cases() | _circle_form_cases()
         | _split_cases())


@pytest.mark.parametrize("name", sorted(CASES))
def test_bridge_entry_point_refuses(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("name", sorted(SUBIACO))
def test_subiaco_positive_control(name):
    big, b, sel = SUBIACO[name]
    u = unit_circle_element(big, sel)
    assert on_unit_circle(u)
    assert correspond_subiaco(b, u=u).verified


def test_other_entry_points_positive_control():
    beta = unit_circle_element(GF256, "general:0")
    assert AdelaideParams(beta, half_embedding(GF256)).m == 4
    assert correspond_adelaide(beta).verified
    b, u = GF64.gen, unit_circle_element(GF64, "general:0")
    emb = half_embedding(GF64)
    assert closed_form_g_circle(b, u, emb).field is GF(3)
    assert verify_trace_identities(b, u)
    tt = _bent64()
    assert to_bivariate(tt, BasisPair(u, GF64.one), emb).field is GF(3)
    assert has_affine_coset_restrictions(tt, GF64)

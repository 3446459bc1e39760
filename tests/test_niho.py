"""Exponent normalization and the bent function families."""

import pytest
from hypothesis import given, strategies as st

from nihobent import (GF, FamilyConditionError, FamilySpec, NihoExponent,
                      NotNihoExponentError, build_bent, family_exponent,
                      family_report, is_fifth_power, niho_normalize)
from nihobent.boolfn import anf_degree, is_bent

GF16 = GF(4)
GF64 = GF(6)


def test_normalize_frozen():
    assert niho_normalize(50, 3) == NihoExponent(3, 7, 0)
    assert niho_normalize(37, 3) == NihoExponent(3, 7, 1)
    assert niho_normalize(5, 2) == NihoExponent(2, 3, 1)
    assert niho_normalize(9, 3) == NihoExponent(3, 5, 1)


def test_normalize_rejects_non_niho():
    # powers of 2 mod 7 are {1, 2, 4}; these residues are not in that set
    with pytest.raises(NotNihoExponentError):
        niho_normalize(3, 3)
    with pytest.raises(NotNihoExponentError):
        niho_normalize(7, 3)
    with pytest.raises(ValueError):
        niho_normalize(0, 3)
    with pytest.raises(ValueError):
        niho_normalize(1 << 6, 3)  # out of range
    with pytest.raises(ValueError):
        niho_normalize(5, 1)


@given(st.integers(2, 8), st.data())
def test_normalize_roundtrip(m, data):
    s = data.draw(st.integers(1, (1 << m)))
    j = data.draw(st.integers(0, 2 * m - 1))
    mask = (1 << (2 * m)) - 1
    d = ((((1 << m) - 1) * s + 1) << j) % mask
    if d == 0:
        return
    exp = niho_normalize(d, m)
    assert exp.d == d % mask
    # shifting by m flips the coset representative s to 1 - s, so d only
    # pins s down to the pair {s, 1 - s} modulo 2^m + 1
    c = (1 << m) + 1
    assert exp.s % c in {s % c, (1 - s) % c}


def test_family_exponents_frozen():
    assert family_exponent("binomial3", 2) == 10
    assert family_exponent("binomial3", 3) == 22
    assert family_exponent("binomial4", 3) == 50
    assert family_exponent("binomial6", 4) == 46
    assert family_exponent("adelaide", 4) == 46
    assert family_exponent("adelaide", 2) == 4
    with pytest.raises(FamilyConditionError):
        family_exponent("binomial4", 4)  # needs odd m
    with pytest.raises(FamilyConditionError):
        family_exponent("binomial6", 3)  # needs even m


def test_fifth_power_frozen():
    fifth = {b for b in range(1, 16) if is_fifth_power(GF16.el(b))}
    assert fifth == {0x1, 0x6, 0x7}
    # oracle: direct definition
    direct = {(GF16.el(x) ** 5).bits for x in range(1, 16)}
    assert fifth == direct


def test_build_quadratic_terms():
    form = build_bent(FamilySpec("quadratic", 2, a=GF16.el(0x6)))
    assert form.to_json() == [{"subfield": 2, "coeff": "0x6",
                               "exponent": 5}]
    tt = form.truth_table()
    assert is_bent(tt) and anf_degree(tt) == 2


def test_build_binomial3_terms():
    form = build_bent(FamilySpec("binomial3", 2, b=GF16.el(0x2)))
    data = form.to_json()
    assert data == [{"subfield": 2, "coeff": "0x6", "exponent": 5},
                    {"subfield": 4, "coeff": "0x2", "exponent": 10}]


def test_build_leander_kholosha_terms():
    F = GF64
    a = next(F.el(x) for x in range(1 << 6)
             if (F.el(x) + F.el(x).frob(3)).bits == 1)
    form = build_bent(FamilySpec("leander_kholosha", 3, a=a, r=2))
    exps = {t.exponent: t.coeff.bits for t in form.terms}
    assert exps == {9: a.bits, 50: 1}
    assert is_bent(form.truth_table())


def test_leander_kholosha_all_valid_a_bent():
    F = GF64
    valid = [F.el(x) for x in range(1 << 6)
             if (F.el(x) + F.el(x).frob(3)).bits == 1]
    assert len(valid) == 8
    for a in valid:
        tt = build_bent(FamilySpec("leander_kholosha", 3, a=a, r=2))
        assert is_bent(tt.truth_table())


def test_family_condition_errors():
    with pytest.raises(FamilyConditionError) as e:
        build_bent(FamilySpec("quadratic", 2, a=GF16.zero))
    assert e.value.kind == "coefficient"
    with pytest.raises(FamilyConditionError):
        build_bent(FamilySpec("quadratic", 2, a=GF16.gen))  # not in GF(4)
    with pytest.raises(FamilyConditionError):
        build_bent(FamilySpec("binomial3", 2, b=GF16.zero))
    with pytest.raises(FamilyConditionError) as e:
        build_bent(FamilySpec("binomial3", 2, a=GF16.el(1), b=GF16.el(0x2)))
    assert e.value.kind == "a_mismatch"
    a_ok = next(GF16.el(x) for x in range(16)
                if (GF16.el(x) + GF16.el(x).frob(2)).bits == 1)
    with pytest.raises(FamilyConditionError) as e:
        build_bent(FamilySpec("leander_kholosha", 2, a=a_ok, r=2))
    assert e.value.kind == "lk_gcd"
    with pytest.raises(FamilyConditionError) as e:
        build_bent(FamilySpec("leander_kholosha", 2, a=GF16.el(1), r=3))
    assert e.value.kind == "a_constraint"
    with pytest.raises(ValueError):
        FamilySpec("no_such_family", 2)
    with pytest.raises(FamilyConditionError):
        FamilySpec("binomial3", 2, b=GF64.el(1))  # field degree mismatch


def test_strict_fifth_power_mode():
    b = GF16.el(0x2)  # not a fifth power
    with pytest.raises(FamilyConditionError) as e:
        build_bent(FamilySpec("binomial3", 2, b=b), strict=True)
    assert e.value.kind == "fifth_power"
    # non-strict builds it anyway and it is still bent
    tt = build_bent(FamilySpec("binomial3", 2, b=b)).truth_table()
    assert is_bent(tt)
    # fifth powers pass strict mode
    build_bent(FamilySpec("binomial3", 2, b=GF16.el(0x6)), strict=True)


def _lk_a(field, m):
    return next(field.el(x) for x in range(field.order)
                if (field.el(x) + field.el(x).frob(m)).bits == 1)


@pytest.mark.parametrize("spec", [
    FamilySpec("quadratic", 2, a=GF16.el(1)),
    FamilySpec("binomial4", 3, b=GF64.el(0x5)),
    FamilySpec("binomial6", 2, b=GF16.el(0x2)),
    FamilySpec("adelaide", 2, b=GF16.el(0x2)),
    FamilySpec("leander_kholosha", 3, a=_lk_a(GF64, 3), r=2),
], ids=lambda spec: spec.family)
def test_strict_is_refused_outside_binomial3(spec):
    with pytest.raises(FamilyConditionError, match="--strict") as e:
        build_bent(spec, strict=True)
    assert e.value.kind == "coefficient"
    # the member itself is valid: without strict it builds, and
    # family_report, which never passes strict, finds no problem
    assert is_bent(build_bent(spec).truth_table())
    rep = family_report(spec)
    assert rep.applicable and rep.problems == []


def test_family_spec_accepts_dash_name():
    spec = FamilySpec("leander-kholosha", 3,
                      a=GF64.el(next(x for x in range(64)
                                     if (GF64.el(x)
                                         + GF64.el(x).frob(3)).bits == 1)),
                      r=2)
    assert spec.family == "leander_kholosha"


def test_family_report_binomial3():
    rep = family_report(FamilySpec("binomial3", 2, b=GF16.el(0x2)))
    assert rep.d2 == 10 and rep.gcd_d2 == 5
    assert rep.expected_degree == 2 and rep.applicable
    assert rep.b_is_fifth_power is False
    rep2 = family_report(FamilySpec("binomial3", 3, b=GF64.el(0x5)))
    assert rep2.d2 == 22 and rep2.gcd_d2 == 1 and rep2.expected_degree == 3


def test_family_report_problems_not_raises():
    rep = family_report(FamilySpec("binomial4", 2, b=GF16.el(1)))
    assert not rep.applicable and rep.problems


@pytest.mark.parametrize("m,fams", [
    (2, ["quadratic", "binomial3", "binomial6", "adelaide"]),
    (3, ["quadratic", "binomial3", "binomial4"]),
])
def test_exhaustive_bentness_small(m, fams):
    F = GF(2 * m)
    for fam in fams:
        if fam == "quadratic":
            specs = [FamilySpec(fam, m, a=F.el(x))
                     for x in sorted(F.subfield_bits(m)) if x]
        else:
            specs = [FamilySpec(fam, m, b=F.el(x))
                     for x in range(1, 1 << (2 * m))]
        for spec in specs:
            tt = build_bent(spec).truth_table()
            assert is_bent(tt), (fam, m, spec.to_json())

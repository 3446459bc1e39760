"""Hyperoval catalog members and bent-to-catalog correspondences."""

import random
import re
from collections import Counter
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (circle_points, monomial, oracle_adelaide_f1_display,
                      oracle_adelaide_pair, oracle_blend, oracle_frobenius,
                      oracle_is_opoly, oracle_mul, oracle_subiaco1_explicit,
                      oracle_subiaco1_pair, oracle_subiaco2_explicit,
                      oracle_subiaco2_pair, oracle_subiaco3_explicit,
                      oracle_subiaco3_pair)
from nihobent import (GF, AdelaideParams, FamilySpec, FieldSpec,
                      InternalCheckError, MappingTable, SubiacoParams,
                      VerificationError,
                      adelaide_f1, adelaide_fs, adelaide_pair, anf_degree,
                      build_bent, correspond_adelaide, correspond_subiaco,
                      default_modulus, embed_subfield, frobenius_map,
                      has_affine_coset_restrictions, is_bent,
                      is_opolynomial, is_permutation, opoly_normalize,
                      subiaco_fs, subiaco_fs_explicit,
                      subiaco_pair, unit_circle, unit_circle_element)
from nihobent.bivariate import subiaco_shape
from nihobent.gf2 import is_irreducible
from nihobent import ovals
from nihobent.ovals import _verify_affine_match

GF4 = GF(2)
GF8 = GF(3)
GF16 = GF(4)
GF32 = GF(5)


def test_case_i_frozen_tables():
    p = SubiacoParams.case_i(GF8)
    f, g = subiaco_pair(p)
    assert f.to_json() == ["0x0", "0x1", "0x4", "0x5",
                           "0x6", "0x7", "0x2", "0x3"]
    assert g.to_json() == ["0x0", "0x1", "0x5", "0x6",
                           "0x7", "0x2", "0x3", "0x4"]


def test_case_parameter_validation():
    with pytest.raises(ValueError):
        SubiacoParams.case_i(GF4)  # needs odd m
    with pytest.raises(ValueError):
        SubiacoParams.case_ii(GF8)  # needs m = 2 (mod 4)
    with pytest.raises(ValueError):
        SubiacoParams.case_iii(GF16, GF16.zero)
    with pytest.raises(ValueError):
        SubiacoParams.case_iii(GF16, GF16.el(0x6))  # w^2 + w + 1 = 0
    # tr(1/w) must be 1
    bad = next(w for w in (GF16.el(x) for x in range(2, 16))
               if w.bits not in (0x6, 0x7)
               and w.inv().trace() == 0)
    with pytest.raises(ValueError):
        SubiacoParams.case_iii(GF16, bad)


def test_case_ii_w_options_frozen():
    opts = SubiacoParams.case_ii_w_options(GF4)
    assert [w.bits for w in opts] == [0x2, 0x3]
    for w in opts:
        assert (w * w + w + GF4.one).bits == 0


def test_case_ii_w_options_match_scan():
    for m in range(1, 13):
        field = GF(m)
        scan = [x for x in range(field.order)
                if oracle_mul(x, x, field.modulus, m) ^ x ^ 1 == 0]
        if not scan:
            with pytest.raises(ValueError, match="no cube roots of unity"):
                SubiacoParams.case_ii_w_options(field)
            continue
        opts = SubiacoParams.case_ii_w_options(field)
        assert [w.bits for w in opts] == scan
        if m % 4 == 2:
            assert SubiacoParams.case_ii(field).w == opts[0]


def test_case_iii_w_options_match_scan():
    # the conditions tested one point at a time in FieldElement arithmetic
    for m in range(1, 13):
        field = GF(m)
        scan = []
        for x in range(1, field.order):
            w = field.el(x)
            if (w * w + w + 1).bits and w.inv().trace() == 1:
                scan.append(w)
        assert SubiacoParams.case_iii_w_options(field) == scan


def test_case_ii_rejects_non_root():
    field = GF(6)
    for bits in (0x0, 0x1, 0x2):
        message = f"w = 0x{bits:x} does not satisfy w^2 + w + 1 = 0"
        with pytest.raises(ValueError, match=re.escape(message)):
            SubiacoParams.case_ii(field, bits)


@settings(max_examples=30)
@given(st.data())
def test_blends_match_pointwise_oracle(data):
    # every Subiaco case that exists at m, and Adelaide for even m
    m = data.draw(st.integers(2, 7))
    field = GF(m)
    s = field.el(data.draw(st.integers(0, field.order - 1)))
    params = []
    if m % 2:
        params.append(SubiacoParams.case_i(field))
    if m % 4 == 2:
        params.append(SubiacoParams.case_ii(field, data.draw(
            st.sampled_from(SubiacoParams.case_ii_w_options(field)))))
    w3 = SubiacoParams.case_iii_w_options(field)
    if w3:
        params.append(SubiacoParams.case_iii(field,
                                             data.draw(st.sampled_from(w3))))
    for p in params:
        f, g = subiaco_pair(p)
        assert list(subiaco_fs(p, s).entries) == \
            oracle_blend(field, f, g, p.e, s)
    if m % 2 == 0:
        big = GF(2 * m)
        beta = data.draw(st.sampled_from(
            circle_points(big)))
        p = AdelaideParams(beta, embed_subfield(field, big))
        f, g = adelaide_pair(p)
        assert list(adelaide_fs(p, s).entries) == \
            oracle_blend(field, f, g, p.e, s)


def test_case_iii_w_options_frozen():
    opts = SubiacoParams.case_iii_w_options(GF16)
    assert [w.bits for w in opts] == [0x2, 0x3, 0x4, 0x5,
                                      0x8, 0xA, 0xC, 0xF]


@pytest.mark.parametrize("field", [GF8, GF32])
def test_case_i_opolynomials(field):
    p = SubiacoParams.case_i(field)
    f, g = subiaco_pair(p)
    assert is_opolynomial(f) and is_opolynomial(g)
    assert is_opolynomial(f) == oracle_is_opoly(list(f.entries), field)
    for sbits in range(1 << field.degree):
        assert is_opolynomial(subiaco_fs(p, field.el(sbits)))


def test_case_ii_opolynomials():
    for w in SubiacoParams.case_ii_w_options(GF4):
        p = SubiacoParams.case_ii(GF4, w)
        f, g = subiaco_pair(p)
        assert is_opolynomial(f) and is_opolynomial(g)
        for sbits in range(4):
            assert is_opolynomial(subiaco_fs(p, GF4.el(sbits)))


def test_case_ii_blend_compares_no_field_specs():
    # the case-2 blend is a per-point FieldElement loop; field equality
    # is identity, so FieldSpec defines no value comparison or hash of
    # its own for any guard to reach
    assert "__eq__" not in vars(FieldSpec)
    assert "__hash__" not in vars(FieldSpec)
    field = GF(6)
    assert is_opolynomial(subiaco_fs(SubiacoParams.case_ii(field),
                                     field.el(5)))


def test_case_iii_opolynomials_sampled():
    for w in SubiacoParams.case_iii_w_options(GF16)[:3]:
        p = SubiacoParams.case_iii(GF16, w)
        f, g = subiaco_pair(p)
        assert is_opolynomial(f) and is_opolynomial(g)
        for sbits in (0, 1, 7):
            assert is_opolynomial(subiaco_fs(p, GF16.el(sbits)))


def test_blend_equals_shifted_explicit_case_iii():
    p = SubiacoParams.case_iii(GF16, GF16.el(0x2))
    for sbits in range(16):
        s = GF16.el(sbits)
        assert subiaco_fs_explicit(p, s) == subiaco_fs(p, s + GF16.one)


@settings(max_examples=30)
@given(st.data())
def test_case_iii_tables_match_scalar_oracles(data):
    # m = 2 is left out: GF(4) has no case-3 parameter w
    m = data.draw(st.sampled_from([3, 4, 5, 6, 7, 8]))
    field = GF(m)
    w = data.draw(st.sampled_from(SubiacoParams.case_iii_w_options(field)))
    s = field.el(data.draw(st.integers(0, field.order - 1)))
    p = SubiacoParams.case_iii(field, w)
    f, g = subiaco_pair(p)
    fe, ge = oracle_subiaco3_pair(field, w)
    assert list(f.entries) == fe and list(g.entries) == ge
    assert list(subiaco_fs_explicit(p, s).entries) == \
        oracle_subiaco3_explicit(field, w, p.e, s)
    assert list(subiaco_fs(p, s).entries) == oracle_blend(
        field, MappingTable(field, fe), MappingTable(field, ge), p.e, s)


@settings(max_examples=30)
@given(st.data())
def test_case_i_tables_match_scalar_oracles(data):
    m = data.draw(st.sampled_from([1, 3, 5, 7, 9]))
    field = GF(m)
    s = field.el(data.draw(st.integers(0, field.order - 1)))
    p = SubiacoParams.case_i(field)
    f, g = subiaco_pair(p)
    fe, ge = oracle_subiaco1_pair(field)
    assert list(f.entries) == fe and list(g.entries) == ge
    assert list(subiaco_fs_explicit(p, s).entries) == \
        oracle_subiaco1_explicit(field, s)
    assert list(subiaco_fs(p, s).entries) == oracle_blend(
        field, MappingTable(field, fe), MappingTable(field, ge), p.e, s)


@pytest.mark.parametrize("m", [2, 6, 10])
def test_case_ii_shape_rows_match_scalar_oracles(m):
    # the rows a whole-table case 2 would hand to subiaco_shape: pair
    # (1, w, w, 0) and (0, w, w, w^3) with root w^2, explicit form
    # a (1, w(s w + 1), w(s w + 1), s w) with root a (w^2 + s + s^(1/2)),
    # a = 1 / (1 + w s + s^(1/2)); every s at m <= 6, a sample at m = 10
    field = GF(m)
    x = np.arange(field.order)
    rng = random.Random(m)
    for w in SubiacoParams.case_ii_w_options(field):
        p = SubiacoParams.case_ii(field, w)
        wb = w.bits
        f, g = subiaco_pair(p)
        fe, ge = oracle_subiaco2_pair(field, w)
        assert list(f.entries) == fe == subiaco_shape(
            field, x, wb, [1, wb, wb, 0], (w * w).bits).tolist()
        assert list(g.entries) == ge == subiaco_shape(
            field, x, wb, [0, wb, wb, (w ** 3).bits], (w * w).bits).tolist()
        svals = range(field.order) if m <= 6 \
            else rng.sample(range(field.order), 3)
        for sb in svals:
            s = field.el(sb)
            a = (1 + w * s + s.sqrt()).inv()
            c = a * w * (s * w + 1)
            rows = [a.bits, c.bits, c.bits, (a * s * w).bits]
            assert list(subiaco_fs_explicit(p, s).entries) \
                == oracle_subiaco2_explicit(field, w, s) \
                == subiaco_shape(field, x, wb, rows, (
                    a * (w * w + s + s.sqrt())).bits).tolist(), sb


@pytest.mark.parametrize("s", [0x0, 0x1, 0x6])
def test_case_i_blend_rejects_swapped_explicit(monkeypatch, s):
    # negative control: an explicit form with two entries swapped must
    # fail the blend-versus-explicit check of every subiaco_fs call
    p = SubiacoParams.case_i(GF8)
    true_explicit = ovals.subiaco_fs_explicit

    def swapped(params, t):
        entries = list(true_explicit(params, t).entries)
        entries[2], entries[5] = entries[5], entries[2]
        return MappingTable(GF8, entries)
    monkeypatch.setattr(ovals, "subiaco_fs_explicit", swapped)
    with pytest.raises(InternalCheckError, match=re.escape(
            f"blend and explicit f_s disagree (case 1, s = 0x{s:x})")):
        subiaco_fs(p, GF8.el(s))


def test_blends_build_each_pair_once_per_params(monkeypatch):
    # the pair is kept on the params object: later blends reuse it, a
    # new params object builds its own
    calls = Counter()

    def counted(name):
        true_fn = getattr(ovals, name)

        def fn(*args):
            calls[name] += 1
            return true_fn(*args)
        monkeypatch.setattr(ovals, name, fn)
    counted("subiaco_shape")
    counted("_adelaide_points")
    p = SubiacoParams.case_i(GF8)
    first = subiaco_fs(p, GF8.el(3))
    assert calls["subiaco_shape"] == 3  # f, g and the explicit form
    assert subiaco_fs(p, GF8.el(3)) == first
    assert calls["subiaco_shape"] == 4  # the explicit form only
    assert subiaco_pair(p) is subiaco_pair(p)
    assert calls["subiaco_shape"] == 4
    subiaco_fs(SubiacoParams.case_i(GF8), GF8.el(3))
    assert calls["subiaco_shape"] == 7
    small, big = GF(4), GF(8)
    q = AdelaideParams(big.el(unit_circle(big)[5]), embed_subfield(small, big))
    first = adelaide_fs(q, small.el(6))
    assert calls["_adelaide_points"] == 1
    assert adelaide_fs(q, small.el(6)) == first
    assert adelaide_fs(q, small.el(7)) != first
    assert calls["_adelaide_points"] == 1
    assert adelaide_pair(q) is adelaide_pair(q)


def test_table_product_matches_schoolbook():
    # every pair of GF(2^4) elements, zeros on either side included
    field = GF16
    a, b = np.divmod(np.arange(256), 16)
    assert field.table_mul(a, b).tolist() == \
        [oracle_mul(x, y, field.modulus, 4) for x, y in zip(a, b)]


def test_table_inverse_rejects_zero():
    field = GF(5)
    inv = field.table_inv(np.arange(1, field.order))
    assert [oracle_mul(x, y, field.modulus, 5)
            for x, y in enumerate(inv.tolist(), 1)] == [1] * 31
    # the zero sentinel would read exp[n - 2n], the generator, instead
    # of failing
    with pytest.raises(InternalCheckError, match="division by zero at "
                       "x = 0x2"):
        field.table_inv(np.array([3, 7, 0, 5]))


def test_case_relations_at_w_one():
    # with w = 1 the third construction collapses onto the first
    p1 = SubiacoParams.case_i(GF8)
    p3 = SubiacoParams.case_iii(GF8, GF8.one)
    for sbits in range(8):
        s = GF8.el(sbits)
        assert subiaco_fs(p3, s) == subiaco_fs(p1, s + GF8.one)
        assert subiaco_fs_explicit(p3, s) == subiaco_fs_explicit(p1, s)


def test_adelaide_params_frozen():
    emb = embed_subfield(GF4, GF16)
    p = AdelaideParams(GF16.el(0x8), emb)
    assert p.l == 1
    assert p.trb.bits == 0x7 and p.trbl.bits == 0x7
    assert p.e.bits == 0x2
    f, g = adelaide_pair(p)
    assert f.to_json() == ["0x0", "0x1", "0x3", "0x2"]
    assert g.to_json() == ["0x0", "0x1", "0x3", "0x2"]


def test_adelaide_validation():
    emb = embed_subfield(GF4, GF16)
    with pytest.raises(ValueError):
        AdelaideParams(GF16.one, emb)  # beta = 1 excluded
    with pytest.raises(ValueError):
        AdelaideParams(GF16.gen, emb)  # not on the unit circle
    with pytest.raises(ValueError):
        AdelaideParams(GF8.el(2), emb)  # wrong field entirely
    with pytest.raises(ValueError):
        # m odd has no index-3 subgroup of the circle
        AdelaideParams(circle_points(GF(6))[0],
                       embed_subfield(GF8, GF(6)))


@pytest.mark.parametrize("m", [2, 4])
def test_adelaide_opolynomials(m):
    big, small = GF(2 * m), GF(m)
    emb = embed_subfield(small, big)
    betas = circle_points(big)
    for beta in betas:
        p = AdelaideParams(beta, emb)
        f, g = adelaide_pair(p)
        assert is_opolynomial(f) and is_opolynomial(g)
        for sbits in (0, 1, 2):
            assert is_opolynomial(adelaide_fs(p, small.el(sbits)))
        assert adelaide_f1(p) == adelaide_fs(p, small.one)


@settings(max_examples=30)
@given(st.data())
def test_adelaide_tables_match_scalar_oracles(data):
    m = data.draw(st.sampled_from([2, 4, 6, 8]))
    small, big = GF(m), GF(2 * m)
    beta = data.draw(st.sampled_from(
        circle_points(big)))
    s = small.el(data.draw(st.integers(0, small.order - 1)))
    p = AdelaideParams(beta, embed_subfield(small, big))
    f, g = adelaide_pair(p)
    fe, ge = oracle_adelaide_pair(p)
    assert list(f.entries) == fe and list(g.entries) == ge
    assert list(adelaide_fs(p, s).entries) == oracle_blend(
        small, MappingTable(small, fe), MappingTable(small, ge), p.e, s)
    assert list(adelaide_f1(p).entries) == oracle_adelaide_f1_display(p)


def test_adelaide_f1_rejects_swapped_member(monkeypatch):
    # negative control: f_1 with two entries swapped must fail the
    # display check at the first swapped point
    small, big = GF(4), GF(8)
    p = AdelaideParams(big.el(unit_circle(big)[5]), embed_subfield(small, big))
    true_fs = ovals.adelaide_fs
    for a, b in ((3, 9), (0, 15), (7, 8)):
        def swapped(params, s, a=a, b=b):
            entries = list(true_fs(params, s).entries)
            entries[a], entries[b] = entries[b], entries[a]
            return MappingTable(small, entries)
        monkeypatch.setattr(ovals, "adelaide_fs", swapped)
        with pytest.raises(InternalCheckError,
                           match=f"^f_1 display mismatch at x = 0x{a:x}$"):
            adelaide_f1(p)


def test_frobenius_gcd_rule():
    # z^(2^i) is an o-polynomial exactly when gcd(i, m) = 1; up to m = 6
    # the per-point oracles confirm the table and the verdict.  At most
    # 2^gcd(i, m) - 1 beta rows decide each map, so m = 16 takes ms
    for m in (1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 16):
        field = GF(m)
        for i in range(2 * m + 1):
            table = frobenius_map(field, i)
            want = gcd(i, m) == 1
            assert is_opolynomial(table) == want, (m, i)
            if m <= 6:
                assert list(table.entries) == oracle_frobenius(field, i)
                assert oracle_is_opoly(list(table.entries), field) == want


def test_affine_match_reports_first_mismatch():
    member = subiaco_pair(SubiacoParams.case_iii(GF16, GF16.el(0x2)))[1]
    c0, c1 = GF16.el(0x3), GF16.el(0x5)
    claimed = [c0.bits ^ GF16.mul_bits(c1.bits, e) for e in member.entries]
    assert _verify_affine_match(MappingTable(GF16, claimed), member,
                                c0, c1, "case") == 16
    for zs in ((5,), (7, 12), (0, 15)):
        wrong = list(claimed)
        for z in zs:
            wrong[z] ^= 1
        with pytest.raises(VerificationError,
                           match=f"^case: mismatch at z = 0x{zs[0]:x}$"):
            _verify_affine_match(MappingTable(GF16, wrong), member,
                                 c0, c1, "case")


def test_correspond_subiaco_frozen_m3():
    F = GF(6)
    c = correspond_subiaco(F.el(0x1))
    assert c.branch == "generic" and c.verified
    assert c.s.bits == 0x0 and c.catalog_case == 1
    assert c.points_checked == 8


def test_correspond_subiaco_m3_degenerate_census():
    F = GF(6)
    degenerate = []
    s_seen = set()
    for bbits in range(1, 64):
        c = correspond_subiaco(F.el(bbits))
        assert c.verified
        if c.branch == "degenerate_g":
            degenerate.append(bbits)
        else:
            s_seen.add(c.s.bits)
    assert len(degenerate) == 7
    assert s_seen == set(range(8))  # every blend parameter is attained


def test_correspond_subiaco_m2_retries():
    retried = {}
    s_seen = set()
    for bbits in range(1, 16):
        c = correspond_subiaco(GF16.el(bbits))
        assert c.verified and c.branch == "generic"
        if c.retried:
            retried[bbits] = list(c.retried)
        s_seen.add(c.s.bits)
    assert set(retried) == {0x3, 0x9, 0xA}
    assert s_seen == {0, 1, 2, 3}


def test_correspond_subiaco_m4_forces_b_one():
    F = GF(8)
    for u in circle_points(F)[:4]:
        c = correspond_subiaco(F.one, u=u)
        assert c.verified and c.catalog_case == 3
        assert c.s.bits == 1
    with pytest.raises(ValueError):
        correspond_subiaco(F.el(0x2))


def test_correspond_subiaco_explicit_u():
    F = GF(6)
    u = unit_circle_element(F, "cube")
    c = correspond_subiaco(F.el(0x7), u=u)
    assert c.verified and c.u == u


def test_correspond_adelaide():
    for m in (2, 4):
        big = GF(2 * m)
        for beta in circle_points(big):
            c = correspond_adelaide(beta)
            assert c.verified and c.family == "adelaide"
            assert c.points_checked == 1 << m


def test_correspondence_json_shape():
    c = correspond_subiaco(GF16.el(0x5))
    data = c.to_json()
    assert data["verified"] is True
    assert set(data) == {"branch", "s", "c0", "c1", "catalog", "u",
                         "retried", "verified", "points_checked"}
    assert data["catalog"]["family"] == "subiaco"


def _other_moduli(n):
    default = default_modulus(n)
    return [p for p in range((1 << n) | 1, 1 << (n + 1), 2)
            if p != default and is_irreducible(p)]


def _verdicts(family, b, beta):
    field = b.field
    m = field.degree // 2
    tt = build_bent(FamilySpec(family, m, b=b)).truth_table()
    corr = correspond_subiaco(b if m % 4 else field.one)
    out = [is_bent(tt), anf_degree(tt),
           has_affine_coset_restrictions(tt, field),
           is_opolynomial(corr.extracted), corr.verified]
    if m % 2 == 0:
        adel = correspond_adelaide(beta)
        out += [is_opolynomial(adel.extracted), adel.verified]
    return out


@settings(max_examples=15)
@given(st.integers(2, 5), st.data())
def test_verdicts_do_not_depend_on_the_modulus(m, data):
    """The same member, carried into GF(2^n) under a non-default modulus
    by the field isomorphism, gets the same verdicts."""
    base = GF(2 * m)
    other = GF(2 * m, data.draw(st.sampled_from(_other_moduli(2 * m))))
    iso = embed_subfield(base, other)
    family = data.draw(st.sampled_from(
        ["binomial3", "binomial4" if m % 2 else "binomial6"]))
    b = base.el(data.draw(st.integers(1, base.order - 1)))
    circle = [u for u in map(base.el, unit_circle(base))
               if not u.in_subfield(m)]
    beta = data.draw(st.sampled_from(circle))
    want = _verdicts(family, b, beta)
    assert want[0] and want[2] and all(want[3:])
    assert _verdicts(family, iso(b), iso(beta)) == want


def _carried(iso, t):
    """The table iso G iso^-1 of G carried into iso's target field."""
    image = np.asarray(iso.table)
    out = np.empty_like(image)
    out[image] = image[t.array()]
    return MappingTable(iso.big, out)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_opoly_verdicts_do_not_depend_on_the_modulus(m):
    """is_opolynomial reads G in the discrete-log order of the modulus'
    generator, so each table is carried into GF(2^m) under every other
    modulus by the field isomorphism and must keep its verdicts."""
    small = GF(m)
    rng = random.Random(m)
    tables = [frobenius_map(small, i) for i in range(2 * m + 1)]
    for d in rng.sample(range(small.order), min(small.order, 8)) + [2, 6]:
        tables.append(MappingTable(small, monomial(
            small, rng.randrange(1, small.order), d,
            rng.randrange(small.order))))
    s = small.el(rng.randrange(small.order))
    case = (SubiacoParams.case_i(small) if m % 2 else
            SubiacoParams.case_ii(small, SubiacoParams.case_ii_w_options(
                small)[0]) if m % 4 == 2 else
            SubiacoParams.case_iii(small, SubiacoParams.case_iii_w_options(
                small)[0]))
    members = [subiaco_pair(case)[1], subiaco_fs(case, s)]
    if m % 2 == 0:
        big = GF(2 * m)
        beta = rng.choice(circle_points(big))
        adel = AdelaideParams(beta, embed_subfield(small, big))
        members += [adelaide_pair(adel)[1], adelaide_fs(adel, s)]
    swapped = list(members[0].entries)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    tables += members + [MappingTable(small, swapped)]
    want = [(is_permutation(t), is_opolynomial(t)) for t in tables]
    assert all(w == (True, True) for w in want[-len(members) - 1:-1])
    assert want[-1] == (True, False)
    for modulus in _other_moduli(m):
        iso = embed_subfield(small, GF(m, modulus))
        got = [(is_permutation(c), is_opolynomial(c))
               for c in (_carried(iso, t) for t in tables)]
        assert got == want, (m, hex(modulus))


def _other_generator(field, data):
    """A primitive element other than the stored generator: g^j with
    gcd(j, 2^k - 1) = 1 and j > 1."""
    n = field.mult_order
    return int(field.exp_table[data.draw(st.sampled_from(
        [j for j in range(2, n) if gcd(j, n) == 1]))])


def _members_and_verdicts(small, big, choice):
    """Frobenius map, Subiaco g and f_s, and (m even) Adelaide g and f_s
    over the given fields, each with its permutation, o-polynomial and
    normalization results."""
    i, case, w, s, beta = choice
    params = (SubiacoParams.case_i(small) if case == 1 else
              SubiacoParams.case_ii(small, w) if case == 2 else
              SubiacoParams.case_iii(small, w))
    members = [frobenius_map(small, i), subiaco_pair(params)[1],
               subiaco_fs(params, s)]
    if beta is not None:
        adel = AdelaideParams(big.el(beta), embed_subfield(small, big))
        members += [adelaide_pair(adel)[1], adelaide_fs(adel, s)]
    out = []
    for t in members:
        norm = opoly_normalize(t).entries if t.entries[0] != t.entries[1] \
            else None
        out.append((t.entries, is_permutation(t), is_opolynomial(t), norm))
    return out


@settings(max_examples=20)
@given(st.integers(2, 6), st.data())
def test_verdicts_do_not_depend_on_the_generator(m, data):
    """Tables are bitmasks, so a non-default primitive generator must not
    change them; is_opolynomial reads G in the discrete-log order of the
    generator, which does change."""
    small, big = GF(m), GF(2 * m)
    other_small = GF(m, generator=_other_generator(small, data))
    other_big = GF(2 * m, generator=_other_generator(big, data))
    assert other_small != small
    assert (other_small.exp_table != small.exp_table).any()
    cases = [1] if m % 2 else [2] if m % 4 == 2 else []
    w3 = SubiacoParams.case_iii_w_options(small)
    cases += [3] if w3 else []
    case = data.draw(st.sampled_from(cases))
    w = (None if case == 1 else data.draw(st.sampled_from(
        SubiacoParams.case_ii_w_options(small) if case == 2 else w3)).bits)
    beta = None
    if m % 2 == 0:
        beta = data.draw(st.sampled_from(
            unit_circle(big)[1:].tolist()))
    choice = (data.draw(st.integers(0, 2 * m)), case, w,
              data.draw(st.integers(0, small.order - 1)), beta)
    want = _members_and_verdicts(small, big, choice)
    assert all(perm for _, perm, _, _ in want)
    assert all(opoly for _, _, opoly, _ in want[1:])
    assert _members_and_verdicts(other_small, other_big, choice) == want

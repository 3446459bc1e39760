"""Field arithmetic, embeddings and the unit circle."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (oracle_dual_basis, oracle_embedding_table,
                      oracle_exp_log, oracle_gram_rows, oracle_irreducible,
                      oracle_mul, oracle_mul_array, oracle_pow,
                      oracle_rel_trace, oracle_subfield_bits, oracle_trace,
                      oracle_trace_table)
from nihobent import (GF, Embedding, FieldMismatchError, default_modulus,
                      embed_subfield, linear_table, unit_circle,
                      unit_circle_element)

GF8 = GF(3, 0xB)
GF16 = GF(4)


def test_frozen_gf8_examples():
    assert (GF8.el(0x3) + GF8.el(0x5)).bits == 0x6
    assert (GF8.el(0x2) * GF8.el(0x2)).bits == 0x4
    assert (GF8.el(0x4) * GF8.el(0x2)).bits == 0x3
    assert GF8.el(0x2).inv().bits == 0x5
    assert (GF8.el(0x2) ** 7).bits == 0x1
    assert GF8.el(0x2).sqrt().bits == 0x6


def test_default_modulus_frozen():
    assert default_modulus(1) == 0x3
    assert default_modulus(3) == 0xB
    assert default_modulus(4) == 0x13
    assert default_modulus(8) == 0x11B


@pytest.mark.parametrize("k", range(1, 13))
def test_default_modulus_is_irreducible_and_minimal(k):
    mod = default_modulus(k)
    assert mod >> k == 1 and mod & 1
    assert oracle_irreducible(mod, k)
    for cand in range((1 << k) + 1, mod, 2):
        assert not oracle_irreducible(cand, k)


def test_pow_conventions():
    z = GF16.zero
    assert (z ** 0).bits == 1
    assert (z ** 3).bits == 0
    with pytest.raises(ZeroDivisionError):
        z ** -1
    with pytest.raises(ZeroDivisionError):
        z.inv()
    g = GF16.gen
    assert (g ** 15).bits == 1
    assert g ** -2 == (g ** 2).inv()


@given(st.integers(1, 10), st.data())
def test_mul_matches_oracle(k, data):
    F = GF(k)
    x = data.draw(st.integers(0, (1 << k) - 1))
    y = data.draw(st.integers(0, (1 << k) - 1))
    assert F.mul_bits(x, y) == oracle_mul(x, y, F.modulus, k)


@given(st.integers(1, 10), st.data())
def test_pow_and_trace_match_oracle(k, data):
    F = GF(k)
    x = data.draw(st.integers(0, (1 << k) - 1))
    e = data.draw(st.integers(1, 3 * (1 << k)))
    assert F.pow_bits(x, e) == oracle_pow(x, e, F.modulus, k)
    assert F.trace_bits(x) == oracle_trace(x, F.modulus, k)


@given(st.integers(1, 10), st.data())
def test_ring_axioms(k, data):
    F = GF(k)
    draw = lambda: F.el(data.draw(st.integers(0, (1 << k) - 1)))
    x, y, z = draw(), draw(), draw()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * F.one == x


@given(st.integers(1, 10), st.data())
def test_inverse_sqrt_frobenius(k, data):
    F = GF(k)
    x = F.el(data.draw(st.integers(1, (1 << k) - 1)))
    assert x * x.inv() == F.one
    assert x.sqrt() * x.sqrt() == x
    y = F.el(data.draw(st.integers(0, (1 << k) - 1)))
    assert (x + y).frob(1) == x.frob(1) + y.frob(1)
    assert x.frob(k) == x


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 8])
def test_trace_balanced(k):
    F = GF(k)
    ones = sum(F.trace_bits(x) for x in range(1 << k))
    assert ones == 1 << (k - 1)


@pytest.mark.parametrize("k,r", [(4, 2), (6, 3), (6, 2), (8, 4)])
def test_relative_trace_lands_in_subfield(k, r):
    F = GF(k)
    sub = F.subfield_bits(r)
    for x in range(1 << k):
        t = F.rel_trace_bits(x, r)
        assert t in sub
    # transitivity with the absolute trace
    S = GF(r)
    emb = embed_subfield(S, F)
    for x in range(1 << k):
        small = emb.project(F.el(F.rel_trace_bits(x, r)))
        assert S.trace_bits(small.bits) == F.trace_bits(x)


@given(st.integers(0, (1 << 20) - 1))
def test_rel_trace_matches_oracle(x):
    # every subfield degree r | k for k <= 12, and the largest fields
    for k in [*range(1, 13), 17, 18, 19, 20]:
        F = GF(k)
        y = x & (F.order - 1)
        for r in range(1, k + 1):
            if k % r == 0:
                assert F.rel_trace_bits(y, r) == \
                    oracle_rel_trace(y, r, F.modulus, k)


def test_generator_has_full_order():
    for k in (1, 2, 3, 4, 6, 8, 11):
        F = GF(k)
        order = (1 << k) - 1
        seen = set()
        x = 1
        for _ in range(order):
            x = F.mul_bits(x, F.generator)
            seen.add(x)
        assert len(seen) == order and x == 1


def test_dual_basis_property():
    for k in range(1, 21):
        F = GF(k)
        assert F.gram_rows() == oracle_gram_rows(F)
        dual = F.dual_basis_bits()
        assert dual == oracle_dual_basis(F)
        for i in range(k):
            for j in range(k):
                t = F.trace_bits(F.mul_bits(1 << i, dual[j]))
                assert t == (1 if i == j else 0)


def test_large_degree_fallback_path():
    # above degree 16 scalar ops index memoryviews of the exp/log arrays
    # instead of lists; both the table path and _mul_raw, the shift-xor
    # primitive that builds the tables, must match the schoolbook oracle
    x, y = 0x1abcd, 0x0f0f1
    for k in range(17, 21):
        F = GF(k)
        assert F.mul_bits(x, y) == oracle_mul(x, y, F.modulus, k)
        assert F._mul_raw(x, y) == oracle_mul(x, y, F.modulus, k)
        assert F.mul_bits(F.inv_bits(x), x) == 1
        s = F.sqrt_bits(x)
        assert F.mul_bits(s, s) == x


def test_degree_cap():
    for k in (0, 21):
        with pytest.raises(ValueError, match="field degree must be in "
                                             "1..20"):
            GF(k)


def test_linear_table_int_and_array_images():
    assert linear_table([0x3, 0x5]).tolist() == [0, 0x3, 0x5, 0x6]
    cols = linear_table([[1, 0, 1], [1, 1, 0]])
    assert cols.shape == (4, 3)
    assert cols.tolist() == [[0, 0, 0], [1, 0, 1], [1, 1, 0], [0, 1, 1]]


@pytest.mark.parametrize("k", range(1, 21))
def test_table_kernels_match_oracles(k):
    F = GF(k)
    if k > 16:
        _check_large_tables(F)
        return
    exp, log = oracle_exp_log(F)
    assert F.exp_table.tolist() == exp and F._exp == exp
    assert F.log_table.tolist() == log and F._log == log
    for c in (F.generator, 1 << (k - 1), F.order - 1):
        assert F.mul_table(c).tolist() == \
            [oracle_mul(c, x, F.modulus, k) for x in range(F.order)]
    for r in (d for d in range(1, k + 1) if k % d == 0):
        assert F.subfield_bits(r) == oracle_subfield_bits(F, r)
        assert F.subfield_trace_table(r).tolist() == oracle_trace_table(F, r)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 13, 16, 20])
def test_sqrt_table_squares_back(k):
    # squaring every entry by schoolbook products gives every x back
    F = GF(k)
    tab = F.sqrt_table()
    assert np.array_equal(oracle_mul_array(tab, tab, F.modulus, k),
                          np.arange(F.order))
    assert F.sqrt_table() is tab and not tab.flags.writeable


def _check_large_tables(F):
    """The per-point oracles are too slow above degree 16: the exp/log
    pair is checked whole by vectorized schoolbook products, the derived
    tables on every point that the cost allows and a sample beyond."""
    k, mod = F.degree, F.modulus
    exp, log = F.exp_table, F.log_table
    # exp[0] = 1 and exp[j + 1] = exp[j] g (cyclically) give exp[j] = g^j;
    # log[exp[j]] = j then makes exp a permutation of the nonzero elements
    assert exp[0] == 1 and log[0] == -1
    assert np.array_equal(oracle_mul_array(exp, F.generator, mod, k),
                          np.roll(exp, -1))
    assert np.array_equal(log[exp], np.arange(F.mult_order))
    # scalar ops index zero-copy views, not list copies
    assert np.shares_memory(np.asarray(F._exp), exp)
    assert np.shares_memory(np.asarray(F._log), log)
    points = np.arange(F.order)
    for c in (F.generator, 1 << (k - 1), F.order - 1):
        assert np.array_equal(F.mul_table(c),
                              oracle_mul_array(points, c, mod, k))
    rng = random.Random(k)
    sample = np.array([1 << i for i in range(k)]
                      + rng.sample(range(F.order), 256))
    for r in (d for d in range(1, k + 1) if k % d == 0):
        # 2^r distinct sorted roots of x^(2^r) = x are the whole subfield;
        # every root is checked up to 2^10 of them, a stride sample above
        sub = np.array(F.subfield_bits(r))
        assert len(sub) == 1 << r and (np.diff(sub) > 0).all()
        roots = sub[::max(1, len(sub) >> 10)]
        y = roots
        for _ in range(r):
            y = oracle_mul_array(y, y, mod, k)
        assert np.array_equal(y, roots)
        acc = t = sample
        for _ in range(r - 1):
            t = oracle_mul_array(t, t, mod, k)
            acc = acc ^ t
        assert np.array_equal(F.subfield_trace_table(r)[sample], acc)


@pytest.mark.parametrize("k", [4, 5])
def test_table_pow_matches_oracle(k):
    # every entry, zeros included (0**0 = 1), against schoolbook powers
    F = GF(k)
    q, mod = F.order, F.modulus
    x = np.arange(q)
    for e in (0, 1, 2, 3, q - 2, q - 1, q, 1 << k, 5 * q + 3):
        assert F.table_pow(x, e).tolist() == \
            [oracle_pow(v, e, mod, k) for v in range(q)], e
    # an array of exponents on one base, as the coset test uses it
    es = np.arange(3 * q)
    assert F.table_pow(F.generator, es).tolist() == \
        [oracle_pow(F.generator, e, mod, k) for e in es.tolist()]
    assert F.table_pow(0, es).tolist() == [1] + [0] * (3 * q - 1)
    with pytest.raises(ValueError, match="e >= 0"):
        F.table_pow(x, -1)


def test_table_mul_scalar_operand():
    x = np.arange(GF16.order)
    for c in (0, 1, 0x7, 0xD):
        want = [oracle_mul(c, v, GF16.modulus, 4) for v in range(16)]
        assert GF16.table_mul(c, x).tolist() == want
        assert GF16.table_mul(x, c).tolist() == want
    assert int(GF16.table_mul(0x7, 0xD)) == oracle_mul(0x7, 0xD,
                                                       GF16.modulus, 4)


@pytest.mark.parametrize("r,k", [(1, 1), (1, 4), (2, 4), (3, 6), (4, 8),
                                 (3, 9), (5, 10), (6, 12), (5, 15), (8, 16),
                                 (9, 18), (10, 20)])
def test_project_table_round_trip(r, k):
    S, B = GF(r), GF(k)
    emb = embed_subfield(S, B)
    table = np.asarray(emb.table)
    assert emb.project_table(table).tolist() == list(range(S.order))
    sub = np.array(B.subfield_bits(r))
    rng = np.random.default_rng(r * 100 + k)
    ys = rng.choice(sub, size=(3, 50))
    assert np.array_equal(table[emb.project_table(ys)], ys)
    assert all(emb.project(B.el(int(y))).bits == int(i) for y, i in
               zip(ys[0], emb.project_table(ys[0])))
    # negative control: the first value outside the image is named
    outside = [y for y in (B.generator, B.order - 1, 0x3) if y not in
               set(sub.tolist()) and y < B.order] + [B.order]
    bad = np.array([table[1], *outside, 0])
    with pytest.raises(ValueError, match=f"^0x{outside[0]:x} is outside "
                       f"the embedded subfield$"):
        emb.project_table(bad)
    assert not any(emb.contains(B.el(y)) for y in outside[:-1])


@pytest.mark.parametrize("r,k", [(1, 1), (1, 4), (2, 2), (2, 4), (3, 6),
                                 (2, 8), (4, 8), (3, 9), (5, 10), (4, 12),
                                 (6, 12), (7, 14), (5, 15), (8, 16)])
def test_embedding_matches_oracle(r, k):
    S, B = GF(r), GF(k)
    assert embed_subfield(S, B).table == oracle_embedding_table(S, B)


def test_embedding_frozen_table():
    emb = embed_subfield(GF(2), GF16)
    assert [emb(GF(2).el(x)).bits for x in range(4)] == [0, 1, 0x6, 0x7]


def test_embedding_is_field_homomorphism():
    for small_k, big_k in ((2, 4), (3, 6), (2, 6), (4, 8)):
        S, B = GF(small_k), GF(big_k)
        emb = embed_subfield(S, B)
        for xb in range(1 << small_k):
            for yb in range(1 << small_k):
                x, y = S.el(xb), S.el(yb)
                assert emb(x + y) == emb(x) + emb(y)
                assert emb(x * y) == emb(x) * emb(y)
                assert emb.project(emb(x)) == x
        assert emb.contains(emb(S.gen))
        assert not emb.contains(B.gen) or big_k == small_k


def test_embedding_rejects_bad_degrees():
    with pytest.raises(ValueError):
        embed_subfield(GF(3), GF(4))


def test_unit_circle_frozen_m2():
    circ = unit_circle(GF16)
    assert sorted(c.bits for c in circ) == [0x1, 0x8, 0xA, 0xC, 0xF]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_unit_circle_properties(m):
    F = GF(2 * m)
    circ = unit_circle(F)
    assert len(circ) == (1 << m) + 1
    for c in circ:
        assert (c ** ((1 << m) + 1)).bits == 1


def test_unit_circle_element_selectors():
    # m = 2: fifth roots exist, cube roots do not
    u = unit_circle_element(GF16, "fifth:1")
    assert u.bits == 0x8
    assert (u ** 5).bits == 1
    with pytest.raises(ValueError):
        unit_circle_element(GF16, "cube")
    # m = 3: cube roots exist, fifth roots do not
    F64 = GF(6)
    c = unit_circle_element(F64, "cube")
    assert (c ** 3).bits == 1 and c.bits != 1
    with pytest.raises(ValueError):
        unit_circle_element(F64, "fifth:1")
    g = unit_circle_element(F64, "general:2")
    assert (g ** ((1 << 3) + 1)).bits == 1
    # general:I is the I-th element of the circle with 1 removed
    rest = [x for x in unit_circle(F64) if x.bits != 1]
    assert [unit_circle_element(F64, f"general:{i}")
            for i in range(len(rest))] == rest
    with pytest.raises(ValueError):
        unit_circle_element(F64, f"general:{len(rest)}")
    with pytest.raises(ValueError):
        unit_circle_element(GF16, "nonsense")


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        GF8.el(1) + GF16.el(1)
    with pytest.raises(FieldMismatchError):
        GF(3, 0xB).el(2) * GF(3, 0xD).el(2)


def test_int_coercion_and_hex_str():
    x = GF16.el(0xA)
    assert x + 0x3 == GF16.el(0x9)
    assert x == 0xA
    assert str(x) == "0xa"


def test_gf_cache_and_eq():
    assert GF(4) is GF(4, 0x13)
    assert GF(4) == GF(4, 0x13)
    assert GF(3, 0xB) != GF(3, 0xD)

"""Field arithmetic, embeddings and the unit circle."""

import itertools
import operator
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (oracle_dual_basis, oracle_embedding_table,
                      oracle_exp_log, oracle_frobenius, oracle_gram_rows,
                      oracle_irreducible, oracle_mul, oracle_mul_array,
                      oracle_pairing, oracle_pow, oracle_rel_trace,
                      oracle_subfield_bits, oracle_trace, oracle_trace_table)
from nihobent import (GF, Embedding, FieldMismatchError, FieldSpec,
                      InternalCheckError, default_modulus, embed_subfield,
                      half_embedding, linear_table, on_unit_circle,
                      unit_circle, unit_circle_element)
from nihobent.gf2 import parse_hex, parse_hex_list

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
        assert F.gram_rows().tolist() == oracle_gram_rows(F)
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
    # scalar ops index zero-copy views of the arrays, at every degree
    assert np.shares_memory(np.asarray(F._exp), F.exp_table)
    assert np.shares_memory(np.asarray(F._log), F.log_table)
    if k > 16:
        _check_large_tables(F)
        return
    exp, log = oracle_exp_log(F)
    # exp is stored as [exp, exp, 0]; log[0] is the sentinel 2(q - 1)
    # that indexes the trailing 0, and every nonzero log is compared
    assert F.exp_table.tolist() == exp
    assert F._exp.tolist() == exp + exp + [0]
    assert F.log_table[1:].tolist() == log[1:] == F._log.tolist()[1:]
    assert F.log_table[0] == F._log[0] == 2 * F.mult_order
    for c in (F.generator, 1 << (k - 1), F.order - 1):
        assert F.table_mul(c, np.arange(F.order)).tolist() == \
            [oracle_mul(c, x, F.modulus, k) for x in range(F.order)]
    for r in (d for d in range(1, k + 1) if k % d == 0):
        assert F.subfield_bits(r).tolist() == oracle_subfield_bits(F, r)
        assert F.subfield_trace_table(r).tolist() == oracle_trace_table(F, r)


@pytest.mark.parametrize("k", range(1, 7))
def test_table_mul_all_pairs_match_oracle(k):
    # all q^2 products, zero operands included, also through mul_bits
    F = GF(k)
    x = np.arange(F.order)
    prod = F.table_mul(x[:, None], x)
    assert np.array_equal(prod,
                          oracle_mul_array(x[:, None], x, F.modulus, k))
    assert prod.tolist() == [[F.mul_bits(a, b) for b in range(F.order)]
                             for a in range(F.order)]


@pytest.mark.parametrize("k", range(1, 21))
def test_table_mul_sentinel_boundaries(k):
    # the largest log sum of two nonzero entries, 2(q - 2), reads the
    # last entry of the second exp copy; a zero factor lands on or past
    # the sentinel and must read 0
    F = GF(k)
    top = int(F.exp_table[-1])
    pairs = np.array([(0, 0), (0, top), (top, 0), (top, top)])
    got = F.table_mul(pairs[:, 0], pairs[:, 1])
    assert got.tolist() == [oracle_mul(a, b, F.modulus, k)
                            for a, b in pairs.tolist()]
    assert got.tolist() == [F.mul_bits(a, b) for a, b in pairs.tolist()]


@pytest.mark.parametrize("k", range(1, 17))
def test_table_inv_matches_oracle(k):
    F = GF(k)
    x = np.arange(1, F.order)
    inv = F.table_inv(x)
    assert (oracle_mul_array(x, inv, F.modulus, k) == 1).all()
    sample = x[::max(1, len(x) >> 8)].tolist()
    assert [F.inv_bits(v) for v in sample] == \
        inv[np.array(sample) - 1].tolist()
    with pytest.raises(ZeroDivisionError):
        F.inv_bits(0)
    # a zero entry, or a scalar zero, raises and names its position
    bad = np.concatenate([x, [0, 0]])
    with pytest.raises(InternalCheckError,
                       match=f"division by zero at x = 0x{len(x):x}$"):
        F.table_inv(bad)
    with pytest.raises(InternalCheckError, match="at x = 0x0$"):
        F.table_inv(0)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 13, 16, 20])
def test_sqrt_table_squares_back(k):
    # squaring every entry by schoolbook products gives every x back
    F = GF(k)
    tab = F.sqrt_table()
    assert np.array_equal(oracle_mul_array(tab, tab, F.modulus, k),
                          np.arange(F.order))
    assert F.sqrt_table() is tab and not tab.flags.writeable


def test_cached_tables_are_read_only():
    # a write into a shared table would corrupt every later caller (the
    # Walsh reindex reads pairing_table), so each one refuses it; a fresh
    # spec keeps a failure here from leaking into the GF() cache
    F = FieldSpec(6)
    tables = {"exp": F.exp_table, "cycle": F.exp_cycle, "log": F.log_table,
              "pairing": F.pairing_table(), "dual": F.dual_table(),
              "trace": F.subfield_trace_table(3), "sqrt": F.sqrt_table(),
              "hex": F.hex_names(), "windows": F.exp_windows()}
    for name, tab in tables.items():
        with pytest.raises(ValueError, match="read-only"):
            tab[1] = tab[0]
    assert F._exp.readonly and F._log.readonly
    assert F.pairing_table() is tables["pairing"]
    # the subfield list, the Gram rows, every Frobenius table and the
    # embedding table are read-only arrays too
    given = [F.subfield_bits(3), F.gram_rows(), F.frob_table(1),
             F.frob_table(3), embed_subfield(GF(3), GF(6)).table]
    for tab in given:
        assert tab.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            tab[1] = tab[0]


def test_writes_into_shared_tables_leave_later_callers_intact():
    # a reversed subfield list made the next Embedding raise "embedding
    # image is not the subfield", and an appended Gram row made the next
    # gram_rows() return k + 1 rows: every such write now raises
    F, S = FieldSpec(6), GF(3)
    sub, rows = F.subfield_bits(3), F.gram_rows()
    with pytest.raises(ValueError, match="read-only"):
        sub[:] = sub[::-1]
    with pytest.raises(ValueError, match="read-only"):
        rows[0] ^= 1
    with pytest.raises(ValueError, match="read-only"):
        F.frob_table(1)[2] = 0
    with pytest.raises(ValueError, match="read-only"):
        Embedding(S, F).table[1] = 0
    emb = Embedding(S, F)
    assert emb.table.tolist() == oracle_embedding_table(S, F)
    assert F.gram_rows().tolist() == oracle_gram_rows(F)
    assert F.pairing_table().tolist() == oracle_pairing(F)
    # the element an Embedding hands out holds a Python int
    assert type(emb(S.el(5)).bits) is int


@pytest.mark.parametrize("k", [1, 2, 3, 6, 8])
def test_frob_table_matches_oracle(k):
    F = GF(k)
    for i in range(k + 2):
        assert F.frob_table(i).tolist() == oracle_frobenius(F, i)
        assert F.frob_table(i) is F.frob_table(i)
    assert F.sqrt_table() is F.frob_table(k - 1)


def test_embedding_checks_fire(monkeypatch):
    # each self-check of Embedding raises its message when its relation
    # is broken; fresh specs keep the faults out of the GF() cache
    S, B = FieldSpec(3), FieldSpec(6)
    assert Embedding(S, B).table.tolist() == oracle_embedding_table(S, B)
    # a root of the reciprocal modulus X^3 + X^2 + 1 is a wrong root for
    # S, whose arithmetic is modulo X^3 + X + 1
    with monkeypatch.context() as mp:
        mp.setattr(S, "modulus", 0b1101)
        with pytest.raises(AssertionError,
                           match="embedding is not multiplicative"):
            Embedding(S, B)
    # a subfield list with its largest element swapped for an element
    # outside GF(2^3)
    sub = B.subfield_bits(3)
    fake = np.append(sub[:-1], B.generator)
    with monkeypatch.context() as mp:
        mp.setitem(B._derived, ("subfield_bits", 3), fake)
        with pytest.raises(AssertionError,
                           match="embedding image is not the subfield"):
            Embedding(S, B)
    assert Embedding(S, B).table.tolist() == oracle_embedding_table(S, B)


def test_dual_table_checks_fire(monkeypatch):
    # the identity is a bijective pairing table, but the polynomial basis
    # of GF(2^4) is not self-dual; a repeated Gram row is degenerate
    with monkeypatch.context() as mp:
        mp.setattr(FieldSpec, "pairing_table",
                   lambda self: np.arange(self.order))
        with pytest.raises(AssertionError,
                           match="dual basis verification failed"):
            FieldSpec(4).dual_table()
    with monkeypatch.context() as mp:
        mp.setattr(FieldSpec, "pairing_table",
                   lambda self: linear_table([1] * self.degree))
        with pytest.raises(AssertionError,
                           match="trace form is non-degenerate"):
            FieldSpec(4).dual_table()
    F = FieldSpec(4)
    assert F.dual_basis_bits() == oracle_dual_basis(F)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_exp_windows_are_one_view_of_exp_cycle(k):
    # row b is g^(b + j) for j < n, read out of exp_cycle with no copy,
    # and every call returns the same view
    F = GF(k)
    n = F.mult_order
    win = F.exp_windows()
    b, j = np.indices((n, n))
    assert np.array_equal(win, F.exp_table[(b + j) % n])
    assert np.shares_memory(win, F.exp_cycle)
    assert F.exp_windows() is win


def _check_large_tables(F):
    """The per-point oracles are too slow above degree 16: the exp/log
    pair is checked whole by vectorized schoolbook products, the derived
    tables on every point that the cost allows and a sample beyond."""
    k, mod = F.degree, F.modulus
    exp, log = F.exp_table, F.log_table
    # exp[0] = 1 and exp[j + 1] = exp[j] g (cyclically) give exp[j] = g^j;
    # log[exp[j]] = j then makes exp a permutation of the nonzero elements
    assert exp[0] == 1 and log[0] == 2 * F.mult_order
    assert np.array_equal(np.asarray(F._exp), np.concatenate([exp, exp, [0]]))
    assert np.array_equal(oracle_mul_array(exp, F.generator, mod, k),
                          np.roll(exp, -1))
    assert np.array_equal(log[exp], np.arange(F.mult_order))
    points = np.arange(F.order)
    for c in (F.generator, 1 << (k - 1), F.order - 1):
        assert np.array_equal(F.table_mul(c, points),
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
    assert embed_subfield(S, B).table.tolist() == \
        oracle_embedding_table(S, B)


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
    with pytest.raises(FieldMismatchError):
        GF(3, 0xB).el(2) / GF(3, 0xD).el(2)
    assert GF(3, 0xB).el(2) != GF(3, 0xD).el(2)
    # field equality is identity: a spec built outside GF() is a field of
    # its own, even where it prints like GF16, and the error says why
    twin = FieldSpec(4, 0x13)
    assert repr(twin) == repr(GF16)
    assert twin is not GF16 and twin != GF16 and not twin == GF16
    a, b = twin.el(0x6), GF16.el(0xB)
    for op in (operator.add, operator.mul, operator.truediv):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(FieldMismatchError,
                               match="two objects for one field"):
                op(x, y)
    assert a != GF16.el(0x6) and GF16.el(0x6) != a
    # a mismatch between two different fields names both
    with pytest.raises(FieldMismatchError, match="cannot combine"):
        GF8.el(1) + GF16.el(1)


def test_hash_agrees_with_eq():
    x = GF16.el(10)
    assert x == 10 and hash(x) == hash(10)
    assert 10 in {x} and x in {10}
    assert {x: "e"}[10] == "e" and {10: "i"}[x] == "i"
    # an element of a directly built spec is not GF16's element
    assert FieldSpec(4, 0x13).el(10) not in {x}
    # negative control: equal bits in different fields stay distinct
    y, z = GF(3, 0xB).el(5), GF(3, 0xD).el(5)
    assert len({y, z}) == 2 and y not in {z}
    assert len({GF8.el(5), GF16.el(5)}) == 2
    # a spec hashes by identity, and every spelling of GF(4, ...) is one
    # object
    spellings = {GF(4), GF(4, 0x13), GF(4, None, 0x2), GF(4, 0x13, 0x2)}
    assert spellings == {GF16} and len({GF16, FieldSpec(4)}) == 2


def test_int_coercion_and_hex_str():
    x = GF16.el(0xA)
    assert x + 0x3 == GF16.el(0x9)
    assert x == 0xA
    assert str(x) == "0xa"


def test_gf_cache_and_eq():
    assert GF(4) is GF(4, 0x13)
    assert GF(4) == GF(4, 0x13)
    assert GF(3, 0xB) != GF(3, 0xD)


@pytest.mark.parametrize("m", range(1, 7))
def test_on_unit_circle_matches_the_per_branch_conditions(m):
    # on_unit_circle replaced five hand-written checks; on every element
    # of GF(2^(2m)) it must agree with each of them, extra conditions kept
    big = GF(2 * m)
    c = (1 << m) + 1
    on = [on_unit_circle(x) for x in map(big.el, range(big.order))]
    for x, on_x in zip(map(big.el, range(big.order)), on):
        norm_one = (x ** c).bits == 1
        # general u and unit_circle_element: outside GF(2^m)
        assert on_x == (norm_one and not x.in_subfield(m))
        # Adelaide beta and the old cube test: different from 1
        assert on_x == (norm_one and x.bits != 1)
        if m % 2:
            # the cube roots of unity lie on the circle for odd m
            cube = (x ** 3).bits == 1
            assert (on_x and cube) == (cube and x.bits != 1)
        if m % 4 == 2:
            # the fifth roots lie on it for m = 2 (mod 4)
            fifth = (x ** 5).bits == 1
            assert (on_x and fifth) == (fifth and not x.in_subfield(m))
    # the circle has 2^m + 1 points, 1 among them
    assert sum(on) == c - 1
    with pytest.raises(ValueError, match="even degree"):
        on_unit_circle(GF(2 * m + 1).gen)


def test_half_embedding_is_the_cached_half_degree_embedding():
    for m in (1, 2, 3, 4):
        big = GF(2 * m)
        emb = half_embedding(big)
        assert emb is embed_subfield(GF(m), big) is half_embedding(big)
        assert emb.small is GF(m) and emb.big is big
        emb.check_half_of(big)
    for n in (1, 3, 5):
        with pytest.raises(ValueError, match="even degree n = 2m"):
            half_embedding(GF(n))
    # negative controls for the check: another target object, even one
    # that prints alike, another field of the degree, another subfield
    big = GF(8)
    for emb, target in ((half_embedding(big), FieldSpec(8)),
                        (half_embedding(GF(8, 0x11d)), big),
                        (embed_subfield(GF(2), big), big),
                        (embed_subfield(GF(4), GF(16)), GF(16))):
        with pytest.raises(ValueError, match="half-degree"):
            emb.check_half_of(target)
    # the embedding's own guards tell a twin spec apart from a field
    emb = half_embedding(big)
    for call, twin in ((emb, FieldSpec(4)), (emb.project, FieldSpec(8))):
        with pytest.raises(FieldMismatchError,
                           match="two objects for one field"):
            call(twin.one)
    assert not emb.contains(FieldSpec(8).one) and emb.contains(big.one)


@pytest.mark.parametrize("text", [
    "1_0", "0x1_0", " +10", "+10", "-1", "0x-1", "0x", "", " 1", "1 ",
    "1f\n", "0o1", "g", "0xg", "\uff11", "\u0661", "0x\uff11"])
def test_parse_hex_rejects_all_but_hex_digits(text):
    # int(text, 16) reads "1_0" and " +10" as 0x10, and takes non-ASCII
    # digits; the parser takes only 0x/0X and ASCII hex digits
    with pytest.raises(ValueError, match="expected a hex bitmask"):
        parse_hex(text)
    with pytest.raises(ValueError, match=f"got {re.escape(repr(text))}$"):
        parse_hex_list(["0x0", "1", text, "0x2"])


def test_parse_hex_accepts_both_prefixes_and_none():
    assert parse_hex("0x1f") == parse_hex("0X1F") == parse_hex("1f") == 31
    assert parse_hex("0") == parse_hex("0x0") == 0
    assert parse_hex_list(["0x0", "A", "0Xb", "00ff"]) == [0, 10, 11, 255]
    assert parse_hex_list([]) == []
    # the list is matched joined by commas: an entry holding the
    # separator joins like two entries, and int() refuses it
    for bad in ("0x1,0x2", "1,", ","):
        with pytest.raises(ValueError, match=f"got '{bad}'$"):
            parse_hex_list(["0x0", bad, "0x3"])


def test_parse_hex_is_exactly_the_hex_grammar():
    # every string of up to 4 characters over hex digits, x, X and the
    # characters int() also takes: parse_hex accepts exactly the
    # spellings 0x/0X then hex digits, and reads them as int() does
    alphabet = "01fFxX_+ ,"
    for k in range(5):
        for chars in itertools.product(alphabet, repeat=k):
            text = "".join(chars)
            if re.fullmatch("(0[xX])?[0-9a-fA-F]+", text):
                assert parse_hex(text) == int(text, 16)
                assert parse_hex_list([text, text]) == [int(text, 16)] * 2
            else:
                with pytest.raises(ValueError, match="hex bitmask"):
                    parse_hex(text)


@pytest.mark.parametrize("selector", [
    "general:1_0", "general: 1", "general:1 ", "general:+1", "general:",
    "general:\u0661", "general:0x1", "fifth:+1", "fifth:0_1",
    "fifth:\uff11"])
def test_selector_indices_take_ascii_digits_only(selector):
    big = GF(8) if selector.startswith("general") else GF(4)
    with pytest.raises(ValueError, match="bad (general|fifth) index"):
        unit_circle_element(big, selector)
    # the same index written plainly is accepted
    assert on_unit_circle(unit_circle_element(
        big, "general:10" if selector.startswith("general") else "fifth:1"))

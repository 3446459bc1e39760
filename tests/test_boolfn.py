"""Truth tables, trace forms, Walsh spectra, ANF."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (bent_or_mutated, oracle_anf, oracle_coset_affine,
                      oracle_degree, oracle_pairing, oracle_tt_from_text,
                      oracle_tt_to_text, oracle_walsh_field,
                      oracle_walsh_plain, random_table)
from nihobent import GF, FamilySpec, build_bent
from nihobent.boolfn import (TraceForm, TraceTerm, TruthTable, anf,
                             anf_degree, has_affine_coset_restrictions,
                             is_bent, line_forms, walsh_spectrum)

GF16 = GF(4)

# bent at n=4 but with a non-affine restriction to some coset of GF(4);
# bit i of the mask is f(i), found by exhaustive search
NON_COSET_AFFINE_BENT = 0x356


def _from_mask(n, mask):
    return TruthTable(n, [(mask >> i) & 1 for i in range(1 << n)])


def test_truth_table_basics():
    tt = TruthTable.from_function(2, lambda x: x & 1)
    assert tt.weight() == 2
    assert tt[1] == 1 and tt[2] == 0
    assert len(tt) == 4
    assert (tt ^ tt).weight() == 0
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 0])


def test_text_format_frozen():
    tt = TruthTable(2, [0, 1, 1, 0])
    assert tt.to_text() == "n=2\n0110\n"
    assert TruthTable.from_text("n=2\n0110\n") == tt
    for bad in ("", "n=2\n01", "n=2\n01x0", "m=2\n0110", "n=-1\n"):
        with pytest.raises(ValueError):
            TruthTable.from_text(bad)


def test_text_roundtrip(tmp_path):
    rng = random.Random(11)
    for n in (1, 3, 5):
        tt = random_table(rng, n)
        path = tmp_path / f"t{n}.tt"
        tt.save(path)
        assert TruthTable.load(path) == tt


@given(st.integers(0, 8), st.data())
def test_text_io_matches_per_point_oracles(n, data):
    tt = _from_mask(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    text = tt.to_text()
    assert text == oracle_tt_to_text(tt)
    back = TruthTable.from_text(text)
    assert back == tt
    assert oracle_tt_from_text(text) == (n, list(back.values))


@pytest.mark.parametrize("text, message", [
    ("n=3\n0110\n", "expected 2^3 characters of 0/1"),
    ("n=2\n01100\n", "expected 2^2 characters of 0/1"),
    ("n=2\n01x0\n", "expected 2^2 characters of 0/1"),
    ("n=2\n0120\n", "expected 2^2 characters of 0/1"),
    ("n=2\n01/0\n", "expected 2^2 characters of 0/1"),
    ("n=2\n01\u00e90\n", "expected 2^2 characters of 0/1"),
    ("n=2\n01 10\n", "expected 'n=<int>' then one line of 0/1"),
    ("m=2\n0110\n", "expected 'n=<int>' then one line of 0/1"),
    ("n=two\n0110\n", "bad table header 'n=two'"),
    ("n=21\n0\n", "table size n=21 out of range"),
    ("n=25\n0\n", "table size n=25 out of range"),
])
def test_text_rejects_malformed_input(text, message):
    assert oracle_tt_from_text(text) is None
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TruthTable.from_text(text)


def test_walsh_frozen_values():
    zero = TruthTable(2, [0, 0, 0, 0])
    assert list(walsh_spectrum(zero).values) == [4, 0, 0, 0]
    # a linear form has a single spike of 2^n at its own mask
    lin = TruthTable.from_function(3, lambda x: bin(x & 0b101).count("1") % 2)
    spec = walsh_spectrum(lin)
    assert spec.values[0b101] == 8
    assert sorted(spec.values)[:-1] == [0] * 7


@pytest.mark.parametrize("n", [2, 4, 6])
def test_fast_walsh_equals_naive(n):
    rng = random.Random(100 + n)
    F = GF(n)
    for _ in range(4):
        tt = random_table(rng, n)
        assert list(walsh_spectrum(tt).values) == oracle_walsh_plain(tt.values)
        assert list(walsh_spectrum(tt, F).values) == \
            oracle_walsh_field(tt.values, F)


@given(st.integers(1, 6), st.data())
def test_parseval(n, data):
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    tt = _from_mask(n, bits)
    spec = walsh_spectrum(tt)
    assert spec.parseval() == 1 << (2 * n)
    assert int(spec.values[0]) == (1 << n) - 2 * tt.weight()


def test_is_bent():
    tt = build_bent(FamilySpec("quadratic", 2, a=GF16.el(1))).truth_table()
    assert is_bent(tt)
    spec = walsh_spectrum(tt)
    assert sorted(set(int(v) for v in spec.values)) == [-4, 4]
    assert not is_bent(TruthTable(2, [0, 0, 0, 0]))
    with pytest.raises(ValueError):
        is_bent(TruthTable(3, [0] * 8))


@given(st.integers(1, 5), st.data())
def test_anf_matches_oracle_and_is_involution(n, data):
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    tt = _from_mask(n, bits)
    coeffs = anf(tt)
    assert list(coeffs) == oracle_anf(tt.values)
    assert anf_degree(tt) == oracle_degree(tt.values)
    # the transform is its own inverse
    again = anf(TruthTable(n, coeffs))
    assert np.array_equal(again, tt.values)


def test_anf_degree_frozen():
    assert anf_degree(TruthTable(2, [0, 0, 0, 0])) == 0
    assert anf_degree(TruthTable(2, [1, 1, 1, 1])) == 0
    assert anf_degree(TruthTable.from_function(2, lambda x: x & 1)) == 1
    assert anf_degree(TruthTable.from_function(2, lambda x: x == 3)) == 2


def test_trace_form_validation():
    with pytest.raises(ValueError):
        TraceForm(GF16, [TraceTerm(3, GF16.el(1), 5)])  # 3 does not divide 4
    with pytest.raises(ValueError):
        # coefficient outside the GF(4) subfield of GF(16)
        TraceForm(GF16, [TraceTerm(2, GF16.el(0x2), 5)])
    with pytest.raises(ValueError):
        # exponent coset not closed under 2^2
        TraceForm(GF16, [TraceTerm(2, GF16.el(1), 3)])


def test_trace_form_matches_pointwise_evaluation():
    F = GF(6)
    a = F.el(0x7)
    form = TraceForm(F, [TraceTerm(3, a.rel_trace(3), 9),
                         TraceTerm(6, F.el(0x2), 22)])
    tt = form.truth_table()
    for xb in range(1 << 6):
        x = F.el(xb)
        t1 = 0
        y = a.rel_trace(3) * x ** 9
        for _ in range(3):
            t1 ^= y.bits
            y = y * y
        want = (t1 & 1) ^ (F.el(0x2) * x ** 22).trace()
        assert tt[xb] == want, hex(xb)


def test_trace_form_to_json():
    form = TraceForm(GF16, [TraceTerm(4, GF16.el(0x2), 10)])
    assert form.to_json() == [{"subfield": 4, "coeff": "0x2",
                               "exponent": 10}]


def test_coset_affinity_positive_and_negative():
    tt = build_bent(FamilySpec("binomial3", 2, b=GF16.el(0x2))).truth_table()
    assert has_affine_coset_restrictions(tt, GF16)
    counter = _from_mask(4, NON_COSET_AFFINE_BENT)
    assert is_bent(counter)
    assert not has_affine_coset_restrictions(counter, GF16)


@pytest.mark.parametrize("k", range(1, 17))
def test_pairing_permutation_matches_oracle(k):
    F = GF(k)
    assert F.pairing_table().tolist() == oracle_pairing(F)


def test_line_forms_constants_functionals_and_first_bad_row():
    # rows over GF(2)^2: affine 1 ^ x0, linear x0 ^ x1, then two
    # non-affine rows; the first of those is reported
    rows = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1],
                     [1, 1, 1, 0]], dtype=np.uint8)
    const, func, bad = line_forms(rows)
    assert const.tolist() == [1, 0, 0, 1]
    assert func[:2].tolist() == [0b01, 0b11]
    assert bad == 2
    assert line_forms(rows[:2])[2] is None


@given(st.integers(2, 4), st.data())
def test_coset_kernel_matches_oracle(m, data):
    F, tt = bent_or_mutated(m, data)
    assert has_affine_coset_restrictions(tt, F) == oracle_coset_affine(tt, F)


def test_spectrum_reindex_consistency():
    # reindexing by the pairing permutation must not change the multiset
    rng = random.Random(5)
    tt = random_table(rng, 4)
    plain = sorted(walsh_spectrum(tt).values)
    paired = sorted(walsh_spectrum(tt, GF16).values)
    assert plain == paired

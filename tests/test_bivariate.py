"""Bivariate form, slope-map extraction, o-polynomial predicates,
closed forms and small-field trace identities."""

import itertools
import json
import os
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (bent_or_mutated, circle_points, monomial,
                      oracle_closed_form_g, oracle_closed_form_g_circle,
                      oracle_extract,
                      oracle_extract_h_mu, oracle_g_from_h, oracle_is_opoly,
                      oracle_is_permutation, oracle_normalize,
                      oracle_opolynomials,
                      oracle_table_json, oracle_trace_identities,
                      oracle_two_to_one, table_from_function)
from nihobent import (GF, AdelaideParams, BasisPair, FamilySpec,
                      InternalCheckError, MappingTable, NotClassHError,
                      SubiacoParams, adelaide_fs, build_bent,
                      closed_form_g, closed_form_g_circle, embed_subfield,
                      extract_h_mu, frobenius_map, g_from_h,
                      is_opolynomial, is_permutation, is_two_to_one,
                      opoly_normalize, subiaco_fs, subiaco_pair,
                      to_bivariate, unit_circle, verify_trace_identities)
from nihobent import bivariate
from nihobent.bivariate import _fibers_all_two, _project
from nihobent.boolfn import TruthTable
from nihobent.gf2 import FieldElement, FieldSpec

GF4 = GF(2)
GF8 = GF(3)
GF16 = GF(4)
GF64 = GF(6)


def _setup(m):
    F, S = GF(2 * m), GF(m)
    return F, S, embed_subfield(S, F)


def test_basis_pair_validation():
    F, S, emb = _setup(2)
    with pytest.raises(ValueError):
        BasisPair(F.zero, F.one)
    with pytest.raises(ValueError):
        BasisPair(F.el(0x6), F.one)  # 0x6 lies in the half subfield
    with pytest.raises(ValueError):
        BasisPair(GF8.el(2), GF8.el(3))  # odd-degree field
    BasisPair(F.gen, F.one)


def test_mapping_table_roundtrip():
    t = MappingTable(GF4, (0, 1, 3, 2))
    assert t.to_json() == ["0x0", "0x1", "0x3", "0x2"]
    assert MappingTable.from_json(GF4, t.to_json()) == t


@pytest.mark.parametrize("entry", ["1_1", " 0x1", "0x1 ", "+1", "-1", "0x",
                                   "", "\uff11", "0x1 0x1"])
def test_mapping_table_from_json_reads_hex_only(entry):
    # the entry where 0x1 would be: int(entry, 16) reads most of these
    # as a number; none of them is a hex bitmask
    good = ["0x0", "0X1", "3", "0x2"]
    assert MappingTable.from_json(GF4, good).entries == (0, 1, 3, 2)
    with pytest.raises(ValueError, match="expected a hex bitmask"):
        MappingTable.from_json(GF4, ["0x0", entry, "0x3", "0x2"])
    # a short table is still refused for its length
    with pytest.raises(ValueError, match="need 4 entries, got 3"):
        MappingTable.from_json(GF4, good[:3])


@pytest.mark.parametrize("entries", [
    ["0", "1", "3", "10"],           # strings are not read as numbers
    [0, 1, 3, 1.9],                  # floats are not truncated
    np.array([0.0, 1.0, 3.0, 2.0]),
    np.array([0, 1, 3, None], dtype=object),
    np.array([0, 1, 3, 2], dtype=object),
    [True, False, True, False],
])
def test_mapping_table_rejects_non_integer_entries(entries):
    with pytest.raises(ValueError, match="must be integers"):
        MappingTable(GF4, entries)


def test_mapping_table_rejects_bad_shape_and_range():
    with pytest.raises(ValueError, match="need 4 entries, got 3"):
        MappingTable(GF4, [0, 1, 2])
    with pytest.raises(ValueError, match="need 4 entries"):
        MappingTable(GF4, [[0, 1], [2, 3]])
    for bad in ([0, 1, 2, 4], [0, -1, 2, 3], np.array([0, 1, 2, 4], np.uint8),
                [0, 1, 2, 1 << 64]):
        with pytest.raises(ValueError):
            MappingTable(GF4, bad)


def test_mapping_table_array_is_stored_read_only():
    source = np.array([0, 1, 3, 2], dtype=np.int64)
    t = MappingTable(GF4, source)
    arr = t.array()
    assert arr is t.array() and arr.dtype == np.int64
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 1
    # the caller's array is copied, not frozen or shared
    source[0] = 2
    assert source.flags.writeable and t.entries == (0, 1, 3, 2)


def test_mapping_table_list_and_array_agree():
    from_list = MappingTable(GF16, list(range(15, -1, -1)))
    from_array = MappingTable(GF16, np.arange(15, -1, -1, dtype=np.int32))
    assert from_list.entries == from_array.entries == tuple(range(15, -1, -1))
    assert all(type(e) is int for e in from_array.entries)
    assert from_list == from_array and hash(from_list) == hash(from_array)
    assert from_list != MappingTable(GF16, range(16))
    assert from_list != MappingTable(GF(4, generator=0x3), range(15, -1, -1))


@given(st.integers(1, 8), st.data())
def test_table_json_and_permutation_match_oracles(m, data):
    S = GF(m)
    if data.draw(st.booleans()):
        entries = data.draw(st.permutations(range(S.order)))
    else:
        entries = data.draw(st.lists(st.integers(0, S.order - 1),
                                     min_size=S.order, max_size=S.order))
    t = MappingTable(S, entries)
    assert t.to_json() == oracle_table_json(entries)
    perm = is_permutation(t)
    assert type(perm) is bool
    assert perm == oracle_is_permutation(entries, S)


def test_bivariate_table_is_reindexed_truth_table():
    F, S, emb = _setup(2)
    tt = build_bent(FamilySpec("binomial3", 2, b=F.el(0x2))).truth_table()
    u = F.el(unit_circle(F)[1])
    biv = to_bivariate(tt, BasisPair(u, F.one), emb)
    assert biv.weight() == tt.weight()
    for x in range(4):
        for y in range(4):
            point = u * emb(S.el(x)) + emb(S.el(y))
            assert biv[x, y] == tt[point.bits]


@pytest.mark.parametrize("m", [2, 3])
def test_extraction_matches_bruteforce(m):
    F, S, emb = _setup(m)
    circ = circle_points(F)
    for bbits in (1, 3, (1 << m) + 2):
        tt = build_bent(FamilySpec("binomial3", m, b=F.el(bbits))).truth_table()
        for u in (circ[0], circ[1]):
            biv = to_bivariate(tt, BasisPair(u, F.one), emb)
            h, mu = extract_h_mu(biv)
            want = oracle_extract(tt, F, u.bits, 1, S, emb)
            assert want is not None
            assert list(h.entries) == want[0] and mu.bits == want[1]


def test_extraction_general_basis():
    F, S, emb = _setup(2)
    tt = build_bent(FamilySpec("quadratic", 2, a=F.el(0x6))).truth_table()
    basis = BasisPair(F.gen, F.gen ** 7)
    biv = to_bivariate(tt, basis, emb)
    h, mu = extract_h_mu(biv)
    want = oracle_extract(tt, F, F.gen.bits, (F.gen ** 7).bits, S, emb)
    assert list(h.entries) == want[0] and mu.bits == want[1]


def test_non_class_h_raises():
    # bent at n = 4 but not of the bivariate trace shape for this basis
    mask = 0x356
    tt = TruthTable(4, [(mask >> i) & 1 for i in range(16)])
    F, S, emb = _setup(2)
    biv = to_bivariate(tt, BasisPair(F.el(unit_circle(F)[1]), F.one), emb)
    with pytest.raises(NotClassHError) as want:
        oracle_extract_h_mu(biv)
    with pytest.raises(NotClassHError) as got:
        extract_h_mu(biv)
    assert want.value.z is not None
    assert got.value.z == want.value.z
    # the complement of a class-H function is affine on every line but
    # linear on none, and the x = 0 line is reported first
    vals = build_bent(FamilySpec("binomial3", 2, b=F.el(0x2))) \
        .truth_table().values ^ 1
    biv = to_bivariate(TruthTable(4, vals),
                       BasisPair(F.el(unit_circle(F)[1]), F.one), emb)
    with pytest.raises(NotClassHError) as got:
        extract_h_mu(biv)
    assert got.value.z is None


@given(st.integers(2, 4), st.data())
def test_extraction_kernel_matches_oracle(m, data):
    """Random tables, binomial3 members, and members with one bit flipped,
    split over a random unit-circle basis: the kernel returns what the
    per-point extraction returns, or fails on the same line."""
    F, tt = bent_or_mutated(m, data)
    emb = embed_subfield(GF(m), F)
    u = data.draw(st.sampled_from(circle_points(F)))
    biv = to_bivariate(tt, BasisPair(u, F.one), emb)
    try:
        want = oracle_extract_h_mu(biv)
    except NotClassHError as exc:
        with pytest.raises(NotClassHError) as got:
            extract_h_mu(biv)
        assert got.value.z == exc.z
        return
    h, mu = extract_h_mu(biv)
    assert (list(h.entries), mu.bits) == want


def test_opoly_predicates_frozen():
    # z -> z^2 is an o-polynomial in every characteristic-2 field
    for S in (GF4, GF8, GF16):
        frob = table_from_function(S, lambda z: z * z)
        assert is_permutation(frob)
        assert is_opolynomial(frob)
        assert is_opolynomial(frob) == oracle_is_opoly(list(frob.entries), S)
    # the identity is a permutation but never an o-polynomial
    ident = table_from_function(GF8, lambda z: z)
    assert is_permutation(ident) and not is_opolynomial(ident)
    # z -> z^3 on GF(4) is not even a permutation
    cube = table_from_function(GF4, lambda z: z ** 3)
    assert not is_permutation(cube) and not is_opolynomial(cube)


def test_two_to_one():
    sq_plus_z = table_from_function(GF8, lambda z: z * z + z)
    assert is_two_to_one(sq_plus_z)
    assert not is_two_to_one(table_from_function(GF8, lambda z: z))


def test_opoly_normalize():
    frob = table_from_function(GF8, lambda z: GF8.el(0x5) * z * z
                               + GF8.el(0x3))
    norm = opoly_normalize(frob)
    assert norm.entries[0] == 0 and norm.entries[1] == 1
    assert is_opolynomial(norm)
    const = table_from_function(GF8, lambda z: GF8.el(0x3))
    with pytest.raises(ValueError):
        opoly_normalize(const)


def catalog_member(m, data):
    """A Subiaco f_s (every case that exists for m) or an Adelaide f_s
    (m even) over GF(2^m), parameters drawn by hypothesis."""
    S = GF(m)
    kinds = [c for c, ok in ((1, m % 2 == 1), (2, m % 4 == 2),
                             (3, bool(SubiacoParams.case_iii_w_options(S))),
                             ("adelaide", m % 2 == 0)) if ok]
    kind = data.draw(st.sampled_from(kinds))
    s = S.el(data.draw(st.integers(0, S.order - 1)))
    if kind == "adelaide":
        F = GF(2 * m)
        beta = data.draw(st.sampled_from(
            circle_points(F)))
        return adelaide_fs(AdelaideParams(beta, embed_subfield(S, F)), s)
    if kind == 1:
        params = SubiacoParams.case_i(S)
    elif kind == 2:
        params = SubiacoParams.case_ii(S, data.draw(st.sampled_from(
            SubiacoParams.case_ii_w_options(S))))
    else:
        params = SubiacoParams.case_iii(S, data.draw(st.sampled_from(
            SubiacoParams.case_iii_w_options(S))))
    return subiaco_fs(params, s)


def field_tables(m, data):
    """Entries of a random table, a random permutation, a Frobenius map
    z^(2^i) with i <= 2m, a monomial a z^d + c, a catalog member, or a
    monomial or catalog member with two entries swapped."""
    S = GF(m)
    kind = data.draw(st.sampled_from(
        ["random", "permutation", "frobenius", "monomial",
         "monomial_swapped", "catalog", "swapped"]))
    if kind == "random":
        return data.draw(st.lists(st.integers(0, S.order - 1),
                                  min_size=S.order, max_size=S.order))
    if kind == "permutation":
        return data.draw(st.permutations(range(S.order)))
    if kind == "frobenius":
        return list(frobenius_map(S, data.draw(st.integers(0, 2 * m)))
                    .entries)
    if kind.startswith("monomial"):
        entries = monomial(S, data.draw(st.integers(1, S.order - 1)),
                           data.draw(st.integers(0, S.order)),
                           data.draw(st.integers(0, S.order - 1)))
    else:
        entries = list(catalog_member(m, data).entries)
    if kind.endswith("swapped"):
        a, b = data.draw(st.lists(st.integers(0, S.order - 1), min_size=2,
                                  max_size=2, unique=True))
        entries[a], entries[b] = entries[b], entries[a]
    return entries


@given(st.integers(1, 6), st.data())
def test_opoly_kernel_matches_oracle(m, data):
    S = GF(m)
    entries = field_tables(m, data)
    assert is_opolynomial(MappingTable(S, entries)) \
        == oracle_is_opoly(entries, S)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_every_monomial_matches_oracle(m):
    # every exponent d < q, scaled and shifted, and the same table with
    # one transposition, against the per-point definition
    S = GF(m)
    rng = random.Random(m)
    for d in range(S.order):
        entries = monomial(S, rng.randrange(1, S.order), d,
                           rng.randrange(S.order))
        swapped = list(entries)
        a, b = rng.sample(range(S.order), 2)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        for t in (entries, swapped):
            assert is_opolynomial(MappingTable(S, t)) \
                == oracle_is_opoly(t, S), (m, d, t)


def _rows_scanned(monkeypatch, g):
    """is_opolynomial(g) and the number of beta rows whose fibers it
    counted."""
    rows = []

    def spy(values, size):
        rows.append(len(values))
        return _fibers_all_two(values, size)

    monkeypatch.setattr(bivariate, "_fibers_all_two", spy)
    return is_opolynomial(g), sum(rows)


def test_one_row_per_beta_class(monkeypatch):
    S = GF(11)
    assert _rows_scanned(monkeypatch, frobenius_map(S, 1)) == (True, 1)
    # z -> z^(2^i) with gcd(i, m) > 1 is rejected within its 2^gcd - 1 rows
    S = GF(10)
    verdict, rows = _rows_scanned(monkeypatch, frobenius_map(S, 4))
    assert not verdict and 1 <= rows <= 3
    # every scaled, shifted permutation monomial a z^d + c at m = 6 scans
    # gcd(d - 1, q - 1) rows, all of them when it is an o-polynomial
    S = GF(6)
    n = S.mult_order
    rng = random.Random(6)
    for d in (d for d in range(1, n) if gcd(d, n) == 1):
        g = MappingTable(S, monomial(S, rng.randrange(1, S.order), d,
                                     rng.randrange(S.order)))
        assert bivariate._scan_rows(g) == gcd(d - 1, n)
        verdict, rows = _rows_scanned(monkeypatch, g)
        assert rows <= gcd(d - 1, n)
        assert rows == gcd(d - 1, n) or not verdict
    # a Subiaco member has no such symmetry: all q - 1 rows
    S = GF(11)
    member = subiaco_fs(SubiacoParams.case_i(S), S.el(0x123))
    assert _rows_scanned(monkeypatch, member) == (True, S.mult_order)
    # and one transposition takes the symmetry from a monomial
    for m, i in ((6, 1), (11, 1), (11, 3)):
        S = GF(m)
        entries = list(frobenius_map(S, i).entries)
        entries[2], entries[3] = entries[3], entries[2]
        assert bivariate._scan_rows(MappingTable(S, entries)) \
            == S.mult_order


def test_work_limit_follows_the_rows_counted(monkeypatch):
    # z^2 at m = 17 counts one row; two swapped entries take the
    # monomial symmetry away, and its q - 1 rows are refused before any
    # is counted
    S = GF(17)
    g = frobenius_map(S, 1)
    assert is_opolynomial(g)
    entries = g.array().copy()
    entries[[2, 3]] = entries[[3, 2]]
    monkeypatch.setattr(bivariate, "_fibers_all_two", None)
    with pytest.raises(ValueError,
                       match="r = 131071 rows of q = 131072 values"):
        is_opolynomial(MappingTable(S, entries))


def test_swapped_catalog_member_negative_control():
    # no transposition of two entries keeps the Subiaco g of GF(32) an
    # o-polynomial, and each one is still a permutation
    S = GF(5)
    g = subiaco_pair(SubiacoParams.case_i(S))[1]
    assert is_opolynomial(g)
    for a in range(S.order):
        for b in range(a + 1, S.order):
            entries = list(g.entries)
            entries[a], entries[b] = entries[b], entries[a]
            swapped = MappingTable(S, entries)
            assert is_permutation(swapped)
            assert not is_opolynomial(swapped)
            assert not oracle_is_opoly(entries, S)


def test_opoly_working_set_bound():
    # beta blocks of about 2^14 elements keep the full m = 11 scan well
    # below 1 MiB of numpy allocations, whatever q^2 is; a Subiaco member
    # is not a monomial, so every row is counted
    S = GF(11)
    member = subiaco_fs(SubiacoParams.case_i(S), S.el(0x5))
    tracemalloc.start()
    try:
        assert is_opolynomial(member)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


CENSUS_COUNTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "data", "opoly_census_counts.json")


@pytest.mark.parametrize("m", [2, 3, 4])
def test_census_members_are_accepted(m):
    with open(CENSUS_COUNTS, encoding="ascii") as fh:
        assert len(oracle_opolynomials(m)) == json.load(fh)[str(m)]
    S = GF(m)
    for entries in oracle_opolynomials(m):
        assert is_opolynomial(MappingTable(S, entries)), entries


@pytest.mark.parametrize("m, size", [(2, 2), (3, 720)])
def test_census_is_every_accepted_permutation(m, size):
    # every normalized permutation, G(0) = 0 and G(1) = 1, in
    # lexicographic order, the order the census lists its members in
    S = GF(m)
    tables = [(0, 1, *rest)
              for rest in itertools.permutations(range(2, S.order))]
    assert len(tables) == size
    accepted = tuple(t for t in tables if is_opolynomial(MappingTable(S, t)))
    assert accepted == oracle_opolynomials(m)


def test_census_rejects_sampled_permutations_outside_it():
    # m = 4 has 14! normalized permutations: a seeded sample of them, and
    # one seeded transposition of each census member, which leaves the
    # table a normalized permutation one step from an o-polynomial
    S = GF(4)
    census = oracle_opolynomials(4)
    members = set(census)
    rng = random.Random(4)
    rest = list(range(2, S.order))
    sample = []
    for _ in range(2000):
        rng.shuffle(rest)
        sample.append((0, 1, *rest))
    for entries in census:
        a, b = rng.sample(range(2, S.order), 2)
        swapped = list(entries)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        sample.append(tuple(swapped))
    outside = [t for t in sample if t not in members]
    assert len(outside) >= 2000
    for entries in outside:
        assert not is_opolynomial(MappingTable(S, entries)), entries


def _named_monomials(m):
    """The Segre, Glynn I and Glynn II exponents of odd m, reduced mod
    2^m - 1: 6, 3 sigma + 4 and sigma + gamma, with sigma^2 = 2 and
    gamma^4 = 2 (mod 2^m - 1)."""
    sigma = 1 << (m + 1) // 2
    gamma = 1 << ((m + 1) // 4 if m % 4 == 3 else (3 * m + 1) // 4)
    n = (1 << m) - 1
    return {"segre": 6 % n, "glynn1": (3 * sigma + 4) % n,
            "glynn2": (sigma + gamma) % n}


@pytest.mark.parametrize("m", [3, 5, 7, 9, 11, 13])
def test_named_monomial_hyperovals(m, monkeypatch):
    S = GF(m)
    z = np.arange(S.order)
    named = _named_monomials(m)
    tables = {d: MappingTable(S, S.table_pow(z, d))
              for d0 in named.values() for d in (d0 - 1, d0, d0 + 1)}
    verdicts = {d: is_opolynomial(g) for d, g in tables.items()}
    for name, d in named.items():
        assert verdicts[d] and bivariate._scan_rows(tables[d]) == 1, name
        # negative controls: the exponent off by one either way
        assert not verdicts[d - 1] and not verdicts[d + 1], name
    if m <= 9:
        # the full scan of all q - 1 rows gives the same verdicts
        monkeypatch.setattr(bivariate, "_scan_rows",
                            lambda g: g.field.mult_order)
        assert {d: is_opolynomial(g) for d, g in tables.items()} \
            == verdicts


@pytest.mark.parametrize("m", [4, 6, 8])
def test_segre_exponent_at_even_m_is_no_opolynomial(m):
    # gcd(6, 2^m - 1) = 3 at even m, so z^6 is not even a permutation
    S = GF(m)
    g = MappingTable(S, S.table_pow(np.arange(S.order), 6))
    assert not is_permutation(g) and not is_opolynomial(g)


@given(st.integers(1, 6), st.data())
def test_map_helpers_match_oracles(m, data):
    S = GF(m)
    q = S.order
    h = data.draw(st.lists(st.integers(0, q - 1), min_size=q, max_size=q))
    mu = data.draw(st.integers(0, q - 1))
    assert list(g_from_h(MappingTable(S, h), S.el(mu)).entries) \
        == oracle_g_from_h(h, mu, S)
    if h[0] != h[1]:
        assert list(opoly_normalize(MappingTable(S, h)).entries) \
            == oracle_normalize(h, S)
    two_to_one = is_two_to_one(MappingTable(S, h))
    assert type(two_to_one) is bool and two_to_one == oracle_two_to_one(h)
    # a 2-to-1 table: pair up the domain, one fresh value per pair
    order = data.draw(st.permutations(range(q)))
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=q // 2,
                                max_size=q // 2, unique=True))
    paired = [0] * q
    for k, v in enumerate(values):
        paired[order[2 * k]] = paired[order[2 * k + 1]] = v
    assert oracle_two_to_one(paired) and is_two_to_one(MappingTable(S, paired))


@pytest.mark.parametrize("m", [2, 3])
def test_closed_form_matches_extraction_circle(m):
    F, S, emb = _setup(m)
    circ = circle_points(F)
    for bbits in range(1, 1 << (2 * m)):
        b = F.el(bbits)
        tt = build_bent(FamilySpec("binomial3", m, b=b)).truth_table()
        for u in circ[:2]:
            biv = to_bivariate(tt, BasisPair(u, F.one), emb)
            h, mu = extract_h_mu(biv)
            g = g_from_h(h, mu)
            assert closed_form_g(b, BasisPair(u, F.one), emb) == g
            assert closed_form_g_circle(b, u, emb) == g
            assert closed_form_g_circle(b, u, emb, reduced=True) == g


def test_closed_form_general_basis():
    F, S, emb = _setup(2)
    b = F.el(0x9)
    tt = build_bent(FamilySpec("binomial3", 2, b=b)).truth_table()
    basis = BasisPair(F.gen ** 3, F.gen ** 11)
    biv = to_bivariate(tt, basis, emb)
    g = g_from_h(*extract_h_mu(biv))
    assert closed_form_g(b, basis, emb) == g


@pytest.mark.parametrize("m", [2, 3])
def test_trace_identities_all_admissible(m):
    F = GF(2 * m)
    circ = circle_points(F)
    for bbits in range(0, 1 << (2 * m), 5):
        for u in circ:
            assert verify_trace_identities(F.el(bbits), u) is True


class _OffConjugate(FieldElement):
    """An element whose conjugate b^(2^m) is off by one."""
    __slots__ = ()

    def frob(self, i=1):
        return super().frob(i) + 1


def test_trace_identities_negative_controls(monkeypatch):
    # a perturbed conjugate of b breaks the identities (the expansion
    # does not read b), and points outside GF(2^m) break the expansion:
    # both read False
    F = GF(6)
    b, u = F.el(0x5), F.el(unit_circle(F)[1])
    assert verify_trace_identities(b, u)
    off = _OffConjugate(b.bits, F)
    assert verify_trace_identities(off, u) is False
    assert oracle_trace_identities(off, u, F.one) is False
    with monkeypatch.context() as mp:
        mp.setattr(FieldSpec, "subfield_bits",
                   lambda self, r: list(range(self.order)))
        assert verify_trace_identities(b, u) is False
        assert oracle_trace_identities(b, u, F.one) is False


def _check_closed_forms(m, bs, us):
    """Every closed form and the trace identities equal their scalar
    oracles, over the basis (u, 1) and one basis (u, v) with v != 1."""
    F, S, emb = _setup(m)
    for u in us:
        v = next(F.gen ** k for k in range(1, F.order)
                 if not (u / F.gen ** k).in_subfield(m))
        for b in bs:
            assert verify_trace_identities(b, u) is True
            for basis in (BasisPair(u, F.one), BasisPair(u, v)):
                assert list(closed_form_g(b, basis, emb).entries) == \
                    oracle_closed_form_g(b, basis, emb)
                assert oracle_trace_identities(b, u, basis.v) is True
            for reduced in (False, True):
                assert list(closed_form_g_circle(b, u, emb,
                                                 reduced).entries) == \
                    oracle_closed_form_g_circle(b, u, emb, reduced)


@pytest.mark.parametrize("m", [2, 3])
def test_closed_forms_match_scalar_oracles(m):
    F = GF(2 * m)
    _check_closed_forms(m, [F.el(x) for x in range(1, F.order)],
                        circle_points(F))


@pytest.mark.parametrize("m", [4, 5])
def test_closed_forms_match_scalar_oracles_sampled(m):
    F = GF(2 * m)
    rng = random.Random(0xC105 + m)
    circle = circle_points(F)
    _check_closed_forms(m, [F.el(x) for x in
                            rng.sample(range(1, F.order), 12)],
                        rng.sample(circle, 3))


def test_closed_form_projection_names_value_outside_subfield():
    F, S, emb = _setup(3)
    inside = np.asarray(emb.table)
    assert list(_project(emb, inside).entries) == list(range(S.order))
    outside = [x for x in range(F.order) if not F.el(x).in_subfield(3)]
    vals = inside.copy()
    vals[5], vals[6] = outside[7], outside[3]
    with pytest.raises(InternalCheckError,
                       match=f"closed form produced 0x{outside[7]:x} "
                             f"outside the subfield"):
        _project(emb, vals)


def test_trace_identities_reject_u_one():
    F = GF16
    with pytest.raises(ValueError):
        verify_trace_identities(F.el(0x2), F.one)

"""Acceptance gate: ten exact checks, zero numeric tolerance.

Each test prints one [PASS]/[FAIL] line on the real stdout so the
result survives pytest's capture.  Checks with a stated time budget
assert the budget too.
"""

import random
import time
from math import gcd

import pytest

from conftest import (circle_points, oracle_walsh_field, oracle_walsh_plain,
                      random_table)
from nihobent import (GF, AdelaideParams, BasisPair, FamilySpec,
                      MappingTable, SubiacoParams, VerificationError,
                      adelaide_fs, adelaide_pair, build_bent,
                      closed_form_g, closed_form_g_circle,
                      correspond_adelaide, correspond_subiaco,
                      embed_subfield, extract_h_mu, family_exponent,
                      g_from_h, is_fifth_power, is_opolynomial, subiaco_fs,
                      subiaco_fs_explicit, subiaco_pair, to_bivariate,
                      unit_circle_element, walsh_spectrum)
from nihobent import ovals
from nihobent.boolfn import anf_degree
from nihobent.cli import main


def _run(capsys, num, desc, budget, fn):
    """Run one check; num None labels it by desc alone."""
    label = desc if num is None else f"criterion {num}: {desc}"
    start = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label}")
        raise
    with capsys.disabled():
        print(f"[PASS] {label} ({elapsed:.1f}s)")


def _bent_spectrum(form, m):
    values = walsh_spectrum(form.truth_table()).values
    return set(int(v) for v in values) <= {1 << m, -(1 << m)}


def _pool(rng, universe, cap):
    if len(universe) <= cap:
        return list(universe)
    return rng.sample(list(universe), cap)


def test_criterion_01_bentness_all_families(capsys):
    def check():
        rng = random.Random(0xB347)
        for m in (2, 3, 4, 5):
            F = GF(2 * m)
            cap = (1 << (2 * m)) if m <= 3 else 32
            quad_pool = _pool(rng, [x for x in sorted(F.subfield_bits(m))
                                    if x], cap)
            for ab in quad_pool:
                assert _bent_spectrum(
                    build_bent(FamilySpec("quadratic", m, a=F.el(ab))), m)
            fams = ["binomial3"]
            if m % 2 == 1:
                fams.append("binomial4")
            else:
                fams += ["binomial6", "adelaide"]
            for fam in fams:
                for bb in _pool(rng, range(1, 1 << (2 * m)), cap):
                    assert _bent_spectrum(
                        build_bent(FamilySpec(fam, m, b=F.el(bb))), m), \
                        (fam, m, hex(bb))
            r = {2: 3, 3: 2, 4: 3, 5: 2}[m]
            lk_pool = _pool(rng, [x for x in range(1 << (2 * m))
                                  if (F.el(x) + F.el(x).frob(m)).bits == 1],
                            cap)
            for ab in lk_pool:
                assert _bent_spectrum(
                    build_bent(FamilySpec("leander_kholosha", m,
                                          a=F.el(ab), r=r)), m)

    _run(capsys, 1, "all families bent at m in {2,3,4,5}", 60, check)


def test_criterion_02_binomial3_all_b(capsys):
    def check():
        F16 = GF(4)
        for bb in range(1, 16):
            assert _bent_spectrum(
                build_bent(FamilySpec("binomial3", 2, b=F16.el(bb))), 2)
        F = GF(12)
        rng = random.Random(0xB347 + 2)
        picks = rng.sample(range(1, 1 << 12), 50)
        non_fifth = [b for b in picks if not is_fifth_power(F.el(b))]
        while len(non_fifth) < 10:  # pragma: no cover - 4/5 are non-fifth
            extra = rng.randrange(1, 1 << 12)
            picks.append(extra)
            if not is_fifth_power(F.el(extra)):
                non_fifth.append(extra)
        assert len(picks) >= 50 and len(non_fifth) >= 10
        for bb in picks:
            assert _bent_spectrum(
                build_bent(FamilySpec("binomial3", 6, b=F.el(bb))), 6)

    _run(capsys, 2, "binomial3 bent for every b, fifth power or not",
         120, check)


def test_criterion_03_degrees(capsys):
    def check():
        rng = random.Random(0xB347 + 3)
        plan = [("binomial3", (2, 3, 4, 5), lambda m: m),
                ("binomial4", (3, 5), lambda m: 3),
                ("binomial6", (4, 6), lambda m: m)]
        for fam, ms, want in plan:
            for m in ms:
                F = GF(2 * m)
                cap = (1 << (2 * m)) - 1 if m <= 3 else 8
                for bb in _pool(rng, range(1, 1 << (2 * m)), cap):
                    tt = build_bent(FamilySpec(fam, m,
                                               b=F.el(bb))).truth_table()
                    assert anf_degree(tt) == want(m), (fam, m, hex(bb))

    _run(capsys, 3, "algebraic degrees match the family claims", None,
         check)


def test_criterion_04_gcd_rule(capsys):
    def check():
        for m in range(2, 11):
            d2 = family_exponent("binomial3", m)
            want = 5 if m % 4 == 2 else 1
            assert gcd(d2, (1 << (2 * m)) - 1) == want, m

    _run(capsys, 4, "gcd(d2, 2^n-1) = 5 exactly when m = 2 (mod 4)",
         None, check)


def test_criterion_05_closed_form_matches_extraction(capsys):
    def check():
        for m in (2, 3):
            F, S = GF(2 * m), GF(m)
            emb = embed_subfield(S, F)
            circle = circle_points(F)
            for bb in range(1, 1 << (2 * m)):
                b = F.el(bb)
                tt = build_bent(
                    FamilySpec("binomial3", m, b=b)).truth_table()
                for u in circle:
                    basis = BasisPair(u, F.one)
                    g = g_from_h(*extract_h_mu(to_bivariate(tt, basis,
                                                            emb)))
                    assert closed_form_g(b, basis, emb) == g
                    assert closed_form_g_circle(b, u, emb) == g
                    assert closed_form_g_circle(b, u, emb,
                                                reduced=True) == g
        rng = random.Random(0xB347 + 5)
        for m, selector in ((5, "cube"), (6, "fifth:1")):
            F, S = GF(2 * m), GF(m)
            emb = embed_subfield(S, F)
            u = unit_circle_element(F, selector)
            basis = BasisPair(u, F.one)
            for bb in rng.sample(range(1, 1 << (2 * m)), 32):
                b = F.el(bb)
                tt = build_bent(
                    FamilySpec("binomial3", m, b=b)).truth_table()
                g = g_from_h(*extract_h_mu(to_bivariate(tt, basis, emb)))
                assert closed_form_g(b, basis, emb) == g
                assert closed_form_g_circle(b, u, emb) == g

    _run(capsys, 5, "closed-form slope map equals the extracted one", 60,
         check)


def test_criterion_06_trace_identities(capsys):
    def check():
        from nihobent import verify_trace_identities
        for m in (2, 3):
            F = GF(2 * m)
            circle = circle_points(F)
            for bb in range(1 << (2 * m)):
                for u in circle:
                    assert verify_trace_identities(F.el(bb), u) is True

    _run(capsys, 6, "coefficient trace identities hold for every "
         "admissible u", None, check)


def test_criterion_07_subiaco_opolynomials(capsys):
    def check():
        for m in (3, 5):
            field = GF(m)
            p = SubiacoParams.case_i(field)
            f, g = subiaco_pair(p)
            assert is_opolynomial(f) and is_opolynomial(g)
            for sb in range(1 << m):
                assert is_opolynomial(subiaco_fs(p, field.el(sb)))
        field = GF(2)
        for w in SubiacoParams.case_ii_w_options(field):
            p = SubiacoParams.case_ii(field, w)
            f, g = subiaco_pair(p)
            assert is_opolynomial(f) and is_opolynomial(g)
            for sb in range(4):
                assert is_opolynomial(subiaco_fs(p, field.el(sb)))
        field = GF(4)
        options = SubiacoParams.case_iii_w_options(field)
        assert len(options) == 8
        for w in options:
            p = SubiacoParams.case_iii(field, w)
            f, g = subiaco_pair(p)
            assert is_opolynomial(f) and is_opolynomial(g)
            for sb in range(16):
                assert is_opolynomial(subiaco_fs(p, field.el(sb)))

    _run(capsys, 7, "Subiaco g and every f_s are o-polynomials", 120,
         check)


def test_criterion_08_adelaide_opolynomials(capsys):
    def check():
        for m in (2, 4):
            big, small = GF(2 * m), GF(m)
            emb = embed_subfield(small, big)
            for beta in circle_points(big):
                p = AdelaideParams(beta, emb)
                f, g = adelaide_pair(p)
                assert is_opolynomial(f) and is_opolynomial(g)
                for sb in range(1 << m):
                    assert is_opolynomial(adelaide_fs(p, small.el(sb)))
        big, small = GF(12), GF(6)
        emb = embed_subfield(small, big)
        rng = random.Random(0xB347 + 8)
        betas = circle_points(big)
        for beta in rng.sample(betas, 4):
            p = AdelaideParams(beta, emb)
            f, g = adelaide_pair(p)
            assert is_opolynomial(f) and is_opolynomial(g)
            for sb in rng.sample(range(1 << 6), 4):
                assert is_opolynomial(adelaide_fs(p, small.el(sb)))

    _run(capsys, 8, "Adelaide g and every f_s are o-polynomials", None,
         check)


def test_criterion_09_correspondences(capsys):
    def check():
        F8 = GF(6)
        degenerate = 0
        s_seen_m3 = set()
        for bb in range(1, 64):
            c = correspond_subiaco(F8.el(bb))
            assert c.verified
            if c.branch == "degenerate_g":
                degenerate += 1
            else:
                s_seen_m3.add(c.s.bits)
        assert degenerate == 7
        assert s_seen_m3 == set(range(8))
        F16 = GF(4)
        s_seen_m2 = set()
        for bb in range(1, 16):
            c = correspond_subiaco(F16.el(bb))
            assert c.verified
            s_seen_m2.add(c.s.bits)
        assert s_seen_m2 == set(range(4))
        for m in (2, 4):
            big = GF(2 * m)
            for beta in circle_points(big):
                assert correspond_adelaide(beta).verified

    _run(capsys, 9, "bent-to-catalog correspondences verify pointwise",
         None, check)


def test_criterion_10_oracle_equivalence(capsys):
    def check():
        rng = random.Random(0xB347 + 10)
        for n in (4, 6, 8):
            F = GF(n)
            for i in range(20):
                tt = random_table(rng, n)
                fast = list(walsh_spectrum(tt).values)
                assert fast == oracle_walsh_plain(tt.values)
                if i < 5:
                    paired = list(walsh_spectrum(tt, F).values)
                    assert paired == oracle_walsh_field(tt.values, F)
        # blend route vs explicit route on every catalog instance
        shifts = []
        for m in (3, 5):
            field = GF(m)
            shifts.append((SubiacoParams.case_i(field), field, field.zero))
        field = GF(2)
        for w in SubiacoParams.case_ii_w_options(field):
            shifts.append((SubiacoParams.case_ii(field, w), field,
                           field.zero))
        field = GF(4)
        for w in SubiacoParams.case_iii_w_options(field):
            shifts.append((SubiacoParams.case_iii(field, w), field,
                           field.one))
        for params, field, shift in shifts:
            for sb in range(1 << field.degree):
                s = field.el(sb)
                assert subiaco_fs_explicit(params, s) == \
                    subiaco_fs(params, s + shift)

    _run(capsys, 10, "fast transform and blend/explicit routes agree",
         None, check)


def _swap_member(catalog):
    """The catalog function with two entries of its table swapped: those
    at q/2 - 1 and q - 1, so z = q/2 - 1 is the first point that differs
    (members are permutations, so the two values differ)."""
    def swapped(*args):
        table = catalog(*args)
        entries = list(table.entries)
        q = len(entries)
        a, b = q // 2 - 1, q - 1
        entries[a], entries[b] = entries[b], entries[a]
        return MappingTable(table.field, entries)
    return swapped


def test_negative_control_correspondence_verified(capsys, monkeypatch):
    def check():
        monkeypatch.setattr(ovals, "subiaco_fs",
                            _swap_member(ovals.subiaco_fs))
        monkeypatch.setattr(ovals, "adelaide_f1",
                            _swap_member(ovals.adelaide_f1))
        # one member per Subiaco case (m = 3, 2, 4) and two Adelaide ones
        calls = [(m, lambda m=m, b=b: correspond_subiaco(GF(2 * m).el(b)),
                  ["--family", "subiaco", "--b", f"0x{b:x}"])
                 for m, b in ((3, 0x1), (2, 0x5), (4, 0x1))]
        for m in (2, 4):
            beta = circle_points(GF(2 * m))[0]
            calls.append((m, lambda beta=beta: correspond_adelaide(beta),
                          ["--family", "adelaide",
                           "--beta", f"0x{beta.bits:x}"]))
        for m, call, argv in calls:
            first = f"0x{(1 << m) // 2 - 1:x}"
            with pytest.raises(VerificationError,
                               match=f": mismatch at z = {first}$"):
                call()
            code = main(["correspond", "--m", str(m)] + argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert captured.err.startswith("error: verification failed")
            assert captured.err.rstrip().endswith(f"mismatch at z = {first}")

    _run(capsys, None,
         "negative control: a swapped catalog member is not verified",
         None, check)

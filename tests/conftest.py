"""Shared fixtures and independent oracle implementations.

Everything here recomputes library claims by a deliberately different
route: schoolbook arithmetic on plain ints, quadratic-time character
sums, brute-force searches over small parameter spaces.  Frozen
expected values in the test modules were produced by these oracles.
"""

import functools

import numpy as np
from hypothesis import settings, strategies as st

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


def oracle_mul(x, y, modulus, degree):
    """Schoolbook GF(2^degree) product: shift-add, reducing after every
    doubling step instead of one long division at the end."""
    acc = 0
    while y:
        if y & 1:
            acc ^= x
        y >>= 1
        x <<= 1
        if x >> degree:
            x ^= modulus
    return acc


def oracle_pow(x, e, modulus, degree):
    if e == 0:
        return 1
    acc = 1
    base = x
    while e:
        if e & 1:
            acc = oracle_mul(acc, base, modulus, degree)
        base = oracle_mul(base, base, modulus, degree)
        e >>= 1
    return acc


def oracle_trace(x, modulus, degree):
    acc = 0
    y = x
    for _ in range(degree):
        acc ^= y
        y = oracle_mul(y, y, modulus, degree)
    return acc


def oracle_rel_trace(x, r, modulus, degree):
    """sum_{i < degree/r} x^(2^(r i)), by r schoolbook squarings per
    term."""
    acc = 0
    y = x
    for _ in range(degree // r):
        acc ^= y
        for _ in range(r):
            y = oracle_mul(y, y, modulus, degree)
    return acc


def oracle_irreducible(modulus, degree):
    """Irreducibility over GF(2) via sympy, entirely separate from the
    library's trial-division test."""
    from sympy import GF as SF, Poly, Symbol
    x = Symbol("x")
    coeffs = [(modulus >> i) & 1 for i in range(degree, -1, -1)]
    return Poly(coeffs, x, domain=SF(2)).is_irreducible


def oracle_walsh_plain(values):
    """Quadratic-time character sum with the bit-parity pairing."""
    n = len(values).bit_length() - 1
    out = []
    for w in range(1 << n):
        acc = 0
        for x in range(1 << n):
            sign = int(values[x]) ^ bin(w & x).count("1") % 2
            acc += 1 - 2 * sign
        out.append(acc)
    return out


def oracle_walsh_field(values, field):
    """Quadratic-time character sum with the field trace pairing."""
    n = field.degree
    out = []
    for w in range(1 << n):
        acc = 0
        for x in range(1 << n):
            sign = int(values[x]) ^ field.trace_bits(field.mul_bits(w, x))
            acc += 1 - 2 * sign
        out.append(acc)
    return out


def oracle_anf(values):
    """ANF coefficients by direct subset sums (submask enumeration)."""
    size = len(values)
    out = []
    for mono in range(size):
        acc = 0
        sub = mono
        while True:
            acc ^= int(values[sub])
            if sub == 0:
                break
            sub = (sub - 1) & mono
        out.append(acc)
    return out


def oracle_degree(values):
    anf = oracle_anf(values)
    degs = [bin(i).count("1") for i, c in enumerate(anf) if c]
    return max(degs, default=0)


def oracle_extract(tt, field, u_bits, v_bits, small, emb):
    """Brute-force recovery of the slope map: for every z try every
    candidate value until the whole line x -> f(x(u + vz)) matches the
    small-field trace form.  Returns (h entries, mu bits) or None."""
    m = small.degree
    lift = [emb(small.el(x)).bits for x in range(1 << m)]

    def matches(point_of, cand):
        return all(
            int(tt.values[point_of(x)])
            == small.trace_bits(small.mul_bits(x, cand))
            for x in range(1 << m))

    mu = None
    for cand in range(1 << m):
        if matches(lambda y: field.mul_bits(v_bits, lift[y]), cand):
            mu = cand
            break
    if mu is None:
        return None
    entries = []
    for z in range(1 << m):
        line = u_bits ^ field.mul_bits(v_bits, lift[z])
        got = None
        for cand in range(1 << m):
            if matches(lambda x: field.mul_bits(lift[x], line), cand):
                got = cand
                break
        if got is None:
            return None
        entries.append(got)
    return entries, mu


def oracle_is_opoly(entries, field):
    """Direct definition: z -> G(z) + beta*z hits every value 0 or 2
    times, for every beta != 0."""
    size = 1 << field.degree
    for beta in range(1, size):
        seen = {}
        for z in range(size):
            v = entries[z] ^ field.mul_bits(beta, z)
            seen[v] = seen.get(v, 0) + 1
        if any(c != 2 for c in seen.values()):
            return False
    return True


@functools.cache
def oracle_opolynomials(m):
    """Every o-polynomial of GF(2^m) normalized to G(0) = 0 and G(1) = 1,
    as tuples of bitmasks in lexicographic order.  G is one exactly when
    it is a permutation and, from every point y, the slopes
    (G(z) + G(y)) / (z + y) over z != y are distinct: these q - 1 slopes
    are then every beta != 0 once, so z -> G(z) + beta z meets
    G(y) + beta y at exactly one z != y.  Backtracking
    assigns G(2), G(3), ... in turn and prunes at the first repeated
    slope; products and inverses come from one schoolbook q x q table."""
    from nihobent import GF
    modulus, q = GF(m).modulus, 1 << m
    mul = [[oracle_mul(x, y, modulus, m) for y in range(q)]
           for x in range(q)]
    inv = [0] + [row.index(1) for row in mul[1:]]
    g = [0, 1] + [0] * (q - 2)
    # bit s of used[y] is set once some assigned z has slope s from y;
    # the slope of 0 and 1 is 1
    used = [2, 2] + [0] * (q - 2)
    found = []

    def extend(z, free):
        if z == q:
            found.append(tuple(g))
            return
        for v in range(q):
            if not free >> v & 1:
                continue
            bits, mine = [], 0
            for y in range(z):
                bit = 1 << mul[v ^ g[y]][inv[z ^ y]]
                if (used[y] | mine) & bit:
                    break
                bits.append(bit)
                mine |= bit
            else:
                g[z], used[z] = v, mine
                for y, bit in enumerate(bits):
                    used[y] ^= bit
                extend(z + 1, free & ~(1 << v))
                for y, bit in enumerate(bits):
                    used[y] ^= bit

    extend(2, (1 << q) - 4)
    return tuple(found)


def oracle_blend(field, f, g, e, s):
    """(f + e s g + (s x)^(1/2)) / (1 + e s + s^(1/2)) one point at a
    time with FieldElement arithmetic; a list of bitmasks."""
    inv_a = (1 + e * s + s.sqrt()).inv()
    es, ss = e * s, s.sqrt()
    return [((field.el(f.entries[x]) + es * field.el(g.entries[x])
              + ss * field.el(x).sqrt()) * inv_a).bits
            for x in range(field.order)]


def oracle_subiaco1_pair(field):
    """The Subiaco case-1 base pair (f, g) one point at a time with
    FieldElement arithmetic; two lists of bitmasks."""
    fe, ge = [], []
    for xb in range(field.order):
        x = field.el(xb)
        sx = x.sqrt()
        den = x * x + x + 1
        den2 = (den * den).inv()
        fe.append(((x * x + x) * den2 + sx).bits)
        ge.append(((x ** 4 + x ** 3) * den2 + sx).bits)
    return fe, ge


def oracle_subiaco1_explicit(field, s):
    """The published case-1 explicit rational form (e = 1) at s, one
    point at a time with FieldElement arithmetic."""
    a_div = (1 + s + s.sqrt()).inv()
    entries = []
    for xb in range(field.order):
        x = field.el(xb)
        den = x * x + x + 1
        entries.append(((s * (x ** 4 + x ** 3) + x * x + x)
                        * a_div / (den * den) + x.sqrt()).bits)
    return entries


def oracle_subiaco3_pair(field, w):
    """The Subiaco case-3 base pair (f, g) one point at a time with
    FieldElement arithmetic; two lists of bitmasks."""
    k = w * w + w ** 5 + w.sqrt()
    fe, ge = [], []
    for xb in range(field.order):
        x = field.el(xb)
        sx = x.sqrt()
        den = x * x + w * x + 1
        den2 = (den * den).inv()
        fe.append(((w * w * (x ** 4 + x)
                    + w * w * (1 + w + w * w) * (x ** 3 + x * x))
                   * den2 + sx).bits)
        ge.append(((w ** 4 * x ** 4
                    + w ** 3 * (1 + w * w + w ** 4) * x ** 3
                    + w ** 3 * (1 + w * w) * x) * den2 / k
                   + (w.sqrt() / k) * sx).bits)
    return fe, ge


def oracle_subiaco3_explicit(field, w, e, s):
    """The published case-3 explicit rational form at its own parameter
    s, one point at a time with FieldElement arithmetic."""
    pref = (e + e * s + s.sqrt()).inv()
    wsum = 1 + w + w * w
    entries = []
    for xb in range(field.order):
        x = field.el(xb)
        den = x * x + w * x + 1
        rat = w * w * ((1 + s * w + w * w) * x ** 4
                       + wsum * wsum * (s * x ** 3 + x * x)
                       + (s + w + s * w * w) * x) \
            / (wsum * den * den)
        root = (s.sqrt() + (s + 1) / (w.sqrt() * wsum)) * x.sqrt()
        entries.append((pref * (rat + root)).bits)
    return entries


def oracle_subiaco2_pair(field, w):
    """The Subiaco case-2 base pair (f, g), w^2 + w + 1 = 0, one point
    at a time with FieldElement arithmetic; two lists of bitmasks:
    f = (x^4 + w x^3 + w x^2) / D^2 + w^2 x^(1/2) and
    g = (w x^3 + w x^2 + w^3 x) / D^2 + w^2 x^(1/2), D = x^2 + w x + 1."""
    fe, ge = [], []
    for xb in range(field.order):
        x = field.el(xb)
        den = x * x + w * x + 1
        den2 = den * den
        root = w * w * x.sqrt()
        fe.append(((x ** 4 + w * x ** 3 + w * x * x) / den2 + root).bits)
        ge.append(((w * x ** 3 + w * x * x + w ** 3 * x) / den2
                   + root).bits)
    return fe, ge


def oracle_subiaco2_explicit(field, w, s):
    """The published case-2 explicit rational form (e = w) at s, one
    point at a time with FieldElement arithmetic:
    (x^4 + w(s w + 1)(x^3 + x^2) + s w x) / (a D^2)
    + (w^2 + s + s^(1/2)) x^(1/2) / a, a = 1 + w s + s^(1/2)."""
    a = 1 + w * s + s.sqrt()
    c = w * (s * w + 1)
    entries = []
    for xb in range(field.order):
        x = field.el(xb)
        den = x * x + w * x + 1
        entries.append(((x ** 4 + c * x ** 3 + c * x * x + s * w * x)
                        / (a * den * den)
                        + (w * w + s + s.sqrt()) * x.sqrt() / a).bits)
    return entries


def oracle_closed_form_g(b, basis, emb):
    """closed_form_g's expanded expression one embedded point at a time
    with FieldElement arithmetic, projected back; a list of bitmasks."""
    m = emb.small.degree
    qm = 1 << m
    a = b ** (qm + 1)
    u, v = basis.u, basis.v
    t_lin = (u.frob(m) * v).rel_trace(m)
    k_coef = b * u * u * (u ** (2 * (qm - 1)) + v ** (2 * (qm - 1)))
    c = (a * u ** (qm + 1)).sqrt() \
        + (b * u.frob(m) * v ** (2 * (qm - 1))).rel_trace(m)
    out = []
    for zs in range(emb.small.order):
        z = emb(zs)
        val = c + (a * t_lin * z).sqrt() \
            + (k_coef * (u + v * z) ** (qm - 2)).rel_trace(m)
        out.append(emb.project(val).bits)
    return out


def oracle_closed_form_g_circle(b, u, emb, reduced):
    """Either published circle shape of G (closed_form_g_circle) one
    embedded point at a time, both fractions of the default shape
    written out; a list of bitmasks."""
    m = emb.small.degree
    a = b ** ((1 << m) + 1)
    ubar = u.frob(m)
    w = u + ubar
    bq = b.frob(m)
    if reduced:
        c = a.sqrt() + (bq * u ** 5).rel_trace(m)
        c4 = (bq * (u ** 5 + u)).rel_trace(m)
        c3 = b.rel_trace(m) * w * w
        c2 = (bq * u ** 5).rel_trace(m) * w * w
        c1 = (bq * (u ** 4 + 1)).rel_trace(m)
    else:
        c = a.sqrt() + (b * ubar).rel_trace(m)
    out = []
    for zs in range(emb.small.order):
        z = emb(zs)
        val = c + (a * w * z).sqrt()
        if reduced:
            den = z * z + w * z + 1
            val += (c4 * z ** 4 + c3 * z ** 3 + c2 * z * z + c1 * z) \
                / (den * den)
        else:
            val += b * w * w * (ubar + z) / ((u + z) * (u + z)) \
                + bq * w * w * (u + z) / ((ubar + z) * (ubar + z))
        out.append(emb.project(val).bits)
    return out


def oracle_trace_identities(b, u, v):
    """The three circle-form trace identities and the square-root
    expansion of (u + v z)^((2^m+1)/2), one subfield point z at a time
    with FieldElement arithmetic."""
    big = u.field
    m = big.degree // 2
    bq = b.frob(m)
    w = u + u.frob(m)
    tb = b + bq
    if (w * w * tb * u ** 3 + b * w ** 3 * (1 + w * w)
            != (bq * (u ** 5 + u)).rel_trace(m)
            or u * tb + b * w + (bq * (u ** 5 + u)).rel_trace(m)
            != (bq * u ** 5).rel_trace(m)
            or w * w * tb * u * u + b * w ** 4
            != (bq * (u ** 4 + 1)).rel_trace(m)):
        return False
    qm1 = (1 << m) + 1
    t_lin = (u.frob(m) * v).rel_trace(m)
    for zb in big.subfield_bits(m):
        z = big.el(zb)
        if ((u + v * z) ** qm1).sqrt() != (u ** qm1).sqrt() \
                + (t_lin * z).sqrt() + (v ** qm1).sqrt() * z:
            return False
    return True


def oracle_adelaide_pair(p):
    """The Adelaide base pair (f, g) one embedded point at a time in
    GF(2^n) FieldElement arithmetic, projected back; two lists of
    bitmasks."""
    emb, m, l = p.emb, p.m, p.l
    beta, trb, trbl = p.beta, p.trb, p.trbl
    fe, ge = [], []
    for xb in range(emb.small.order):
        x = emb(xb)
        sx = x.sqrt()
        dl = (x + trb * sx + 1) ** (l - 1)
        fval = trbl * (x + 1) / trb \
            + ((beta * x + beta.inv()) ** l).rel_trace(m) / (trb * dl) + sx
        egval = (trbl / trb) * x \
            + ((beta * beta * x + 1) ** l).rel_trace(m) / (trb * trbl * dl) \
            + sx / trbl
        fe.append(emb.project(fval).bits)
        ge.append(emb.project(egval / p.e_big).bits)
    return fe, ge


def oracle_adelaide_f1_display(p):
    """f_1 read off the scaled single-fraction display
    e tr(beta) tr(beta^l) f_1(x) = tr(beta^(2l))
        + tr((x + beta^2)^l) / (x + tr(beta) x^(1/2) + 1)^(l-1)
        + tr(beta) x^(1/2)
    one embedded point at a time; a list of bitmasks."""
    emb, m, l = p.emb, p.m, p.l
    beta, trb = p.beta, p.trb
    scale = p.e_big * trb * p.trbl
    tr2l = (beta ** (2 * l)).rel_trace(m)
    out = []
    for xb in range(emb.small.order):
        x = emb(xb)
        sx = x.sqrt()
        dl = (x + trb * sx + 1) ** (l - 1)
        rhs = tr2l + ((x + beta * beta) ** l).rel_trace(m) / dl + trb * sx
        out.append(emb.project(rhs / scale).bits)
    return out


def oracle_frobenius(field, i):
    """z -> z^(2^i) by i schoolbook squarings of every z."""
    out = []
    for z in range(field.order):
        for _ in range(i):
            z = oracle_mul(z, z, field.modulus, field.degree)
        out.append(z)
    return out


def oracle_normalize(entries, field):
    """(G(z) + G(0)) / (G(1) + G(0)) point by point, the inverse taken
    as a schoolbook power x^(q - 2)."""
    k, mod = field.degree, field.modulus
    scale = oracle_pow(entries[0] ^ entries[1], field.order - 2, mod, k)
    return [oracle_mul(e ^ entries[0], scale, mod, k) for e in entries]


def oracle_g_from_h(entries, mu, field):
    """H(z) + mu z point by point."""
    return [e ^ oracle_mul(mu, z, field.modulus, field.degree)
            for z, e in enumerate(entries)]


def oracle_two_to_one(entries):
    """Every value that occurs at all occurs exactly twice."""
    seen = {}
    for e in entries:
        seen[e] = seen.get(e, 0) + 1
    return all(c == 2 for c in seen.values())


def oracle_is_permutation(entries, field):
    """Every element of the field occurs once among the values."""
    return len(set(entries)) == field.order


def oracle_table_json(entries):
    """Hex names one f-string per entry."""
    return [f"0x{e:x}" for e in entries]


def oracle_tt_to_text(tt):
    """The truth-table text format written one point at a time."""
    return f"n={tt.n}\n" + "".join("01"[v] for v in tt.values) + "\n"


def oracle_tt_from_text(text):
    """(n, values) read one character at a time, or None for any text
    that is not 'n=<int>' then 2^n characters of 0/1."""
    lines = text.split()
    if len(lines) != 2 or not lines[0].startswith("n="):
        return None
    try:
        n = int(lines[0][2:])
    except ValueError:
        return None
    row = lines[1]
    if not 0 <= n <= 20 or len(row) != 1 << n or set(row) - {"0", "1"}:
        return None
    return n, [int(c == "1") for c in row]


def oracle_exp_log(field):
    """exp/log lists by repeated schoolbook multiplication with the
    generator; log[0] = -1."""
    k, n = field.degree, field.mult_order
    exp = [0] * n
    log = [-1] * field.order
    e = 1
    for i in range(n):
        exp[i] = e
        log[e] = i
        e = oracle_mul(e, field.generator, field.modulus, k)
    assert e == 1
    return exp, log


def oracle_mul_array(x, y, modulus, degree):
    """Schoolbook products of int64 arrays (or of an array and an int),
    elementwise: the oracle_mul shift-add with numpy masks, reducing after
    every doubling step; no field tables are read."""
    x = np.array(x, dtype=np.int64)
    y = np.array(y, dtype=np.int64)
    acc = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
    for _ in range(degree):
        acc ^= x * (y & 1)
        y = y >> 1
        x = x << 1
        x ^= (x >> degree) * modulus
    return acc


def oracle_subfield_bits(field, r):
    return [x for x in range(field.order) if field.frob_bits(x, r) == x]


def oracle_trace_table(field, r):
    """sum_{i<r} y^(2^i) for every y, by repeated squaring per point."""
    mul = field.mul_bits
    tab = [0] * field.order
    for y in range(field.order):
        acc = t = y
        for _ in range(r - 1):
            t = mul(t, t)
            acc ^= t
        tab[y] = acc
    return tab


def oracle_gram_rows(field):
    """Row bitmasks of M[i][j] = tr(X^i X^j), one schoolbook product and
    trace per entry."""
    k, mod = field.degree, field.modulus
    return [sum(oracle_trace(oracle_mul(1 << i, 1 << j, mod, k), mod, k)
                << j for j in range(k)) for i in range(k)]


def oracle_dual_basis(field):
    """The trace-dual basis of 1, X, ..., X^(k-1) by Gaussian elimination
    on the schoolbook Gram matrix: dual[j] is row j of the inverse, which
    is symmetric like the Gram matrix."""
    k = field.degree
    rows = oracle_gram_rows(field)
    inv = [1 << i for i in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if rows[r] >> col & 1)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        for r in range(k):
            if r != col and rows[r] >> col & 1:
                rows[r] ^= rows[col]
                inv[r] ^= inv[col]
    return inv


def oracle_pairing(field):
    """perm[w] = bitmask of M w for the trace Gram matrix M, by a parity
    per row and point; M comes from schoolbook products and traces."""
    rows = oracle_gram_rows(field)
    perm = []
    for w in range(field.order):
        img = 0
        for i, row in enumerate(rows):
            img |= (bin(row & w).count("1") & 1) << i
        perm.append(img)
    return perm


def oracle_embedding_table(small, big):
    """Table of the embedding sending X to the smallest root of the small
    modulus, found by evaluating it at every element of the big field."""
    root = None
    for cand in range(big.order):
        acc = 0
        for i in range(small.modulus.bit_length() - 1, -1, -1):
            acc = big.mul_bits(acc, cand)
            if small.modulus >> i & 1:
                acc ^= 1
        if acc == 0:
            root = cand
            break
    powers = [1]
    for _ in range(small.degree - 1):
        powers.append(big.mul_bits(powers[-1], root))
    table = []
    for x in range(small.order):
        acc = 0
        for i in range(small.degree):
            if x >> i & 1:
                acc ^= powers[i]
        table.append(acc)
    return table


def oracle_coset_affine(tt, field):
    """Second-difference test h(d+e)+h(d)+h(e)+h(0) = 0 over all pairs of
    subfield points, on one coset u GF(2^m) per power u of the generator:
    O(2^m q^2) work."""
    m = tt.n // 2
    sub = oracle_subfield_bits(field, m)
    pos = {y: i for i, y in enumerate(sub)}
    mul = field.mul_bits
    u = 1
    for _ in range((1 << m) + 1):
        h = [int(tt.values[mul(u, y)]) for y in sub]
        for i in range(1, len(sub)):
            for j in range(i, len(sub)):
                if h[pos[sub[i] ^ sub[j]]] ^ h[i] ^ h[j] ^ h[0]:
                    return False
        u = mul(u, field.generator)
    return True


def oracle_extract_h_mu(biv):
    """Per-point slope-map extraction: solve each line with the dual
    basis, then compare the trace form on every point.  Returns
    (H entries, mu bits), or raises NotClassHError for the first line that
    fails, the x = 0 line before the slopes in increasing order."""
    from nihobent import NotClassHError
    small = biv.field
    m, q = small.degree, small.order
    vals = biv.values
    dual = oracle_dual_basis(small)
    mul, tr = small.mul_bits, small.trace_bits
    mu = 0
    for j in range(m):
        if vals[0, 1 << j]:
            mu ^= dual[j]
    if any(vals[0, y] != tr(mul(mu, y)) for y in range(q)):
        raise NotClassHError(None, "x = 0")
    entries = []
    for z in range(q):
        h = 0
        for j in range(m):
            if vals[1 << j, mul(1 << j, z)]:
                h ^= dual[j]
        if any(vals[x, mul(x, z)] != tr(mul(h, x)) for x in range(q)):
            raise NotClassHError(z, f"slope 0x{z:x}")
        entries.append(h)
    return entries, mu


def table_from_function(field, fn):
    """MappingTable of fn, called once per element as a FieldElement."""
    from nihobent import MappingTable
    return MappingTable(field, [fn(field.el(z)).bits
                                for z in range(field.order)])


def monomial(field, a, d, c):
    """Entries of z -> a z^d + c over field, with 0^0 = 1."""
    return (field.table_mul(a, field.table_pow(np.arange(field.order), d))
            ^ c).tolist()


def circle_points(field):
    """The unit circle of field = GF(2^(2m)) without 1, as elements in
    bitmask order: every u or beta that the bridge accepts."""
    from nihobent import unit_circle
    return [field.el(u) for u in unit_circle(field)[1:]]


def truth_table_from_function(n, fn):
    """TruthTable of fn(x) & 1 over the bitmasks x of n bits."""
    from nihobent import TruthTable
    return TruthTable(n, [fn(x) & 1 for x in range(1 << n)])


def random_table(rng, n):
    from nihobent.boolfn import TruthTable
    vals = np.array([rng.randrange(2) for _ in range(1 << n)],
                    dtype=np.uint8)
    return TruthTable(n, vals)


def bent_or_mutated(m, data):
    """A random table on GF(2^(2m)), a binomial3 member, or the member
    with one bit flipped, as the hypothesis data strategy chooses."""
    from nihobent import GF, FamilySpec, TruthTable, build_bent
    F = GF(2 * m)
    kind = data.draw(st.sampled_from(["random", "bent", "flipped"]))
    if kind == "random":
        vals = [data.draw(st.integers(0, 1)) for _ in range(F.order)]
        return F, TruthTable(2 * m, vals)
    b = F.el(data.draw(st.integers(1, F.order - 1)))
    vals = build_bent(FamilySpec("binomial3", m, b=b)).truth_table() \
        .values.copy()
    if kind == "flipped":
        vals[data.draw(st.integers(0, F.order - 1))] ^= 1
    return F, TruthTable(2 * m, vals)

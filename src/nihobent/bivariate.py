"""Bivariate view of Boolean functions on GF(2^n) and the bridge to oval
polynomials (n = 2m).

Splitting GF(2^n) over a basis (u, v) of the GF(2^m)-vector space turns
f into g(x, y) = f(u x + v y).  When every restriction of g to a line
through the origin is GF(2)-linear, g is determined by a mapping
H: GF(2^m) -> GF(2^m) and a scalar mu via

    g(x, y) = tr(x H(y/x))   for x != 0,      g(0, y) = tr(mu y),

and G(z) = H(z) + mu z is the object of interest: f is bent exactly when
z -> G(z) + beta z is 2-to-1 for every beta != 0, which makes G an oval
polynomial (o-polynomial) of the projective plane PG(2, 2^m).

extract_h_mu recovers H and mu from a bivariate table: boolfn.line_forms
reads the GF(2) functional of every line and verifies it on every point,
and the field's dual table (the inverse of the trace pairing table that
gf2 owns) turns each functional into the field element it pairs with, so
a successful return is a proof that the table is in the class described
above.

is_opolynomial checks that G is a permutation first, since every
o-polynomial is one, and then tests the 2-to-1 property on whole
tables: with G in discrete-log order, Gl[j] = G(g^j), the values
G(g^j) + g^b g^j = Gl[j] ^ exp[(b + j) mod (q - 1)] of beta = g^b form a
window of the doubled exp table, so no q x q table is built.  Blocks of
about 2^14 values are counted by one bincount each, which keeps the
working set to a few hundred KiB.  Only one row per class of beta is
counted: when h = G + G(0) is a monomial a z^d, scaling z by c carries
the row of beta onto that of beta c^(1-d), so the r = gcd(d - 1, q - 1)
rows b < r decide, and the test costs O(q r).  r is 1 for z^(2^i) with
gcd(i, m) = 1 (0.05 ms at m = 11, 1.4 ms at m = 16) and q - 1 for every
table without the symmetry, such as each Subiaco and Adelaide member
(13 ms at m = 11, 1 s at m = 14, 18 s at m = 16).  More work than that
full scan, r q > (2^16 - 1) 2^16, is refused before any row is counted:
a bound by time, not memory, that admits monomials up to m = 20.
g_from_h, opoly_normalize, is_permutation and is_two_to_one are
whole-table numpy expressions too, on the read-only int64 array that a
MappingTable stores.

closed_form_g evaluates, for the s=3 binomial family, the algebraic
expression of G obtained by expanding (u + v z)^d directly; comparing it
against the extracted G validates that whole expansion pointwise.  The
closed forms are tables on the embedded points; the reduced circle form
is c plus subiaco_shape, the kernel of the Subiaco case-3 forms too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .boolfn import TruthTable, line_forms
from .gf2 import (Embedding, FieldElement, FieldSpec, InternalCheckError,
                  on_unit_circle, parse_hex_list)

__all__ = [
    "NotClassHError",
    "InternalCheckError",
    "BasisPair",
    "MappingTable",
    "BivariateTable",
    "to_bivariate",
    "extract_h_mu",
    "g_from_h",
    "is_permutation",
    "is_two_to_one",
    "is_opolynomial",
    "check_opoly_work",
    "opoly_normalize",
    "subiaco_shape",
    "closed_form_g",
    "closed_form_g_circle",
    "verify_trace_identities",
]


class NotClassHError(ValueError):
    """Some line restriction is not GF(2)-linear; .z is the slope of the
    offending line (small-field bitmask), or None for the x = 0 line."""

    def __init__(self, z: int | None, message: str):
        super().__init__(message)
        self.z = z


@dataclass(frozen=True)
class BasisPair:
    """u, v spanning GF(2^n) over the half-degree subfield.

    Independence is equivalent to u/v falling outside GF(2^m), which is
    what the constructor checks.
    """
    u: FieldElement
    v: FieldElement

    def __post_init__(self):
        u, v = self.u, self.v
        if u.field is not v.field:
            raise ValueError("basis elements from different fields")
        n = u.field.degree
        if n % 2:
            raise ValueError("basis needs even degree n = 2m")
        if not u.bits or not v.bits:
            raise ValueError("basis elements must be nonzero")
        if (u / v).in_subfield(n // 2):
            raise ValueError(
                f"u = 0x{u.bits:x}, v = 0x{v.bits:x} are dependent over "
                f"GF(2^{n // 2})")

    @property
    def field(self) -> FieldSpec:
        return self.u.field


class MappingTable:
    """A function GF(2^m) -> GF(2^m) tabulated by bitmask.

    The table is stored once, as a validated read-only int64 array that
    whole-table kernels take as it is; entries, the same values as a
    tuple of Python ints, is built on first use and kept."""

    __slots__ = ("field", "_array", "_entries")

    def __init__(self, field: FieldSpec, entries):
        arr = np.asarray(entries)
        if arr.shape != (field.order,):
            got = len(arr) if arr.ndim == 1 else f"shape {arr.shape}"
            raise ValueError(f"need {field.order} entries, got {got}")
        # integer dtypes only: "10" and 1.9 are errors, not ten and one
        if arr.dtype.kind not in "iu":
            raise ValueError(f"entries must be integers in "
                             f"0..{field.order - 1}, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() >= field.order:
            raise ValueError("entry out of field range")
        # astype copies, so the caller's array is neither frozen nor shared
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        self.field = field
        self._array = arr
        self._entries = None

    @property
    def entries(self) -> tuple:
        """The values as a tuple of Python ints."""
        if self._entries is None:
            self._entries = tuple(self._array.tolist())
        return self._entries

    def __eq__(self, other):
        if not isinstance(other, MappingTable):
            return NotImplemented
        # same field, so same length and both int64
        return (self.field is other.field
                and self._array.tobytes() == other._array.tobytes())

    def __hash__(self):
        return hash((self.field, self._array.tobytes()))

    def array(self) -> np.ndarray:
        """The stored read-only int64 array, for whole-table kernels."""
        return self._array

    def to_json(self) -> list:
        return self.field.hex_names()[self._array].tolist()

    @classmethod
    def from_json(cls, field: FieldSpec, data) -> "MappingTable":
        """Read a list of hex strings (gf2.parse_hex_list); any other
        entry is rejected, so a JSON number is never read as hex."""
        try:
            return cls(field, parse_hex_list(data))
        except TypeError:  # joining refused a non-string entry
            bad = next(e for e in data if not isinstance(e, str))
            raise ValueError(f"table entries must be hex strings, "
                             f"got {bad!r}") from None

    def __repr__(self):
        return (f"MappingTable(GF(2^{self.field.degree}), "
                f"{[hex(e) for e in self._array[:4].tolist()]}...)")


class BivariateTable:
    """g(x, y) over GF(2^m) x GF(2^m), entries indexed by bitmasks."""

    __slots__ = ("field", "values")

    def __init__(self, field: FieldSpec, values):
        arr = np.asarray(values, dtype=np.uint8)
        q = field.order
        if arr.shape != (q, q):
            raise ValueError(f"need a {q}x{q} table, got {arr.shape}")
        if arr.max(initial=0) > 1:
            raise ValueError("entries must be 0 or 1")
        self.field = field
        self.values = arr

    def __getitem__(self, xy) -> int:
        x, y = xy
        return int(self.values[x, y])

    def weight(self) -> int:
        return int(self.values.sum())


def to_bivariate(tt: TruthTable, basis: BasisPair,
                 emb: Embedding) -> BivariateTable:
    """Table of (x, y) -> f(u emb(x) + v emb(y))."""
    big = basis.field
    emb.check_half_of(big)
    if tt.n != big.degree:
        raise ValueError("truth table size does not match the field")
    ux = big.table_mul(basis.u.bits, emb.table)
    vy = big.table_mul(basis.v.bits, emb.table)
    return BivariateTable(emb.small, tt.values[ux[:, None] ^ vy])


def extract_h_mu(biv: BivariateTable) -> tuple[MappingTable, FieldElement]:
    """Recover (H, mu) from the line restrictions, verifying exhaustively
    that each restriction really is linear."""
    small = biv.field
    q = small.order
    vals = biv.values
    # prod[x, z] = x z; row 0 is the x = 0 line, row z + 1 the slope-z
    # line {(x, x z)}, both listed by x
    x = np.arange(q)[:, None]
    prod = small.table_mul(x, x.T)
    rows = np.vstack([vals[0], vals[x, prod].T])
    const, func, bad = line_forms(rows)
    if const[0]:
        # every line passes through (0, 0), where a linear form vanishes
        bad = 0
    if bad == 0:
        raise NotClassHError(None, "the x = 0 restriction is not linear")
    if bad is not None:
        z = bad - 1
        raise NotClassHError(
            z, f"the slope-0x{z:x} restriction is not linear")
    # tr(c x) has GF(2) functional a exactly when c = dual_table[a]
    coords = small.dual_table()[func]
    return (MappingTable(small, coords[1:]),
            FieldElement(coords[0], small))


def g_from_h(h: MappingTable, mu: FieldElement) -> MappingTable:
    """G(z) = H(z) + mu z."""
    if mu.field is not h.field:
        raise ValueError("mu from the wrong field")
    return MappingTable(h.field, h.array() ^ h.field.table_mul(
        mu.bits, np.arange(h.field.order)))


def is_permutation(t: MappingTable) -> bool:
    """Every value is hit: q values in range cover all q elements only
    when each is hit exactly once."""
    q = t.field.order
    return bool(np.count_nonzero(np.bincount(t.array(), minlength=q)) == q)


def _fibers_all_two(values: np.ndarray, size: int) -> bool:
    """Whether every value in 0..size-1 is hit 0 or 2 times: the fibers
    of size 2 must then cover all the values."""
    counts = np.bincount(values.ravel(), minlength=size)
    return bool(2 * np.count_nonzero(counts == 2) == values.size)


def is_two_to_one(t: MappingTable) -> bool:
    """Every fiber has size exactly 0 or 2."""
    return _fibers_all_two(t.array(), t.field.order)


# beta rows per block times q stays near this many elements, which keeps
# the block's values, offset G rows and fiber counts to a few hundred KiB
_OPOLY_BLOCK = 1 << 14

# the full scan of all q - 1 beta rows at m = 16 takes about 18 s on a
# 2-core Xeon; more work than that is refused rather than left to run
# for minutes
_OPOLY_WORK_MAX = ((1 << 16) - 1) << 16


def check_opoly_work(m: int, rows: int) -> None:
    """Raise ValueError when counting rows beta rows of q = 2^m values
    is more work than the full scan at m = 16; a caller who knows the
    row count can refuse before it builds any table."""
    if rows << m > _OPOLY_WORK_MAX:
        raise ValueError(
            f"the o-polynomial test would count r = {rows} rows of q = "
            f"{1 << m} values, more than the full scan at m = 16 (18 s)")


def _scan_rows(g: MappingTable) -> int:
    """How many beta rows decide the o-polynomial test for a permutation
    G: r = gcd(d - 1, q - 1) when h = G + G(0) is a monomial a z^d, and
    q - 1 otherwise.  h(c z) + beta c z = c^d (h(z) + beta c^(1-d) z),
    so the rows of beta and beta c^(1-d) have the same fibers, and the
    rows g^b with b < r meet every class.  h is a monomial exactly when
    h(g z) = g^d h(z) for every z, with g^d = h(g) / h(1); three
    lookups rule most tables out before the whole-table comparison."""
    field = g.field
    n = field.mult_order
    entries = g.array()
    gen, h0 = field.generator, entries.item(0)
    h1, hg, hg2 = (entries.item(z) ^ h0
                   for z in (1, gen, field.mul_bits(gen, gen)))
    if field.mul_bits(hg, hg) != field.mul_bits(h1, hg2):
        return n
    step = field.mul_bits(hg, field.inv_bits(h1))
    h_log = entries[field.exp_table] ^ h0
    if not np.array_equal(h_log[1:], field.table_mul(step, h_log[:-1])):
        return n
    return gcd(int(field.log_table[step]) - 1, n)


def is_opolynomial(g: MappingTable) -> bool:
    """Whether z -> G(z) + beta z is 2-to-1 for every beta != 0.  That
    property forces G itself to be a permutation, so a table that is
    not one is rejected before any row is counted.  When G + G(0) is a
    monomial a z^d, one row per class of beta is counted, r = gcd(d - 1,
    q - 1) rows in all (see _scan_rows), and all q - 1 otherwise: O(q r)
    work, refused by check_opoly_work before any row is counted."""
    field = g.field
    if not is_permutation(g):
        return False
    q = field.order
    entries = g.array()
    g_log = entries[field.exp_table]
    # row b of the windows is g^(b + j), j < q - 1: exp_cycle[b:b + q - 1]
    windows = field.exp_windows()[:_scan_rows(g)]
    check_opoly_work(field.degree, len(windows))
    rows = max(1, min(len(windows), _OPOLY_BLOCK // q))
    # row b (beta = g^b) is G(0), then G(g^j) + g^(b + j) for j < q - 1;
    # offsetting row r by r q lets one bincount count every row's fibers.
    # Both terms are below q, so (a ^ b) + r q = a ^ (b | r q): the offset
    # rides in G's rows, built once, and in the constant column
    offsets = np.arange(rows)[:, None] * q
    g_rows = g_log | offsets
    block = np.empty((rows, q), dtype=entries.dtype)
    block[:, :1] = entries[0] | offsets
    for start in range(0, len(windows), rows):
        win = windows[start:start + rows]
        vals = block[:len(win)]
        np.bitwise_xor(win, g_rows[:len(win)], out=vals[:, 1:])
        if not _fibers_all_two(vals, vals.size):
            return False
    return True


def opoly_normalize(g: MappingTable) -> MappingTable:
    """Affine renormalization (G(z) + G(0)) / (G(1) + G(0)), fixing
    G(0) = 0 and G(1) = 1; preserves the o-polynomial property."""
    g0, g1 = g.array()[:2].tolist()
    if g0 == g1:
        raise ValueError("cannot normalize: G(0) = G(1)")
    field = g.field
    scale = field.inv_bits(g0 ^ g1)
    return MappingTable(field, field.table_mul(scale, g.array() ^ g0))


def subiaco_shape(field: FieldSpec, x, w: int, coeffs, c_half: int
                  ) -> np.ndarray:
    """Table of (c4 x^4 + c3 x^3 + c2 x^2 + c1 x) / (x^2 + w x + 1)^2
    + c_half x^(1/2) over an argument table x of field bitmasks, with
    bitmask constants w, coeffs = (c4, c3, c2, c1) and c_half.  A zero
    of the denominator raises InternalCheckError through table_inv."""
    # Horner: (((c4 x + c3) x + c2) x + c1) x, and den = (x + w) x + 1
    num = 0
    for c in coeffs:
        num = field.table_mul(num ^ c, x)
    den = field.table_mul(x ^ w, x) ^ 1
    return field.table_mul(num, field.table_inv(field.table_mul(den, den))) \
        ^ field.table_mul(c_half, field.sqrt_table()[x])


def _half_degree(b: FieldElement, other: FieldSpec, emb: Embedding,
                 what: str) -> int:
    """m for n = 2m, after the checks that both closed forms make."""
    if other is not b.field:
        raise ValueError(f"b and {what} must share a field")
    emb.check_half_of(b.field)
    if b.bits == 0:
        raise ValueError("b must be nonzero")
    return emb.small.degree


def _project(emb: Embedding, vals: np.ndarray) -> MappingTable:
    """The preimages of closed-form values; a value outside GF(2^m) is
    an internal error naming the first."""
    try:
        return MappingTable(emb.small, emb.project_table(vals))
    except ValueError as exc:
        # project_table's message starts with that value
        raise InternalCheckError(f"closed form produced {str(exc).split()[0]}"
                                 f" outside the subfield") from exc


def closed_form_g(b: FieldElement, basis: BasisPair,
                  emb: Embedding) -> MappingTable:
    """G for the s=3 binomial family over an arbitrary basis (u, v),
    evaluated from the expanded algebraic expression:

        G(z) = c + (a T z)^(1/2) + tr(K (u + v z)^(2^m - 2)),
        T = tr(u^(2^m) v),
        K = b u^2 (u^(2(2^m-1)) + v^(2(2^m-1))),
        c = (a u^(2^m+1))^(1/2) + tr(b u^(2^m) v^(2(2^m-1))),

    with a = b^(2^m+1) and tr the relative trace onto GF(2^m), as table
    expressions on the embedded points z."""
    big = b.field
    m = _half_degree(b, basis.field, emb, "basis")
    a = b ** ((1 << m) + 1)
    u, v = basis.u, basis.v
    qm = 1 << m
    t_lin = (u.frob(m) * v).rel_trace(m)
    k_coef = b * u * u * (u ** (2 * (qm - 1)) + v ** (2 * (qm - 1)))
    c = (a * u ** (qm + 1)).sqrt() \
        + (b * u.frob(m) * v ** (2 * (qm - 1))).rel_trace(m)
    z = emb.table
    t = big.table_mul(k_coef.bits, big.table_pow(
        big.table_mul(v.bits, z) ^ u.bits, qm - 2))
    return _project(emb, c.bits ^ t ^ big.table_pow(t, qm)
                    ^ big.table_mul((a * t_lin).sqrt().bits,
                                    z[emb.small.sqrt_table()]))


def closed_form_g_circle(b: FieldElement, u: FieldElement, emb: Embedding,
                         reduced: bool = False) -> MappingTable:
    """The v = 1, u on the unit circle specialization of closed_form_g,
    in either of its two published shapes:

      default  c + (a w z)^(1/2) + b w^2 (u^(2^m)+z)/(u+z)^2
                                 + b^(2^m) w^2 (u+z)/(u^(2^m)+z)^2,
               c = a^(1/2) + tr(b u^(2^m))
      reduced  a^(1/2) + tr(b' u^5) + (a w z)^(1/2)
                 + [tr(b'(u^5+u)) z^4 + tr(b) w^2 z^3
                    + tr(b' u^5) w^2 z^2 + tr(b'(u^4+1)) z] / (z^2+wz+1)^2,
               b' = b^(2^m)

    where w = u + u^(2^m); the reduced shape is c plus subiaco_shape on
    the embedded points.  Both agree with the general form; the
    denominators never vanish for z in GF(2^m) because u and u^(2^m)
    are the roots of z^2 + wz + 1 and lie outside GF(2^m)."""
    big = b.field
    m = _half_degree(b, u.field, emb, "u")
    if not on_unit_circle(u):
        raise ValueError("u must lie on the unit circle outside GF(2^m)")
    a = b ** ((1 << m) + 1)
    ubar = u.frob(m)
    w = u + ubar
    z = emb.table
    if not reduced:
        c = a.sqrt() + (b * ubar).rel_trace(m)
        # for z in GF(2^m) the last term is the conjugate of the one
        # before it, so the two sum to tr(b w^2 (u^(2^m)+z)/(u+z)^2)
        t = big.table_mul((b * w * w).bits, big.table_mul(
            z ^ ubar.bits, big.table_inv(big.table_pow(z ^ u.bits, 2))))
        return _project(emb, c.bits ^ t ^ big.table_pow(t, 1 << m)
                        ^ big.table_mul((a * w).sqrt().bits,
                                        z[emb.small.sqrt_table()]))
    bq = b.frob(m)
    c = a.sqrt() + (bq * u ** 5).rel_trace(m)
    coeffs = [(bq * (u ** 5 + u)).rel_trace(m), b.rel_trace(m) * w * w,
              (bq * u ** 5).rel_trace(m) * w * w,
              (bq * (u ** 4 + big.one)).rel_trace(m)]
    return _project(emb, c.bits ^ subiaco_shape(
        big, z, w.bits, [k.bits for k in coeffs], (a * w).sqrt().bits))


def verify_trace_identities(b: FieldElement, u: FieldElement) -> bool:
    """The three trace identities used to reduce the circle form of G,
    plus the square-root expansion of (u + z)^((2^m+1)/2) on every
    subfield point z, as one table comparison.  b = 0 is allowed
    (everything degenerates to 0)."""
    big = u.field
    if b.field is not big:
        raise ValueError("b and u must share a field")
    if not on_unit_circle(u):
        raise ValueError("u must lie on the unit circle outside GF(2^m)")
    m = big.degree // 2
    bq = b.frob(m)
    w = u + u.frob(m)
    tb = b + bq
    ok = (w * w * tb * u ** 3 + b * w ** 3 * (1 + w * w)
          == (bq * (u ** 5 + u)).rel_trace(m))
    ok = ok and (u * tb + b * w + (bq * (u ** 5 + u)).rel_trace(m)
                 == (bq * u ** 5).rel_trace(m))
    ok = ok and (w * w * tb * u * u + b * w ** 4
                 == (bq * (u ** 4 + 1)).rel_trace(m))
    if not ok:
        return False
    qm1 = (1 << m) + 1
    half = big.order // 2
    z = big.subfield_bits(m)
    # x^(1/2) = x^(2^(n-1)), and the linear term's tr(u^(2^m)) is w
    lhs = big.table_pow(np.bitwise_xor(z, u.bits), qm1 * half)
    rhs = (u ** qm1).sqrt().bits \
        ^ big.table_mul(w.sqrt().bits, big.table_pow(z, half)) ^ z
    return bool((lhs == rhs).all())

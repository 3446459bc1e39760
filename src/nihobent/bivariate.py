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

is_opolynomial tests the 2-to-1 property for every beta != 0 on whole
tables: with G in discrete-log order, Gl[j] = G(g^j), the values
G(g^j) + g^b g^j = Gl[j] ^ exp[(b + j) mod (q - 1)] of beta = g^b form a
window of the doubled exp table, so no q x q table is built.  Blocks of
about 2^14 values are counted by one bincount each, which keeps the
working set to a few hundred KiB.  The work is still O(q^2), so the test
accepts m <= 16 only: a bound by time (about 20 s at m = 16), not by
memory.  g_from_h, opoly_normalize, is_permutation and is_two_to_one
are whole-table numpy expressions too, on the read-only int64 array that
a MappingTable stores.

closed_form_g evaluates, for the s=3 binomial family, the algebraic
expression of G obtained by expanding (u + v z)^d directly; comparing it
against the extracted G validates that whole expansion pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boolfn import TruthTable, line_forms
from .gf2 import (Embedding, FieldElement, FieldSpec, InternalCheckError,
                  linear_table)

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
    "check_opoly_degree",
    "opoly_normalize",
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
        if u.field != v.field:
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
        return (self.field == other.field
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
        """Read a list of hex strings; any other entry is rejected, so a
        JSON number is never read as hex."""
        values = []
        for e in data:
            if not isinstance(e, str):
                raise ValueError(f"table entries must be hex strings, "
                                 f"got {e!r}")
            values.append(int(e, 16))
        return cls(field, values)

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
    if emb.big != big:
        raise ValueError("embedding targets a different field")
    if tt.n != big.degree:
        raise ValueError("truth table size does not match the field")
    if emb.small.degree * 2 != big.degree:
        raise ValueError("embedding must come from the half-degree field")
    small = emb.small
    # x -> u emb(x) and y -> v emb(y) are GF(2)-linear
    lift = [emb.table[1 << i] for i in range(small.degree)]
    ux = linear_table([big.mul_bits(basis.u.bits, e) for e in lift])
    vy = linear_table([big.mul_bits(basis.v.bits, e) for e in lift])
    return BivariateTable(small, tt.values[ux[:, None] ^ vy])


def extract_h_mu(biv: BivariateTable) -> tuple[MappingTable, FieldElement]:
    """Recover (H, mu) from the line restrictions, verifying exhaustively
    that each restriction really is linear."""
    small = biv.field
    q = small.order
    vals = biv.values
    # prod[x, z] = x z; row 0 is the x = 0 line, row z + 1 the slope-z
    # line {(x, x z)}, both listed by x
    prod = linear_table([small.mul_table(1 << i)
                         for i in range(small.degree)])
    rows = np.vstack([vals[0], vals[np.arange(q)[:, None], prod].T])
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
            FieldElement(int(coords[0]), small))


def g_from_h(h: MappingTable, mu: FieldElement) -> MappingTable:
    """G(z) = H(z) + mu z."""
    if mu.field != h.field:
        raise ValueError("mu from the wrong field")
    return MappingTable(h.field, h.array() ^ h.field.mul_table(mu.bits))


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

# the test does O(q^2) work, about 20 s at m = 16 on a 2-core Xeon; larger
# m is refused rather than left to run for minutes
_OPOLY_M_MAX = 16


def check_opoly_degree(m: int) -> None:
    """Raise ValueError unless is_opolynomial accepts degree m, so that
    a caller can refuse m before it builds any table."""
    if m > _OPOLY_M_MAX:
        raise ValueError(
            f"the o-polynomial test needs m <= {_OPOLY_M_MAX} (O(q^2) "
            f"work); got m = {m}")


def is_opolynomial(g: MappingTable) -> bool:
    """Whether z -> G(z) + beta z is 2-to-1 for every beta != 0.  That
    property forces G itself to be a permutation, which is re-checked
    here as a guard.  Accepts m <= 16, a bound by time."""
    field = g.field
    check_opoly_degree(field.degree)
    exp = field.exp_table
    q = field.order
    entries = g.array()
    g_log = entries[exp]
    windows = sliding_window_view(np.concatenate([exp, exp[:-1]]), q - 1)
    rows = max(1, min(q - 1, _OPOLY_BLOCK // q))
    # row b (beta = g^b) is G(0), then G(g^j) + g^(b + j) for j < q - 1;
    # offsetting row r by r q lets one bincount count every row's fibers.
    # Both terms are below q, so (a ^ b) + r q = a ^ (b | r q): the offset
    # rides in G's rows, built once, and in the constant column
    offsets = np.arange(rows)[:, None] * q
    g_rows = g_log | offsets
    block = np.empty((rows, q), dtype=entries.dtype)
    block[:, :1] = entries[0] | offsets
    for start in range(0, q - 1, rows):
        win = windows[start:start + rows]
        vals = block[:len(win)]
        np.bitwise_xor(win, g_rows[:len(win)], out=vals[:, 1:])
        if not _fibers_all_two(vals, vals.size):
            return False
    if not is_permutation(g):
        raise InternalCheckError(
            "2-to-1 condition held for every beta but the map is not a "
            "permutation")
    return True


def opoly_normalize(g: MappingTable) -> MappingTable:
    """Affine renormalization (G(z) + G(0)) / (G(1) + G(0)), fixing
    G(0) = 0 and G(1) = 1; preserves the o-polynomial property."""
    g0, g1 = g.array()[:2].tolist()
    if g0 == g1:
        raise ValueError("cannot normalize: G(0) = G(1)")
    field = g.field
    scale = field.inv_bits(g0 ^ g1)
    return MappingTable(field, field.mul_table(scale)[g.array() ^ g0])


def _project_entry(emb: Embedding, val: FieldElement) -> int:
    if not val.in_subfield(emb.small.degree):
        raise InternalCheckError(
            f"closed form produced 0x{val.bits:x} outside the subfield")
    return emb.project(val).bits


def closed_form_g(b: FieldElement, basis: BasisPair,
                  emb: Embedding) -> MappingTable:
    """G for the s=3 binomial family over an arbitrary basis (u, v),
    evaluated from the expanded algebraic expression:

        G(z) = c + (a T z)^(1/2) + tr(K (u + v z)^(2^m - 2)),
        T = tr(u^(2^m) v),
        K = b u^2 (u^(2(2^m-1)) + v^(2(2^m-1))),
        c = (a u^(2^m+1))^(1/2) + tr(b u^(2^m) v^(2(2^m-1))),

    with a = b^(2^m+1) and tr the relative trace onto GF(2^m)."""
    big = b.field
    if basis.field != big or emb.big != big:
        raise ValueError("b, basis and embedding must share a field")
    n = big.degree
    if n % 2 or emb.small.degree != n // 2:
        raise ValueError("need n = 2m and the half-degree embedding")
    m = n // 2
    if b.bits == 0:
        raise ValueError("b must be nonzero")
    a = b ** ((1 << m) + 1)
    u, v = basis.u, basis.v
    qm = 1 << m
    t_lin = (u.frob(m) * v).rel_trace(m)
    k_coef = b * u * u * (u ** (2 * (qm - 1)) + v ** (2 * (qm - 1)))
    c = (a * u ** (qm + 1)).sqrt() \
        + (b * u.frob(m) * v ** (2 * (qm - 1))).rel_trace(m)
    entries = []
    for zs in range(emb.small.order):
        z = emb(zs)
        val = c + (a * t_lin * z).sqrt() \
            + (k_coef * (u + v * z) ** (qm - 2)).rel_trace(m)
        entries.append(_project_entry(emb, val))
    return MappingTable(emb.small, entries)


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

    where w = u + u^(2^m).  Both agree with the general form; the
    denominators never vanish for z in GF(2^m) because u and u^(2^m)
    are the roots of z^2 + wz + 1 and lie outside GF(2^m)."""
    big = b.field
    if u.field != big or emb.big != big:
        raise ValueError("b, u and embedding must share a field")
    n = big.degree
    if n % 2 or emb.small.degree != n // 2:
        raise ValueError("need n = 2m and the half-degree embedding")
    m = n // 2
    if b.bits == 0:
        raise ValueError("b must be nonzero")
    if (u ** ((1 << m) + 1)).bits != 1 or u.in_subfield(m):
        raise ValueError("u must lie on the unit circle outside GF(2^m)")
    a = b ** ((1 << m) + 1)
    ubar = u.frob(m)
    w = u + ubar
    entries = []
    if not reduced:
        c = a.sqrt() + (b * ubar).rel_trace(m)
        for zs in range(emb.small.order):
            z = emb(zs)
            val = c + (a * w * z).sqrt() \
                + b * w * w * (ubar + z) / ((u + z) * (u + z)) \
                + b.frob(m) * w * w * (u + z) / ((ubar + z) * (ubar + z))
            entries.append(_project_entry(emb, val))
        return MappingTable(emb.small, entries)
    bq = b.frob(m)
    c = a.sqrt() + (bq * u ** 5).rel_trace(m)
    c4 = (bq * (u ** 5 + u)).rel_trace(m)
    c3 = b.rel_trace(m) * w * w
    c2 = (bq * u ** 5).rel_trace(m) * w * w
    c1 = (bq * (u ** 4 + big.one)).rel_trace(m)
    for zs in range(emb.small.order):
        z = emb(zs)
        den = z * z + w * z + 1
        num = c4 * z ** 4 + c3 * z ** 3 + c2 * z * z + c1 * z
        val = c + (a * w * z).sqrt() + num / (den * den)
        entries.append(_project_entry(emb, val))
    return MappingTable(emb.small, entries)


def verify_trace_identities(b: FieldElement, u: FieldElement,
                            v: FieldElement | None = None) -> bool:
    """The three trace identities used to reduce the circle form of G,
    plus the square-root expansion of (u + v z)^((2^m+1)/2) on every
    subfield point z.  b = 0 is allowed (everything degenerates to 0)."""
    big = u.field
    if b.field != big:
        raise ValueError("b and u must share a field")
    n = big.degree
    if n % 2:
        raise ValueError("need n = 2m")
    m = n // 2
    if (u ** ((1 << m) + 1)).bits != 1 or u.in_subfield(m):
        raise ValueError("u must lie on the unit circle outside GF(2^m)")
    if v is None:
        v = big.one
    bq = b.frob(m)
    w = u + u.frob(m)
    tb = b + bq
    one = big.one

    ok = (w * w * tb * u ** 3 + b * w ** 3 * (one + w * w)
          == (bq * (u ** 5 + u)).rel_trace(m))
    ok = ok and (u * tb + b * w + (bq * (u ** 5 + u)).rel_trace(m)
                 == (bq * u ** 5).rel_trace(m))
    ok = ok and (w * w * tb * u * u + b * w ** 4
                 == (bq * (u ** 4 + one)).rel_trace(m))
    if not ok:
        return False
    qm1 = (1 << m) + 1
    t_lin = (u.frob(m) * v).rel_trace(m)
    for zb in big.subfield_bits(m):
        z = big.el(zb)
        lhs = ((u + v * z) ** qm1).sqrt()
        rhs = (u ** qm1).sqrt() + (t_lin * z).sqrt() + (v ** qm1).sqrt() * z
        if lhs != rhs:
            return False
    return True

"""Boolean functions on GF(2^n): truth tables, trace forms, exact Walsh
spectra, algebraic degree, and the subfield-coset linearity test.

A TruthTable stores 2^n bits indexed by element bitmask.  A TraceForm is a
sum of terms tr_r(c * x^e) where tr_r is the absolute trace of GF(2^r);
each term is well defined exactly when c lies in GF(2^r) and e is fixed by
multiplication with 2^r mod 2^n - 1, which the constructor enforces.  Its
truth table is one gather per term through the field's exp/log and trace
tables.

The Walsh transform runs as an in-place numpy butterfly in Theta(n 2^n)
word ops and is then reindexed through the field's pairing table
(FieldSpec.pairing_table, owned by gf2) so that index w carries the field
pairing tr(w x), not the coordinate dot product.  Spectra are exact
64-bit integers.  The algebraic degree is the largest popcount among
the nonzero ANF coefficients, one np.bitwise_count over the table.

line_forms, the one line-restriction kernel, checks f on all lines at once;
the subfield-coset test here and the slope-map extraction in bivariate
both run through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import (_DEGREE_MAX, FieldElement, FieldSpec, half_embedding,
                  linear_table)

__all__ = [
    "TruthTable",
    "TraceTerm",
    "TraceForm",
    "WalshSpectrum",
    "walsh_spectrum",
    "is_bent",
    "anf",
    "anf_degree",
    "line_forms",
    "has_affine_coset_restrictions",
]


class TruthTable:
    """2^n function values f(x) in {0,1}, indexed by the bitmask of x."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values):
        arr = np.asarray(values, dtype=np.uint8)
        if arr.shape != (1 << n,):
            raise ValueError(f"need exactly 2^{n} values, got {arr.shape}")
        if arr.max(initial=0) > 1:
            raise ValueError("truth table entries must be 0 or 1")
        self.n = n
        self.values = arr

    def weight(self) -> int:
        return int(self.values.sum())

    def __getitem__(self, x: int) -> int:
        return int(self.values[x])

    def __len__(self) -> int:
        return 1 << self.n

    def __eq__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.values,
                                                         other.values))

    def __hash__(self):
        return hash((self.n, self.values.tobytes()))

    def __xor__(self, other):
        if not isinstance(other, TruthTable):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("truth table sizes differ")
        return TruthTable(self.n, self.values ^ other.values)

    # -- text format: "n=<int>" newline, then 2^n chars of 0/1 ------------

    def to_text(self) -> str:
        # "0" and "1" are the bytes 48 and 49
        row = (self.values + 48).tobytes().decode("ascii")
        return f"n={self.n}\n{row}\n"

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        lines = text.split()
        if len(lines) != 2 or not lines[0].startswith("n="):
            raise ValueError("expected 'n=<int>' then one line of 0/1")
        try:
            n = int(lines[0][2:])
        except ValueError:
            raise ValueError(f"bad table header {lines[0]!r}") from None
        if not 0 <= n <= _DEGREE_MAX:
            raise ValueError(f"table size n={n} out of range")
        row = lines[1]
        # a non-ASCII character becomes "?", which fails the 0/1 test
        bits = np.frombuffer(row.encode("ascii", "replace"), np.uint8) - 48
        if len(row) != 1 << n or bits.max(initial=0) > 1:
            raise ValueError(f"expected 2^{n} characters of 0/1")
        return cls(n, bits)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "TruthTable":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read())

    def __repr__(self):
        return f"TruthTable(n={self.n}, weight={self.weight()})"


@dataclass(frozen=True)
class TraceTerm:
    """One summand tr_r(coeff * x^exponent), tr_r the GF(2^r) trace."""
    subfield_degree: int
    coeff: FieldElement
    exponent: int


class TraceForm:
    """A Boolean function given as a sum of subfield-trace monomials.

    Terms are (r, c, e) with r | n, c in the GF(2^r) subfield of the host
    field, and e * 2^r = e (mod 2^n - 1); those two conditions make
    sum_{i<r} (c x^e)^(2^i) a 0/1 value for every x, which is what tr_r
    means here.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field: FieldSpec, terms):
        n = field.degree
        mask = field.mult_order
        checked = []
        for term in terms:
            r, c, e = (term.subfield_degree, term.coeff, term.exponent) \
                if isinstance(term, TraceTerm) else term
            if not isinstance(c, FieldElement) or c.field is not field:
                raise ValueError("term coefficient must belong to the "
                                 "host field")
            if not 1 <= r <= n or n % r:
                raise ValueError(f"subfield degree {r} does not divide {n}")
            if not field.in_subfield_bits(c.bits, r):
                raise ValueError(
                    f"coefficient 0x{c.bits:x} is outside GF(2^{r})")
            e %= mask
            if (e << r) % mask != e:
                raise ValueError(
                    f"exponent {e} is not closed under the GF(2^{r}) "
                    f"Frobenius mod 2^{n}-1")
            checked.append(TraceTerm(r, c, e))
        self.field = field
        self.terms = tuple(checked)

    def truth_table(self) -> TruthTable:
        field = self.field
        out = np.zeros(field.order, dtype=np.uint8)
        # c x^e at x = g^j is g^(log c + e j), one fused gather over the
        # nonzero x; table_mul(c, table_pow(x, e)) would hold two more
        # 2^n-entry int64 arrays, 16 MiB more at n = 20
        logs = field.log_table[1:]
        for t in self.terms:
            # entries at non-subfield points are arbitrary bitmasks;
            # only subfield points (guaranteed by validation) are read
            tr = field.subfield_trace_table(t.subfield_degree)
            if t.coeff.bits == 0:
                continue
            if t.exponent == 0:
                # x^0 = 1 everywhere, including x = 0
                out ^= np.uint8(tr[t.coeff.bits])
                continue
            logc = field.log_table[t.coeff.bits]
            vals = tr[field.exp_table[(logs * t.exponent + logc)
                                      % field.mult_order]]
            if vals.max() > 1:
                raise AssertionError("trace term left the prime field")
            out[1:] ^= vals.astype(np.uint8)
        return TruthTable(field.degree, out)

    def to_json(self) -> list:
        return [{"subfield": t.subfield_degree,
                 "coeff": f"0x{t.coeff.bits:x}",
                 "exponent": t.exponent} for t in self.terms]

    def __repr__(self):
        body = " + ".join(
            f"tr{t.subfield_degree}(0x{t.coeff.bits:x}*x^{t.exponent})"
            for t in self.terms) or "0"
        return f"TraceForm(GF(2^{self.field.degree}), {body})"


def _walsh_butterfly(a: np.ndarray) -> np.ndarray:
    """Fast transform in place on the int64 array a, which ends holding
    out[c] = sum_x a[x] (-1)^(c.x); returns a."""
    h = 1
    size = a.shape[0]
    while h < size:
        pairs = a.reshape(-1, 2, h)
        left, right = pairs[:, 0], pairs[:, 1]
        left += right
        right *= 2
        np.subtract(left, right, out=right)   # (l + r) - 2r = l - r
        h *= 2
    return a


def _xor_butterfly(bits: np.ndarray) -> np.ndarray:
    """Binary Moebius transform over the hypercube (an involution)."""
    a = bits.copy()
    h = 1
    size = a.shape[0]
    while h < size:
        a = a.reshape(-1, 2 * h)
        a[:, h:] ^= a[:, :h]
        h *= 2
    return a.reshape(size)


@dataclass(frozen=True)
class WalshSpectrum:
    """Exact Walsh coefficients, index w = bitmask of w."""
    n: int
    values: np.ndarray

    @property
    def bent(self) -> bool:
        if self.n % 2:
            return False
        flat = 1 << (self.n // 2)
        return bool(np.all(np.abs(self.values) == flat))

    def parseval(self) -> int:
        return int((self.values.astype(np.int64) ** 2).sum())

    def to_json(self) -> list:
        return self.values.tolist()


def walsh_spectrum(tt: TruthTable, field: FieldSpec | None = None
                   ) -> WalshSpectrum:
    """Exact spectrum.  Without a field, index c pairs by the coordinate
    dot product c.x; with one, index w pairs by tr(w x) (Gram reindex).
    """
    flat = _walsh_butterfly(1 - 2 * tt.values.astype(np.int64))
    if field is not None:
        if field.degree != tt.n:
            raise ValueError("field degree does not match table size")
        flat = flat[field.pairing_table()]
    if flat[0] != (1 << tt.n) - 2 * tt.weight():
        raise AssertionError("transform identity at w=0 failed")
    return WalshSpectrum(tt.n, flat)


def is_bent(tt: TruthTable) -> bool:
    """True iff every Walsh value is +-2^(n/2).  Needs even n."""
    if tt.n % 2:
        raise ValueError("bentness is defined for even n only")
    return walsh_spectrum(tt).bent


def anf(tt: TruthTable) -> np.ndarray:
    """Algebraic normal form coefficients: entry u is the coefficient of
    the monomial prod_{i in u} x_i."""
    return _xor_butterfly(tt.values)


def anf_degree(tt: TruthTable) -> int:
    """Algebraic degree; 0 for both constants."""
    return int(np.bitwise_count(np.flatnonzero(anf(tt))).max(initial=0))


def line_forms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                          int | None]:
    """Affine forms of the rows of a lines x 2^m array of bits.

    Column x of a row is the value at the point whose GF(2) coordinates
    are the bits of x.  Returns (const, func, bad): const[L] = row L at 0,
    func[L] the bitmask a with row L equal to x -> const[L] ^ parity(a & x)
    wherever the row is affine, and bad the index of the first row that is
    not affine, or None when every row is.
    """
    m = rows.shape[1].bit_length() - 1
    const = rows[:, 0]
    coeffs = rows[:, 1 << np.arange(m)] ^ const[:, None]
    want = linear_table(coeffs.T) ^ const
    bad = np.flatnonzero((want != rows.T).any(axis=0))
    func = (coeffs.astype(np.int64) << np.arange(m)).sum(axis=1)
    return const, func, int(bad[0]) if bad.size else None


def has_affine_coset_restrictions(tt: TruthTable, field: FieldSpec) -> bool:
    """Whether f restricted to every coset u GF(2^m) of the half-degree
    subfield is affine over GF(2) (n = 2m).

    The cosets g^k GF(2^m), k = 0..2^m, are the 2^m + 1 lines through 0
    over GF(2^m); each is listed through the GF(2)-linear map
    x -> g^k emb(x) from GF(2^m) and handed to line_forms.
    """
    if field.degree != tt.n:
        raise ValueError("field degree does not match table size")
    emb = half_embedding(field)
    m = emb.small.degree
    # row i lists g^k emb(X^i) for k = 0..2^m
    lift = np.array([emb.table[1 << i] for i in range(m)])
    powers = field.table_pow(field.generator, np.arange((1 << m) + 1))
    points = linear_table(field.table_mul(lift[:, None], powers))
    return line_forms(tt.values[points.T])[2] is None

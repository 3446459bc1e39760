"""Exact arithmetic in binary fields GF(2^k) for k <= 20.

Elements are k-bit integers: bit i is the coefficient of X^i in the
polynomial basis 1, X, ..., X^(k-1).  A FieldSpec pins down the reduction
modulus and a primitive element; FieldElement pairs one bitmask with its
FieldSpec so that cross-field operations fail loudly instead of silently
mixing incompatible representations.  Fields are made with GF(), one
FieldSpec object per field, and field equality is object identity.

Reproducibility conventions:

  * the default modulus of degree k is the irreducible polynomial with
    the smallest integer bitmask (constant term forced nonzero, which
    only matters for k = 1 where it rules out the polynomial X);
  * the stored generator is the smallest bitmask whose multiplicative
    order is 2^k - 1.

Every table gf2 gives out is a read-only int64 numpy array: a field map
or an Embedding's table indexed by bitmask, the sorted subfield list,
the sorted unit circle and the Gram rows by position.  Callers index it
as it is, and none can corrupt it for the next.  The field maps are
GF(2)-linear maps of the bitmask, built by one kernel, linear_table,
from their k basis images (computed with the shift-and-xor primitive
_mul_raw) by XOR-doubling in O(2^k) word operations; frob_table(i) is
x -> x^(2^i), and sqrt_table is its i = k - 1 case.  The exp/log pair is
doubled the same way through the multiply-by-g^(2^i) tables at
construction, for every degree.  exp is stored twice over and then a 0
that log[0] points at, so a product is one gather at log a + log b with
no modulo and no zero mask; scalar mul, pow, inv and sqrt index the pair
in O(1) through memoryviews, and table_mul, table_inv and table_pow
apply the same arithmetic entrywise to bitmask arrays.  table_mul(c, t)
is also the one way to multiply a table by a constant, and exp_windows
is a cached strided view of exp_cycle whose rows are its windows of
length 2^k - 1.  The pair takes 3 * 2^(k+3) bytes, 24 MiB at the degree
cap k = 20.  Every table a FieldSpec holds or caches is a pure function
of it, so instances can be shared freely across threads.

The trace pairing (w, x) -> tr(w x) lives here alone: gram_rows is its
Gram matrix M on the polynomial basis (a Hankel matrix of the traces of
X^l), pairing_table the linear_table of w -> M w, and dual_table its
inverse, whose basis images are the trace-dual basis.  The Walsh reindex
in boolfn and the H/mu extraction in bivariate read these tables.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "FieldMismatchError",
    "InternalCheckError",
    "FieldSpec",
    "FieldElement",
    "Embedding",
    "GF",
    "clmul",
    "pmod",
    "is_irreducible",
    "default_modulus",
    "embed_subfield",
    "half_embedding",
    "linear_table",
    "on_unit_circle",
    "parse_hex",
    "parse_hex_list",
    "unit_circle",
    "unit_circle_element",
]

_DEGREE_MAX = 20


class FieldMismatchError(ValueError):
    """An operation tried to combine elements of two different fields."""


class InternalCheckError(RuntimeError):
    """A relation that is supposed to hold unconditionally failed."""


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[X]) product of two polynomial bitmasks."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def pmod(a: int, m: int) -> int:
    """Remainder of the polynomial bitmask a modulo m (m != 0)."""
    dm = m.bit_length()
    da = a.bit_length()
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length()
    return a


def is_irreducible(p: int) -> bool:
    """Irreducibility over GF(2), by trial division up to degree deg(p)/2."""
    k = p.bit_length() - 1
    if k < 1:
        return False
    for q in range(2, 1 << (k // 2 + 1)):
        if pmod(p, q) == 0:
            return False
    return True


def default_modulus(k: int) -> int:
    """Smallest-bitmask irreducible degree-k polynomial with constant term 1."""
    if not 1 <= k <= _DEGREE_MAX:
        raise ValueError(f"field degree must be in 1..{_DEGREE_MAX}, got {k}")
    for p in range((1 << k) | 1, 1 << (k + 1), 2):
        if is_irreducible(p):
            return p
    raise AssertionError("irreducible polynomials exist in every degree")


def linear_table(images) -> np.ndarray:
    """Table of the GF(2)-linear map that sends bit i to images[i]:
    entry x is the XOR of images[i] over the set bits i of x.

    images holds k integers, or k integer arrays of one shape, which give
    a table of shape (2^k, *shape).  Built by doubling,
    tab[h:2h] = tab[:h] ^ images[i], in O(2^k) numpy word operations.
    """
    images = np.asarray(images)
    tab = np.zeros((1 << len(images),) + images.shape[1:], dtype=images.dtype)
    h = 1
    for img in images:
        np.bitwise_xor(tab[:h], img, out=tab[h:2 * h])
        h *= 2
    return tab


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n."""
    fs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fs.append(n)
    return fs


def _memo(build):
    """FieldSpec method (or one-spec function) decorator: build(self,
    *args) runs once per spec and args, and its result, a numpy array,
    is kept in self._derived, read-only, so no caller can corrupt it."""
    @functools.wraps(build)
    def method(self, *args):
        key = (build.__name__, *args)
        if key not in self._derived:
            value = build(self, *args)
            value.flags.writeable = False
            self._derived[key] = value
        return self._derived[key]
    return method


class FieldSpec:
    """One concrete GF(2^k): degree, reduction modulus, primitive element.

    Build fields with GF(): a spec is equal only to itself, so one built
    here directly does not combine with GF()'s spec of the same field.

    With n = 2^k - 1, exp_table[j] = g^j (j < n) and log_table[x] are
    read-only int64 numpy arrays.  log_table[x] < n for x != 0, and
    log_table[0] = 2n is a sentinel, not a logarithm.  exp_table is the
    first n entries of exp_cycle = [exp, exp, 0], of length 2n + 1: the
    log sum of two nonzero entries (at most 2n - 2) indexes it with no
    reduction, and a sum with the sentinel in it clips onto the
    trailing 0.  table_mul, table_inv and table_pow are the whole-table
    arithmetic on them, and scalar operations index the same arrays
    through the memoryviews _exp (of exp_cycle) and _log.
    """

    __slots__ = ("degree", "modulus", "generator", "order", "mult_order",
                 "exp_table", "log_table", "exp_cycle", "_exp", "_log",
                 "_derived")

    def __init__(self, degree: int, modulus: int | None = None,
                 generator: int | None = None):
        if not 1 <= degree <= _DEGREE_MAX:
            raise ValueError(
                f"field degree must be in 1..{_DEGREE_MAX}, got {degree}")
        if modulus is None:
            modulus = default_modulus(degree)
        if modulus.bit_length() - 1 != degree:
            raise ValueError(
                f"modulus 0x{modulus:x} does not have degree {degree}")
        if not modulus & 1:
            raise ValueError(
                f"modulus 0x{modulus:x} has zero constant term")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus 0x{modulus:x} is reducible")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self.mult_order = self.order - 1
        self._derived = {}

        if generator is None:
            generator = self._find_generator()
        else:
            if not 0 < generator < self.order:
                raise ValueError(f"generator 0x{generator:x} out of range")
            if self._order_of(generator) != self.mult_order:
                raise ValueError(
                    f"0x{generator:x} does not generate the "
                    f"multiplicative group of GF(2^{degree})")
        self.generator = generator
        self._build_tables()

    # -- raw arithmetic used to build the tables --------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        return pmod(clmul(a, b), self.modulus)

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _order_of(self, a: int) -> int:
        """Exact multiplicative order of a nonzero element."""
        order = self.mult_order
        for p in _factorize(order) if order > 1 else []:
            while order % p == 0 and self._pow_raw(a, order // p) == 1:
                order //= p
        return order

    def _find_generator(self) -> int:
        if self.mult_order == 1:
            return 1
        for cand in range(2, self.order):
            if self._order_of(cand) == self.mult_order:
                return cand
        raise AssertionError("the multiplicative group is cyclic")

    def _build_tables(self):
        """exp[j] = g^j by doubling: exp[h:2h] = g^h * exp[:h], through
        the multiply-by-g^h table, for h = 1, 2, 4, ..., 2^(k-1); then
        the second copy, the trailing 0 and the log[0] sentinel."""
        n = self.mult_order
        exp = np.empty(2 * n + 1, dtype=np.int64)
        exp[0] = 1
        c = self.generator
        h = 1
        for _ in range(self.degree):
            times_c = linear_table([self._mul_raw(c, 1 << i)
                                    for i in range(self.degree)])
            exp[h:2 * h] = times_c[exp[:h]]
            c = self._mul_raw(c, c)
            h *= 2
        if exp[n] != 1:
            raise AssertionError("generator order check failed")
        exp[n:2 * n] = exp[:n]
        exp[2 * n] = 0
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp[:n]] = np.arange(n)
        if (log[1:] < 0).any():
            raise AssertionError(
                "exp table is not a permutation of the nonzero elements")
        log[0] = 2 * n
        exp.flags.writeable = log.flags.writeable = False
        self.exp_cycle, self.exp_table, self.log_table = exp, exp[:n], log
        self._exp, self._log = memoryview(exp), memoryview(log)

    # -- whole-table arithmetic (bitmask arrays in, int64 arrays out) ------

    def table_mul(self, a, b) -> np.ndarray:
        """Entrywise product of two tables, or of a table and a scalar
        bitmask: one gather at log a + log b, which the zero sentinel
        clips onto 0 wherever a factor is 0."""
        return self.exp_cycle.take(self.log_table[a] + self.log_table[b],
                                   mode="clip")

    def table_inv(self, a) -> np.ndarray:
        """Entrywise inverse, g^(n - log a).  A zero entry raises: the
        sentinel would index exp[n - 2n], the generator, not an error."""
        a = np.asarray(a)
        if np.count_nonzero(a) < a.size:
            raise InternalCheckError(
                f"division by zero at x = 0x{np.flatnonzero(a == 0)[0]:x}")
        return self.exp_cycle[self.mult_order - self.log_table[a]]

    def table_pow(self, a, e) -> np.ndarray:
        """Entrywise a**e for e >= 0 (an int or an array), with 0**0 = 1
        as in pow_bits."""
        a, e = np.asarray(a), np.asarray(e)
        if (e < 0).any():
            raise ValueError("table_pow needs exponents e >= 0")
        n = self.mult_order
        idx = self.log_table[a] * (e % n)
        idx %= n
        out = self.exp_table[idx]
        # the zero base: 0**e = 0, except 0**0 = 1
        out *= a != 0
        out += (a == 0) & (e == 0)
        return out

    # -- int-level operations (bitmask in, bitmask out) -------------------

    def mul_bits(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def pow_bits(self, a: int, e: int) -> int:
        """a**e with 0**0 = 1; the exponent of a nonzero base is reduced
        mod 2^k - 1, the zero base keeps e as written."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % self.mult_order]

    def inv_bits(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[self.mult_order - self._log[a]]

    def sqrt_bits(self, a: int) -> int:
        """The unique square root: squaring is a field automorphism."""
        return self.pow_bits(a, 1 << (self.degree - 1)) if a else 0

    def frob_bits(self, a: int, i: int = 1) -> int:
        """a ** (2^i); i is reduced mod k first, since a^(2^k) = a."""
        return self.pow_bits(a, 1 << (i % self.degree))

    def _frob_sum(self, a: int, step: int, terms: int) -> int:
        """sum_{i < terms} a^(2^(step i)), one exp lookup per term."""
        if a == 0:
            return 0
        j, acc = self._log[a], a
        for _ in range(terms - 1):
            j = (j << step) % self.mult_order
            acc ^= self._exp[j]
        return acc

    def trace_bits(self, a: int) -> int:
        """Absolute trace to GF(2); always 0 or 1."""
        return self._frob_sum(a, 1, self.degree)

    def rel_trace_bits(self, a: int, r: int) -> int:
        """Relative trace onto the subfield GF(2^r), r | k."""
        self._check_subdegree(r)
        return self._frob_sum(a, r, self.degree // r)

    def in_subfield_bits(self, a: int, r: int) -> bool:
        self._check_subdegree(r)
        return self.frob_bits(a, r) == a

    def _check_subdegree(self, r: int):
        if not 1 <= r <= self.degree or self.degree % r:
            raise ValueError(
                f"{r} is not a subfield degree of GF(2^{self.degree})")

    # -- cached derived tables (read-only arrays, see _memo) --------------

    @_memo
    def subfield_bits(self, r: int) -> np.ndarray:
        """Sorted bitmasks of the subfield GF(2^r) inside this field."""
        self._check_subdegree(r)
        # the kernel of the GF(2)-linear map x -> x^(2^r) + x, from a
        # transient table: keeping it (or frob_table(r)) would hold one
        # more 2^k-entry array per field, 8 MiB at k = 20
        moved = linear_table([self.frob_bits(1 << i, r) ^ (1 << i)
                              for i in range(self.degree)])
        return np.flatnonzero(moved == 0)

    @_memo
    def subfield_trace_table(self, r: int) -> np.ndarray:
        """Table of sum_{i<r} y^(2^i) for every y; equals the absolute
        trace of GF(2^r) whenever y lies in that subfield.  The map is
        GF(2)-linear, so the table follows from the k basis images."""
        self._check_subdegree(r)
        return linear_table([self._frob_sum(1 << i, 1, r)
                             for i in range(self.degree)])

    @_memo
    def frob_table(self, i: int) -> np.ndarray:
        """Table of x -> x^(2^i), i reduced mod k as in frob_bits; the
        map is GF(2)-linear, so the table follows from the k basis
        images."""
        return linear_table([self.frob_bits(1 << j, i)
                             for j in range(self.degree)])

    def sqrt_table(self) -> np.ndarray:
        """Table of x -> x^(1/2) = x^(2^(k-1))."""
        return self.frob_table(self.degree - 1)

    @_memo
    def exp_windows(self) -> np.ndarray:
        """Read-only (n, n) view of exp_cycle whose row b is
        exp_cycle[b:b + n], that is g^(b + j) for j < n, with
        n = 2^k - 1; a strided view, so it holds no copy."""
        n = self.mult_order
        return as_strided(self.exp_cycle, shape=(n, n),
                          strides=self.exp_cycle.strides * 2,
                          writeable=False)

    @_memo
    def gram_rows(self) -> np.ndarray:
        """Row bitmasks of the trace Gram matrix M[i][j] = tr(X^i * X^j),
        a Hankel matrix: row i is bits i..i+k-1 of t = sum_l tr(X^l) 2^l,
        where X^l (l <= 2k - 2) is the residue of the monomial 1 << l."""
        k = self.degree
        t = sum(self.trace_bits(pmod(1 << l, self.modulus)) << l
                for l in range(2 * k - 1))
        return np.array([t >> i & ((1 << k) - 1) for i in range(k)],
                        dtype=np.int64)

    @_memo
    def pairing_table(self) -> np.ndarray:
        """Table of w -> M w for the trace Gram matrix M: the coordinate
        dot product (M w).x equals the field pairing tr(w x).  M is
        symmetric, so its rows are also the images of the basis."""
        return linear_table(self.gram_rows())

    @_memo
    def dual_table(self) -> np.ndarray:
        """The inverse of pairing_table: entry a is the c with x -> tr(c x)
        of GF(2) functional a, the XOR of dual[j] over the set bits j of
        a.  The dual basis is checked on every basis pair first: the k x k
        traces tr(X^i dual[j]) must be the identity matrix."""
        k = self.degree
        pairing = self.pairing_table()
        if np.bincount(pairing, minlength=self.order).max() != 1:
            raise AssertionError("trace form is non-degenerate")
        inverse = np.empty_like(pairing)
        inverse[pairing] = np.arange(self.order)
        basis = 1 << np.arange(k)
        traces = self.subfield_trace_table(k)[
            self.table_mul(basis[:, None], inverse[basis])]
        if not np.array_equal(traces, np.eye(k, dtype=np.int64)):
            raise AssertionError("dual basis verification failed")
        return inverse

    def dual_basis_bits(self) -> list[int]:
        """The trace-dual basis of 1, X, ..., X^(k-1): tr(X^i * dual[j])
        is 1 iff i == j.  Read off the inverse pairing table."""
        return self.dual_table()[1 << np.arange(self.degree)].tolist()

    @_memo
    def hex_names(self) -> np.ndarray:
        """Object array of the names "0x..." of all elements in bitmask
        order; indexing it with a table of bitmasks names the whole table
        at once.  Holds 2^k strings once built."""
        # hex(x) spells f"0x{x:x}", at a third of its cost
        return np.array(list(map(hex, range(self.order))), dtype=object)

    # -- element construction ---------------------------------------------

    def el(self, bits: int) -> "FieldElement":
        return FieldElement(bits, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    @property
    def gen(self) -> "FieldElement":
        return FieldElement(self.generator, self)

    def __repr__(self):
        return (f"GF(2^{self.degree}; modulus=0x{self.modulus:x}, "
                f"generator=0x{self.generator:x})")

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "modulus": f"0x{self.modulus:x}",
                "generator": f"0x{self.generator:x}"}


def _mismatch(a: FieldSpec, b: FieldSpec, message: str = ""):
    """The error for two spec objects, which may be one field built twice."""
    if repr(a) == repr(b):
        message = f"two objects for one field {a!r}; build it with GF()"
    return FieldMismatchError(message or f"cannot combine {a!r} and {b!r}")


class FieldElement:
    """A bitmask, any integer but kept as a Python int, plus its
    FieldSpec.  Plain ints mixed into arithmetic are read as bitmasks of
    the same field.

    The field guard of every operation is ``is``: operands of two spec
    objects raise FieldMismatchError.  The hash is the bitmask alone, so
    it agrees with ``x == x.bits``."""

    __slots__ = ("bits", "field")

    def __init__(self, bits: int, field: FieldSpec):
        bits = operator.index(bits)
        if not 0 <= bits < field.order:
            raise ValueError(f"bitmask 0x{bits:x} out of range for "
                             f"GF(2^{field.degree})")
        self.bits = bits
        self.field = field

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise _mismatch(self.field, other.field)
            return other.bits
        if isinstance(other, int):
            if not 0 <= other < self.field.order:
                raise ValueError(f"int operand {other} out of field range")
            return other
        return NotImplemented

    def __add__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.bits ^ b, self.field)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(self.field.mul_bits(self.bits, b), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(
            self.field.mul_bits(self.bits, self.field.inv_bits(b)),
            self.field)

    def __rtruediv__(self, other):
        b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return FieldElement(
            self.field.mul_bits(b, self.field.inv_bits(self.bits)),
            self.field)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        return FieldElement(self.field.pow_bits(self.bits, e), self.field)

    def inv(self) -> "FieldElement":
        return FieldElement(self.field.inv_bits(self.bits), self.field)

    def sqrt(self) -> "FieldElement":
        return FieldElement(self.field.sqrt_bits(self.bits), self.field)

    def frob(self, i: int = 1) -> "FieldElement":
        return FieldElement(self.field.frob_bits(self.bits, i), self.field)

    def trace(self) -> int:
        return self.field.trace_bits(self.bits)

    def rel_trace(self, r: int) -> "FieldElement":
        return FieldElement(self.field.rel_trace_bits(self.bits, r),
                            self.field)

    def in_subfield(self, r: int) -> bool:
        return self.field.in_subfield_bits(self.bits, r)

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.bits == other.bits and self.field is other.field
        if isinstance(other, int):
            return self.bits == other
        return NotImplemented

    def __hash__(self):
        return hash(self.bits)

    def __str__(self):
        return f"0x{self.bits:x}"

    def __repr__(self):
        return f"FieldElement(0x{self.bits:x}, GF(2^{self.field.degree}))"


_FIELD_CACHE: dict = {}


def GF(degree: int, modulus: int | None = None,
       generator: int | None = None) -> FieldSpec:
    """The one FieldSpec object of a field, however it is spelled."""
    key = (degree, modulus, generator)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(degree, modulus, generator)
        # share one instance across equivalent spellings of the key
        spec = _FIELD_CACHE.setdefault(
            (degree, spec.modulus, spec.generator), spec)
        _FIELD_CACHE[key] = spec
    return spec


class Embedding:
    """The field homomorphism GF(2^r) -> GF(2^k) (r | k) that sends the
    small field's class of X to the smallest root of the small modulus in
    the big field, extended linearly.

    Multiplicativity is verified on all basis pairs at construction, in
    one table comparison, which settles it for all pairs since both sides
    are bilinear; the image is checked to be exactly the subfield.  table
    is a read-only int64 array, entry x the image of x.  The section (the
    inverse on the image) is the sorted image, subfield_bits, with its
    preimages, searched with np.searchsorted by project, contains and
    project_table alike.
    """

    __slots__ = ("small", "big", "table", "_image", "_preimage")

    def __init__(self, small: FieldSpec, big: FieldSpec):
        if big.degree % small.degree:
            raise ValueError(
                f"GF(2^{small.degree}) does not embed in GF(2^{big.degree})")
        r = small.degree
        # p, the small modulus, is irreducible of degree r, so its roots
        # lie in GF(2^r): p(c) = XOR of c^i over the set bits i of p, and
        # the first zero in the sorted subfield is the smallest
        cands = big.subfield_bits(r)[1:]
        terms = [[i] for i in range(r + 1) if small.modulus >> i & 1]
        values = np.bitwise_xor.reduce(big.table_pow(cands, terms))
        roots = np.flatnonzero(values == 0)
        if roots.size == 0:
            raise AssertionError("the small modulus splits in the big field")
        powers = big.table_pow(cands[roots[0]], np.arange(r))
        table = linear_table(powers)
        # emb(X^i X^j) = emb(X^i) emb(X^j) on every basis pair
        basis = 1 << np.arange(r)
        if not (table[small.table_mul(basis[:, None], basis)]
                == big.table_mul(powers[:, None], powers)).all():
            raise AssertionError("embedding is not multiplicative")
        # each x goes to the slot of emb(x) in the sorted subfield (the
        # search in image[:-1] puts a value above every entry on the last
        # slot), and the image is the subfield exactly when every slot
        # then holds an x that lands on it: an empty slot keeps x = 0.
        # No sort and no put: build calls neither otherwise, and a first
        # call maps 0.1-0.2 MiB more of numpy's code into its peak RSS
        image = big.subfield_bits(r)
        preimage = np.zeros(small.order, dtype=np.int64)
        preimage[np.searchsorted(image[:-1], table)] = np.arange(small.order)
        if not np.array_equal(table[preimage], image):
            raise AssertionError("embedding image is not the subfield")
        table.flags.writeable = preimage.flags.writeable = False
        self.small = small
        self.big = big
        self.table = table
        self._image = image
        self._preimage = preimage

    def __call__(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field is not self.small:
                raise _mismatch(x.field, self.small,
                                "element is not in the small field")
            x = x.bits
        return FieldElement(self.table[x], self.big)

    def _locate(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Positions of values in the sorted image, and which are hits."""
        pos = np.searchsorted(self._image, values)
        return pos, self._image.take(pos, mode="clip") == values

    def project_table(self, values) -> np.ndarray:
        """Preimages of an array of big-field bitmasks; a value outside
        the image raises ValueError naming the first one."""
        values = np.asarray(values)
        pos, hit = self._locate(values)
        if not hit.all():
            raise ValueError(f"0x{values[~hit].flat[0]:x} is outside the "
                             f"embedded subfield")
        return self._preimage[pos]

    def project(self, y: FieldElement) -> FieldElement:
        """Preimage of a big-field element; errors if outside the image."""
        if y.field is not self.big:
            raise _mismatch(y.field, self.big,
                            "element is not in the big field")
        return FieldElement(self.project_table(y.bits), self.small)

    def contains(self, y: FieldElement) -> bool:
        return y.field is self.big and bool(self._locate(y.bits)[1])

    def check_half_of(self, big: FieldSpec) -> None:
        """ValueError unless this embeds the half-degree subfield in big."""
        if self.big is not big or 2 * self.small.degree != big.degree:
            raise ValueError(f"need the embedding of the half-degree "
                             f"subfield into {big!r}")


@functools.cache
def embed_subfield(small: FieldSpec, big: FieldSpec) -> Embedding:
    """Cached Embedding factory."""
    return Embedding(small, big)


def _half_degree(field: FieldSpec) -> int:
    """m for the degree n = 2m of field; odd n raises ValueError."""
    if field.degree % 2:
        raise ValueError(f"need even degree n = 2m, got GF(2^{field.degree})")
    return field.degree // 2


def half_embedding(big: FieldSpec) -> Embedding:
    """embed_subfield(GF(m), big) for big = GF(2^n), n = 2m."""
    return embed_subfield(GF(_half_degree(big)), big)


def on_unit_circle(x: FieldElement) -> bool:
    """Whether x^(2^m + 1) = 1 with x outside GF(2^m), n = 2m; 1 is the
    only circle point inside GF(2^m), where x^(2^m + 1) = x^2."""
    m = _half_degree(x.field)
    return x.bits != 1 and x.field.pow_bits(x.bits, (1 << m) + 1) == 1


@_memo
def unit_circle(field: FieldSpec) -> np.ndarray:
    """The solutions of x^(2^m + 1) = 1 in GF(2^n), n = 2m, ascending, 1
    first: the cyclic group of order 2^m + 1 (the norm-1 circle over the
    subfield GF(2^m)), as a cached table like every other."""
    c = (1 << _half_degree(field)) + 1
    # the powers h^i, i < c, of h = g^step: distinct, and h^(c-1) h = 1
    bits = field.exp_table[::field.mult_order // c]
    circle = np.sort(bits)
    if field.mul_bits(bits[-1], bits[1]) != 1 or \
            (circle[1:] <= circle[:-1]).any():
        raise AssertionError("circle enumeration failed")
    return circle


def unit_circle_element(field: FieldSpec, selector: str) -> FieldElement:
    """One unit-circle element, chosen deterministically.

    Selectors:
      "cube"       the canonical cube root g^((2^n-1)/3); needs odd m
      "fifth:J"    the fifth root g^(J(2^n-1)/5), J in 1..4; needs
                   m = 2 (mod 4)
      "general:I"  the I-th element (bitmask order, 0-based) of the
                   circle with 1 removed
    """
    m = _half_degree(field)
    name, _, arg = selector.partition(":")
    if name not in ("cube", "fifth", "general"):
        raise ValueError(f"unknown unit-circle selector {selector!r}")
    # ASCII digits only: int() would read "1_0" and " +1" too
    if name != "cube" and not (arg.isascii() and arg.isdigit()):
        raise ValueError(f"bad {name} index {arg!r}")
    if name == "cube":
        if m % 2 == 0:
            raise ValueError("cube selector requires odd m")
        u = field.pow_bits(field.generator, field.mult_order // 3)
    elif name == "fifth":
        if m % 4 != 2:
            raise ValueError("fifth selector requires m = 2 (mod 4)")
        j = int(arg)
        if not 1 <= j <= 4:
            raise ValueError("fifth index must be in 1..4")
        u = field.pow_bits(field.generator, j * (field.mult_order // 5))
    else:
        i = int(arg)
        circle = unit_circle(field)[1:]  # 1 is the smallest bitmask
        if i >= len(circle):
            raise ValueError(f"general index must be in 0..{len(circle)-1}")
        u = circle[i]
    el = FieldElement(u, field)
    if not on_unit_circle(el):
        raise AssertionError("selector produced a non-circle element")
    return el


# hex text is an optional 0x or 0X, then ASCII hex digits: int(t, 16)
# also takes "1_0", " +10" and non-ASCII digits, but on hex digits, x
# and X alone it takes just that, and it refuses the joining commas
_HEX = "(?:0[xX])?[0-9a-fA-F]+"
_HEX_CHARS = re.compile("[0-9a-fA-FxX,]*")


def parse_hex_list(texts: list[str]) -> list[int]:
    """The bitmasks that hex strings spell; ValueError names a bad one."""
    try:
        if _HEX_CHARS.fullmatch(",".join(texts)):
            return list(map(int, texts, itertools.repeat(16)))
    except ValueError:
        pass
    bad = next(t for t in texts if not re.fullmatch(_HEX, t))
    raise ValueError(f"expected a hex bitmask, got {bad!r}")


def parse_hex(text: str) -> int:
    """parse_hex_list of one string."""
    return parse_hex_list([text])[0]

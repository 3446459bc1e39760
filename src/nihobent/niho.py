"""Builders for the bent-function families whose extra exponents are
congruent to a power of 2 modulo 2^m - 1 (n = 2m throughout).

Exponent bookkeeping: every such exponent d factors uniquely as
d = 2^j ((2^m - 1) s + 1) mod 2^n - 1 with 0 <= j < m, and only the class
of s mod 2^m + 1 matters.  Family congruences like 4 d = (2^m - 1) + 4 are
therefore solved on s modulo 2^m + 1 (where 4 and 6 are invertible), not
modulo 2^n - 1 (where they are not).

Families:

  quadratic          tr_m(a t^(2^m+1)),                 a in GF(2^m)*
  binomial3          + tr_n(b t^d2), s = 3,             b in GF(2^n)*
  binomial4          + tr_n(b t^d2), s = 1/4, m odd
  binomial6          + tr_n(b t^d2), s = 1/6, m even
  adelaide           alias of binomial6 (same function, named for the
                     hyperoval family its o-polynomial lands in)
  leander_kholosha   tr_n(a t^(2^m+1)) + sum_i tr_n(t^di),
                     a + a^(2^m) = 1, parameter r > 1 with gcd(r,m)=1,
                     s_i = i/2^r for i = 1 .. 2^(r-1)-1

For binomial3 with m = 2 (mod 4) the classical statement asks b to be a
fifth power; that restriction is known to be unnecessary, so the builder
only enforces it in strict mode and otherwise just reports it.

Options: quadratic a; binomials b, a; leander_kholosha a, r; binomial3 strict.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd

from .boolfn import TraceForm, TraceTerm
from .gf2 import GF, FieldElement, FieldSpec

__all__ = [
    "NotNihoExponentError",
    "FamilyConditionError",
    "NihoExponent",
    "FamilySpec",
    "FamilyReport",
    "FAMILIES",
    "niho_normalize",
    "family_exponent",
    "is_fifth_power",
    "build_bent",
    "family_report",
]

FAMILIES = ("quadratic", "binomial3", "binomial4", "binomial6",
            "adelaide", "leander_kholosha")

_BINOMIALS = ("binomial3", "binomial4", "binomial6", "adelaide")


class NotNihoExponentError(ValueError):
    """The exponent is not a power of 2 modulo 2^m - 1."""


class FamilyConditionError(ValueError):
    """A family precondition failed; .kind is a machine-readable tag."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class NihoExponent:
    """d = 2^j ((2^m - 1) s + 1) mod 2^n - 1, with s canonical in
    [0, 2^m]."""
    m: int
    s: int
    j: int

    @property
    def d(self) -> int:
        mask = (1 << 2 * self.m) - 1
        return ((((1 << self.m) - 1) * self.s + 1) << self.j) % mask

    def __repr__(self):
        return f"NihoExponent(m={self.m}, s={self.s}, j={self.j})"


def niho_normalize(d: int, m: int) -> NihoExponent:
    """Factor d as 2^j ((2^m-1) s + 1) mod 2^n - 1; error if d is not
    congruent to a power of 2 mod 2^m - 1."""
    if m < 2:
        raise ValueError("normalization needs m >= 2")
    n = 2 * m
    mask = (1 << n) - 1
    if not 0 < d < mask:
        raise ValueError(f"exponent must be in 1..{mask - 1}, got {d}")
    small = (1 << m) - 1
    rem = d % small
    if rem == 0 or rem & (rem - 1):
        raise NotNihoExponentError(
            f"{d} mod {small} = {rem} is not a power of 2")
    j = rem.bit_length() - 1
    dd = (d << (n - j)) % mask
    q, check = divmod(dd - 1, small)
    if check:
        raise AssertionError("normalization arithmetic failed")
    return NihoExponent(m=m, s=q, j=j)


def family_exponent(family: str, m: int) -> int:
    """The extra exponent d2 of a binomial family, normalized (j = 0)."""
    if m < 2:
        raise FamilyConditionError("field_degree", "families need m >= 2")
    c = (1 << m) + 1
    if family == "binomial3":
        s = 3
    elif family == "binomial4":
        if m % 2 == 0:
            raise FamilyConditionError("parity", "binomial4 needs odd m")
        s = pow(4, -1, c)
    elif family in ("binomial6", "adelaide"):
        if m % 2:
            raise FamilyConditionError("parity", f"{family} needs even m")
        s = pow(6, -1, c)
        if s != ((1 << (m - 1)) + 1) // 3:
            raise AssertionError("1/6 mod 2^m+1 closed form failed")
    else:
        raise ValueError(f"{family!r} has no single extra exponent")
    return ((1 << m) - 1) * (s % c) + 1


def is_fifth_power(b: FieldElement) -> bool:
    """Whether b is a fifth power; needs b != 0 and 5 | 2^n - 1."""
    if b.bits == 0:
        raise ValueError("fifth-power test needs b != 0")
    order = b.field.mult_order
    if order % 5:
        raise ValueError(f"5 does not divide 2^{b.field.degree} - 1")
    return b.field.pow_bits(b.bits, order // 5) == 1


@dataclass
class FamilySpec:
    """Parameters of one family member.  Coefficients are elements of the
    host field GF(2^n); for the quadratic term the coefficient must lie
    in the half-degree subfield."""
    family: str
    m: int
    a: FieldElement | None = None
    b: FieldElement | None = None
    r: int | None = None
    field: FieldSpec | None = dc_field(default=None)

    def __post_init__(self):
        self.family = self.family.replace("-", "_")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {', '.join(FAMILIES)}")
        if not isinstance(self.m, int) or self.m < 2:
            raise FamilyConditionError("field_degree",
                                       f"m must be an integer >= 2, "
                                       f"got {self.m!r}")
        n = 2 * self.m
        for name, el in (("a", self.a), ("b", self.b)):
            if el is None:
                continue
            if not isinstance(el, FieldElement):
                raise ValueError(f"{name} must be a FieldElement")
            if el.field.degree != n:
                raise FamilyConditionError(
                    "field_degree",
                    f"{name} lives in GF(2^{el.field.degree}), "
                    f"need GF(2^{n})")
            if self.field is None:
                self.field = el.field
            elif self.field is not el.field:
                raise FamilyConditionError(
                    "field_degree", "coefficients from different fields")
        if self.field is None:
            self.field = GF(n)
        elif self.field.degree != n:
            raise FamilyConditionError(
                "field_degree",
                f"field has degree {self.field.degree}, need {n}")

    def to_json(self) -> dict:
        return {"family": self.family,
                "m": self.m,
                "a": f"0x{self.a.bits:x}" if self.a is not None else None,
                "b": f"0x{self.b.bits:x}" if self.b is not None else None,
                "r": self.r}


def build_bent(spec: FamilySpec, strict: bool = False) -> TraceForm:
    """The family member as a TraceForm.  strict restores the classical
    fifth-power requirement on b for binomial3 with m = 2 (mod 4); any
    option the family does not read is refused."""
    fam, m, host = spec.family, spec.m, spec.field
    n = 2 * m
    quad_exp = (1 << m) + 1
    if strict and fam != "binomial3":
        raise FamilyConditionError(
            "coefficient", f"--strict does not apply to the {fam} family")
    if spec.r is not None and fam != "leander_kholosha":
        raise FamilyConditionError("coefficient", f"{fam} takes no r")

    if fam == "quadratic":
        a = spec.a
        if a is None or a.bits == 0:
            raise FamilyConditionError("coefficient",
                                       "quadratic needs a != 0")
        if not a.in_subfield(m):
            raise FamilyConditionError(
                "subfield", f"a = 0x{a.bits:x} is outside GF(2^{m})")
        if spec.b is not None:
            raise FamilyConditionError("coefficient",
                                       "quadratic takes no b")
        return TraceForm(host, [TraceTerm(m, a, quad_exp)])

    if fam in _BINOMIALS:
        b = spec.b
        if b is None or b.bits == 0:
            raise FamilyConditionError("coefficient",
                                       f"{fam} needs b != 0")
        d2 = family_exponent(fam, m)
        a_derived = b ** quad_exp
        if spec.a is None:
            a = a_derived
        elif spec.a != a_derived:
            raise FamilyConditionError(
                "a_mismatch",
                f"a must equal b^(2^m+1) = 0x{a_derived.bits:x}, "
                f"got 0x{spec.a.bits:x}")
        else:
            a = spec.a
        if strict and fam == "binomial3" and m % 4 == 2 \
                and not is_fifth_power(b):
            raise FamilyConditionError(
                "fifth_power",
                f"strict mode: b = 0x{b.bits:x} is not a fifth power")
        return TraceForm(host, [TraceTerm(m, a, quad_exp),
                                TraceTerm(n, b, d2)])

    # leander_kholosha
    a = spec.a
    if a is None:
        raise FamilyConditionError("coefficient",
                                   "leander_kholosha needs a")
    if (a + a.frob(m)).bits != 1:
        raise FamilyConditionError(
            "a_constraint",
            f"need a + a^(2^m) = 1, got 0x{(a + a.frob(m)).bits:x}")
    if spec.b is not None:
        raise FamilyConditionError("coefficient",
                                   "leander_kholosha takes no b")
    r = spec.r
    if not isinstance(r, int) or r <= 1:
        raise FamilyConditionError("lk_r",
                                   f"need integer r > 1, got {r!r}")
    if gcd(r, m) != 1:
        raise FamilyConditionError(
            "lk_gcd", f"need gcd(r, m) = 1, got gcd({r}, {m}) = "
                      f"{gcd(r, m)}")
    c = (1 << m) + 1
    inv2r = pow(1 << r, -1, c)
    terms = [TraceTerm(n, a, quad_exp)]
    one = host.one
    for i in range(1, 1 << (r - 1)):
        s_i = (i * inv2r) % c
        terms.append(TraceTerm(n, one, ((1 << m) - 1) * s_i + 1))
    return TraceForm(host, terms)


@dataclass
class FamilyReport:
    """Non-raising summary of a family member's exponent data and the
    classically expected invariants."""
    family: str
    m: int
    n: int
    d2: int | None
    gcd_d2: int | None
    b_is_fifth_power: bool | None
    expected_degree: int | None
    applicable: bool
    problems: list

    def to_json(self) -> dict:
        return {"family": self.family, "m": self.m, "n": self.n,
                "d2": self.d2, "gcd_d2": self.gcd_d2,
                "b_is_fifth_power": self.b_is_fifth_power,
                "expected_degree": self.expected_degree,
                "applicable": self.applicable,
                "problems": list(self.problems)}


_EXPECTED_DEGREE = {"quadratic": (lambda m: 2),
                    "binomial3": (lambda m: m),
                    "binomial4": (lambda m: 3),
                    "binomial6": (lambda m: m),
                    "adelaide": (lambda m: m),
                    "leander_kholosha": (lambda m: None)}


def family_report(spec: FamilySpec) -> FamilyReport:
    fam, m = spec.family, spec.m
    n = 2 * m
    problems = []
    d2 = gcd_d2 = None
    if fam in _BINOMIALS:
        try:
            d2 = family_exponent(fam, m)
            gcd_d2 = gcd(d2, (1 << n) - 1)
        except FamilyConditionError as exc:
            problems.append(f"{exc.kind}: {exc}")
    fifth = None
    if spec.b is not None and spec.b.bits and spec.b.field.mult_order % 5 == 0:
        fifth = is_fifth_power(spec.b)
    if not problems:
        try:
            build_bent(spec)
        except FamilyConditionError as exc:
            problems.append(f"{exc.kind}: {exc}")
        except ValueError as exc:
            problems.append(str(exc))
    return FamilyReport(family=fam, m=m, n=n, d2=d2, gcd_d2=gcd_d2,
                        b_is_fifth_power=fifth,
                        expected_degree=_EXPECTED_DEGREE[fam](m),
                        applicable=not problems, problems=problems)

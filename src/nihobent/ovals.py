"""The Subiaco and Adelaide o-polynomial catalogs, and the pointwise
correspondence between binomial bent functions and catalog members.

The Subiaco catalog lives entirely in GF(2^m): three parameter cases
(m odd; m = 2 mod 4; arbitrary m with a free parameter w), each giving a
pair (f, g) and the one-parameter blend

    f_s = (f + e s g + s^(1/2) x^(1/2)) / (1 + e s + s^(1/2)),

whose denominator never vanishes because tr(e) = 1; each term is
GF(2)-linear in a table (f, g or x^(1/2)), so f_s is a composition of
whole-table maps with no per-point loop.  The case-3 pair and explicit
form are whole-table too (FieldSpec.table_mul, and table_inv, which
refuses zero entries).  Cases 1 and 2 are still evaluated point by point
in FieldElement arithmetic, for a measured reason, not a mathematical
one: the benchmark runner keeps a record per completed item, so their
faster port raised the survey benchmark's peak RSS by 7 to 15%, past its
10% bound; they follow once that memory no longer grows with throughput.
The Adelaide catalog (m even) is defined through relative traces of a
unit-circle element beta of GF(2^n), so it is evaluated inside the big
field as whole-table expressions on the q embedded arguments (table_pow,
table_mul, tr(z) = z + z^(2^m)) and projected back through the
embedding's section.

correspond_subiaco / correspond_adelaide run the whole pipeline.  Each
branch derives its parameters (s, c0, c1, the catalog case) and builds
the claimed catalog member; one shared tail then builds the binomial
bent function, splits it over the basis (u, 1), extracts G, and checks
G(z) = c0 + c1 member(z) on every point.  A mismatch raises
VerificationError: it would mean the implementation (or the claimed
correspondence) is wrong.

Every f_s evaluation cross-checks the defining blend against the
published explicit rational form; for the arbitrary-m case the explicit
form is parameterized by s+1 relative to the blend, and both
parameterizations are exposed (subiaco_fs vs subiaco_fs_explicit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bivariate import (BasisPair, MappingTable, extract_h_mu, g_from_h,
                        to_bivariate)
from .gf2 import (GF, Embedding, FieldElement, FieldSpec, InternalCheckError,
                  embed_subfield, linear_table, unit_circle_element)
from .niho import FamilySpec, build_bent

__all__ = [
    "VerificationError",
    "SubiacoParams",
    "AdelaideParams",
    "Correspondence",
    "subiaco_pair",
    "subiaco_fs",
    "subiaco_fs_explicit",
    "adelaide_pair",
    "adelaide_fs",
    "adelaide_f1",
    "frobenius_map",
    "correspond_subiaco",
    "correspond_adelaide",
]


class VerificationError(RuntimeError):
    """A claimed pointwise correspondence failed on some input."""


def _as_element(field: FieldSpec, x) -> FieldElement:
    if isinstance(x, FieldElement):
        if x.field != field:
            raise ValueError("element from the wrong field")
        return x
    return field.el(x)


@dataclass(frozen=True)
class SubiacoParams:
    """One Subiaco parameter set: case 1 (m odd, w = e = 1), case 2
    (m = 2 mod 4, w^2 + w + 1 = 0, e = w), or case 3 (any m; w != 0 with
    w^2 + w + 1 != 0 and tr(1/w) = 1)."""
    field: FieldSpec
    case: int
    w: FieldElement
    e: FieldElement

    @classmethod
    def case_i(cls, field: FieldSpec) -> "SubiacoParams":
        if field.degree % 2 == 0:
            raise ValueError("case 1 needs odd m")
        return cls(field, 1, field.one, field.one)

    @classmethod
    def case_ii(cls, field: FieldSpec,
                w: FieldElement | int | None = None) -> "SubiacoParams":
        if field.degree % 4 != 2:
            raise ValueError("case 2 needs m = 2 (mod 4)")
        if w is None:
            # the roots are the cube roots of unity r and r^2 = r + 1
            r = field.pow_bits(field.generator, field.mult_order // 3)
            w = min(r, r ^ 1)
        w = _as_element(field, w)
        if (w * w + w + 1).bits:
            raise ValueError(
                f"w = 0x{w.bits:x} does not satisfy w^2 + w + 1 = 0")
        e = w
        if field.trace_bits(e.bits) != 1:
            raise InternalCheckError("case 2 e must have trace 1")
        return cls(field, 2, w, e)

    @classmethod
    def case_iii(cls, field: FieldSpec,
                 w: FieldElement | int) -> "SubiacoParams":
        w = _as_element(field, w)
        if w.bits == 0 or (w * w + w + 1).bits == 0 \
                or w.inv().trace() != 1:
            raise ValueError(
                f"w = 0x{w.bits:x} needs w != 0, w^2 + w + 1 != 0 and "
                f"tr(1/w) = 1")
        e = (w * w + w ** 5 + w.sqrt()) / (w * (1 + w + w * w))
        if e.trace() != 1:
            raise InternalCheckError("case 3 e must have trace 1")
        return cls(field, 3, w, e)

    @staticmethod
    def case_ii_w_options(field: FieldSpec) -> list:
        """Both roots of w^2 + w + 1 in GF(2^m), bitmask order: the
        preimage of 1 under the GF(2)-linear map x -> x^2 + x."""
        opts = np.flatnonzero(_square_plus_x(field) == 1).tolist()
        if len(opts) != 2:
            raise ValueError(
                f"GF(2^{field.degree}) has no cube roots of unity")
        return [field.el(x) for x in opts]

    @staticmethod
    def case_iii_w_options(field: FieldSpec) -> list:
        """All valid case-3 parameters w, bitmask order: one mask over
        the nonzero w for w^2 + w != 1 and tr(1/w) = 1."""
        w = np.arange(1, field.order)
        tr = field.subfield_trace_table(field.degree)
        ok = (_square_plus_x(field)[w] != 1) & (tr[field.table_inv(w)] == 1)
        return [field.el(x) for x in w[ok].tolist()]


def _square_plus_x(field: FieldSpec) -> np.ndarray:
    """Table of the GF(2)-linear map x -> x^2 + x."""
    return linear_table([field.frob_bits(1 << i) ^ (1 << i)
                         for i in range(field.degree)])


def _case_iii_powers(field: FieldSpec, w: FieldElement):
    """Tables of x, x^2, x^3, x^4, x^(1/2) and 1 / (x^2 + w x + 1)^2.
    The quadratic is irreducible (tr(1/w) = 1), so it never vanishes."""
    x = np.arange(field.order)
    x2 = frobenius_map(field, 1).array()
    x4 = frobenius_map(field, 2).array()
    den = x2 ^ field.mul_table(w.bits) ^ 1
    return (x, x2, field.table_mul(x2, x), x4, field.sqrt_table(),
            field.table_inv(x2[den]))


def subiaco_pair(p: SubiacoParams) -> tuple[MappingTable, MappingTable]:
    """The base pair (f, g) of the parameter set.  The denominators are
    irreducible quadratics over GF(2^m), so they never vanish."""
    field = p.field
    w = p.w
    if p.case == 3:
        x, x2, x3, x4, sx, inv_den2 = _case_iii_powers(field, w)
        mul = field.mul_table
        k = w * w + w ** 5 + w.sqrt()
        f = field.table_mul(
            mul((w * w).bits)[x4 ^ x]
            ^ mul((w * w * (1 + w + w * w)).bits)[x3 ^ x2], inv_den2) ^ sx
        g = field.table_mul(
            mul((w ** 4 / k).bits)[x4]
            ^ mul((w ** 3 * (1 + w * w + w ** 4) / k).bits)[x3]
            ^ mul((w ** 3 * (1 + w * w) / k).bits)[x], inv_den2) \
            ^ mul((w.sqrt() / k).bits)[sx]
        return MappingTable(field, f), MappingTable(field, g)
    fe, ge = [], []
    for xb in range(field.order):
        x = field.el(xb)
        sx = x.sqrt()
        if p.case == 1:
            den = x * x + x + 1
            den2 = (den * den).inv()
            fe.append(((x * x + x) * den2 + sx).bits)
            ge.append(((x ** 4 + x ** 3) * den2 + sx).bits)
        elif p.case == 2:
            den = x * x + w * x + 1
            den2 = (den * den).inv()
            fe.append((x * x * (x * x + w * x + w) * den2
                       + w * w * sx).bits)
            ge.append((w * x * (x * x + x + w * w) * den2
                       + w * w * sx).bits)
    return MappingTable(field, fe), MappingTable(field, ge)


def _blend(field: FieldSpec, f: MappingTable, g: MappingTable,
           e: FieldElement, s: FieldElement) -> MappingTable:
    """(f + e s g + (s x)^(1/2)) / (1 + e s + s^(1/2)); the divisor is
    nonzero whenever tr(e) = 1."""
    a_div = 1 + e * s + s.sqrt()
    if a_div.bits == 0:
        raise InternalCheckError(
            "blend denominator vanished although tr(e) = 1")
    mul = field.mul_table
    return MappingTable(field, mul(a_div.inv().bits)[
        f.array() ^ mul((e * s).bits)[g.array()]
        ^ mul(s.sqrt().bits)[field.sqrt_table()]])


def subiaco_fs_explicit(p: SubiacoParams, s) -> MappingTable:
    """The published explicit rational form, at ITS OWN parameter: for
    cases 1 and 2 this equals subiaco_fs(p, s); for case 3 it equals
    subiaco_fs(p, s + 1)."""
    field = p.field
    s = _as_element(field, s)
    w, e = p.w, p.e
    if p.case == 3:
        x, x2, x3, x4, sx, inv_den2 = _case_iii_powers(field, w)
        mul = field.mul_table
        wsum = 1 + w + w * w
        # w^2 ((1 + s w + w^2) x^4 + wsum^2 (s x^3 + x^2)
        # + (s + w + s w^2) x) / wsum, with w^2 / wsum in each coefficient
        c = w * w / wsum
        num = (mul((c * (1 + s * w + w * w)).bits)[x4]
               ^ mul((c * wsum * wsum * s).bits)[x3]
               ^ mul((c * wsum * wsum).bits)[x2]
               ^ mul((c * (s + w + s * w * w)).bits)[x])
        root = s.sqrt() + (s + 1) / (w.sqrt() * wsum)
        pref = (e + e * s + s.sqrt()).inv()
        return MappingTable(field, mul(pref.bits)[
            field.table_mul(num, inv_den2) ^ mul(root.bits)[sx]])
    entries = []
    if p.case == 1:
        a_div = (1 + e * s + s.sqrt()).inv()
        for xb in range(field.order):
            x = field.el(xb)
            den = x * x + x + 1
            entries.append(((s * (x ** 4 + x ** 3) + x * x + x)
                            * a_div / (den * den) + x.sqrt()).bits)
    elif p.case == 2:
        a_div = (1 + e * s + s.sqrt()).inv()
        for xb in range(field.order):
            x = field.el(xb)
            den = x * x + w * x + 1
            rat = (x ** 4 + w * (s * w + 1) * (x ** 3 + x * x)
                   + s * w * x) / (den * den)
            entries.append((a_div * (rat + (w * w + s + s.sqrt())
                                     * x.sqrt())).bits)
    return MappingTable(field, entries)


def subiaco_fs(p: SubiacoParams, s) -> MappingTable:
    """f_s by the defining blend, cross-checked against the explicit
    rational form (shifted by s+1 for case 3)."""
    field = p.field
    s = _as_element(field, s)
    f, g = subiaco_pair(p)
    blend = _blend(field, f, g, p.e, s)
    shift = s if p.case != 3 else s + 1
    if blend != subiaco_fs_explicit(p, shift):
        raise InternalCheckError(
            f"blend and explicit f_s disagree (case {p.case}, "
            f"s = 0x{s.bits:x})")
    return blend


class AdelaideParams:
    """Adelaide catalog parameters: m even, l = (2^m - 1)/3, beta on the
    unit circle of GF(2^n) with beta != 1.  The derived traces
    tr(beta) and tr(beta^l) are nonzero for every admissible beta, and
    e = tr(beta^l)/tr(beta) + 1/tr(beta^l) + 1 has absolute trace 1."""

    __slots__ = ("beta", "emb", "m", "l", "trb", "trbl", "e_big", "e")

    def __init__(self, beta: FieldElement, emb: Embedding):
        big = beta.field
        if emb.big != big:
            raise ValueError("embedding targets a different field")
        n = big.degree
        if n % 2 or n % 4:
            raise ValueError("Adelaide needs m even (n = 0 mod 4)")
        m = n // 2
        if emb.small.degree != m:
            raise ValueError("embedding must come from the half-degree "
                             "field")
        if (beta ** ((1 << m) + 1)).bits != 1 or beta.bits == 1:
            raise ValueError(
                f"beta = 0x{beta.bits:x} must lie on the unit circle "
                f"and differ from 1")
        self.beta = beta
        self.emb = emb
        self.m = m
        self.l = ((1 << m) - 1) // 3
        self.trb = beta.rel_trace(m)
        self.trbl = (beta ** self.l).rel_trace(m)
        if self.trb.bits == 0 or self.trbl.bits == 0:
            raise InternalCheckError(
                "tr(beta) and tr(beta^l) cannot vanish for beta != 1")
        self.e_big = self.trbl / self.trb + self.trbl.inv() + 1
        self.e = emb.project(self.e_big)
        if self.e.trace() != 1:
            raise InternalCheckError("Adelaide e must have trace 1")


def _adelaide_points(p: AdelaideParams):
    """Big-field tables over the q embedded arguments x: x itself,
    x^(1/2) (the square root commutes with the embedding) and
    1 / (x + tr(beta) x^(1/2) + 1)^(l-1)."""
    big = p.beta.field
    x = np.asarray(p.emb.table)
    sx = x[p.emb.small.sqrt_table()]
    den = x ^ big.table_mul(p.trb.bits, sx) ^ 1
    return x, sx, big.table_inv(big.table_pow(den, p.l - 1))


def _trace_of_power(p: AdelaideParams, y: np.ndarray) -> np.ndarray:
    """tr(y^l) entrywise, tr(z) = z + z^(2^m) the relative trace."""
    z = p.beta.field.table_pow(y, p.l)
    return z ^ p.beta.field.table_pow(z, 1 << p.m)


def adelaide_pair(p: AdelaideParams) -> tuple[MappingTable, MappingTable]:
    """The Adelaide base pair (f, g), evaluated inside GF(2^n) on the
    embedded arguments and projected to GF(2^m).  The denominator
    x + tr(beta) x^(1/2) + 1 has its square roots at beta and 1/beta,
    both outside GF(2^m)."""
    beta, trb, trbl, emb = p.beta, p.trb, p.trbl, p.emb
    mul = beta.field.table_mul
    x, sx, inv_dl = _adelaide_points(p)
    tf = _trace_of_power(p, mul(beta.bits, x) ^ beta.inv().bits)
    tg = _trace_of_power(p, mul((beta * beta).bits, x) ^ 1)
    fval = mul((trbl / trb).bits, x ^ 1) \
        ^ mul(trb.inv().bits, mul(tf, inv_dl)) ^ sx
    egval = mul((trbl / trb).bits, x) \
        ^ mul((trb * trbl).inv().bits, mul(tg, inv_dl)) \
        ^ mul(trbl.inv().bits, sx)
    return (MappingTable(emb.small, emb.project_table(fval)),
            MappingTable(emb.small, emb.project_table(
                mul(p.e_big.inv().bits, egval))))


def adelaide_fs(p: AdelaideParams, s) -> MappingTable:
    small = p.emb.small
    s = _as_element(small, s)
    f, g = adelaide_pair(p)
    return _blend(small, f, g, p.e, s)


def adelaide_f1(p: AdelaideParams) -> MappingTable:
    """f_1, cross-checked against the scaled single-fraction display
    e tr(beta) tr(beta^l) f_1(x) = tr(beta^(2l))
        + tr((x + beta^2)^l) / (x + tr(beta) x^(1/2) + 1)^(l-1)
        + tr(beta) x^(1/2)."""
    beta, trb = p.beta, p.trb
    mul = beta.field.table_mul
    f1 = adelaide_fs(p, p.emb.small.one)
    x, sx, inv_dl = _adelaide_points(p)
    lhs = mul((p.e_big * trb * p.trbl).bits, x[f1.array()])
    rhs = (beta ** (2 * p.l)).rel_trace(p.m).bits ^ mul(trb.bits, sx) \
        ^ mul(_trace_of_power(p, x ^ (beta * beta).bits), inv_dl)
    bad = np.flatnonzero(lhs != rhs)
    if bad.size:
        raise InternalCheckError(f"f_1 display mismatch at x = 0x{bad[0]:x}")
    return f1


def frobenius_map(field: FieldSpec, i: int) -> MappingTable:
    """z -> z^(2^i); an o-polynomial exactly when gcd(i, m) = 1."""
    if i < 0:
        raise ValueError("Frobenius power must be >= 0")
    # Frobenius is GF(2)-linear, so its basis images give the table
    return MappingTable(field, linear_table(
        [field.frob_bits(1 << j, i) for j in range(field.degree)]))


@dataclass
class Correspondence:
    """A verified pointwise identity G(z) = c0 + c1 * member(z), where G
    is extracted from the bent function and member is a catalog map."""
    family: str
    branch: str
    m: int
    s: FieldElement | None
    c0: FieldElement
    c1: FieldElement
    catalog_case: int | None
    w: FieldElement | None
    u: FieldElement | None
    beta: FieldElement | None
    retried: tuple
    verified: bool
    points_checked: int
    member: MappingTable
    extracted: MappingTable

    def to_json(self) -> dict:
        catalog: dict = {"family": self.family}
        if self.catalog_case is not None:
            catalog["case"] = self.catalog_case
        if self.w is not None:
            catalog["w"] = f"0x{self.w.bits:x}"
        if self.beta is not None:
            catalog["beta"] = f"0x{self.beta.bits:x}"
        return {
            "branch": self.branch,
            "s": f"0x{self.s.bits:x}" if self.s is not None else None,
            "c0": f"0x{self.c0.bits:x}",
            "c1": f"0x{self.c1.bits:x}",
            "catalog": catalog,
            "u": f"0x{self.u.bits:x}" if self.u is not None else None,
            "retried": [f"0x{r:x}" for r in self.retried],
            "verified": self.verified,
            "points_checked": self.points_checked,
        }


def _extract_g(b_or_one: FieldElement, family: str, m: int,
               u: FieldElement, emb: Embedding) -> MappingTable:
    tt = build_bent(FamilySpec(family, m, b=b_or_one)).truth_table()
    biv = to_bivariate(tt, BasisPair(u, u.field.one), emb)
    return g_from_h(*extract_h_mu(biv))


def _verify_affine_match(extracted: MappingTable, member: MappingTable,
                         c0: FieldElement, c1: FieldElement,
                         what: str) -> int:
    small = extracted.field
    claimed = c0.bits ^ small.mul_table(c1.bits)[member.array()]
    bad = np.flatnonzero(extracted.array() != claimed)
    if bad.size:
        raise VerificationError(f"{what}: mismatch at z = 0x{bad[0]:x}")
    return small.order


def _verified(what: str, bent: str, b_or_one: FieldElement,
              emb: Embedding, member: MappingTable, c0: FieldElement,
              c1: FieldElement, u: FieldElement,
              **fields) -> Correspondence:
    """The shared tail: extract G from the bent function over the basis
    (u, 1), check G = c0 + c1 member on every point, and package the
    result with the remaining Correspondence fields."""
    m = emb.small.degree
    extracted = _extract_g(b_or_one, bent, m, u, emb)
    checked = _verify_affine_match(extracted, member, c0, c1, what)
    return Correspondence(m=m, c0=c0, c1=c1, u=u, verified=True,
                          points_checked=checked, member=member,
                          extracted=extracted, **fields)


def correspond_subiaco(b: FieldElement,
                       u: FieldElement | None = None) -> Correspondence:
    """Match the s=3 binomial bent function for coefficient b against its
    Subiaco catalog member; the branch and catalog case depend on
    m mod 4.  For m = 0 (mod 4) only b = 1 is supported."""
    big = b.field
    n = big.degree
    if n % 2:
        raise ValueError("need n = 2m")
    m = n // 2
    if b.bits == 0:
        raise ValueError("b must be nonzero")
    small = GF(m)
    emb = embed_subfield(small, big)
    a = b ** ((1 << m) + 1)
    sqa = a.sqrt()
    branch = "generic"
    retried = []

    if m % 2 == 1:
        if u is None:
            u = unit_circle_element(big, "cube")
        elif u.field != big or (u ** 3).bits != 1 or u.bits == 1:
            raise ValueError("u must be a nontrivial cube root of unity")
        params = SubiacoParams.case_i(small)
        if b ** ((1 << m) - 1) == u * u:
            branch, what, s = "degenerate_g", "degenerate branch (m odd)", None
            c0 = c1 = emb.project(b * u)
            member = subiaco_pair(params)[1]
        else:
            what = "generic branch (m odd)"
            bb = (b / sqa) ** 2
            s = emb.project((1 + bb) / (u * u + bb * u))
            c0 = emb.project(sqa + (b * u).rel_trace(m))
            c1 = emb.project(sqa)
            member = subiaco_fs(params, s)
    elif m % 4 == 2:
        if u is None:
            candidates = [unit_circle_element(big, f"fifth:{j}")
                          for j in (1, 2, 3, 4)]
        else:
            if u.field != big or (u ** 5).bits != 1 or u.in_subfield(m):
                raise ValueError(
                    "u must be a fifth root of unity outside GF(2^m)")
            candidates = [u] + [v for j in (1, 2, 3, 4)
                                if (v := unit_circle_element(
                                    big, f"fifth:{j}")) != u]
        what = "generic branch (m = 2 mod 4)"
        for u in candidates:
            t4 = (b * (u ** 4 + 1)).rel_trace(m)
            if t4.bits == 0:
                retried.append(u.bits)
                continue
            w_big = u + u.frob(m)
            s_big = w_big * w_big * (b * (u + 1)).rel_trace(m) / t4
            s = emb.project(s_big)
            params = SubiacoParams.case_ii(small, emb.project(w_big))
            c0 = emb.project(sqa + b.rel_trace(m))
            c1 = emb.project((1 + w_big * s_big + s_big.sqrt()) * t4)
            member = subiaco_fs(params, s)
            break
        else:
            raise InternalCheckError(
                "every fifth root was degenerate; at most one can be")
    else:  # m = 0 (mod 4)
        if b.bits != 1:
            raise ValueError(
                "for m = 0 (mod 4) only b = 1 is supported; the catalog "
                "correspondence for general b is not established")
        if u is None:
            u = unit_circle_element(big, "general:0")
        elif u.field != big or (u ** ((1 << m) + 1)).bits != 1 \
                or u.in_subfield(m):
            raise ValueError("u must lie on the unit circle outside GF(2^m)")
        what = "m = 0 (mod 4) branch"
        w_big = u + u.frob(m)
        params = SubiacoParams.case_iii(small, emb.project(w_big))
        # the published target is the EXPLICIT form at parameter 0, which
        # is the blend at s = 1 (case-3 forms differ by the s+1 shift)
        s = small.one
        c0 = emb.project(1 + (u ** 5).rel_trace(m))
        c1 = emb.project(w_big * w_big + w_big ** 5 + w_big.sqrt())
        member = subiaco_fs(params, s)
    return _verified(what, "binomial3", b, emb, member, c0, c1, u,
                     family="subiaco", branch=branch, s=s,
                     catalog_case=params.case, w=params.w, beta=None,
                     retried=tuple(retried))


def correspond_adelaide(beta: FieldElement) -> Correspondence:
    """Match the s=1/6 binomial bent function (b = a = 1) against the
    Adelaide catalog member f_1 for u = beta^2."""
    big = beta.field
    n = big.degree
    if n % 2 or (n // 2) % 2:
        raise ValueError("Adelaide needs even m")
    m = n // 2
    small = GF(m)
    emb = embed_subfield(small, big)
    params = AdelaideParams(beta, emb)
    member = adelaide_f1(params)
    c0 = emb.project(1 + (beta ** (2 * params.l)).rel_trace(m))
    c1 = emb.project(params.e_big * params.trb * params.trbl)
    return _verified("Adelaide display", "adelaide", big.one, emb, member,
                     c0, c1, beta * beta, family="adelaide",
                     branch="generic", s=small.one, catalog_case=None,
                     w=None, beta=beta, retried=())

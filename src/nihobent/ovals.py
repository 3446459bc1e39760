"""The Subiaco and Adelaide o-polynomial catalogs, and the pointwise
correspondence between binomial bent functions and catalog members.

The Subiaco catalog lives entirely in GF(2^m): three parameter cases
(m odd; m = 2 mod 4; arbitrary m with a free parameter w), each giving a
pair (f, g) and the one-parameter blend

    f_s = (f + e s g + s^(1/2) x^(1/2)) / (1 + e s + s^(1/2)),

whose denominator never vanishes because tr(e) = 1; each term is
GF(2)-linear in a table (f, g or x^(1/2)), so f_s is a composition of
whole-table maps with no per-point loop.  Each base pair is built once
per params object and kept on it.  The case-1 (w = 1) and case-3 pairs
and explicit forms are coefficient rows for bivariate.subiaco_shape.
Case 2 is still evaluated point by point in FieldElement arithmetic,
for a measured reason, not a mathematical one: the benchmark runner
keeps a record per completed item, and a port of case 2 alone took the
survey benchmark from 1607-1958 to 2528-4442 items/s but its peak RSS
from 54.2-58.2 to 65.2-87.3 MiB, +20 to +50% against its 10% bound (3
alternating pairs of 28 s runs, 2 cores, Python 3.11.7, numpy 2.4.6);
case 2 follows once that memory no longer grows with throughput.  The
Adelaide catalog (m even) is defined through relative traces of a
unit-circle element beta of GF(2^n), so it is evaluated inside the big
field as whole-table expressions on the q embedded arguments
(table_pow, table_mul, tr(z) = z + z^(2^m)) and projected back through
the embedding's section.

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

import functools
from dataclasses import dataclass

import numpy as np

from .bivariate import (BasisPair, MappingTable, extract_h_mu, g_from_h,
                        subiaco_shape, to_bivariate)
# perfbench's tracer test checks that embed_subfield is patched here
from .gf2 import (Embedding, FieldElement, FieldSpec, InternalCheckError,
                  embed_subfield, half_embedding,  # noqa: F401
                  on_unit_circle, unit_circle_element)
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
        if x.field is not field:
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
        w = _as_element(field, SubiacoParams.case_ii_w_options(field)[0]
                        if w is None else w)
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
    return field.frob_table(1) ^ np.arange(field.order)


def _kept_on_params(build):
    """build(p) once per params object p, kept on p as p._pair."""
    @functools.wraps(build)
    def kept(p):
        if getattr(p, "_pair", None) is None:
            object.__setattr__(p, "_pair", build(p))  # p may be frozen
        return p._pair
    return kept


@_kept_on_params
def subiaco_pair(p: SubiacoParams) -> tuple[MappingTable, MappingTable]:
    """The base pair (f, g) of the parameter set.  The denominators are
    irreducible quadratics over GF(2^m), so they never vanish."""
    field = p.field
    w = p.w
    x = np.arange(field.order)
    if p.case == 1:
        f = subiaco_shape(field, x, 1, [0, 0, 1, 1], 1)
        g = subiaco_shape(field, x, 1, [1, 1, 0, 0], 1)
    elif p.case == 3:
        k = w * w + w ** 5 + w.sqrt()
        c41, c32 = (w * w).bits, (w * w * (1 + w + w * w)).bits
        f = subiaco_shape(field, x, w.bits, [c41, c32, c32, c41], 1)
        g = subiaco_shape(field, x, w.bits,
                          [(w ** 4 / k).bits,
                           (w ** 3 * (1 + w * w + w ** 4) / k).bits, 0,
                           (w ** 3 * (1 + w * w) / k).bits],
                          (w.sqrt() / k).bits)
    else:  # case 2 stays per point: see the module docstring
        f, g = [], []
        for xb in range(field.order):
            x = field.el(xb)
            sx = x.sqrt()
            den = x * x + w * x + 1
            den2 = (den * den).inv()
            f.append((x * x * (x * x + w * x + w) * den2 + w * w * sx).bits)
            g.append((w * x * (x * x + x + w * w) * den2 + w * w * sx).bits)
    return MappingTable(field, f), MappingTable(field, g)


def _blend(field: FieldSpec, f: MappingTable, g: MappingTable,
           e: FieldElement, s: FieldElement) -> MappingTable:
    """(f + e s g + (s x)^(1/2)) / (1 + e s + s^(1/2)); the divisor is
    nonzero whenever tr(e) = 1."""
    a_div = 1 + e * s + s.sqrt()
    if a_div.bits == 0:
        raise InternalCheckError(
            "blend denominator vanished although tr(e) = 1")
    mul = field.table_mul
    return MappingTable(field, mul(a_div.inv().bits,
                                   f.array() ^ mul((e * s).bits, g.array())
                                   ^ mul(s.sqrt().bits, field.sqrt_table())))


def subiaco_fs_explicit(p: SubiacoParams, s) -> MappingTable:
    """The published explicit rational form, at ITS OWN parameter: for
    cases 1 and 2 this equals subiaco_fs(p, s); for case 3 it equals
    subiaco_fs(p, s + 1)."""
    field = p.field
    s = _as_element(field, s)
    w, e = p.w, p.e
    if p.case != 2:
        # pref (w^2 ((1 + s w + w^2) x^4 + wsum^2 (s x^3 + x^2)
        # + (s + w + s w^2) x) / (wsum den^2) + root x^(1/2)); at
        # w = e = 1 this is case 1's form, rows (s a, s a, a, a) for
        # a = pref, and pref root = 1
        wsum = 1 + w + w * w
        pref = (e + e * s + s.sqrt()).inv()
        c = pref * w * w / wsum
        root = s.sqrt() + (s + 1) / (w.sqrt() * wsum)
        return MappingTable(field, subiaco_shape(
            field, np.arange(field.order), w.bits,
            [(c * (1 + s * w + w * w)).bits, (c * wsum * wsum * s).bits,
             (c * wsum * wsum).bits, (c * (s + w + s * w * w)).bits],
            (pref * root).bits))
    # case 2 stays per point: see the module docstring
    a_div = (1 + e * s + s.sqrt()).inv()
    entries = []
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

    __slots__ = ("beta", "emb", "m", "l", "trb", "trbl", "e_big", "e",
                 "_pair")

    def __init__(self, beta: FieldElement, emb: Embedding):
        emb.check_half_of(beta.field)
        m = emb.small.degree
        if m % 2:
            raise ValueError("Adelaide needs m even (n = 0 mod 4)")
        if not on_unit_circle(beta):
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
    x = p.emb.table
    sx = x[p.emb.small.sqrt_table()]
    den = x ^ big.table_mul(p.trb.bits, sx) ^ 1
    return x, sx, big.table_inv(big.table_pow(den, p.l - 1))


def _trace_of_power(p: AdelaideParams, y: np.ndarray) -> np.ndarray:
    """tr(y^l) entrywise, tr(z) = z + z^(2^m) the relative trace."""
    z = p.beta.field.table_pow(y, p.l)
    return z ^ p.beta.field.table_pow(z, 1 << p.m)


@_kept_on_params
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
    return MappingTable(field, field.frob_table(i % field.degree))


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


def _verify_affine_match(extracted: MappingTable, member: MappingTable,
                         c0: FieldElement, c1: FieldElement,
                         what: str) -> int:
    small = extracted.field
    claimed = c0.bits ^ small.table_mul(c1.bits, member.array())
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
    tt = build_bent(FamilySpec(bent, m, b=b_or_one)).truth_table()
    extracted = g_from_h(*extract_h_mu(
        to_bivariate(tt, BasisPair(u, u.field.one), emb)))
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
    emb = half_embedding(big)
    small = emb.small
    m = small.degree
    if b.bits == 0:
        raise ValueError("b must be nonzero")
    a = b ** ((1 << m) + 1)
    sqa = a.sqrt()
    branch = "generic"
    retried = []
    # a given u must lie on the circle of b's field itself
    on_circle = u is None or (u.field is big and on_unit_circle(u))

    if m % 2 == 1:
        if u is None:
            u = unit_circle_element(big, "cube")
        elif not on_circle or (u ** 3).bits != 1:
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
        candidates = [unit_circle_element(big, f"fifth:{j}")
                      for j in (1, 2, 3, 4)]
        if u is not None:
            if not on_circle or (u ** 5).bits != 1:
                raise ValueError(
                    "u must be a fifth root of unity outside GF(2^m)")
            candidates = [u] + [v for v in candidates if v != u]
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
        elif not on_circle:
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
    params = AdelaideParams(beta, half_embedding(beta.field))
    emb, m = params.emb, params.m
    member = adelaide_f1(params)
    c0 = emb.project(1 + (beta ** (2 * params.l)).rel_trace(m))
    c1 = emb.project(params.e_big * params.trb * params.trbl)
    return _verified("Adelaide display", "adelaide", beta.field.one, emb,
                     member, c0, c1, beta * beta, family="adelaide",
                     branch="generic", s=emb.small.one, catalog_case=None,
                     w=None, beta=beta, retried=())

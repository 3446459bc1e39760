#!/usr/bin/env python3
"""Survey hyperoval o-polynomials and the bent-to-catalog bridge.

Two reports:
  * catalog: enumerate every Subiaco/Adelaide instance available at the
    given m, confirm the o-polynomial property for g and all f_s, and
    count distinct normalized tables.
  * bridge: run the correspondence for every admissible coefficient,
    tabulating branch, retry and blend-parameter statistics.

Usage: python3 scripts/hyperoval_survey.py --m 3 --report both
"""

import argparse
from collections import Counter

from nihobent import (GF, AdelaideParams, SubiacoParams, adelaide_fs,
                      adelaide_pair, correspond_adelaide, correspond_subiaco,
                      half_embedding, is_opolynomial, opoly_normalize,
                      subiaco_fs, subiaco_pair, unit_circle)


def circle(big):
    """The unit circle of big without 1, in bitmask order."""
    return [big.el(u) for u in unit_circle(big)[1:]]


def catalog_instances(m):
    field = GF(m)
    if m % 2:
        yield "subiaco-i", SubiacoParams.case_i(field), field
    if m % 4 == 2:
        for w in SubiacoParams.case_ii_w_options(field):
            yield f"subiaco-ii w={w}", SubiacoParams.case_ii(field, w), field
    for w in SubiacoParams.case_iii_w_options(field):
        yield f"subiaco-iii w={w}", SubiacoParams.case_iii(field, w), field
    if m % 2 == 0:
        emb = half_embedding(GF(2 * m))
        for beta in circle(emb.big):
            yield f"adelaide beta={beta}", AdelaideParams(beta, emb), field


def report_catalog(m):
    print(f"== catalog instances at m={m} (field GF(2^{m})) ==")
    normalized = set()
    for name, params, field in catalog_instances(m):
        if isinstance(params, AdelaideParams):
            f, g = adelaide_pair(params)
            blends = [adelaide_fs(params, field.el(s))
                      for s in range(1 << m)]
        else:
            f, g = subiaco_pair(params)
            blends = [subiaco_fs(params, field.el(s))
                      for s in range(1 << m)]
        tables = [f, g] + blends
        ok = all(is_opolynomial(t) for t in tables)
        for t in tables:
            if t.array()[0] != t.array()[1]:
                normalized.add(opoly_normalize(t).array().tobytes())
        print(f"  {name:24} o-polynomials: "
              f"{'all ' + str(len(tables)) if ok else 'FAILED'}")
    print(f"  distinct normalized tables: {len(normalized)}")


def report_bridge(m):
    big = GF(2 * m)
    print(f"== correspondence sweep at m={m} (field GF(2^{2 * m})) ==")
    # every nonzero b, or b = 1 and every u where only b = 1 is supported
    if m % 4 != 0:
        sweep = (correspond_subiaco(big.el(bits))
                 for bits in range(1, big.order))
    else:
        sweep = (correspond_subiaco(big.one, u=u) for u in circle(big))
    branches, cases, retried, s_values = Counter(), Counter(), 0, set()
    for c in sweep:
        assert c.verified
        branches[c.branch] += 1
        retried += bool(c.retried)
        cases[c.catalog_case] += 1
        if c.s is not None:
            s_values.add(c.s.bits)
    print(f"  subiaco: branches { dict(branches) }, retried {retried}, "
          f"cases {dict(cases)}")
    print(f"  blend parameters attained: {len(s_values)}/{1 << m}")
    if m % 2 == 0:
        verified = 0
        for beta in circle(big):
            assert correspond_adelaide(beta).verified
            verified += 1
        print(f"  adelaide: {verified} admissible beta, all verified")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--report", choices=["catalog", "bridge", "both"],
                    default="both")
    ns = ap.parse_args()
    if ns.report in ("catalog", "both"):
        report_catalog(ns.m)
    if ns.report in ("bridge", "both"):
        report_bridge(ns.m)


if __name__ == "__main__":
    main()

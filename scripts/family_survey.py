#!/usr/bin/env python3
"""Survey the bent families over a range of field sizes.

For each family and each m, build members for a deterministic sample of
coefficients, confirm the spectrum is flat, and tabulate the algebraic
degrees plus the exponent invariants.  Exact arithmetic throughout, so
"confirmed" means verified, not sampled-and-hoped.

Usage: python3 scripts/family_survey.py --m-min 2 --m-max 5 --samples 24
"""

import argparse
import random

import numpy as np

from nihobent import GF, FamilySpec, build_bent, family_report, is_bent
from nihobent.boolfn import anf_degree


def member(family, m, F, bits, r):
    """The family member whose coefficient has bitmask bits: a for the
    quadratic and Leander-Kholosha families, b for the binomials."""
    if family == "quadratic":
        return FamilySpec(family, m, a=F.el(bits))
    if family == "leander_kholosha":
        return FamilySpec(family, m, a=F.el(bits), r=r)
    return FamilySpec(family, m, b=F.el(bits))


def survey_family(samples, rng, family, m):
    F = GF(2 * m)
    if family == "quadratic":
        pool = F.subfield_bits(m)[1:].tolist()
    elif family == "leander_kholosha":
        pool = np.flatnonzero(
            (F.frob_table(m) ^ np.arange(F.order)) == 1).tolist()
    else:
        pool = list(range(1, 1 << (2 * m)))
    if len(pool) > samples:
        pool = rng.sample(pool, samples)
    r = 2 if m % 2 else 3  # smallest r > 1 coprime to m
    degrees = {}
    bent = 0
    for bits in pool:
        tt = build_bent(member(family, m, F, bits, r)).truth_table()
        bent += is_bent(tt)
        deg = anf_degree(tt)
        degrees[deg] = degrees.get(deg, 0) + 1
    rep = family_report(member(family, m, F, pool[0], r))
    return len(pool), bent, degrees, rep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-min", type=int, default=2)
    ap.add_argument("--m-max", type=int, default=5)
    ap.add_argument("--samples", type=int, default=24)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    header = f"{'family':18} {'m':>2} {'tested':>6} {'bent':>5} " \
             f"{'d2':>6} {'gcd':>3} degrees"
    print(header)
    print("-" * len(header))
    for m in range(args.m_min, args.m_max + 1):
        fams = ["quadratic", "binomial3", "leander_kholosha"]
        fams += ["binomial4"] if m % 2 else ["binomial6", "adelaide"]
        for family in fams:
            tested, bent, degrees, rep = survey_family(args.samples, rng,
                                                       family, m)
            degs = " ".join(f"{d}x{c}" for d, c in sorted(degrees.items()))
            print(f"{family:18} {m:>2} {tested:>6} {bent:>5} "
                  f"{rep.d2 if rep.d2 else '-':>6} "
                  f"{rep.gcd_d2 if rep.gcd_d2 else '-':>3} {degs}")


if __name__ == "__main__":
    main()

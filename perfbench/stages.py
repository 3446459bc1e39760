#!/usr/bin/env python3
"""Stage table for m = 4..8, regenerated from traced runs.

    python3 perfbench/stages.py

For each m a fresh process (cold field caches, as a user's first call
pays) runs the pipeline on the binomial3 member with b = 0x5 under the
tracer: construct GF(2^(2m)), build the truth table, Walsh spectrum, ANF
degree, coset test, the Subiaco correspondence (b = 0x1 when m = 0 mod 4,
the only supported coefficient there), is_opolynomial on the extracted G,
and for even m the Adelaide correspondence.  Each cell is the inclusive
time of the named span within its pipeline step, median over repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

M_VALUES = (4, 5, 6, 7, 8)
REPEATS = 3

# (row label, span name, pipeline step)
ROWS = (
    ("GF(2m) construct", "gf2.FieldSpec", "field"),
    ("truth_table", "boolfn.truth_table", "build"),
    ("walsh_spectrum", "boolfn.walsh_spectrum", "walsh"),
    ("anf_degree", "boolfn.anf_degree", "anf"),
    ("coset test", "boolfn.coset_test", "niho"),
    ("to_bivariate", "bivariate.to_bivariate", "correspond"),
    ("extract_h_mu", "bivariate.extract_h_mu", "correspond"),
    ("is_opolynomial(G)", "bivariate.is_opolynomial", "opoly"),
    ("correspond_subiaco", "ovals.correspond_subiaco", "correspond"),
    ("correspond_adelaide", "ovals.correspond_adelaide", "adelaide"),
)


def pipeline(m: int, out: str) -> None:
    """One cold pass at half degree m; writes the tracer dump to out."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import nihobent as nb
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = "field"
        field = nb.GF(2 * m)
        tracer.item = "build"
        b = field.el(0x5)
        tt = nb.build_bent(nb.FamilySpec("binomial3", m, b=b)).truth_table()
        tracer.item = "walsh"
        nb.walsh_spectrum(tt, field)
        tracer.item = "anf"
        nb.anf_degree(tt)
        tracer.item = "niho"
        nb.has_affine_coset_restrictions(tt, field)
        tracer.item = "correspond"
        corr = nb.correspond_subiaco(field.one if m % 4 == 0 else b)
        tracer.item = "opoly"
        nb.is_opolynomial(corr.extracted)
        if m % 2 == 0:
            tracer.item = "adelaide"
            nb.correspond_adelaide(nb.unit_circle_element(field, "general:0"))
    finally:
        tracer.uninstall()
    with open(out, "w", encoding="ascii") as fh:
        json.dump(tracer.dump(), fh)


def cell_ms(dump: dict, span: str, step: str) -> float | None:
    durations = [(e - s) / 1e6 for name, s, e, _, item in dump["spans"]
                 if name == span and item == step]
    return sum(durations) if durations else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # internal: one cold pipeline pass, run in a fresh process
    ap.add_argument("--child", nargs=2, metavar=("M", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        pipeline(int(args.child[0]), args.child[1])
        return 0
    cells: dict = {}
    out = os.path.join(ROOT, ".perfbench", "stages-spans.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    for m in M_VALUES:
        for _ in range(REPEATS):
            subprocess.run([sys.executable, __file__, "--child", str(m), out],
                           check=True, cwd=ROOT)
            with open(out, encoding="ascii") as fh:
                dump = json.load(fh)
            for label, span, step in ROWS:
                ms = cell_ms(dump, span, step)
                if ms is not None:
                    cells.setdefault((label, m), []).append(ms)
    head = " | ".join(f"m={m}" for m in M_VALUES)
    print(f"| stage (ms, median of {REPEATS}) | {head} |")
    print("|---|" + "---|" * len(M_VALUES))
    for label, _, _ in ROWS:
        row = " | ".join(
            f"{statistics.median(cells[(label, m)]):.1f}"
            if (label, m) in cells else "-" for m in M_VALUES)
        print(f"| `{label}` | {row} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

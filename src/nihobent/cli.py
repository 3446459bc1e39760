"""Command-line front end.

Four subcommands:

  build       construct a family member, report exponent data, verify
              bentness/degree, optionally write the truth table to a file
  check       analyze a truth-table file: Walsh spectrum summary,
              bentness, algebraic degree, subfield-coset linearity
  correspond  run a full bent-to-catalog correspondence and verify it
              pointwise
  opoly       evaluate an o-polynomial candidate (catalog member, table
              file, or Frobenius map) and test the 2-to-1 property

Output is a single JSON document on stdout with sorted keys: pretty by
default, one line with --json.  Identical inputs produce byte-identical
stdout; wall-clock timing goes to stderr.  Field elements are read and
written as hex bitmasks.  Each mapping table in a report is written as
one joined string of its hex names, spliced into the document that
json.dumps makes of the rest, and the parts go to stdout in order.

Exit codes: 0 success; 1 a verified claim failed; 2 bad usage, such as
a flag the command does not read, or a violated precondition; 3 an
internal cross-check mismatch (a bug); 141 stdout was closed before the
output was written (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .bivariate import (InternalCheckError, MappingTable,
                        check_opoly_work, is_opolynomial, is_permutation,
                        opoly_normalize)
from .boolfn import (TruthTable, anf_degree, has_affine_coset_restrictions,
                     walsh_spectrum)
# perfbench's tracer test checks that embed_subfield is patched here
from .gf2 import (GF, FieldSpec, embed_subfield,  # noqa: F401
                  half_embedding, parse_hex, unit_circle_element)
from .niho import FamilySpec, build_bent, family_report
from .ovals import (AdelaideParams, SubiacoParams, VerificationError,
                    adelaide_f1, adelaide_fs, adelaide_pair,
                    correspond_adelaide, correspond_subiaco, frobenius_map,
                    subiaco_fs, subiaco_pair)

__all__ = ["main"]


def _hex_or_none(text):
    return None if text is None else parse_hex(text)


def _hex_name(value):
    return None if value is None else f"0x{value:x}"


def _field(n: int, modulus_text) -> FieldSpec:
    return GF(n, _hex_or_none(modulus_text))


def _refuse(args, names, what: str) -> None:
    """Exit 2 on the first of the flags names that was given, so that a
    flag the command does not read is never dropped silently."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} does not apply to {what}")


def _emit(report: dict, compact: bool) -> None:
    """Write report to stdout as json.dumps would, with sorted keys.

    json.dumps encodes the report with each MappingTable swapped for a
    placeholder string, a NUL and then the table's index (no argv string
    or path holds a NUL); each placeholder is then replaced by the
    table's hex names, joined into one string rather than encoded one
    by one.  A placeholder found other than exactly once raises
    InternalCheckError before anything is written."""
    tables = []

    def placeholder(obj):
        if not isinstance(obj, MappingTable):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        tables.append(obj)
        return f"\x00{len(tables) - 1}"

    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    text = json.dumps(report, sort_keys=True, default=placeholder, **layout)
    # json.dumps calls placeholder in document order, so each token is
    # found after the one before it
    spans = []
    start = 0
    for i in range(len(tables)):
        token = f'"\\u0000{i}"'
        at = text.find(token, start)
        if at < 0 or text.count(token) != 1:
            raise InternalCheckError(
                f"table placeholder {i} is not in the report exactly once")
        spans.append((start, at))
        start = at + len(token)
    write = sys.stdout.write
    for (begin, at), table in zip(spans, tables):
        if compact:
            head, sep, tail = '["', '","', '"]'
        else:
            line = text[text.rfind("\n", 0, at) + 1:at]
            indent = line[:len(line) - len(line.lstrip(" "))]
            pad = indent + "  "
            head, sep, tail = f'[\n{pad}"', f'",\n{pad}"', f'"\n{indent}]'
        write(text[begin:at] + head)
        write(sep.join(table.to_json()))
        write(tail)
    write(text[start:] + "\n")


def _spectrum_summary(values) -> dict:
    distinct, counts = np.unique(values, return_counts=True)
    return {"min": int(distinct[0]),
            "max": int(distinct[-1]),
            "value_counts": [[v, c] for v, c in zip(distinct.tolist(),
                                                    counts.tolist())]}


def _check_verdicts(tt: TruthTable, field: FieldSpec, spectrum) -> dict:
    even = tt.n % 2 == 0
    return {
        # either pairing: the trace reindex only permutes the values
        "bent": spectrum.bent if even else None,
        "degree": anf_degree(tt),
        # restriction to every coset of the half-degree subfield is affine
        "niho": has_affine_coset_restrictions(tt, field) if even else None,
    }


def _cmd_build(args) -> dict:
    field = _field(2 * args.m, args.modulus)
    a = field.el(parse_hex(args.a)) if args.a is not None else None
    b = field.el(parse_hex(args.b)) if args.b is not None else None
    spec = FamilySpec(args.family, args.m, a=a, b=b, r=args.r, field=field)
    # build_bent reads strict for binomial3 only
    if args.strict and spec.family != "binomial3":
        raise ValueError(f"--strict does not apply to the {spec.family} "
                         f"family")
    form = build_bent(spec, strict=args.strict)
    tt = form.truth_table()
    report = family_report(spec)
    outputs = {
        "field": field.to_json(),
        "trace_form": form.to_json(),
        "report": report.to_json(),
        "weight": tt.weight(),
        "out_file": args.out,
    }
    if args.out:
        tt.save(args.out)
    verdicts: dict = {}
    if not args.skip_check:
        verdicts = _check_verdicts(tt, field, walsh_spectrum(tt))
        expected = report.expected_degree
        verdicts["degree_matches_expected"] = \
            None if expected is None else verdicts["degree"] == expected
    return {"command": "build", "inputs": spec.to_json()
            | {"modulus": f"0x{field.modulus:x}", "strict": args.strict},
            "outputs": outputs, "verdicts": verdicts}


def _cmd_check(args) -> dict:
    tt = TruthTable.load(args.file)
    field = _field(tt.n, args.modulus)
    spectrum = walsh_spectrum(tt, field)
    if args.spectrum_out:
        with open(args.spectrum_out, "w", encoding="ascii") as fh:
            json.dump(spectrum.to_json(), fh)
            fh.write("\n")
    return {"command": "check",
            "inputs": {"file": args.file,
                       "modulus": f"0x{field.modulus:x}"},
            "outputs": {"n": tt.n, "weight": tt.weight(),
                        "parseval": spectrum.parseval(),
                        "spectrum_summary":
                            _spectrum_summary(spectrum.values),
                        "spectrum_out": args.spectrum_out},
            "verdicts": _check_verdicts(tt, field, spectrum)}


def _cmd_correspond(args) -> dict:
    field = _field(2 * args.m, args.modulus)
    if args.family == "subiaco":
        _refuse(args, ["beta"], "the subiaco family")
        if args.b is None:
            raise ValueError("subiaco correspondence needs --b")
        b = field.el(parse_hex(args.b))
        u = unit_circle_element(field, args.u) if args.u else None
        corr = correspond_subiaco(b, u=u)
        inputs = {"family": "subiaco", "m": args.m,
                  "b": f"0x{b.bits:x}", "u": args.u,
                  "modulus": f"0x{field.modulus:x}"}
    else:
        _refuse(args, ["b", "u"], "the adelaide family")
        if args.beta is None:
            raise ValueError("adelaide correspondence needs --beta")
        beta = field.el(parse_hex(args.beta))
        corr = correspond_adelaide(beta)
        inputs = {"family": "adelaide", "m": args.m,
                  "beta": f"0x{beta.bits:x}",
                  "modulus": f"0x{field.modulus:x}"}
    return {"command": "correspond", "inputs": inputs,
            "outputs": {"correspondence": corr.to_json(),
                        "member": corr.member,
                        "extracted": corr.extracted},
            "verdicts": {"verified": corr.verified}}


# the flags each opoly source reads
_OPOLY_FLAGS = {"subiaco": ("m", "case", "w", "s"),
                "adelaide": ("m", "beta", "s"),
                "file": ("file",),
                "frobenius": ("m", "exponent")}


def _opoly_table(args) -> tuple[MappingTable, dict]:
    _refuse(args, sorted(set().union(*_OPOLY_FLAGS.values())
                         - set(_OPOLY_FLAGS[args.source])),
            f"the {args.source} source")
    needed = "file" if args.source == "file" else "m"
    if getattr(args, needed) is None:
        raise ValueError(f"{args.source} source needs --{needed}")
    if args.source == "subiaco":
        field = _field(args.m, args.modulus)
        # a member is no monomial, so the test counts all q - 1 rows
        check_opoly_work(args.m, field.mult_order)
        if args.case == 1:
            _refuse(args, ["w"], "case 1")
            params = SubiacoParams.case_i(field)
        elif args.case == 2:
            params = SubiacoParams.case_ii(field, _hex_or_none(args.w))
        elif args.case == 3:
            if args.w is None:
                raise ValueError("case 3 needs --w")
            params = SubiacoParams.case_iii(field, parse_hex(args.w))
        else:
            raise ValueError("--case must be 1, 2 or 3")
        s = _hex_or_none(args.s)
        inputs = {"source": "subiaco", "m": args.m, "case": args.case,
                  "w": f"0x{params.w.bits:x}", "s": _hex_name(s)}
        if s is None:
            table = subiaco_pair(params)[1]
        else:
            table = subiaco_fs(params, s)
        return table, inputs
    if args.source == "adelaide":
        if args.beta is None:
            raise ValueError("adelaide source needs --beta")
        big = _field(2 * args.m, args.modulus)
        beta = big.el(parse_hex(args.beta))
        params = AdelaideParams(beta, half_embedding(big))
        s = _hex_or_none(args.s)
        inputs = {"source": "adelaide", "m": args.m,
                  "beta": f"0x{beta.bits:x}", "s": _hex_name(s)}
        if s is None:
            table = adelaide_pair(params)[1]
        elif s == 1:
            table = adelaide_f1(params)
        else:
            table = adelaide_fs(params, s)
        return table, inputs
    if args.source == "file":
        with open(args.file, "r", encoding="ascii") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("a mapping-table file holds a JSON array")
        size = len(data)
        if size == 0 or size & (size - 1):
            raise ValueError(f"table length {size} is not a power of 2")
        m = size.bit_length() - 1
        field = _field(m, args.modulus)
        table = MappingTable.from_json(field, data)
        return table, {"source": "file", "file": args.file, "m": m}
    # frobenius
    if args.exponent is None:
        raise ValueError("frobenius source needs --exponent")
    field = _field(args.m, args.modulus)
    table = frobenius_map(field, args.exponent)
    return table, {"source": "frobenius", "m": args.m,
                   "exponent": args.exponent}


def _cmd_opoly(args) -> dict:
    table, inputs = _opoly_table(args)
    opoly = is_opolynomial(table)
    perm = is_permutation(table)
    normalized = None
    if table.array()[0] != table.array()[1]:
        normalized = opoly_normalize(table)
    return {"command": "opoly", "inputs": inputs,
            "outputs": {"table": table, "normalized": normalized},
            "verdicts": {"is_opoly": opoly,
                         "is_permutation": perm}}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call can share it."""
    top = argparse.ArgumentParser(
        prog="nihobent",
        description="Niho bent functions and hyperoval o-polynomials")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a family member")
    p.add_argument("--family", required=True,
                   help="quadratic | binomial3 | binomial4 | binomial6 | "
                        "adelaide | leander-kholosha")
    p.add_argument("--m", type=int, required=True,
                   help="half degree; the field is GF(2^(2m))")
    p.add_argument("--a", help="hex coefficient of the quadratic term")
    p.add_argument("--b", help="hex coefficient of the extra term")
    p.add_argument("--r", type=int, help="multinomial family parameter")
    p.add_argument("--modulus", help="hex reduction polynomial of GF(2^n)")
    p.add_argument("--strict", action="store_true",
                   help="enforce the classical fifth-power condition")
    p.add_argument("--skip-check", action="store_true",
                   help="skip the bentness/degree verdicts")
    p.add_argument("--out", help="write the truth table to this file")
    p.add_argument("--json", action="store_true",
                   help="compact single-line output")
    p.set_defaults(run=_cmd_build)

    p = sub.add_parser("check", help="analyze a truth-table file")
    p.add_argument("file")
    p.add_argument("--modulus", help="hex reduction polynomial of GF(2^n)")
    p.add_argument("--spectrum-out",
                   help="write the full Walsh spectrum (JSON) here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("correspond",
                       help="verify a bent-to-catalog correspondence")
    p.add_argument("--family", required=True,
                   choices=["subiaco", "adelaide"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--b", help="hex coefficient (subiaco)")
    p.add_argument("--beta", help="hex unit-circle element (adelaide)")
    p.add_argument("--u", help="cube | fifth:J | general:I")
    p.add_argument("--modulus", help="hex reduction polynomial of GF(2^n)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_correspond)

    p = sub.add_parser("opoly", help="test the o-polynomial property")
    p.add_argument("--source", required=True,
                   choices=["subiaco", "adelaide", "file", "frobenius"])
    p.add_argument("--m", type=int,
                   help="small-field degree (not for the file source)")
    p.add_argument("--case", type=int, help="subiaco case 1 | 2 | 3")
    p.add_argument("--w", help="hex case parameter")
    p.add_argument("--s", help="hex blend parameter; omit for g")
    p.add_argument("--beta", help="hex unit-circle element")
    p.add_argument("--file", help="JSON array of hex values")
    p.add_argument("--exponent", type=int, help="Frobenius power i")
    p.add_argument("--modulus", help="hex reduction polynomial")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_opoly)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _emit(args.run(args), args.json)
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"error: internal cross-check failed: {exc}",
              file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"timing_ms={int((time.perf_counter() - started) * 1000)}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

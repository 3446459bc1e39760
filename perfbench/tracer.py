"""Spans around the public calls of the nihobent modules, recorded from
outside the package.

`Tracer.install()` replaces each target function or method with a wrapper
that records one span (name, start, end, parent, item) per call, and
patches every `nihobent.*` namespace that re-imports the same function
object, so a call through `nihobent.cli`, `nihobent.ovals` or the package
root is traced exactly like a call inside the defining module.
`Tracer.uninstall()` puts every original object back.

Spans stay in memory; `summarize()` turns them into per-name call counts
and self times (a span's duration minus the durations of its direct
children), and `write()` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import NamedTuple

# (span name, defining module, attribute path); "Class.method" is patched
# on the class, a plain name in every namespace that holds the function.
TARGETS = (
    ("gf2.FieldSpec", "nihobent.gf2", "FieldSpec.__init__"),
    ("gf2.subfield_trace_table", "nihobent.gf2",
     "FieldSpec.subfield_trace_table"),
    ("gf2.subfield_bits", "nihobent.gf2", "FieldSpec.subfield_bits"),
    ("gf2.gram_rows", "nihobent.gf2", "FieldSpec.gram_rows"),
    ("gf2.dual_basis_bits", "nihobent.gf2", "FieldSpec.dual_basis_bits"),
    ("gf2.embed_subfield", "nihobent.gf2", "embed_subfield"),
    ("gf2.unit_circle", "nihobent.gf2", "unit_circle"),
    ("boolfn.truth_table", "nihobent.boolfn", "TraceForm.truth_table"),
    ("boolfn.walsh_spectrum", "nihobent.boolfn", "walsh_spectrum"),
    ("boolfn.is_bent", "nihobent.boolfn", "is_bent"),
    ("boolfn.anf_degree", "nihobent.boolfn", "anf_degree"),
    ("boolfn.coset_test", "nihobent.boolfn",
     "has_affine_coset_restrictions"),
    ("boolfn.tt_load", "nihobent.boolfn", "TruthTable.load"),
    ("boolfn.tt_save", "nihobent.boolfn", "TruthTable.save"),
    ("niho.build_bent", "nihobent.niho", "build_bent"),
    ("niho.family_report", "nihobent.niho", "family_report"),
    ("bivariate.to_bivariate", "nihobent.bivariate", "to_bivariate"),
    ("bivariate.extract_h_mu", "nihobent.bivariate", "extract_h_mu"),
    ("bivariate.g_from_h", "nihobent.bivariate", "g_from_h"),
    ("bivariate.is_opolynomial", "nihobent.bivariate", "is_opolynomial"),
    ("bivariate.is_permutation", "nihobent.bivariate", "is_permutation"),
    ("bivariate.opoly_normalize", "nihobent.bivariate", "opoly_normalize"),
    ("bivariate.from_json", "nihobent.bivariate", "MappingTable.from_json"),
    ("ovals.subiaco_pair", "nihobent.ovals", "subiaco_pair"),
    ("ovals.subiaco_fs", "nihobent.ovals", "subiaco_fs"),
    ("ovals.subiaco_fs_explicit", "nihobent.ovals", "subiaco_fs_explicit"),
    ("ovals.adelaide_pair", "nihobent.ovals", "adelaide_pair"),
    ("ovals.adelaide_fs", "nihobent.ovals", "adelaide_fs"),
    ("ovals.adelaide_f1", "nihobent.ovals", "adelaide_f1"),
    ("ovals.frobenius_map", "nihobent.ovals", "frobenius_map"),
    ("ovals.correspond_subiaco", "nihobent.ovals", "correspond_subiaco"),
    ("ovals.correspond_adelaide", "nihobent.ovals", "correspond_adelaide"),
    ("cli.main", "nihobent.cli", "main"),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)
MODULES = ("gf2", "boolfn", "niho", "bivariate", "ovals", "cli")
COUNTERS = ("boolfn.points", "bivariate.extract_points",
            "bivariate.opoly_pairs", "ovals.points_checked",
            "ovals.retry_candidates", "ovals.retried")


def _count(counts: Counter, name: str, args, result) -> None:
    """Work counts derived from a call's arguments and result."""
    if name == "boolfn.truth_table":
        counts["boolfn.points"] += args[0].field.order
    elif name == "boolfn.tt_load":
        counts["boolfn.points"] += 1 << result.n
    elif name == "bivariate.extract_h_mu":
        counts["bivariate.extract_points"] += args[0].field.order ** 2
    elif name == "bivariate.is_opolynomial":
        q = args[0].field.order
        counts["bivariate.opoly_pairs"] += q * (q - 1)
    elif name.startswith("ovals.correspond_"):
        counts["ovals.points_checked"] += result.points_checked
        if result.catalog_case == 2:
            # the fifth-root branch tries candidates until one is usable
            counts["ovals.retry_candidates"] += len(result.retried) + 1
            counts["ovals.retried"] += len(result.retried)


class Span(NamedTuple):
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int | None  # index into the same span list
    item: str | None


class Tracer:
    """Records spans and counts while installed; owns the patch list."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item: str | None = None
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original object)

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.item)
            _count(self.counts, name, args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        homes = {module: importlib.import_module(module)
                 for _, module, _ in TARGETS}
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "nihobent" or key.startswith("nihobent.")]
        for name, module, path in TARGETS:
            home = homes[module]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @property
    def patches(self) -> tuple:
        return tuple(self._patches)

    # -- output --------------------------------------------------------

    def absorb(self, spans, counts, item: str | None) -> None:
        """Append spans recorded by another process (parent indices are
        re-based) and add its counts."""
        base = len(self.spans)
        for s in spans:
            s = Span(*s)
            self.spans.append(s._replace(
                parent=None if s.parent is None else s.parent + base,
                item=item))
        self.counts.update(counts)

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans) -> list:
    """Self time (ns) of each span: its duration minus the durations of
    its direct children.  Children of one span never overlap, since the
    traced code is single-threaded."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans) -> dict:
    """Per span name: calls and self_ms; per module: self_ms rollup."""
    out = {f"{name}.{k}": 0 for name in SPAN_NAMES
           for k in ("calls", "self_ms")}
    out.update({f"{mod}.self_ms": 0.0 for mod in MODULES})
    for s, own in zip(spans, self_times(spans)):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_ms"] += own / 1e6
        out[f"{s.name.split('.')[0]}.self_ms"] += own / 1e6
    return out


def root_ms(spans) -> float:
    """Wall time covered by spans: the sum of the root spans' durations,
    which equals the sum of all self times."""
    return sum(s.end - s.start for s in spans if s.parent is None) / 1e6

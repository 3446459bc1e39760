"""The three benchmark workloads: request plans drawn from a seed, input
files, one call per item, and verdicts checked against expectations that
come from the mathematics, not from the code under test.

Every workload is a sequence of rounds.  A round has a fixed list of slots
(kind, field size, source); the seed draws the families, coefficients and
parameters that fill the slots.  Keeping the slot list fixed keeps the mix
of item costs the same for every seed, so runs with different seeds
measure the same work.

  cli_bent     one fresh `python -m nihobent` process per request: build,
               check and correspond at m = 6, 7, 8 (cold field tables)
  survey_m5    one warm process: catalog members and bent-to-catalog
               correspondences at m = 4, 5, 6
  opoly_large  one process calling nihobent.cli.main: `opoly` at
               m = 9, 10, 11, where the o-polynomial test dominates
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from typing import NamedTuple

import nihobent as nb

# Degrees the literature proves for each family (None: not a single
# closed form, so the degree is not checked).
EXPECTED_DEGREE = {
    "quadratic": lambda m: 2,
    "binomial3": lambda m: m,
    "binomial4": lambda m: 3,
    "binomial6": lambda m: m,
    "adelaide": lambda m: m,
    "leander_kholosha": lambda m: None,
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class Result(NamedTuple):
    kind: str
    ms: float                   # wall time of the item
    problems: tuple             # failed expectations; empty when correct
    digest: str                 # sha256 of the item's output
    inner_ms: float | None      # cli.main time inside a traced child


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(*paths) -> dict:
    """The environment for a child process that imports the package from
    this checkout's src/ (and from `paths`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, *paths] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                         else []))
    return env


def _check_verdicts(verdicts: dict, expect: dict) -> list:
    return [f"{key}: expected {want!r}, got {verdicts.get(key)!r}"
            for key, want in expect.items() if verdicts.get(key) != want]


def _doc_verdicts(text) -> dict:
    try:
        return json.loads(text).get("verdicts", {})
    except ValueError:   # no JSON document: the exit code says why
        return {}


def _hex(x: int) -> str:
    return f"0x{x:x}"


def _rng(workload: str, seed: int, stream) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


# -- field helpers for drawing inputs (run in the bench process) ---------

def _circle(big, rng) -> int:
    """A unit-circle element other than 1: h^j with h of order 2^m + 1."""
    m = big.degree // 2
    j = rng.randrange(1, (1 << m) + 1)
    return big.pow_bits(big.generator, ((1 << m) - 1) * j)


def _subfield_nonzero(big, rng) -> int:
    """A nonzero element of GF(2^m): g^((2^m+1) k)."""
    m = big.degree // 2
    k = rng.randrange((1 << m) - 1)
    return big.pow_bits(big.generator, ((1 << m) + 1) * k)


def _lk_a(big, rng) -> int:
    """a with a + a^(2^m) = 1: x / (x + x^(2^m)) for x outside GF(2^m)."""
    m = big.degree // 2
    while True:
        x = rng.randrange(1, big.order)
        t = x ^ big.frob_bits(x, m)
        if t:
            return big.mul_bits(x, big.inv_bits(t))


def _member(big, family: str, rng) -> dict:
    """Coefficients of a random member of a bent family."""
    m = big.degree // 2
    if family == "quadratic":
        return {"a": _subfield_nonzero(big, rng)}
    if family == "leander_kholosha":
        r = rng.choice([r for r in (2, 3, 5) if math.gcd(r, m) == 1])
        return {"a": _lk_a(big, rng), "r": r}
    return {"b": rng.randrange(1, big.order)}


def _setup_probe(wl) -> str:
    """Python source that repeats the workload's set-up in a fresh
    process."""
    return (f"import workloads; "
            f"workloads.WORKLOADS[{wl.name!r}]({wl.seed}, '').setup()")


def _families(m: int) -> list:
    fams = ["quadratic", "binomial3", "leander_kholosha"]
    fams += ["binomial4"] if m % 2 else ["binomial6", "adelaide"]
    return fams


# ---------------------------------------------------------------------------

class CliBent:
    """Cold CLI requests.  Each round: build, check and correspond at
    m = 6, 7, 8.  Three rounds in four have one check that reads a table
    with one bit flipped (a negative control), at m = 6 or 7.

    Every block of four rounds holds the same mix of costs whatever the
    seed: families cycle from a seeded start, the correspondences at even
    m alternate between Subiaco and Adelaide, and the negative controls,
    whose coset test stops early, stay out of the m = 8 items that set the
    tail."""

    name = "cli_bent"
    kinds = ("build", "check", "correspond")
    # 4 rounds hold 12 items at m = 8, so the tail order statistic (11th
    # largest) stays among them
    min_rounds = 4
    probe = "import nihobent"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.fields = {m: nb.GF(2 * m) for m in (6, 7, 8)}

    def plan(self, rnd: int) -> list:
        rng = _rng(self.name, self.seed, rnd)
        phase = (rnd + self.seed) % 4
        items = []
        for m in (6, 7, 8):
            big = self.fields[m]
            for kind in self.kinds:
                item = {"id": f"r{rnd}.{kind}.m{m}", "kind": kind, "m": m}
                if kind == "correspond":
                    family = "adelaide" if m % 2 == 0 and phase % 2 \
                        else "subiaco"
                    argv = ["correspond", "--family", family, "--m", str(m)]
                    if family == "adelaide":
                        argv += ["--beta", _hex(_circle(big, rng))]
                    elif m % 4 == 0:
                        # only b = 1 is established; vary the circle point
                        argv += ["--b", "0x1", "--u",
                                 f"general:{rng.randrange(1 << m)}"]
                    else:
                        argv += ["--b", _hex(rng.randrange(1, big.order))]
                    item["argv"] = argv + ["--json"]
                    item["expect"] = {"verified": True}
                else:
                    fams = _families(m)
                    start = _rng(self.name, self.seed, f"{kind}{m}") \
                        .randrange(len(fams))
                    family = fams[(start + rnd) % len(fams)]
                    coeffs = _member(big, family, rng)
                    item["family"] = family
                    item["coeffs"] = coeffs
                    degree = EXPECTED_DEGREE[family](m)
                    expect = {"bent": True, "niho": True}
                    if degree is not None:
                        expect["degree"] = degree
                    path = os.path.join(self.workdir, item["id"] + ".tt")
                    if kind == "build":
                        argv = ["build", "--family", family, "--m", str(m),
                                "--out", path]
                        for key, val in sorted(coeffs.items()):
                            argv += [f"--{key}",
                                     str(val) if key == "r" else _hex(val)]
                    else:
                        item["path"] = path
                        if phase and m == 6 + phase % 2:
                            item["flip"] = rng.randrange(big.order)
                            # f + delta_a: |W| = 2^m +- 2 (not bent), a
                            # one-point change is not affine on its coset
                            # (m >= 2), and deg(delta_a) = n exceeds
                            # deg f <= m
                            expect = {"bent": False, "niho": False,
                                      "degree": 2 * m}
                        argv = ["check", path]
                    item["argv"] = argv + ["--json"]
                    item["expect"] = expect
                items.append(item)
        rng.shuffle(items)
        return items

    def prepare(self, items) -> None:
        """Write the truth tables the check requests read (not timed)."""
        for item in items:
            if item["kind"] != "check":
                continue
            big = self.fields[item["m"]]
            coeffs = {k: (v if k == "r" else big.el(v))
                      for k, v in item["coeffs"].items()}
            spec = nb.FamilySpec(item["family"], item["m"], field=big,
                                 **coeffs)
            values = nb.build_bent(spec).truth_table().values.copy()
            if "flip" in item:
                values[item["flip"]] ^= 1
            with open(item["path"], "w", encoding="ascii") as fh:
                fh.write(nb.TruthTable(big.degree, values).to_text())

    def run(self, item, tracer=None) -> Result:
        if tracer is None:
            argv = [sys.executable, "-m", "nihobent", *item["argv"]]
        else:
            spans_path = os.path.join(self.workdir, "spans.json")
            argv = [sys.executable, os.path.join(HERE, "tracechild.py"),
                    spans_path, "--", *item["argv"]]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=child_env(),
                              cwd=ROOT, check=False)
        ms = (time.perf_counter() - start) * 1e3
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace').strip()}")
        problems += _check_verdicts(_doc_verdicts(proc.stdout),
                                    item["expect"])
        inner = None
        if tracer is not None:
            with open(spans_path, encoding="ascii") as fh:
                dumped = json.load(fh)
            before = len(tracer.spans)
            tracer.absorb(dumped["spans"], dumped["counts"], item["id"])
            inner = sum((s.end - s.start) / 1e6
                        for s in tracer.spans[before:]
                        if s.name == "cli.main")
        return Result(item["kind"], ms, tuple(problems), sha(proc.stdout),
                      inner)


# ---------------------------------------------------------------------------

# catalog slots: (m, source); bridge slots: (m, branch).  17 slots, so the
# median item falls inside one slot's times rather than between two.
_CATALOG_SLOTS = ((4, "subiaco3"), (4, "subiaco3_pair"), (4, "adelaide_fs"),
                  (4, "adelaide_pair"), (5, "subiaco1"), (5, "subiaco3"),
                  (5, "subiaco1_pair"), (6, "subiaco2"), (6, "subiaco3"),
                  (6, "adelaide_fs"))
_BRIDGE_SLOTS = ((5, "generic"), (5, "degenerate"), (6, "generic"),
                 (6, "retry"), (4, "mod4"), (4, "adelaide"),
                 (6, "adelaide"))


class Survey:
    """Warm in-process survey over m = 4, 5, 6.  A catalog item evaluates
    one catalog member and tests and normalizes it; a bridge item runs one
    correspondence.  The bridge slots cover the degenerate, generic,
    fifth-root-retry and m = 0 (mod 4) branches and Adelaide."""

    name = "survey_m5"
    kinds = ("catalog", "bridge")
    min_rounds = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    @property
    def probe(self) -> str:
        return _setup_probe(self)

    def setup(self) -> None:
        """Fields, embeddings and option lists, then one untimed round so
        that every cached table is built before timing starts."""
        self.small = {m: nb.GF(m) for m in (4, 5, 6)}
        self.big = {m: nb.GF(2 * m) for m in (4, 5, 6)}
        self.emb = {m: nb.embed_subfield(self.small[m], self.big[m])
                    for m in (4, 5, 6)}
        self.w3 = {m: [w.bits for w in
                       nb.SubiacoParams.case_iii_w_options(self.small[m])]
                   for m in (4, 5, 6)}
        self.w2 = [w.bits for w in
                   nb.SubiacoParams.case_ii_w_options(self.small[6])]
        # fifth:1 is the first candidate of the m = 2 (mod 4) branch
        big6 = self.big[6]
        u1 = nb.unit_circle_element(big6, "fifth:1").bits
        self.retry_div = big6.inv_bits(big6.pow_bits(u1, 4) ^ 1)
        for item in self.plan(-1):
            self.run(item)

    def plan(self, rnd: int) -> list:
        rng = _rng(self.name, self.seed, rnd)
        items = []
        for m, source in _CATALOG_SLOTS:
            item = {"id": f"r{rnd}.{source}.m{m}", "kind": "catalog",
                    "m": m, "source": source,
                    "s": rng.randrange(1 << m),
                    "which": rng.choice("fg"),
                    # every Subiaco/Adelaide member is an o-polynomial,
                    # and normalizing fixes G(0) = 0, G(1) = 1
                    "expect": {"is_opoly": True, "normalized_0_1": True}}
            if source.startswith("subiaco3"):
                item["w"] = rng.choice(self.w3[m])
            elif source.startswith("subiaco2"):
                item["w"] = rng.choice(self.w2)
            elif source.startswith("adelaide"):
                item["beta"] = _circle(self.big[m], rng)
            items.append(item)
        for m, branch in _BRIDGE_SLOTS:
            big = self.big[m]
            item = {"id": f"r{rnd}.{branch}.m{m}", "kind": "bridge",
                    "m": m, "branch": branch,
                    "expect": {
                        "verified": True,
                        "family": "adelaide" if branch == "adelaide"
                        else "subiaco",
                        "branch": "degenerate_g" if branch == "degenerate"
                        else "generic",
                        # Subiaco case by m mod 4; none for Adelaide
                        "catalog_case": None if branch == "adelaide"
                        else 3 if m % 4 == 0 else 2 if m % 4 == 2 else 1,
                        "retried": branch == "retry"}}
            if branch == "adelaide":
                item["beta"] = _circle(big, rng)
            elif branch == "mod4":
                item["b"] = 1
                item["u"] = _circle(big, rng)
            elif branch == "degenerate":
                # b = g^k is degenerate iff b^(2^m-1) = u^2 for the cube
                # root u = g^((2^n-1)/3), i.e. k = 2(2^m+1)/3 mod 2^m+1
                c = (1 << m) + 1
                k = 2 * c // 3 + c * rng.randrange((1 << m) - 1)
                item["b"] = big.pow_bits(big.generator, k)
            elif branch == "retry":
                # Tr(b (u1^4 + 1)) = 0 exactly for b in GF(2^m) / (u1^4+1)
                item["b"] = big.mul_bits(_subfield_nonzero(big, rng),
                                         self.retry_div)
            else:
                while True:
                    b = rng.randrange(1, big.order)
                    if m % 2 == 1 and not self._degenerate(big, b):
                        break
                    if m % 2 == 0 and not big.in_subfield_bits(
                            big.mul_bits(b, big.inv_bits(self.retry_div)),
                            m):
                        break
                item["b"] = b
            items.append(item)
        rng.shuffle(items)
        return items

    @staticmethod
    def _degenerate(big, b: int) -> bool:
        """b^(2^m-1) = u^2 for the cube root u: the m-odd degenerate case."""
        m = big.degree // 2
        u = big.pow_bits(big.generator, big.mult_order // 3)
        return big.pow_bits(b, (1 << m) - 1) == big.mul_bits(u, u)

    def prepare(self, items) -> None:
        pass

    def _catalog(self, item):
        m = item["m"]
        small = self.small[m]
        source = item["source"]
        if source.startswith("adelaide"):
            params = nb.AdelaideParams(self.big[m].el(item["beta"]),
                                       self.emb[m])
            if source == "adelaide_pair":
                return nb.adelaide_pair(params)["fg".index(item["which"])]
            return nb.adelaide_fs(params, small.el(item["s"]))
        case = int(source[len("subiaco")])
        params = (nb.SubiacoParams.case_i(small) if case == 1 else
                  nb.SubiacoParams.case_ii(small, item["w"]) if case == 2
                  else nb.SubiacoParams.case_iii(small, item["w"]))
        if source.endswith("_pair"):
            return nb.subiaco_pair(params)["fg".index(item["which"])]
        return nb.subiaco_fs(params, small.el(item["s"]))

    def run(self, item, tracer=None) -> Result:
        if tracer is not None:
            tracer.item = item["id"]
        if item["kind"] == "catalog":
            start = time.perf_counter()
            table = self._catalog(item)
            opoly = nb.is_opolynomial(table)
            norm = nb.opoly_normalize(table)
            ms = (time.perf_counter() - start) * 1e3
            verdicts = {"is_opoly": opoly,
                        "normalized_0_1": norm.entries[:2] == (0, 1)}
            out = {"table": table.to_json(), "is_opoly": opoly,
                   "normalized": norm.to_json()}
        else:
            big = self.big[item["m"]]
            start = time.perf_counter()
            if item["branch"] == "adelaide":
                corr = nb.correspond_adelaide(big.el(item["beta"]))
            else:
                u = big.el(item["u"]) if "u" in item else None
                corr = nb.correspond_subiaco(big.el(item["b"]), u=u)
            ms = (time.perf_counter() - start) * 1e3
            verdicts = {"verified": corr.verified, "family": corr.family,
                        "branch": corr.branch,
                        "catalog_case": corr.catalog_case,
                        "retried": bool(corr.retried)}
            out = {"correspondence": corr.to_json(),
                   "member": corr.member.to_json(),
                   "extracted": corr.extracted.to_json()}
        if tracer is not None:
            tracer.item = None
        data = json.dumps(out, sort_keys=True).encode()
        return Result(item["kind"], ms,
                      tuple(_check_verdicts(verdicts, item["expect"])),
                      sha(data), None)


# ---------------------------------------------------------------------------

# (m, source, positive); frobenius and file each run a positive and a
# negative input per m
_OPOLY_SLOTS = tuple((m, src, pos) for m in (9, 10, 11)
                     for src, pos in (("subiaco", True),
                                      ("frobenius", True),
                                      ("frobenius", False),
                                      ("file", True), ("file", False)))


class OpolyLarge:
    """`opoly` through nihobent.cli.main in one process at m = 9, 10, 11:
    Subiaco members (case by m), Frobenius maps (gcd(i, m) = 1 or not) and
    catalog tables read from hex files, some with one entry duplicated."""

    name = "opoly_large"
    kinds = ("opoly",)
    # 5 rounds hold 15 positive verdicts at m = 11, the slowest group
    min_rounds = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    @property
    def probe(self) -> str:
        return _setup_probe(self)

    def setup(self) -> None:
        import nihobent.cli  # noqa: F401  (binds nb.cli, used by run)
        self.small = {m: nb.GF(m) for m in (9, 10, 11)}
        self.w3 = {m: [w.bits for w in
                       nb.SubiacoParams.case_iii_w_options(self.small[m])]
                   for m in (9, 10, 11)}
        self.w2 = [w.bits for w in
                   nb.SubiacoParams.case_ii_w_options(self.small[10])]
        for m in (9, 10, 11):
            self.run({"id": "warm", "kind": "opoly",
                      "argv": ["opoly", "--source", "frobenius", "--m",
                               str(m), "--exponent", "0", "--json"],
                      "expect": {"is_opoly": False}})

    def _subiaco_args(self, m: int, rng) -> list:
        cases = [1, 3] if m % 2 else [2, 3] if m % 4 == 2 else [3]
        case = rng.choice(cases)
        args = ["--case", str(case)]
        if case == 3:
            args += ["--w", _hex(rng.choice(self.w3[m]))]
        elif case == 2:
            args += ["--w", _hex(rng.choice(self.w2))]
        return args + ["--s", _hex(rng.randrange(1 << m))]

    def plan(self, rnd: int) -> list:
        rng = _rng(self.name, self.seed, rnd)
        items = []
        for m, source, positive in _OPOLY_SLOTS:
            item = {"id": f"r{rnd}.{source}.{int(positive)}.m{m}",
                    "kind": "opoly", "m": m}
            argv = ["opoly", "--source", source]
            if source == "subiaco":
                argv += ["--m", str(m)] + self._subiaco_args(m, rng)
                expect = {"is_opoly": True, "is_permutation": True}
            elif source == "frobenius":
                pool = [i for i in range(2 * m + 1)
                        if (math.gcd(i, m) == 1) == positive]
                i = rng.choice(pool)
                argv += ["--m", str(m), "--exponent", str(i)]
                # z -> z^(2^i) is always a bijection; it is an
                # o-polynomial exactly when gcd(i, m) = 1
                expect = {"is_opoly": positive, "is_permutation": True}
            else:
                path = os.path.join(self.workdir, item["id"] + ".json")
                item["path"] = path
                item["member"] = ["--m", str(m)] + self._subiaco_args(m, rng)
                if not positive:
                    item["dup"] = rng.sample(range(1 << m), 2)
                argv += ["--file", path]
                # a repeated value cannot be a permutation, and an
                # o-polynomial must be one
                expect = {"is_opoly": positive, "is_permutation": positive}
            item["argv"] = argv + ["--json"]
            item["expect"] = expect
            items.append(item)
        rng.shuffle(items)
        return items

    def prepare(self, items) -> None:
        """Write the catalog tables the file requests read (not timed)."""
        for item in items:
            if "path" not in item:
                continue
            args = item["member"]
            m = int(args[1])
            small = self.small[m]
            case = int(args[args.index("--case") + 1])
            w = int(args[args.index("--w") + 1], 16) if "--w" in args \
                else None
            s = small.el(int(args[args.index("--s") + 1], 16))
            params = (nb.SubiacoParams.case_i(small) if case == 1 else
                      nb.SubiacoParams.case_ii(small, w) if case == 2 else
                      nb.SubiacoParams.case_iii(small, w))
            entries = list(nb.subiaco_fs(params, s).entries)
            if "dup" in item:
                src, dst = item["dup"]
                entries[dst] = entries[src]
            with open(item["path"], "w", encoding="ascii") as fh:
                json.dump([_hex(e) for e in entries], fh)

    def run(self, item, tracer=None) -> Result:
        if tracer is not None:
            tracer.item = item["id"]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nb.cli.main(item["argv"])
        ms = (time.perf_counter() - start) * 1e3
        if tracer is not None:
            tracer.item = None
        text = out.getvalue()
        problems = [] if code == 0 else [f"exit {code}: {err.getvalue()}"]
        problems += _check_verdicts(_doc_verdicts(text), item["expect"])
        return Result(item["kind"], ms, tuple(problems),
                      sha(text.encode()), None)


WORKLOADS = {cls.name: cls for cls in (CliBent, Survey, OpolyLarge)}

#!/usr/bin/env python3
"""nihobent benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload cli_bent --seed 1 --seconds 28 \
        --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory and nowhere else.  The run

  * times the set-up several times in fresh processes (interpreter start,
    import, field tables, warm-up) and reports the median as `setup_s`;
  * runs whole rounds of the workload (see workloads.py) in a closed loop,
    one client: as many as fit in --seconds, and at least the workload's
    minimum;
  * checks every verdict, and exits 1 if any item failed;
  * prints a report line (environment, output digest, per-kind medians)
    and, last, the result line with the metrics.

With --trace 1 every round runs twice, untraced and then with spans
recorded around every public call of the package (tracer.py).  The
per-layer metrics are per item, so they add up to the mean item time,
which the untraced half gives for comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

HELD_OUT_SEED = 7919   # kept out of tuning; use it to confirm a claim
SETUP_REPEATS = 5
TAIL_BEYOND = 10       # samples that must lie beyond the tail percentile
DIGESTS = os.path.join(HERE, "digests.json")


def tail(values) -> tuple:
    """(value, percentile, samples beyond): the highest order statistic
    with at least TAIL_BEYOND samples above it; the maximum when there
    are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    idx = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True,
                               check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": dirty}


def environment(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "loadavg_start": list(os.getloadavg()),
            **_git(),
            "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def measure_setup(probe: str, env: dict) -> list:
    """Wall seconds of fresh processes that run the workload's set-up.
    One untimed probe first, so byte-compilation is not measured."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                       check=True)
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_rounds(wl, seconds: float, rec=None) -> tuple:
    """As many whole rounds as fit in `seconds` of summed item time (a
    round starts only if a round of mean length still fits), but at least
    `wl.min_rounds`.  With a tracer, each round runs twice: untraced, then
    traced, so both halves see the same inputs and the same machine
    state; the minimum is then halved, since the tail is not reported.
    Returns (untraced results, traced results, rounds run)."""
    least = wl.min_rounds if rec is None else (wl.min_rounds + 1) // 2
    untraced, traced = [], []
    spent = 0.0
    rnd = 0
    while rnd < least or spent + spent / rnd <= seconds:
        items = wl.plan(rnd)
        wl.prepare(items)
        for item in items:
            res = wl.run(item)
            untraced.append((item["id"], res))
            spent += res.ms / 1e3
        if rec is not None:
            rec.install()
            try:
                for item in items:
                    res = wl.run(item, rec)
                    traced.append((item["id"], res))
                    spent += res.ms / 1e3
            finally:
                rec.uninstall()
        rnd += 1
    return untraced, traced, rnd


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_bent" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def summarize_items(wl, results) -> dict:
    ms = [r.ms for _, r in results]
    value, pct, beyond = tail(ms)
    per_kind = {f"{kind}_ms_p50": statistics.median(
        [r.ms for _, r in results if r.kind == kind]) for kind in wl.kinds}
    return {"items": len(ms),
            "items_per_s": len(ms) / (sum(ms) / 1e3),
            "item_ms_mean": statistics.fmean(ms),
            "item_ms_p50": statistics.median(ms),
            "item_ms_tail": value,
            "tail_percentile": pct,
            "tail_beyond": beyond,
            **per_kind}


def round_digest(results) -> tuple:
    """Digest of the first round's outputs, in plan order: the same seed
    gives the same digest whatever the speed of the code."""
    first = [r.digest for item_id, r in results if item_id.startswith("r0.")]
    return hashlib.sha256("\n".join(first).encode()).hexdigest(), len(first)


def failures(results) -> list:
    return [f"{item_id}: {p}" for item_id, r in results for p in r.problems]


def recorded_digest(workload: str, seed: int):
    with open(DIGESTS, encoding="ascii") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def layer_metrics(rec, traced, summary, all_kinds) -> dict:
    """Per-item layer figures from the traced half; the per-kind medians
    and the untraced mean come from the untraced half (`summary`)."""
    import tracer as tr
    n = len(traced)
    out = {k: v / n for k, v in tr.summarize(rec.spans).items()}
    for name in tr.COUNTERS:
        out[name] = rec.counts.get(name, 0) / n
    cand = rec.counts.get("ovals.retry_candidates", 0)
    out["ovals.retry_ratio"] = \
        rec.counts.get("ovals.retried", 0) / cand if cand else 0.0
    out["cli.process_start_ms"] = sum(
        r.ms - r.inner_ms for _, r in traced if r.inner_ms is not None) / n
    mean_traced = statistics.fmean([r.ms for _, r in traced])
    out["trace.item_ms_untraced"] = summary["item_ms_mean"]
    out["trace.item_ms_traced"] = mean_traced
    out["trace.accounted_ms"] = \
        tr.root_ms(rec.spans) / n + out["cli.process_start_ms"]
    out["trace.overhead_pct"] = \
        100.0 * (mean_traced / summary["item_ms_mean"] - 1)
    for kind in all_kinds:
        out[f"{kind}_ms_p50"] = summary.get(f"{kind}_ms_p50", 0.0)
    return out


def layer_unit(name: str) -> str:
    if name == "trace.overhead_pct":
        return "%"
    if name == "ovals.retry_ratio":
        return "ratio"
    if name.startswith("trace.") or name.endswith("_ms_p50"):
        return "ms"
    return "ms/item" if name.endswith("_ms") else "1/item"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nihobent", "__init__.py")):
        print(f"error: no nihobent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = environment(args.seed)
    workdir = os.path.join(".perfbench", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_times = measure_setup(wl.probe, workloads.child_env(HERE))
    wl.setup()

    rec = None
    if args.trace:
        import tracer as tr
        rec = tr.Tracer()
    untraced, traced, rounds = run_rounds(wl, args.seconds, rec)
    shutil.rmtree(workdir, ignore_errors=True)
    # tracing must not change any output
    changed = [i for (i, a), (_, b) in zip(untraced, traced)
               if a.digest != b.digest]
    if rec is not None:
        rec.write(os.path.join(".perfbench",
                               f"spans-{args.workload}-{args.seed}.jsonl"))

    results = untraced + traced
    problems = failures(results) + [f"{i}: output changed under tracing"
                                    for i in changed]
    failed = sum(1 for _, r in results if r.problems) + len(changed)
    summary = summarize_items(wl, untraced)
    digest, digest_items = round_digest(untraced)
    recorded = recorded_digest(args.workload, args.seed)
    env["loadavg_end"] = list(os.getloadavg())
    setup_s = statistics.median(setup_times)
    report = {"workload": args.workload, "rounds": rounds,
              "env": env, "digest": digest, "digest_items": digest_items,
              "digest_matches_recorded":
                  None if recorded is None else recorded == digest,
              "failed_ratio": failed / len(results),
              "failed_base": len(results),
              "failures": problems[:20],
              "setup_s_runs": setup_times, **summary}
    if args.trace:
        metrics = layer_metrics(
            rec, traced, summary,
            [k for cls in workloads.WORKLOADS.values() for k in cls.kinds])
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = {"setup_s": setup_s,
                   "items_per_s": summary["items_per_s"],
                   "item_ms_p50": summary["item_ms_p50"],
                   "item_ms_tail": summary["item_ms_tail"],
                   "peak_rss_mib": peak_rss_mib(args.workload)}
        units = {"setup_s": "s", "items_per_s": "1/s", "item_ms_p50": "ms",
                 "item_ms_tail": "ms", "peak_rss_mib": "MiB"}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not problems,
                      "attempted": len(results),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload several times, compare two result sets, record digests.

    python3 perfbench/suite.py run --runs 10 --out perfbench/out/mine.json
    python3 perfbench/suite.py compare perfbench/baseline/suite-seed.json perfbench/out/mine.json
    python3 perfbench/suite.py digests

``run`` calls run.py once per (workload, seed) with tracing off, then once
per workload with tracing on (seed 0), gathers the run records into one JSON file and
prints every end-to-end metric with its unit (median and quartiles over the
runs), fail_ratio included.  ``compare`` prints, per workload and metric, the
medians, quartiles and ratio of two such files and marks each one better,
worse, unchanged or unresolved against the bounds in BENCHMARK.json; then
the per-layer ratios of the traced runs.  ``digests`` records the output
digest of every workload on the default seed in perfbench/digests.json.
Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

BENCHMARK_JSON = os.path.join(bench.ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


# ---------------------------------------------------------------------------
# run


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bench.ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    path = os.path.join(bench.OUT, "runs", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def summary_table(runs: list) -> str:
    lines = []
    for w in bench.WORKLOADS:
        rows = [r for r in runs if r["record"]["workload"] == w and not r["record"]["trace"]]
        if not rows:
            continue
        lines.append(f"{w} ({len(rows)} runs)")
        names = list(rows[0]["values"]) + ["fail_ratio"]
        for name in names:
            if name == "fail_ratio":
                xs, unit = [r["notes"]["fail_ratio"] for r in rows], "ratio"
            else:
                xs, unit = [r["values"][name] for r in rows], rows[0]["units"][name]
            q1, med, q3 = quartiles(xs)
            lines.append(f"  {name:<14} {med:>12.6g} {unit:<6} "
                         f"(quartiles {q1:.6g} .. {q3:.6g})")
        tail = rows[0]["notes"]
        lines.append(f"  item_ms_tail is p{tail['tail_percentile']:g}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    seconds = load_spec()["run_seconds"]
    runs = []
    for w in bench.WORKLOADS:
        for seed in range(args.runs):
            runs.append(one_run(w, seed, seconds, 0))
            v = runs[-1]["values"]
            print(f"{w} seed {seed}: correct={runs[-1]['correct']} "
                  + " ".join(f"{k}={x:.5g}" for k, x in v.items()), flush=True)
        runs.append(one_run(w, 0, seconds, 1))
        print(f"{w} seed 0 traced: correct={runs[-1]['correct']}", flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
    print(summary_table(runs))
    print(f"wrote {args.out}")
    return 0 if all(r["correct"] for r in runs) else 1


# ---------------------------------------------------------------------------
# compare


def verdict(a: list, b: list, better: str, bound: float, pairs: list) -> str:
    """better / worse / unchanged / unresolved for one metric.

    worse: B's median is worse than A's by more than the bound.
    better: every B run beats every A run, or B wins at least nine tenths of
    the seed-matched pairs and its median gains more than A's quartile
    spread.  unresolved: the run-to-run spread exceeds the bound and neither
    of the above settles it.
    """
    sign = 1 if better == "lower" else -1
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / ma
    q1a, _, q3a = quartiles(a)
    q1b, _, q3b = quartiles(b)
    spread_a = (q3a - q1a) / ma
    spread = max(spread_a, (q3b - q1b) / mb)
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better"
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if pairs and wins >= 0.9 * len(pairs) and -worse_by > spread_a:
        return "better"
    return "unchanged"


def cmd_compare(args) -> int:
    spec = load_spec()
    with open(args.a) as fh:
        runs_a = json.load(fh)["runs"]
    with open(args.b) as fh:
        runs_b = json.load(fh)["runs"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"A = {args.a}\nB = {args.b}\nratio = median B / median A\n")
    worse = 0
    for w in bench.WORKLOADS:
        ra = [r for r in runs_a if r["record"]["workload"] == w and not r["record"]["trace"]]
        rb = [r for r in runs_b if r["record"]["workload"] == w and not r["record"]["trace"]]
        if not ra or not rb:
            continue
        print(f"{w}: {len(ra)} runs in A, {len(rb)} in B")
        by_seed_a = {r["record"]["seed"]: r for r in ra}
        for name, m in metrics.items():
            a = [r["values"][name] for r in ra]
            b = [r["values"][name] for r in rb]
            pairs = [(by_seed_a[r["record"]["seed"]]["values"][name], r["values"][name])
                     for r in rb if r["record"]["seed"] in by_seed_a]
            v = verdict(a, b, m["better"], m["bound"], pairs)
            worse += v == "worse"
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            print(f"  {name:<14} A {ma:>10.5g} [{q1a:.5g}, {q3a:.5g}]  "
                  f"B {mb:>10.5g} [{q1b:.5g}, {q3b:.5g}]  "
                  f"ratio {mb / ma:6.3f}  {v} (bound {m['bound']}, {m['unit']})")
        fa = max(r["notes"]["fail_ratio"] for r in ra)
        fb = max(r["notes"]["fail_ratio"] for r in rb)
        print(f"  {'fail_ratio':<14} A {fa:.5g}  B {fb:.5g}"
              + ("  worse" if fb > fa else ""))
        worse += fb > fa
    print("\nper-layer ratios (traced runs, median B / median A)")
    for w in bench.WORKLOADS:
        ta = [r for r in runs_a if r["record"]["workload"] == w and r["record"]["trace"]]
        tb = [r for r in runs_b if r["record"]["workload"] == w and r["record"]["trace"]]
        if not ta or not tb:
            continue
        print(f"{w}")
        for name in ta[0]["values"]:
            if name not in tb[0]["values"]:
                continue
            ma = statistics.median(r["values"][name] for r in ta)
            mb = statistics.median(r["values"][name] for r in tb)
            ratio = f"{mb / ma:7.3f}" if ma else ("      -" if not mb else "    new")
            print(f"  {name:<40} A {ma:>11.5g}  B {mb:>11.5g}  ratio {ratio}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------
# digests


def cmd_digests(args) -> int:
    digests = {}
    for w in bench.WORKLOADS:
        res = bench.spawn(w, bench.DEFAULT_SEED, "untraced", 170)
        bad = [why for why in res["failures"] if why]
        if bad:
            raise SystemExit(f"{w}: outputs fail their checks: {bad[:3]}")
        digests[w] = bench.pass_digest(res["hashes"])
        print(w, digests[w])
    path = os.path.join(bench.HERE, "digests.json")
    with open(path, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run all workloads, save a result set")
    p.add_argument("--runs", type=int, default=10, help="seeds 0..runs-1")
    p.add_argument("--out", required=True, help="result-set JSON to write")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("a", help="result set A (the parent)")
    p.add_argument("b", help="result set B (the change)")
    p.set_defaults(fn=cmd_compare)
    p = sub.add_parser("digests", help="record default-seed output digests")
    p.set_defaults(fn=cmd_digests)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""pierikit benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run is a closed loop with one client:
items go one after another in one process, no threads.  Every pass of a
workload starts a fresh interpreter (perfbench/worker.py) with the
checkout's src/ first on its path and PYTHONHASHSEED pinned, so the
lru_cache state is empty at the start of every pass and the working tree,
not an installed copy, is measured.

--trace 0 runs passes until S seconds have gone (at least two) and prints
the end-to-end metrics.  --trace 1 runs one untraced pass and two traced
ones and prints the per-layer metrics and the tracing overhead.  Either way
every output is checked exactly, the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics, and a record of the
run (machine, Python, git SHA, seeds) goes to perfbench/out/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("chain_deform", "oracle_sweep", "witness_sweep", "cli_verbs")
HASH_SEED = "0"
DEFAULT_SEED = 0

SETUP_ONLY = 3      # extra set-up-only interpreters per run, for setup_s
MIN_PASSES = 2      # also what makes every output comparable with a rerun
TAIL_LEVELS = (99.9, 99, 95, 90, 75, 50)
RUN_LIMIT_S = 165   # a run stops starting passes well before 180 s
# Timings are reported at reference speed: each item's time is multiplied
# by REF_NOMINAL_S over the time the worker's reference probe took around
# it, on the same core.  On a shared host the processor's speed drifts by
# 10-20% within tens of seconds; the probe moves with it, so the scaled
# times keep what the code costs and drop most of what the host did.
REF_NOMINAL_S = 0.010

E2E_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class RunError(Exception):
    """A pass could not run at all (as opposed to an item that failed)."""


# ---------------------------------------------------------------------------
# run record


def git_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" when there is none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pythonhashseed": HASH_SEED,
    }


# ---------------------------------------------------------------------------
# passes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PIERIKIT_SEED", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def spawn(workload: str, seed: int, mode: str, timeout: float, check: bool = True,
          spans: str | None = None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--check", str(int(check))]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} pass of {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} pass of {workload} exited {proc.returncode}:\n"
                       + proc.stderr[-2000:])
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready_at"] - t0
    res["wall_s"] = time.monotonic() - t0
    return res


def pass_digest(hashes) -> str:
    return hashlib.sha256("\n".join(hashes).encode()).hexdigest()


def load_digests() -> dict:
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def failures(workload: str, seed: int, passes: list) -> list:
    """(pass, item, reason) for every item that failed a check.

    An item fails when its own check fails, when its output differs from a
    rerun of the same input (the same item in another pass, or the same
    argv in one pass), or, on the default seed, when its pass's digest
    differs from the recorded one.
    """
    bad, first = {}, {}
    for k, res in enumerate(passes):
        for i, (key, h, why) in enumerate(zip(res["keys"], res["hashes"],
                                              res["failures"])):
            if key not in first:
                first[key] = (h, why)
            elif h != first[key][0]:
                why = why or "output differs from a rerun"
            else:
                why = why or first[key][1]  # same output as a checked item
            if why:
                bad[(k, i)] = why
    want = load_digests().get(workload) if seed == DEFAULT_SEED else None
    if want:
        for k, res in enumerate(passes):
            if pass_digest(res["hashes"]) != want:
                for i in range(res["items"]):
                    bad.setdefault((k, i), "pass digest differs from digests.json")
    return [(k, i, why) for (k, i), why in sorted(bad.items())]


# ---------------------------------------------------------------------------
# metrics


def tail_level(n_items: int) -> float:
    """Highest listed percentile with at least ten items beyond it."""
    for level in TAIL_LEVELS:
        if n_items * (1 - level / 100) >= 10:
            return level
    return 50


def nearest_rank(sorted_values, level: float) -> float:
    k = max(1, math.ceil(len(sorted_values) * level / 100))
    return sorted_values[k - 1]


def scaled(res: dict, key: str, raw: bool = False) -> list:
    """Per-item times of a pass at reference speed (or as measured)."""
    if raw:
        return res[key]
    return [x * REF_NOMINAL_S / r for x, r in zip(res[key], res["ref_s"])]


def items_per_s(passes, raw: bool = False) -> float:
    lat = [x for res in passes for x in scaled(res, "latency_s", raw)]
    return len(lat) / sum(lat)


def end_to_end(passes: list, setups: list, raw: bool = False) -> tuple[dict, dict]:
    """The six metrics; setups are (seconds, reference probe seconds)."""
    lat = sorted(x for res in passes for x in scaled(res, "latency_s", raw))
    # the tail's percentile is fixed by the item count of MIN_PASSES passes,
    # so it does not move when a run happens to fit one more pass
    level = tail_level(MIN_PASSES * passes[0]["items"])
    values = {
        "items_per_s": items_per_s(passes, raw),
        "item_ms_p50": statistics.median(lat) * 1000,
        "item_ms_tail": nearest_rank(lat, level) * 1000,
        "cpu_s": statistics.median(sum(scaled(res, "cpu_s", raw)) for res in passes),
        "peak_rss_mb": statistics.median(res["peak_rss_kb"] for res in passes) / 1024,
        "setup_s": statistics.median(t if raw else t * REF_NOMINAL_S / r
                                     for t, r in setups),
    }
    beyond = sum(1 for x in lat if x * 1000 > values["item_ms_tail"])
    notes = {"tail_percentile": level, "tail_items_beyond": beyond,
             "items": len(lat), "passes": len(passes)}
    return values, notes


def layer_values(res: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    funcs, counts = res["trace"]["funcs"], res["trace"]["counts"]

    def calls(key):
        return funcs.get(key, (0, 0.0, 0.0))[0]

    def own(key):
        return funcs.get(key, (0, 0.0, 0.0))[2]

    def ratio(key):
        hits, misses = counts.get(key + ".hits", 0), counts.get(key + ".misses", 0)
        return hits / (hits + misses) if hits + misses else 0.0

    v = {
        "exactla.rref.calls": calls("exactla.rref"),
        "exactla.rref.self_s": own("exactla.rref"),
        "exactla.rref.cells": counts.get("exactla.rref.cells", 0),
        "exactla.rref.max_bits": counts.get("exactla.rref.max_bits", 0),
        "exactla.intersect.calls": calls("exactla.intersect"),
        "exactla.intersect.self_s": own("exactla.intersect"),
        "exactla.limit_at_zero.calls": calls("exactla.limit_at_zero"),
        "exactla.limit_at_zero.self_s": own("exactla.limit_at_zero"),
        "exactla.limit_at_zero.kernel_calls":
            counts.get("exactla.limit_at_zero.kernel_calls", 0),
        "tableaux.sparsepoly_mul.calls": calls("tableaux.sparsepoly_mul"),
        "tableaux.sparsepoly_mul.self_s": own("tableaux.sparsepoly_mul"),
        "tableaux.sparsepoly_mul.terms": counts.get("tableaux.sparsepoly_mul.terms", 0),
        "tableaux.schur_decompose.self_s": own("tableaux.schur_decompose"),
        "tableaux.schur_expand.hit_ratio": ratio("tableaux.schur_expand"),
        "seqcomb.pieri_set.calls": calls("seqcomb.pieri_set"),
        "seqcomb.pieri_set.hit_ratio": ratio("seqcomb.pieri_set"),
        "schubgeom.cell_member.calls": calls("schubgeom.cell_member"),
        "schubgeom.cell_member.self_s": own("schubgeom.cell_member"),
        "schubgeom.schubert_member.self_s": own("schubgeom.schubert_member"),
        "schubgeom.y_cycle.self_s": own("schubgeom.y_cycle"),
        "schubgeom.classify_pieri.self_s": own("schubgeom.classify_pieri"),
        "deform.step_verify.calls": calls("deform.step_verify"),
        "deform.step_verify.self_s": own("deform.step_verify"),
        "deform.build_pencil.self_s": own("deform.build_pencil"),
        "enumerative.cohomology_oracle.self_s": own("enumerative.cohomology_oracle"),
        "enumerative.triple_witnesses.calls": calls("enumerative.triple_witnesses"),
        "enumerative.triple_witnesses.failed":
            counts.get("enumerative.triple_witnesses.value_errors", 0),
        "cli.import_s": res["import_s"],
        "cli.main.self_s": own("cli.main"),
        "cli.startup_s": (statistics.median(res["cli_startup_s"])
                          if res.get("cli_startup_s") else 0.0),
    }
    tw = v["enumerative.triple_witnesses.calls"]
    v["enumerative.witness_yield"] = res.get("planes", 0) / tw if tw else 0.0
    for layer in ("seqcomb", "exactla", "tableaux", "schubgeom", "deform",
                  "enumerative", "cli"):
        rows = [row for key, row in funcs.items() if key.split(".")[0] == layer]
        v[f"{layer}.calls"] = sum(r[0] for r in rows)
        v[f"{layer}.self_s"] = sum(r[2] for r in rows)
    return v




def is_count(name: str) -> bool:
    return not name.endswith("_s") and name != "trace.overhead"


def per_layer(base: dict, traced: list) -> tuple[dict, list]:
    """Counts from the first traced pass, times averaged over both; the
    counts of the two traced passes must agree exactly."""
    per_pass = [layer_values(res) for res in traced]
    values, mismatched = {}, []
    for name in per_pass[0]:
        xs = [v[name] for v in per_pass]
        if is_count(name):
            values[name] = xs[0]
            if any(x != xs[0] for x in xs):
                mismatched.append(name)
        else:
            values[name] = statistics.fmean(xs)
    values["trace.overhead"] = statistics.fmean(
        items_per_s([res]) for res in traced) / items_per_s([base])
    return values, mismatched


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_ratio", "witness_yield", "overhead")):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "pierikit", "__init__.py")):
        print(f"error: no pierikit source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    # one core for the worker, its reference probes and its children, so
    # the probes measure the processor the items ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w, seed = args.workload, args.seed
    try:
        setups = [spawn(w, seed, "setup", left()) for _ in range(SETUP_ONLY)]
        # only the first pass checks its outputs; every later pass must
        # reproduce them exactly (see failures)
        if args.trace:
            base = spawn(w, seed, "untraced", left())
            traced = [spawn(w, seed, "traced", left(), False, os.path.join(
                OUT, "spans", f"{w}-seed{seed}-pass{k}.tsv.gz")) for k in (1, 2)]
            passes = [base] + traced
        else:
            passes, t_loop = [], time.monotonic()
            while True:
                passes.append(spawn(w, seed, "untraced", left(), not passes))
                elapsed = time.monotonic() - t_loop
                mean = elapsed / len(passes)
                if len(passes) >= MIN_PASSES and (
                        elapsed + mean > 1.1 * args.seconds or mean > left()):
                    break
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bad = failures(w, seed, passes)
    attempted = sum(res["items"] for res in passes)
    record = run_record(w, seed, int(args.seconds), args.trace)
    if args.trace:
        values, mismatched = per_layer(passes[0], passes[1:])
        units = {name: layer_unit(name) for name in values}
        notes = {"count_mismatch": mismatched}
    else:
        setup = [(p["setup_s"], p["setup_ref_s"]) for p in setups + passes]
        values, notes = end_to_end(passes, setup)
        notes["as_measured"] = end_to_end(passes, setup, raw=True)[0]
        notes["reference_probe_s"] = statistics.median(
            r for res in passes for r in res["ref_s"])
        units = E2E_UNITS
        mismatched = []
    correct = not bad and not mismatched
    notes.update(fail_ratio=len(bad) / attempted, failures=[
        f"pass {k} item {i}: {why}" for k, i, why in bad[:20]])

    path = os.path.join(OUT, "runs", f"{w}-seed{seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"record": record, "correct": correct, "attempted": attempted,
                   "failed": len(bad), "values": values, "units": units,
                   "notes": notes}, fh, indent=1, sort_keys=True)

    print("record: " + json.dumps(record, sort_keys=True))
    for name, value in values.items():
        raw = notes.get("as_measured", {}).get(name)
        print(f"  {name}: {value:.6g} {units[name]}"
              + (f"  (as measured: {raw:.6g})" if raw is not None else ""))
    if not args.trace:
        print(f"  fail_ratio: {notes['fail_ratio']:.6g} ratio")
        print(f"  item_ms_tail is p{notes['tail_percentile']:g} of {notes['items']} "
              f"items ({notes['tail_items_beyond']} beyond), {notes['passes']} passes")
    for line in notes["failures"]:
        print("  FAILED " + line)
    if mismatched:
        print("  traced passes disagree on: " + ", ".join(mismatched))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

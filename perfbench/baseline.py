"""Regenerate the baseline numbers quoted in ROADMAP.md.

    python3 perfbench/baseline.py [--out FILE]

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (src/ first on the path, PYTHONHASHSEED pinned) and is repeated
REPEATS times; the median is reported.  The tier-1 suite runs once.  Measured:
  * the tier-1 suite (pytest over tests/), wall time and pass count;
  * criterion 9 split by oracle over all 1001 valid_instances(6);
  * chain_deformation plus golden_run_741 under cProfile, with rref's
    cumulative share;
  * chain_deformation on the standard flag at n = 9 (741, b=2), 12 (963,
    b=4) and 14 (10741, b=4), and on random_flag(12, 1) at n = 12 (963, b=3).
The result, with the run record, is printed and written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import run as bench

REPEATS = 3
CHAINS = {
    "chain_n9_741_b2_standard": (9, (7, 4, 1), 2, None),
    "chain_n12_963_b4_standard": (12, (9, 6, 3), 4, None),
    "chain_n14_10741_b4_standard": (14, (10, 7, 4, 1), 4, None),
    "chain_n12_963_b3_random1": (12, (9, 6, 3), 3, 1),
}


def child(name: str) -> dict:
    """One measurement, run inside a fresh interpreter."""
    from pierikit import (DecSeq, chain_deformation, cohomology_oracle,
                          count_pairs_d, golden_run_741, pieri_pairing_oracle,
                          random_flag, span, standard_flag, unit_vector,
                          valid_instances)

    def k_of(n, a, b):
        return span(n, *[unit_vector(n, i) for i in range(1, n + 2 - a.m - b)])

    if name == "criterion9":
        probs = list(valid_instances(6))
        out = {}
        for label, fn in (("count_pairs_d_s", count_pairs_d),
                          ("cohomology_oracle_s", cohomology_oracle),
                          ("pieri_pairing_oracle_s", pieri_pairing_oracle)):
            t0 = time.perf_counter()
            for p in probs:
                fn(p)
            out[label] = time.perf_counter() - t0
        return out
    if name == "chain_golden_cprofile":
        import cProfile
        import pstats

        a = DecSeq(9, (7, 4, 1))
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        chain_deformation(a, 2, standard_flag(9), k_of(9, a, 2), seeds=0)
        golden_run_741()
        prof.disable()
        total = time.perf_counter() - t0
        stats = pstats.Stats(prof)
        rref = [v for k, v in stats.stats.items()
                if k[2] == "rref" and k[0].endswith("exactla.py")]
        return {"profiled_s": total, "rref_cumulative_s": rref[0][3] if rref else 0.0}
    n, entries, b, fseed = CHAINS[name]
    a = DecSeq(n, entries)
    flag = standard_flag(n) if fseed is None else random_flag(n, fseed)
    t0 = time.perf_counter()
    reports = chain_deformation(a, b, flag, k_of(n, a, b), seeds=0)
    wall = time.perf_counter() - t0
    if not all(rep.passed for rep in reports):
        raise SystemExit(f"{name}: a stage report failed")
    return {"wall_s": wall}


def measure(name: str) -> dict:
    samples = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, __file__, "--child", name],
                              capture_output=True, text=True, env=bench.child_env(),
                              timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"{name} failed:\n{proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def tier1() -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "tests"],
        capture_output=True, text=True, env=bench.child_env(), cwd=bench.ROOT,
        timeout=1200)
    m = re.search(r"(\d+) passed", proc.stdout)
    return {"wall_s": time.monotonic() - t0, "passed": int(m.group(1)) if m else 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(bench.OUT, "roadmap-baseline.json"))
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    result = {"record": bench.run_record("roadmap-baseline", 0, 0, 0),
              "repeats": REPEATS,
              "tier1": tier1()}
    print(f"tier-1: {result['tier1']['passed']} passed in "
          f"{result['tier1']['wall_s']:.1f} s (one run)", flush=True)
    for name in ("criterion9", "chain_golden_cprofile", *CHAINS):
        result[name] = measure(name)
        print(f"{name}: " + ", ".join(f"{k} {v:.4g}" for k, v in result[name].items()),
              flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

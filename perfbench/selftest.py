"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
  1. wrapping catches calls made inside the library: rref spans appear
     under intersect and under limit_at_zero, and uninstalling restores
     every original function;
  2. two traced passes of one seed give identical counts, and the
     untraced pass of the same run finds no wrapper installed (both are
     enforced by run.py --trace 1, whose record this reads).
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pierikit  # noqa: E402
from pierikit import exactla  # noqa: E402
from pierikit.deform import worked_family  # noqa: E402

from tracer import Tracer, installed_wrappers  # noqa: E402


def ancestors(tracer: Tracer, i: int):
    parent = tracer.spans[i][3]
    while parent >= 0:
        yield tracer.names[tracer.spans[parent][0]]
        parent = tracer.spans[parent][3]


def check_nesting() -> list:
    problems = []
    originals = {name: getattr(exactla, name) for name in ("rref", "intersect",
                                                           "limit_at_zero")}
    tracer = Tracer()
    tracer.install()
    try:
        flag = pierikit.standard_flag(6)
        L = pierikit.random_flag(6, 3).subspace(3)
        pierikit.intersect(flag.subspace(2), L)
        pierikit.limit_at_zero(worked_family())
    finally:
        tracer.uninstall()
    rref_parents = set()
    for i, rec in enumerate(tracer.spans):
        if tracer.names[rec[0]] == "exactla.rref":
            rref_parents.update(ancestors(tracer, i))
    for outer in ("exactla.intersect", "exactla.limit_at_zero"):
        if outer not in rref_parents:
            problems.append(f"no rref span nested under {outer}")
    if not tracer.summary()["counts"].get("exactla.limit_at_zero.kernel_calls"):
        problems.append("kernel_basis calls under limit_at_zero were not counted")
    for name, fn in originals.items():
        if getattr(exactla, name) is not fn:
            problems.append(f"exactla.{name} was not restored")
    if installed_wrappers():
        problems.append(f"wrappers left after uninstall: {installed_wrappers()}")
    return problems


def check_traced_run() -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "chain_deform",
           "--seed", "0", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        return [f"traced run failed: {proc.stderr[-1000:]}"]
    with open(os.path.join(HERE, "out", "runs", "chain_deform-seed0-trace1.json")) as fh:
        rec = json.load(fh)
    problems = []
    if rec["notes"]["count_mismatch"]:
        problems.append("traced passes disagree on "
                        + ", ".join(rec["notes"]["count_mismatch"]))
    if not rec["correct"]:
        problems.append("traced run is not correct: " + "; ".join(rec["notes"]["failures"]))
    if rec["values"]["exactla.rref.calls"] == 0:
        problems.append("traced run recorded no rref calls")
    return problems


def main() -> int:
    problems = check_nesting() + check_traced_run()
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

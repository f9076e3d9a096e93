"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--check 0|1] [--spans PATH]

MODE is ``setup`` (import and build the inputs, then stop), ``untraced``
or ``traced``.  A pass builds the workload's inputs, runs every item once
with nothing but the library call inside the timed region, and only then
checks every output exactly (with --check 0 it only hashes the outputs;
run.py gives that to passes whose outputs must equal a checked pass's).  The pass prints one JSON object on its last
stdout line.  run.py starts passes; nothing else needs to.
"""

import sys
import time

_t = time.perf_counter()
import pierikit.cli  # noqa: E402  (timed: the import is part of set-up)
IMPORT_S = time.perf_counter() - _t

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

from fractions import Fraction  # noqa: E402

import pierikit  # noqa: E402
from workloads import WORKLOADS, CliVerbs, HERE, item_hash  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
REF_EVERY_S = 0.25  # item time between two reference probes


def reference_probe() -> float:
    """Seconds this core takes for a fixed piece of pure-stdlib work.

    The work (Fraction arithmetic and small-dict updates, about 10 ms) is
    independent of pierikit, so its time tracks only the speed of the
    processor at that moment; run.py divides item times by it.
    """
    t0 = time.perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 2400):
        acc += Fraction(i % 7 + 1, i % 97 + 1)
        key = (i % 50, i % 3)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _probe_call(argv, spans_path, index):
    """Run one CLI verb traced, in a fresh interpreter, through cli_probe."""
    import subprocess

    result = f"{spans_path}.probe{index}.json"
    cmd = [sys.executable, os.path.join(HERE, "cli_probe.py"), "--result", result,
           "--spans", f"{spans_path}.probe{index}.tsv.gz", "--", *argv]
    proc = subprocess.run(cmd, capture_output=True, timeout=150)
    with open(result) as fh:
        probe = json.load(fh)
    os.remove(result)
    return (proc.returncode, proc.stdout, proc.stderr), probe


def run_pass(workload: str, seed: int, mode: str, check: bool,
             spans_path: str | None) -> dict:
    if not os.path.abspath(pierikit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"pierikit was imported from {pierikit.__file__}, "
                         f"not from the working tree {SRC}")
    w = WORKLOADS[workload]
    items = w.items(seed)
    ready_at = time.monotonic()
    out = {"ready_at": ready_at, "import_s": IMPORT_S,
           "setup_ref_s": sum(reference_probe() for _ in range(3)) / 3}
    if mode == "setup":
        return out

    # CLI verbs are traced inside their own processes, through cli_probe
    traced_cli = mode == "traced" and w is CliVerbs
    tracer = None
    if mode == "traced" and not traced_cli:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(sys.modules["workloads"])
    elif "tracer" in sys.modules:
        raise SystemExit("tracer imported before an untraced pass")

    outputs, latency, cpu, probes = [], [], [], []
    clock, pclock = time.perf_counter, time.process_time
    # reference probes between items, outside the timed region; each item
    # is later scaled by the mean of the probes just before and after it
    refs, segment = [reference_probe()], []
    since = clock()
    for i, item in enumerate(items):
        if clock() - since >= REF_EVERY_S:
            refs.append(reference_probe())
            since = clock()
        segment.append(len(refs) - 1)
        c0, k0 = pclock(), _children_cpu()
        t0 = clock()
        try:
            if traced_cli:
                res, probe = _probe_call(item, spans_path, i)
                probes.append((probe, i))
            else:
                res = w.call(item)
        except Exception as exc:  # a failed item is counted, not fatal
            res = exc
        latency.append(clock() - t0)
        cpu.append(pclock() - c0 + _children_cpu() - k0)
        outputs.append(res)
    refs.append(reference_probe())
    if tracer is not None:
        tracer.uninstall()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    if mode == "untraced":
        from tracer import installed_wrappers

        leaked = installed_wrappers()
        if leaked:
            raise SystemExit(f"untraced pass found tracer wrappers: {leaked}")

    hashes, failures = [], []
    for item, res in zip(items, outputs):
        if isinstance(res, Exception):
            hashes.append("error")
            failures.append(f"{type(res).__name__}: {res}")
            continue
        hashes.append(item_hash(w.canonical(item, res)))
        failures.append(w.check(item, res) if check else None)

    out.update({
        "items": len(items),
        "latency_s": latency,
        "cpu_s": cpu,
        "ref_s": [(refs[j] + refs[j + 1]) / 2 for j in segment],
        "peak_rss_kb": max(self_rss, child_rss),
        "hashes": hashes,
        "failures": failures,
        # items that must give identical output: same index in every pass,
        # and for CLI verbs also the same argv within a pass
        "keys": [" ".join(item) if w is CliVerbs else str(i)
                 for i, item in enumerate(items)],
    })
    if hasattr(w, "planes"):
        out["planes"] = sum(w.planes(r) for r in outputs
                            if not isinstance(r, Exception))
    if traced_cli:
        from tracer import merge

        out["trace"] = merge([p["trace"] for p, _ in probes])
        out["cli_startup_s"] = [latency[i] - p["main_s"] for p, i in probes]
    elif tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(spans_path)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "untraced", "traced"))
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="0: only hash the outputs (run.py then requires them "
                         "to equal those of a checked pass)")
    ap.add_argument("--spans", help="span file of a traced pass")
    args = ap.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.mode, bool(args.check),
                      args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

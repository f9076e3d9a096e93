"""Run one CLI verb in-process under the tracer, in a fresh interpreter.

    python3 perfbench/cli_probe.py --result R.json --spans S.tsv.gz -- VERB ARGS...

Stdout carries exactly what ``pierikit.cli.main`` printed, so it can be
compared byte for byte with a plain ``python3 -m pierikit.cli`` run.  The
result file holds the trace summary and the time spent inside ``main``;
the caller subtracts that from the process wall time to get start-up cost.
"""

import sys
import time

_t = time.perf_counter()
import pierikit.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t

import io  # noqa: E402
import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    result = opts[opts.index("--result") + 1]
    spans = opts[opts.index("--spans") + 1]
    tracer = Tracer()
    tracer.install()
    buf = io.StringIO()
    real, sys.stdout = sys.stdout, buf
    t0 = time.perf_counter()
    try:
        code = pierikit.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout = real
        tracer.uninstall()
    sys.stdout.write(buf.getvalue())
    with open(result, "w") as fh:
        json.dump({"main_s": main_s, "import_s": IMPORT_S,
                   "trace": tracer.summary()}, fh)
    tracer.write(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())

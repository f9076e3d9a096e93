"""Span tracer for the benchmark's traced runs.

The tracer wraps named public functions of the seven pierikit modules from
outside the library.  Each wrapped name is rebound in every pierikit module
that holds it (the defining module and every module that imported it), so
calls made inside the library are caught as well as calls from the
benchmark.  Spans (name, start, end, parent) are kept in memory and written
out when the pass ends; a span's self time is its duration minus the time
of the spans nested directly inside it.

Nothing here is imported by an untraced pass.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from collections import Counter

LAYERS = ("seqcomb", "exactla", "tableaux", "schubgeom", "deform",
          "enumerative", "cli")

# Public functions wrapped per layer.  Element-level helpers (scalar,
# vector and coefficient-list arithmetic such as frac, vec_add, peval,
# codim or dual) are left out on purpose: they run millions of times per
# pass and a wrapper around each would cost more than the helper itself,
# so their time counts as self time of the traced caller.
TRACED = {
    "seqcomb": ("pieri_set", "in_pieri_set", "pieri_increment", "bruhat_leq",
                "covers_under", "tree_chains"),
    "exactla": ("rref", "rank", "kernel_basis", "solve_columns",
                "invert_matrix", "canonicalize", "span", "full_space",
                "coordinate_subspace", "intersect", "sum_span",
                "quotient_subspace", "annihilator_basis", "flag_from_basis",
                "family_from_vectors", "constant_family", "limit_at_zero"),
    "tableaux": ("ssyt_enumerate", "row_insert", "pieri_shapes",
                 "shape_tree_chains", "pieri_bijection_check", "schur_expand",
                 "complete_homogeneous", "schur_decompose", "chow_project",
                 "SparsePoly.__mul__"),
    "schubgeom": ("standard_flag", "random_flag", "adapted_basis",
                  "meets_properly", "schubert_member", "x_member",
                  "classify_pieri", "cell_index", "cell_member",
                  "cell_profile_check", "cell_point", "schubert_cell_point",
                  "vector_avoiding", "witness_point", "tangent_codim",
                  "restrict_sequence", "restrict_flag", "y_cycle"),
    "deform": ("flag_within", "build_pencil", "step_verify",
               "chain_deformation", "chain_histories", "worked_forms",
               "worked_recombination", "worked_kernel", "worked_family",
               "golden_run_741"),
    "enumerative": ("count_pairs_d", "cohomology_oracle",
                    "pieri_pairing_oracle", "reversed_flag",
                    "triple_witnesses", "witness_table", "real_witness_set"),
    "cli": ("main",),
}

# lru_cache'd functions whose cache_info() gives a hit ratio.
CACHED = (("seqcomb", "pieri_set"), ("tableaux", "schur_expand"))

MARK = "__perfbench_traced__"


def _bits(rows) -> int:
    top = 0
    for row in rows:
        for x in row:
            b = x.numerator.bit_length()
            if b > top:
                top = b
            b = x.denominator.bit_length()
            if b > top:
                top = b
    return top


class Tracer:
    """Install wrappers, record spans and counters, summarise per layer."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.under_limit = 0
        self._cache_start: dict = {}
        self._rebound: list = []
        self.t0 = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, key: str, fn):
        idx = len(self.names)
        self.names.append(key)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [idx, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except ValueError:
                counts[key + ".value_errors"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        if key == "exactla.rref":
            def traced_rref(rows, *rest):
                if not isinstance(rows, (list, tuple)):
                    rows = list(rows)
                if rows:
                    counts["exactla.rref.cells"] += len(rows) * len(rows[0])
                out = traced(rows, *rest)
                bits = _bits(out[0])
                if bits > self.max_bits:
                    self.max_bits = bits
                return out
            wrapper = traced_rref
        elif key == "exactla.limit_at_zero":
            def traced_limit(*args, **kwargs):
                self.under_limit += 1
                try:
                    return traced(*args, **kwargs)
                finally:
                    self.under_limit -= 1
            wrapper = traced_limit
        elif key == "exactla.kernel_basis":
            def traced_kernel(*args, **kwargs):
                if self.under_limit:
                    counts["exactla.limit_at_zero.kernel_calls"] += 1
                return traced(*args, **kwargs)
            wrapper = traced_kernel
        elif key == "tableaux.sparsepoly_mul":
            def traced_mul(a, b):
                other = len(b.terms) if hasattr(b, "terms") else 1
                counts["tableaux.sparsepoly_mul.terms"] += len(a.terms) * other
                return traced(a, b)
            wrapper = traced_mul
        else:
            wrapper = traced
        setattr(wrapper, MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self, *callers) -> None:
        """Wrap every traced name and rebind it wherever pierikit holds it,
        and in the given calling modules (the benchmark's own)."""
        homes = {layer: importlib.import_module(f"pierikit.{layer}") for layer in TRACED}
        self._cache_start = {f"{layer}.{name}": getattr(homes[layer], name).cache_info()
                             for layer, name in CACHED}
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "pierikit" or n.startswith("pierikit.")) and m is not None]
        mods.extend(callers)
        for layer, names in TRACED.items():
            home = homes[layer]
            for name in names:
                key = f"{layer}.{name}"
                if name == "SparsePoly.__mul__":
                    cls = home.SparsePoly
                    original = cls.__dict__["__mul__"]
                    wrapper = self._wrap("tableaux.sparsepoly_mul", original)
                    for attr in ("__mul__", "__rmul__"):
                        self._rebound.append((cls, attr, cls.__dict__[attr]))
                        setattr(cls, attr, wrapper)
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(key, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original and count cache hits and misses since
        install."""
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound = []
        for key, start in self._cache_start.items():
            layer, name = key.split(".")
            info = getattr(sys.modules[f"pierikit.{layer}"], name).cache_info()
            self.counts[key + ".hits"] += info.hits - start.hits
            self.counts[key + ".misses"] += info.misses - start.misses
        self._cache_start = {}

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, total and self seconds, plus the counters."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        funcs: dict[str, list] = {}
        for i, (idx, start, end, _) in enumerate(self.spans):
            row = funcs.setdefault(self.names[idx], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        counts = dict(self.counts)
        counts["exactla.rref.max_bits"] = self.max_bits
        return {"funcs": funcs, "counts": counts}

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line: name start end parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (idx, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[idx]}\t{start - self.t0:.7f}\t"
                         f"{end - self.t0:.7f}\t{parent}\n")


def installed_wrappers() -> list[str]:
    """Names in pierikit or the benchmark's workloads module that are
    currently bound to a tracer wrapper."""
    found = []
    for n, mod in sorted(sys.modules.items()):
        if mod is None or not (n in ("pierikit", "workloads")
                               or n.startswith("pierikit.")):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{n}.{attr}")
            elif isinstance(value, type) and any(
                    hasattr(v, MARK) for v in vars(value).values()):
                found.append(f"{n}.{attr}")
    return found


def merge(summaries: list[dict]) -> dict:
    """Sum several pass summaries (the CLI probes of one pass)."""
    funcs: dict[str, list] = {}
    counts: Counter = Counter()
    bits = 0
    for s in summaries:
        for name, (calls, total, own) in s["funcs"].items():
            row = funcs.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        for key, value in s["counts"].items():
            if key == "exactla.rref.max_bits":
                bits = max(bits, value)
            else:
                counts[key] += value
    out = dict(counts)
    out["exactla.rref.max_bits"] = bits
    return {"funcs": funcs, "counts": out}

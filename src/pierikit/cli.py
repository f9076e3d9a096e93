"""Batch command-line front end.

One verb per operation, deterministic output for fixed (argv, seed).  Every
verb ends in `_emit`, the one verdict path, with its clauses as StageChecks:
it prints the output (with --json a single object, stamped with the schema
pierikit/<verb>/1; otherwise aligned text), writes one `failed: <clause>`
line to stderr per failed clause, and returns the exit code.  Exit codes: 0
success or verification pass; 1 a clause failed, or an exact check raised
`VerificationError` (its message follows `failed:`); 2 usage error or
unreadable input (`error: ...` on stderr); 3 a seeded sampler (a witness
plane's vector_avoiding, never a one-draw cell point) ran out of retries
without a point in general position (`GenericityError`, reported as
`error: genericity retries exhausted: ...`; another seed may work).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# deform, enumerative and tableaux are imported inside the verbs that call
# them, so a fresh process loads only the layers its verb runs
from .exactla import (
    GenericityError,
    StageCheck,
    VerificationError,
    check_lines,
    coordinate_subspace,
    failed_names,
    family_to_json,
    intersect,
    limit_at_zero,
    subspace_from_json,
    subspace_to_json,
    verdict_line,
)
from .schubgeom import (
    cell_point,
    cell_profile_check,
    classify_pieri,
    meets_properly,
    random_flag,
    schubert_member,
    standard_flag,
    tangent_codim,
    witness_point,
)
from .seqcomb import DecSeq, pieri_set, tree_chains, trim_partition

SEED_ENV = "PIERIKIT_SEED"


# ---------------------------------------------------------------------------
# argument plumbing


def _seq_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _add_common(p, *, seq=True, seed=False, flag_seed=False):
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if seq:
        p.add_argument("--n", type=int, required=True, help="ambient dimension")
        p.add_argument("--m", type=int, help="plane dimension (default: sequence length)")
        p.add_argument("--alpha", type=_seq_flag, required=True,
                       help="index sequence, comma list largest first")
    if seed:
        p.add_argument("--seed", type=int, default=None,
                       help=f"randomness seed (default {SEED_ENV} or 0)")
    if flag_seed:
        p.add_argument("--flag-seed", type=int, default=None,
                       help="seeded random flag instead of the coordinate flag")


def _sequence(args, entries=None) -> DecSeq:
    entries = args.alpha if entries is None else entries
    a = DecSeq(args.n, entries)
    if args.m is not None and args.m != a.m:
        raise ValueError(f"--m {args.m} does not match the {a.m}-entry sequence")
    return a


def _flag_of(args, n=None):
    n = args.n if n is None else n
    if args.flag_seed is not None:
        return random_flag(n, args.flag_seed)
    return standard_flag(n)


def _seed_of(args) -> int:
    return _default_seed() if args.seed is None else args.seed


def _load_subspace(path: str):
    with open(path) as fh:
        return subspace_from_json(json.load(fh))


def _emit(args, payload: dict, text: str, checks=()) -> int:
    """Print the verb's output, name each failed clause (a StageCheck) on
    stderr, and return the exit code: 1 if any clause failed, else 0."""
    if args.json:
        print(json.dumps({**payload, "schema": f"pierikit/{args.verb}/1"}, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    failures = failed_names(checks)
    for name in failures:
        print(f"failed: {name}", file=sys.stderr)
    return 1 if failures else 0


def _report_text(rep) -> str:
    return "\n".join([f"stage {rep.stage}: alpha={rep.alpha} s={rep.s} r={rep.r}",
                      *check_lines(rep.checks),
                      verdict_line("result", rep.checks)])


def _basis_lines(S) -> list:
    return ["  " + "  ".join(str(x) for x in row) for row in S.basis]


# ---------------------------------------------------------------------------
# verbs


def _cmd_pieri(args) -> int:
    a = _sequence(args)
    result = pieri_set(a, args.r)
    return _emit(
        args,
        {"alpha": a.to_json(), "r": args.r, "result": [g.to_json() for g in result]},
        "\n".join(",".join(str(x) for x in g.entries) for g in result),
    )


def _cmd_tree(args) -> int:
    a = _sequence(args)
    tree, _ = tree_chains(a, args.b)
    lines = [f"level {i}: " + " ".join(str(g) for g in level)
             for i, level in enumerate(tree.levels)]
    lines.append("edges:")
    lines.extend(f"  {p} -> {c}" for p, c in tree.edges)
    return _emit(
        args,
        {
            "alpha": a.to_json(),
            "b": args.b,
            "levels": [[g.to_json() for g in level] for level in tree.levels],
            "edges": [[list(p.entries), list(c.entries)] for p, c in tree.edges],
        },
        "\n".join(lines),
    )


def _cmd_chains(args) -> int:
    a = _sequence(args)
    _, chains = tree_chains(a, args.b)
    return _emit(
        args,
        {
            "alpha": a.to_json(),
            "b": args.b,
            "chains": [[list(g.entries) for g in chain] for chain in chains],
        },
        "\n".join(" -> ".join(str(g) for g in chain) for chain in chains),
    )


def _cmd_schensted(args) -> int:
    from .tableaux import pieri_bijection_check

    report = pieri_bijection_check(trim_partition(args.shape), args.b, args.m)
    width = max(len(str(list(s))) for s, _ in report.image_counts) if report.image_counts else 0
    lines = [f"shape {list(report.lam)}, row length {report.b}, entries <= {report.m}",
             f"insertion pairs: {report.pairs_total}"]
    lines.extend(f"  {str(list(s)):<{width}}  {c}" for s, c in report.image_counts)
    lines.extend(f"{c.name}: {c.passed}" for c in report.checks)
    lines.append(verdict_line("result", report.checks))
    return _emit(args, report.to_json(), "\n".join(lines), report.checks)


def _cmd_schur(args) -> int:
    from .tableaux import schur_expand

    shape = trim_partition(args.shape)
    terms = schur_expand(shape, args.m).to_json()
    lines = [f"{e}: {c}" for e, c in sorted(terms.items())]
    return _emit(args, {"shape": list(shape), "m": args.m, "terms": terms},
                 "\n".join(lines) if lines else "0")


def _cmd_classify(args) -> int:
    a = _sequence(args)
    L = _load_subspace(args.file)
    s = args.n + 1 - a.m - L.dim
    result = classify_pieri(a, _flag_of(args), L, s)
    lines = [f"alpha={a} s={s} verdict={result.verdict}",
             "  j  flag-index  dim  critical"]
    for e in result.entries:
        lines.append(f"  {e.j}  {e.flag_index:>10}  {e.meet_dim:>3}  {e.critical:>8}")
    if result.equality_set:
        lines.append("equality at j = " + " ".join(str(j) for j in result.equality_set))
    return _emit(args, {**result.to_json(), "alpha": a.to_json()}, "\n".join(lines))


def _cmd_cell(args) -> int:
    a = _sequence(args)
    flag = _flag_of(args)
    point = cell_point(a, args.s, flag, seed=_seed_of(args))
    profile = cell_profile_check(point, a, args.s, flag)
    blob = {
        "alpha": a.to_json(),
        "s": args.s,
        "point": subspace_to_json(point),
        "profile": profile.to_json(),
    }
    lines = [f"cell member for alpha={a}, s={args.s} (dim {point.dim})",
             *_basis_lines(point),
             verdict_line("profile", profile.checks)]
    return _emit(args, blob, "\n".join(lines), profile.checks)


def _cmd_witness(args) -> int:
    a = _sequence(args)
    flag = _flag_of(args)
    L = _load_subspace(args.file)
    H = witness_point(a, flag, L, args.mode, seed=_seed_of(args))
    checks = (StageCheck("schubert_member", schubert_member(H, a, flag)),
              StageCheck("meets_L", intersect(H, L).dim >= 1))
    blob = {
        "alpha": a.to_json(),
        "mode": args.mode,
        "point": subspace_to_json(H),
        "checks": {c.name: c.passed for c in checks},
    }
    lines = [f"witness m-plane for alpha={a}, line carried at row {args.mode}",
             *_basis_lines(H)]
    lines.extend(f"{c.name}: {c.passed}" for c in checks)
    return _emit(args, blob, "\n".join(lines), checks)


def _cmd_tangent(args) -> int:
    a = _sequence(args)
    flag = _flag_of(args)
    L = _load_subspace(args.file)
    if args.h_file:
        H = _load_subspace(args.h_file)
    else:
        H = witness_point(a, flag, L, args.mode, seed=_seed_of(args))
    s = args.n + 1 - a.m - L.dim
    codim = tangent_codim(H, a, flag, L)
    blob = {
        "alpha": a.to_json(),
        "s": s,
        "codim": codim,
        "point": subspace_to_json(H),
    }
    return _emit(args, blob, f"tangent codimension {codim} (s = {s})")


def _cmd_pencil(args) -> int:
    from .deform import build_pencil, flag_within

    M = _load_subspace(args.file)
    marked = _load_subspace(args.marked_file)
    if args.n is not None and args.n != M.ambient:
        raise ValueError(f"--n {args.n} does not match the ambient {M.ambient}")
    mflag = flag_within(M, _flag_of(args, M.ambient))
    l = next((i for i, space in enumerate(mflag, 1) if marked.contains(space)),
             len(mflag) + 1)  # M_(N+1) = 0 lies in every space
    if args.l is not None and args.l != l:
        raise ValueError(f"--l {args.l} disagrees with the marked space (l = {l})")
    pencil = build_pencil(mflag, l, marked)
    checks = []
    for i in range(1, l):
        fam = pencil.restricted_family(i)
        # build_pencil proves the columns triangular with nonzero constant
        # diagonal, so the tail has dimension ncols at every t
        checks.append(StageCheck(f"slice {i}: moving meet has dimension {M.dim - i}",
                                 fam.ncols == M.dim - i))
        checks.append(StageCheck(f"slice {i}: zero limit is the next space down",
                                 limit_at_zero(fam) == pencil.space(i + 1)))
    blob = {
        "l": l,
        "family": family_to_json(pencil.family),
        "marked": subspace_to_json(pencil.marked),
        "checks": [c.to_json() for c in checks],
        "passed": not failed_names(checks),
    }
    lines = [f"pencil inside a {M.dim}-dim space, marked level l={l}",
             *check_lines(checks),
             verdict_line("result", checks)]
    return _emit(args, blob, "\n".join(lines), checks)


def _cmd_step(args) -> int:
    from .deform import step_verify

    a = _sequence(args)
    M = _load_subspace(args.file)
    marked = _load_subspace(args.marked_file)
    report = step_verify(a, args.s, args.r, _flag_of(args), M, marked)
    return _emit(args, report.to_json(), _report_text(report), report.checks)


def _cmd_chain_deform(args) -> int:
    from .deform import chain_deformation, chain_histories

    a = _sequence(args)
    flag = _flag_of(args)
    if args.k_file:
        K = _load_subspace(args.k_file)
    else:
        dim_k = args.n + 1 - a.m - args.b
        if dim_k < 1:
            raise ValueError("b is too large for a nonzero special subspace")
        K = coordinate_subspace(args.n, range(1, dim_k + 1))
        if not meets_properly(K, flag):
            raise ValueError("default K does not meet the flag properly; pass --k-file")
    reports = chain_deformation(a, args.b, flag, K, seeds=_seed_of(args))
    histories = chain_histories(reports)
    checks = tuple(c for rep in reports for c in rep.checks)
    blob = {
        "alpha": a.to_json(),
        "b": args.b,
        "reports": [rep.to_json() for rep in reports],
        "chains": [[list(g.entries) for g in chain] for chain in histories],
        "passed": not failed_names(checks),
    }
    sections = [_report_text(rep) for rep in reports]
    sections.append("chains:")
    sections.extend("  " + " -> ".join(str(g) for g in chain) for chain in histories)
    sections.append(verdict_line("overall", checks))
    return _emit(args, blob, "\n".join(sections), checks)


def _cmd_appendix_a(args) -> int:
    from .deform import golden_run_741

    report = golden_run_741()
    return _emit(args, report.to_json(), report.table(), report.checks)


def _problem(args):
    from .enumerative import QuintupleProblem

    alpha = _sequence(args)
    beta = _sequence(args, entries=args.beta)
    return QuintupleProblem(args.n, alpha.m, alpha, beta, args.a, args.b, args.c)


def _cmd_count_real(args) -> int:
    from .enumerative import (
        _EXPANSION_CAP,
        cohomology_oracle,
        count_pairs_d,
        pieri_pairing_oracle,
    )

    p = _problem(args)
    d = count_pairs_d(p)
    oracle1 = cohomology_oracle(p) if p.m * (p.n - p.m) <= _EXPANSION_CAP else None
    oracle2 = pieri_pairing_oracle(p)
    agree = (oracle1 is None or d == oracle1) and d == oracle2
    blob = {
        "problem": p.to_json(),
        "d": d,
        "oracle1": oracle1,
        "oracle2": oracle2,
        "agree": agree,
    }
    shown = "skipped (too large)" if oracle1 is None else oracle1
    text = "\n".join([
        f"d: {d}",
        f"oracle1 (polynomial expansion): {shown}",
        f"oracle2 (iterated branching): {oracle2}",
        f"agree: {agree}",
    ])
    return _emit(args, blob, text, (StageCheck("oracle agreement", agree),))


def _cmd_triple_witness(args) -> int:
    from .enumerative import count_pairs_d, real_witness_set

    p = _problem(args)
    d = count_pairs_d(p)
    witnesses = real_witness_set(p, seed=_seed_of(args))
    distinct = len(set(witnesses)) == len(witnesses)
    match = len(witnesses) == d and distinct
    blob = {
        "problem": p.to_json(),
        "d": d,
        "count": len(witnesses),
        "distinct": distinct,
        "match": match,
        "witnesses": [subspace_to_json(H) for H in witnesses],
    }
    lines = [f"expected d = {d}, constructed {len(witnesses)} distinct planes"
             if distinct else
             f"expected d = {d}, constructed {len(witnesses)} planes WITH COLLISIONS"]
    for H in witnesses:
        lines.append("witness:")
        lines.extend(_basis_lines(H))
    lines.append("match: " + str(match))
    return _emit(args, blob, "\n".join(lines), (StageCheck("witness count equals d", match),))


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pierikit",
        description="exact-arithmetic workbench for Pieri-type Schubert intersections",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pieri", help="branch sequences r steps above alpha")
    _add_common(p)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(fn=_cmd_pieri)

    p = sub.add_parser("tree", help="levels and covering edges of the branching tree")
    _add_common(p)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser("chains", help="root-to-leaf chains of the branching tree")
    _add_common(p)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(fn=_cmd_chains)

    p = sub.add_parser("schensted", help="row-insertion bijection certificate")
    _add_common(p, seq=False)
    p.add_argument("--shape", type=_seq_flag, required=True,
                   help="partition, comma list largest first")
    p.add_argument("--b", type=int, required=True, help="inserted row length")
    p.add_argument("--m", type=int, required=True, help="largest entry")
    p.set_defaults(fn=_cmd_schensted)

    p = sub.add_parser("schur", help="Schur polynomial of a shape")
    _add_common(p, seq=False)
    p.add_argument("--shape", type=_seq_flag, required=True)
    p.add_argument("--m", type=int, required=True, help="number of variables")
    p.set_defaults(fn=_cmd_schur)

    p = sub.add_parser("classify", help="trichotomy of a flag/subspace pair")
    _add_common(p, flag_seed=True)
    p.add_argument("--file", required=True, help="special subspace JSON")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("cell", help="seeded member of an incidence cell")
    _add_common(p, seed=True, flag_seed=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(fn=_cmd_cell)

    p = sub.add_parser("witness", help="seeded witness plane through a subspace")
    _add_common(p, seed=True, flag_seed=True)
    p.add_argument("--file", required=True, help="special subspace JSON")
    p.add_argument("--mode", type=int, default=1, help="row carrying the meet line")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("tangent", help="tangent codimension at a witness plane")
    _add_common(p, seed=True, flag_seed=True)
    p.add_argument("--file", required=True, help="special subspace JSON")
    p.add_argument("--mode", type=int, default=1)
    p.add_argument("--h-file", help="plane JSON (skips witness construction)")
    p.set_defaults(fn=_cmd_tangent)

    p = sub.add_parser("pencil", help="moving hyperplane family inside a subspace")
    _add_common(p, seq=False, flag_seed=True)
    p.add_argument("--n", type=int, default=None, help="ambient check (optional)")
    p.add_argument("--file", required=True, help="carrier subspace JSON")
    p.add_argument("--marked-file", required=True, help="fibre at infinity JSON")
    p.add_argument("--l", type=int, default=None, help="marked level check (optional)")
    p.set_defaults(fn=_cmd_pencil)

    p = sub.add_parser("step", help="verify one degeneration step")
    _add_common(p, flag_seed=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--file", required=True, help="special subspace JSON")
    p.add_argument("--marked-file", required=True, help="next special subspace JSON")
    p.set_defaults(fn=_cmd_step)

    p = sub.add_parser("chain-deform", help="run and verify the full chain")
    _add_common(p, seed=True, flag_seed=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k-file", help="starting subspace JSON (default: first coordinates)")
    p.set_defaults(fn=_cmd_chain_deform)

    p = sub.add_parser("appendix-a", help="worked two-step degeneration, ambient 9")
    _add_common(p, seq=False)
    p.set_defaults(fn=_cmd_appendix_a)

    for verb, fn in (("count-real", _cmd_count_real),
                     ("triple-witness", _cmd_triple_witness)):
        p = sub.add_parser(
            verb,
            help="pair count with oracles" if verb == "count-real"
            else "explicit rational witness planes",
        )
        _add_common(p, seed=(verb == "triple-witness"))
        p.add_argument("--beta", type=_seq_flag, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--c", type=int, required=True)
        p.set_defaults(fn=fn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except GenericityError as exc:
        print(f"error: genericity retries exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads.

Each workload turns a seed into a list of items (its inputs), runs one item
through pierikit's public functions (the timed call), renders the item's
output canonically (for the digest) and checks it exactly against
invariants that do not depend on the seed.  The library receives only the
generated inputs.  Checks raise nothing and use no ``assert``: they return
a failure reason, or None, so they hold under ``python -O`` too.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from pierikit import (
    DecSeq,
    chain_deformation,
    cohomology_oracle,
    count_pairs_d,
    golden_run_741,
    intersect,
    meets_properly,
    pieri_pairing_oracle,
    pieri_set,
    random_flag,
    schubert_member,
    span,
    standard_flag,
    unit_vector,
    valid_instances,
    witness_table,
)
from pierikit.enumerative import reversed_flag

HERE = os.path.dirname(os.path.abspath(__file__))


def item_hash(text) -> str:
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _problem_str(p) -> str:
    return f"{p.n}|{p.m}|{p.alpha}|{p.beta}|{p.a},{p.b},{p.c}"


def _coordinate_k(n: int, a: DecSeq, b: int):
    """The general position the CLI uses: the first n+1-m-b coordinates."""
    return span(n, *[unit_vector(n, i) for i in range(1, n + 2 - a.m - b)])


def _proper_flag_seed(rng: random.Random, n: int, K) -> int:
    """A random-flag seed whose flag the coordinate K meets properly."""
    while True:
        seed = rng.randrange(1_000_000)
        if meets_properly(K, random_flag(n, seed)):
            return seed


# ---------------------------------------------------------------------------
# chain_deform: deform.chain_deformation at n = 9..12, plus the worked run


# (n, alpha, b, copies) on the standard flag, then on seeded random flags.
CHAIN_STANDARD = (
    (9, (7, 4, 1), 2, 3),
    (10, (8, 5, 2), 2, 3),
    (10, (7, 4, 1), 3, 2),
    (11, (9, 6, 3), 2, 2),
    (11, (8, 5, 2), 3, 1),
    (12, (9, 6, 3), 4, 1),
    (12, (10, 7, 4), 2, 1),
)
CHAIN_RANDOM = (
    (9, (7, 4, 1), 2, 4),
    (10, (8, 5, 2), 2, 2),
)


class ChainDeform:
    name = "chain_deform"

    @staticmethod
    def items(seed: int) -> list:
        rng = random.Random(seed)
        out = [("golden",)]
        for table, rand in ((CHAIN_STANDARD, False), (CHAIN_RANDOM, True)):
            for n, entries, b, copies in table:
                a = DecSeq(n, entries)
                K = _coordinate_k(n, a, b)
                for _ in range(copies):
                    fseed = _proper_flag_seed(rng, n, K) if rand else None
                    flag = random_flag(n, fseed) if rand else standard_flag(n)
                    out.append(("chain", a, b, flag, K, rng.randrange(1_000_000),
                                fseed))
        return out

    @staticmethod
    def call(item):
        if item[0] == "golden":
            return golden_run_741()
        _, a, b, flag, K, seeds, _ = item
        return chain_deformation(a, b, flag, K, seeds=seeds)

    @staticmethod
    def canonical(item, out) -> str:
        if item[0] == "golden":
            return json.dumps(out.to_json(), sort_keys=True)
        _, a, b, _, _, seeds, fseed = item
        head = f"{a}|{b}|{seeds}|{fseed}|"
        return head + json.dumps([rep.to_json() for rep in out], sort_keys=True)

    @staticmethod
    def check(item, out):
        if item[0] == "golden":
            want = set(pieri_set(DecSeq(9, (7, 4, 1)), 2))
            if not out.passed:
                return "golden run failed: " + "; ".join(out.failures())
            if set(out.final_indices) != want:
                return "golden run final indices differ from pieri_set"
            return None
        _, a, b, _, _, _, _ = item
        if len(out) != b + 1:
            return f"expected {b + 1} stage reports, got {len(out)}"
        for rep in out:
            if not rep.passed:
                return f"stage {rep.stage} failed: " + "; ".join(rep.failures())
        final = [rec.index for rec in out[-1].records]
        if len(final) != len(set(final)) or set(final) != set(pieri_set(a, b)):
            return "final indices differ from pieri_set(a, b)"
        return None


# ---------------------------------------------------------------------------
# oracle_sweep: the criterion-9 three-way count agreement


ORACLE_N7 = ((2, 10), (3, 30))  # (m, how many) sampled from the n = 7 problems


class OracleSweep:
    name = "oracle_sweep"

    @staticmethod
    def items(seed: int) -> list:
        rng = random.Random(seed)
        out = list(valid_instances(6))
        by_m: dict[int, list] = {}
        for p in valid_instances(7):
            if p.n == 7:
                by_m.setdefault(p.m, []).append(p)
        for m, k in ORACLE_N7:
            out.extend(rng.sample(by_m[m], k))
        rng.shuffle(out)
        return out

    @staticmethod
    def call(p):
        return count_pairs_d(p), cohomology_oracle(p), pieri_pairing_oracle(p)

    @staticmethod
    def canonical(p, out) -> str:
        return _problem_str(p) + ":" + ",".join(str(x) for x in out)

    @staticmethod
    def check(p, out):
        d, o1, o2 = out
        if not all(type(x) is int for x in out):
            return "a count is not an int"
        if not d == o1 == o2:
            return f"counts disagree: d={d} cohomology={o1} pairing={o2}"
        return None


# ---------------------------------------------------------------------------
# witness_sweep: enumerative.witness_table over every n <= 6 problem with d > 0


class WitnessSweep:
    name = "witness_sweep"

    @staticmethod
    def items(seed: int) -> list:
        rng = random.Random(seed)
        probs = [p for p in valid_instances(6) if count_pairs_d(p) > 0]
        rng.shuffle(probs)
        return [(p, rng.randrange(1_000_000)) for p in probs]

    @staticmethod
    def call(item):
        p, wseed = item
        return witness_table(p, seed=wseed)

    @staticmethod
    def canonical(item, out) -> str:
        p, wseed = item
        C, rows = out
        parts = [_problem_str(p), str(wseed), str(C)]
        parts.extend(f"{g}|{dlt}|{H}" for g, dlt, H in rows)
        return "\n".join(parts)

    @staticmethod
    def check(item, out):
        p, _ = item
        C, rows = out
        if len(rows) != count_pairs_d(p):
            return f"{len(rows)} planes, count_pairs_d says {count_pairs_d(p)}"
        planes = [H for _, _, H in rows]
        if len(set(planes)) != len(planes):
            return "witness planes are not distinct"
        if not all(type(x) is Fraction for row in C.basis for x in row):
            return "an entry of C is not a Fraction"
        flag, flag2 = standard_flag(p.n), reversed_flag(p.n)
        for g, dlt, H in rows:
            if H.dim != p.m:
                return f"a witness has dimension {H.dim}, not {p.m}"
            if not all(type(x) is Fraction for row in H.basis for x in row):
                return "a witness entry is not a Fraction"
            if not schubert_member(H, g, flag):
                return f"a witness is not in the Schubert variety of {g}"
            if not schubert_member(H, dlt, flag2):
                return f"a witness is not in the opposite Schubert variety of {dlt}"
            if intersect(H, C).dim < 1:
                return "a witness does not meet C"
        return None

    @staticmethod
    def planes(out) -> int:
        return len(out[1])


# ---------------------------------------------------------------------------
# cli_verbs: the heavy CLI verbs as subprocesses


def _seq_arg(a) -> str:
    return ",".join(str(x) for x in a.entries)


def _problem_args(p) -> list:
    return ["--n", str(p.n), "--m", str(p.m), "--alpha", _seq_arg(p.alpha),
            "--beta", _seq_arg(p.beta), "--a", str(p.a), "--b", str(p.b),
            "--c", str(p.c)]


class CliVerbs:
    name = "cli_verbs"

    @staticmethod
    def items(seed: int) -> list:
        rng = random.Random(seed)
        out = []
        small7 = [p for p in valid_instances(7) if p.n >= 6 and p.m <= 3]
        for p in rng.sample(small7, 6):
            out.append(["count-real", *_problem_args(p), "--json"])
        wit = [p for p in valid_instances(6) if p.n == 6 and count_pairs_d(p) > 0]
        for p in rng.sample(wit, 6):
            out.append(["triple-witness", *_problem_args(p),
                        "--seed", str(rng.randrange(1_000_000)), "--json"])
        a = DecSeq(9, (7, 4, 1))
        for _ in range(3):
            out.append(["chain-deform", "--n", "9", "--alpha", "7,4,1", "--b", "2",
                        "--seed", str(rng.randrange(1_000_000)), "--json"])
        K = _coordinate_k(9, a, 2)
        for _ in range(3):
            out.append(["chain-deform", "--n", "9", "--alpha", "7,4,1", "--b", "2",
                        "--seed", str(rng.randrange(1_000_000)),
                        "--flag-seed", str(_proper_flag_seed(rng, 9, K)), "--json"])
        out.extend([["appendix-a", "--json"], ["appendix-a", "--json"]])
        rng.shuffle(out)
        return out

    @staticmethod
    def call(argv):
        # the environment (src on the path, pinned hash seed) comes from run.py
        proc = subprocess.run([sys.executable, "-m", "pierikit.cli", *argv],
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def canonical(argv, out) -> bytes:
        return " ".join(argv).encode() + b"\n" + out[1]

    @staticmethod
    def check(argv, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace').strip()[:200]}"
        try:
            blob = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON document"
        verb = argv[0]
        if blob.get("schema") != f"pierikit/{verb}/1":
            return f"unexpected schema {blob.get('schema')!r}"
        if verb == "count-real":
            if not (blob["agree"] and blob["d"] == blob["oracle1"] == blob["oracle2"]):
                return "count-real oracles disagree"
        elif verb == "triple-witness":
            if not (blob["match"] and blob["distinct"] and blob["count"] == blob["d"]):
                return "triple-witness count does not match d"
        elif not blob["passed"]:
            return f"{verb} reports a failed check"
        return None


WORKLOADS = {w.name: w for w in (ChainDeform, OracleSweep, WitnessSweep, CliVerbs)}

"""Verb coverage, exit codes, and byte determinism of the front end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import count_reference
import fraction_reference as ref
import pierikit
import pierikit.cli as cli
import pierikit.deform as deform
import pierikit.enumerative as enumerative
import pierikit.schubgeom as schubgeom
import pierikit.tableaux as tableaux
from pierikit.deform import GoldenReport, StageCheck
from pierikit.exactla import (
    GenericityError,
    PolyFamily,
    VerificationError,
    family_from_vectors,
    limit_at_zero,
    span,
    subspace_to_json,
    unit_vector,
)
from pierikit.schubgeom import ProfileEntry, ProfileReport, cell_point, standard_flag
from pierikit.seqcomb import DecSeq
from records_reference import replace


# input a verb refuses with exit 2: schensted with no letters, whatever b
REFUSED_ARGV = [("schensted", "--shape", "0", "--b", b, "--m", "0") for b in ("1", "0")]


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def dump(path: Path, subspace) -> str:
    path.write_text(json.dumps(subspace_to_json(subspace)))
    return str(path)


def e(i, n=9):
    return unit_vector(n, i)


@pytest.fixture
def worked_files(tmp_path):
    M = span(9, e(2), e(3), e(5), e(6), e(8), e(9))
    Lm = span(9, e(2), e(3), e(5), e(6), e(9))
    return dump(tmp_path / "M.json", M), dump(tmp_path / "Lm.json", Lm)


class TestCombinatoricsVerbs:
    def test_pieri_text(self, capsys):
        rc, out, _ = run(capsys, "pieri", "--n", "9", "--m", "3",
                         "--alpha", "7,4,1", "--r", "2")
        assert rc == 0
        assert out == "9,4,1\n8,5,1\n8,4,2\n7,6,1\n7,5,2\n7,4,3\n"

    def test_pieri_json(self, capsys):
        rc, out, _ = run(capsys, "pieri", "--n", "9", "--alpha", "7,4,1",
                         "--r", "2", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["schema"] == "pierikit/pieri/1"
        assert [g["entries"] for g in blob["result"]][0] == [9, 4, 1]

    def test_m_mismatch_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "pieri", "--n", "9", "--m", "2",
                         "--alpha", "7,4,1", "--r", "1")
        assert rc == 2 and "does not match" in err

    def test_bad_sequence_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "pieri", "--n", "9", "--alpha", "4,7,1",
                         "--r", "1")
        assert rc == 2 and "error" in err

    def test_tree(self, capsys):
        rc, out, _ = run(capsys, "tree", "--n", "9", "--alpha", "7,4,1",
                         "--b", "2", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert [len(level) for level in blob["levels"]] == [1, 3, 6]
        assert len(blob["edges"]) == 9

    def test_chains(self, capsys):
        rc, out, _ = run(capsys, "chains", "--n", "9", "--alpha", "7,4,1",
                         "--b", "2")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert lines[0] == "741 -> 841 -> 941"

    def test_schensted(self, capsys):
        rc, out, _ = run(capsys, "schensted", "--shape", "4,2", "--b", "2",
                         "--m", "3")
        assert rc == 0
        assert "result: PASS" in out

    def test_schensted_negative_row_length(self, capsys):
        rc, out, err = run(capsys, "schensted", "--shape", "2,1", "--b", "-1",
                           "--m", "2")
        assert (rc, out) == (2, "")
        assert err == "error: row length must be nonnegative, got -1\n"

    @pytest.mark.parametrize("argv", REFUSED_ARGV, ids=lambda argv: f"b={argv[4]}")
    def test_schensted_no_letters(self, capsys, argv):
        # m = 0 used to end in an IndexError in pieri_set for b >= 1
        for mode in ((), ("--json",)):
            rc, out, err = run(capsys, *argv, *mode)
            assert (rc, out) == (2, "")
            assert err == "error: number of letters m must be positive, got 0\n"

    def test_schur(self, capsys):
        rc, out, _ = run(capsys, "schur", "--shape", "2,1", "--m", "2",
                         "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["terms"] == {"1,2": "1", "2,1": "1"}

    def test_schur_variable_count(self, capsys):
        rc, out, err = run(capsys, "schur", "--shape", "0", "--m", "-3")
        assert (rc, out) == (2, "")
        assert err == "error: number of variables must be nonnegative, got -3\n"
        # the one monomial of no variables has a key of its own
        rc, out, err = run(capsys, "schur", "--shape", "0", "--m", "0")
        assert (rc, out, err) == (0, "(): 1\n", "")
        rc, out, err = run(capsys, "schur", "--shape", "0", "--m", "0", "--json")
        assert (rc, err) == (0, "")
        assert json.loads(out)["terms"] == {"()": "1"}


class TestGeometryVerbs:
    def test_classify(self, capsys, tmp_path):
        L = cell_point(DecSeq(9, (7, 4, 1)), 2, standard_flag(9), seed=0)
        path = dump(tmp_path / "L.json", L)
        rc, out, _ = run(capsys, "classify", "--n", "9", "--alpha", "7,4,1",
                         "--file", path, "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["verdict"] == "TransverseReducible"
        assert blob["equality_set"] == [1, 2, 3]

    def test_cell(self, capsys):
        rc, out, _ = run(capsys, "cell", "--n", "9", "--alpha", "7,4,1",
                         "--s", "2", "--seed", "1", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["profile"]["passed"] is True
        assert len(blob["point"]["basis"]) == 5

    def test_witness_and_tangent(self, capsys, tmp_path):
        L = cell_point(DecSeq(9, (7, 4, 1)), 2, standard_flag(9), seed=0)
        path = dump(tmp_path / "L.json", L)
        rc, out, _ = run(capsys, "witness", "--n", "9", "--alpha", "7,4,1",
                         "--file", path, "--mode", "2", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["checks"] == {"schubert_member": True, "meets_L": True}

        rc, out, _ = run(capsys, "tangent", "--n", "9", "--alpha", "7,4,1",
                         "--file", path, "--mode", "1", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["codim"] == blob["s"] == 2

    def test_pencil(self, capsys, worked_files):
        m_path, lm_path = worked_files
        rc, out, _ = run(capsys, "pencil", "--file", m_path,
                         "--marked-file", lm_path, "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["l"] == 6 and blob["passed"] is True

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("case", ["generic marked", "flag seed"])
    def test_pencil_marked_through_zero_only(self, capsys, tmp_path, worked_files,
                                             fmt, case):
        # l = N+1: the marked hyperplane contains no M_i but the zero space,
        # so the last slice's limit is M_{N+1} = 0
        m_path, lm_path = worked_files
        if case == "generic marked":
            lm_path = dump(tmp_path / "generic.json",
                           span(9, e(2), e(3), e(5), e(6), ref.vec_add(e(8), e(9))))
            extra = []
        else:
            extra = ["--flag-seed", "1"]
        rc, out, err = run(capsys, "pencil", "--file", m_path, "--marked-file", lm_path,
                           *extra, *(["--json"] if fmt == "json" else []))
        assert rc == 0 and err == ""
        if fmt == "json":
            blob = json.loads(out)
            assert blob["l"] == 7 and blob["passed"] is True
            assert blob["checks"][-1] == {
                "name": "slice 6: zero limit is the next space down", "passed": True}
        else:
            assert "marked level l=7" in out
            assert "  [ok] slice 6: zero limit is the next space down\n" in out
            assert out.endswith("result: PASS\n")

    def test_pencil_evaluates_no_fibre(self, capsys, monkeypatch, worked_files):
        # the dimension clause rests on build_pencil's proof that the
        # columns are triangular, and build_pencil evaluates no fibre
        m_path, lm_path = worked_files
        points = []
        real = PolyFamily.at

        def counted(self, t):
            points.append(t)
            return real(self, t)

        monkeypatch.setattr(PolyFamily, "at", counted)
        rc, out, _ = run(capsys, "pencil", "--file", m_path, "--marked-file", lm_path)
        assert rc == 0 and out.endswith("result: PASS\n")
        assert points == []

    def test_pencil_l_mismatch(self, capsys, worked_files):
        m_path, lm_path = worked_files
        rc, _, err = run(capsys, "pencil", "--file", m_path,
                         "--marked-file", lm_path, "--l", "3")
        assert rc == 2 and "disagrees" in err

    def test_step(self, capsys, worked_files):
        m_path, lm_path = worked_files
        rc, out, _ = run(capsys, "step", "--n", "9", "--alpha", "7,4,1",
                         "--s", "2", "--r", "1", "--file", m_path,
                         "--marked-file", lm_path, "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["passed"] is True
        assert len(blob["components"]) == 3

    def test_chain_deform(self, capsys):
        rc, out, _ = run(capsys, "chain-deform", "--n", "9",
                         "--alpha", "7,4,1", "--b", "2", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["passed"] is True
        assert len(blob["reports"]) == 3
        assert len(blob["chains"]) == 6

    def test_appendix_a_matches_golden_file(self, capsys):
        rc, out, _ = run(capsys, "appendix-a")
        golden = Path(__file__).parent / "golden" / "worked_run.txt"
        assert rc == 0
        assert out == golden.read_text()

    def test_missing_file_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "classify", "--n", "9", "--alpha", "7,4,1",
                         "--file", "/nonexistent/L.json")
        assert rc == 2 and "error" in err


class TestEnumerativeVerbs:
    def test_count_real(self, capsys):
        rc, out, _ = run(capsys, "count-real", "--n", "4", "--m", "2",
                         "--alpha", "3,1", "--beta", "2,1",
                         "--a", "1", "--b", "1", "--c", "1", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["d"] == 2
        assert blob["oracle1"] == 2 and blob["oracle2"] == 2
        assert blob["agree"] is True

    def test_triple_witness(self, capsys):
        rc, out, _ = run(capsys, "triple-witness", "--n", "4", "--m", "2",
                         "--alpha", "3,1", "--beta", "2,1",
                         "--a", "1", "--b", "1", "--c", "1", "--json")
        blob = json.loads(out)
        assert rc == 0
        assert blob["count"] == blob["d"] == 2
        assert blob["match"] is True and blob["distinct"] is True

    def test_count_real_past_the_cap_skips_the_bialternant(self, capsys):
        # m(n-m) = 36
        rc, out, err = run(capsys, "count-real", "--n", "12", "--m", "6",
                           "--alpha", "9,8,7,6,5,4", "--beta", "6,5,4,3,2,1",
                           "--a", "6", "--b", "6", "--c", "6")
        assert (rc, err) == (0, "")
        assert "oracle1 (polynomial expansion): skipped (too large)\n" in out

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_oracle_error_is_not_read_as_a_skip(self, capsys, monkeypatch, mode):
        def broken(*args):
            raise ValueError("stub alternant failure")
        # a cached bialternant product would never reach the stub
        count_reference.clear_caches()
        monkeypatch.setattr(enumerative, "_alternant", broken)
        rc, out, err = run(capsys, "count-real", *PROBLEM, *mode)
        assert (rc, out, err) == (2, "", "error: stub alternant failure\n")

    def test_bad_degrees_usage_error(self, capsys):
        rc, _, err = run(capsys, "count-real", "--n", "4", "--m", "2",
                         "--alpha", "3,1", "--beta", "2,1",
                         "--a", "2", "--b", "1", "--c", "1")
        assert rc == 2 and "ambient dimension" in err


class TestExitAndDeterminism:
    def test_usage_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pieri", "--n", "9"])
        assert exc.value.code == 2

    def test_unknown_verb_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["polish"])
        assert exc.value.code == 2

    def test_verification_failure_exit_one(self, capsys, monkeypatch):
        broken = GoldenReport(
            sections=(("stubbed section", (StageCheck("stubbed clause", False),)),),
            final_indices=(),
        )
        monkeypatch.setattr(deform, "golden_run_741", lambda: broken)
        rc, out, err = run(capsys, "appendix-a")
        assert rc == 1
        assert "overall: FAIL" in out
        assert "failed: stubbed section: stubbed clause" in err

    @pytest.mark.parametrize("argv", [
        ("pieri", "--n", "9", "--alpha", "7,4,1", "--r", "2", "--json"),
        ("tree", "--n", "9", "--alpha", "7,4,1", "--b", "2", "--json"),
        ("cell", "--n", "9", "--alpha", "7,4,1", "--s", "2", "--json"),
        ("chain-deform", "--n", "9", "--alpha", "7,4,1", "--b", "2", "--json"),
        ("count-real", "--n", "4", "--m", "2", "--alpha", "3,1",
         "--beta", "2,1", "--a", "1", "--b", "1", "--c", "1", "--json"),
        ("triple-witness", "--n", "4", "--m", "2", "--alpha", "3,1",
         "--beta", "2,1", "--a", "1", "--b", "1", "--c", "1", "--json"),
        ("appendix-a", "--json"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        rc1, out1, _ = run(capsys, *argv)
        rc2, out2, _ = run(capsys, *argv)
        assert (rc1, out1) == (rc2, out2)
        json.loads(out1)

    def test_env_seed_default_and_flag_override(self, capsys, monkeypatch):
        argv = ("cell", "--n", "9", "--alpha", "7,4,1", "--s", "2", "--json")
        monkeypatch.setenv(cli.SEED_ENV, "5")
        _, via_env, _ = run(capsys, *argv)
        monkeypatch.delenv(cli.SEED_ENV)
        _, via_flag, _ = run(capsys, *argv, "--seed", "5")
        _, via_default, _ = run(capsys, *argv)
        assert via_env == via_flag
        assert via_env != via_default
        monkeypatch.setenv(cli.SEED_ENV, "5")
        _, env_beaten, _ = run(capsys, *argv, "--seed", "0")
        assert env_beaten == via_default

    def test_malformed_seed_variable_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV, "abc")
        rc, out, err = run(capsys, "cell", "--n", "9", "--alpha", "7,4,1", "--s", "2")
        assert (rc, out) == (2, "")
        assert err == "error: PIERIKIT_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("doc", ["{}", "[1, 2]", '{"ambient": 3, "basis": 5}'])
    @pytest.mark.parametrize("verb", ["classify", "pencil"])
    def test_malformed_subspace_json_is_usage_error(self, capsys, tmp_path, worked_files,
                                                    verb, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        if verb == "classify":
            argv = ("classify", "--n", "9", "--alpha", "7,4,1", "--file", str(bad))
        else:
            argv = ("pencil", "--file", worked_files[0], "--marked-file", str(bad))
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err == ('error: subspace JSON must be an object with an integer '
                       '"ambient" and a list of rows in "basis"\n')

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pierikit.cli", "pieri", "--n", "9",
             "--alpha", "7,4,1", "--r", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "8,4,1\n7,5,1\n7,4,2\n"


PROBLEM = ("--n", "4", "--m", "2", "--alpha", "3,1", "--beta", "2,1",
           "--a", "1", "--b", "1", "--c", "1")


@pytest.fixture
def verb_files(tmp_path, worked_files):
    """Placeholder -> path for the verbs that read subspace files."""
    L = cell_point(DecSeq(9, (7, 4, 1)), 2, standard_flag(9), seed=0)
    m_path, lm_path = worked_files
    files = {"{L}": dump(tmp_path / "L.json", L), "{M}": m_path, "{Lm}": lm_path}
    for key, carrier in REFUSED_CARRIERS.items():
        path = tmp_path / f"{key[1:-1]}.json"
        path.write_text(json.dumps(carrier))
        files[key] = str(path)
    return files


def fill(argv, files):
    return [files.get(a, a) for a in argv]


STUB_FAILS = (StageCheck("stub pass", True),
              StageCheck("stub clause one", False, "why"),
              StageCheck("stub clause two", False))


def _fail_step(monkeypatch):
    real = deform.step_verify
    monkeypatch.setattr(deform, "step_verify", lambda *a, **k: replace(
        real(*a, **k), checks=STUB_FAILS))
    return ["stub clause one", "stub clause two"]


def _fail_chain_deform(monkeypatch):
    real = deform.chain_deformation

    def middle_stage_fails(*a, **k):
        reports = list(real(*a, **k))
        reports[1] = replace(reports[1], checks=STUB_FAILS)
        return reports
    monkeypatch.setattr(deform, "chain_deformation", middle_stage_fails)
    return ["stub clause one", "stub clause two"]


def _fail_pencil(monkeypatch):
    monkeypatch.setattr(cli, "limit_at_zero", lambda fam: span(fam.ambient))
    return [f"slice {i}: zero limit is the next space down" for i in range(1, 6)]


def _fail_schensted(monkeypatch):
    real = tableaux.pieri_bijection_check
    monkeypatch.setattr(tableaux, "pieri_bijection_check", lambda *a: replace(
        real(*a), content_ok=False, chains_complete=False))
    return ["content_ok", "chains_complete"]


def _fail_cell(monkeypatch):
    monkeypatch.setattr(cli, "cell_profile_check",
                        lambda *a: ProfileReport((ProfileEntry(1, 2, 3),)))
    return ["dimension profile"]


def _fail_count_real(monkeypatch):
    real = enumerative.pieri_pairing_oracle
    monkeypatch.setattr(enumerative, "pieri_pairing_oracle", lambda p: real(p) + 1)
    return ["oracle agreement"]


def _fail_triple_witness(monkeypatch):
    real = enumerative.real_witness_set
    monkeypatch.setattr(enumerative, "real_witness_set", lambda p, seed: real(p, seed=seed)[:-1])
    return ["witness count equals d"]


FORCED_FAILURES = [
    (("step", "--n", "9", "--alpha", "7,4,1", "--s", "2", "--r", "1",
      "--file", "{M}", "--marked-file", "{Lm}"), _fail_step),
    (("chain-deform", "--n", "9", "--alpha", "7,4,1", "--b", "2"),
     _fail_chain_deform),
    (("pencil", "--file", "{M}", "--marked-file", "{Lm}"), _fail_pencil),
    (("schensted", "--shape", "4,2", "--b", "2", "--m", "3"), _fail_schensted),
    (("cell", "--n", "9", "--alpha", "7,4,1", "--s", "2"), _fail_cell),
    (("count-real",) + PROBLEM, _fail_count_real),
    (("triple-witness",) + PROBLEM, _fail_triple_witness),
]


# one passing invocation of each of the 15 verbs
VERB_ARGV = [
    ("pieri", "--n", "9", "--alpha", "7,4,1", "--r", "2"),
    ("tree", "--n", "9", "--alpha", "7,4,1", "--b", "2"),
    ("chains", "--n", "9", "--alpha", "7,4,1", "--b", "2"),
    ("schensted", "--shape", "4,2", "--b", "2", "--m", "3"),
    ("schur", "--shape", "2,1", "--m", "2"),
    ("classify", "--n", "9", "--alpha", "7,4,1", "--file", "{L}"),
    ("cell", "--n", "9", "--alpha", "7,4,1", "--s", "2"),
    ("witness", "--n", "9", "--alpha", "7,4,1", "--file", "{L}"),
    ("tangent", "--n", "9", "--alpha", "7,4,1", "--file", "{L}"),
    ("pencil", "--file", "{M}", "--marked-file", "{Lm}"),
    ("step", "--n", "9", "--alpha", "7,4,1", "--s", "2", "--r", "1",
     "--file", "{M}", "--marked-file", "{Lm}"),
    ("chain-deform", "--n", "9", "--alpha", "7,4,1", "--b", "2"),
    ("appendix-a",),
    ("count-real",) + PROBLEM,
    ("triple-witness",) + PROBLEM,
]

# carrier files the pencil verb refuses with exit 2: a negative ambient
# (random_flag(-1) never returned) and the zero space, whose flag in M is
# empty (build_pencil raised IndexError, exit 1)
REFUSED_CARRIERS = {"{neg}": {"ambient": -1, "basis": []}, "{zero}": {"ambient": 3, "basis": []}}
REFUSED_PENCILS = [
    ("pencil", "--file", "{neg}", "--marked-file", "{neg}"),
    ("pencil", "--file", "{neg}", "--marked-file", "{neg}", "--flag-seed", "0"),
    ("pencil", "--file", "{zero}", "--marked-file", "{zero}"),
]

# a step whose marked file is M itself, not a hyperplane of M: build_pencil
# refuses it with exit 2
REFUSED_STEPS = [("step", "--n", "9", "--alpha", "7,4,1", "--s", "2", "--r", "1",
                  "--file", "{M}", "--marked-file", "{M}")]

# the pencil on a random flag, whose dual vectors carry denominators other than 1
RANDOM_FLAG_PENCIL = ("pencil", "--file", "{M}", "--marked-file", "{Lm}",
                      "--flag-seed", "3")

# exit code and sha256 of stdout and stderr of every verb, passing and with
# its clauses forced to fail, and of the refused input, in text and --json mode
PINNED_OUTPUTS = Path(__file__).parent / "golden" / "cli_outputs.json"
PINNED_RUNS = ([(argv[0], argv, None) for argv in VERB_ARGV]
               + [("pencil --flag-seed 3", RANDOM_FLAG_PENCIL, None)]
               + [("forced " + argv[0], argv, force) for argv, force in FORCED_FAILURES]
               + [(" ".join(argv), argv, None)
                  for argv in REFUSED_ARGV + REFUSED_PENCILS + REFUSED_STEPS])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestVerdictPath:
    @pytest.mark.parametrize("argv, force", FORCED_FAILURES,
                             ids=[argv[0] for argv, _ in FORCED_FAILURES])
    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_forced_failure_names_each_clause(self, capsys, monkeypatch,
                                              verb_files, argv, force, mode):
        failed = force(monkeypatch)
        rc, out, err = run(capsys, *fill(argv, verb_files), *mode)
        assert rc == 1
        assert err == "".join(f"failed: {name}\n" for name in failed)
        if mode:
            assert json.loads(out)["schema"] == f"pierikit/{argv[0]}/1"

    @pytest.mark.parametrize("key, argv, force", PINNED_RUNS,
                             ids=[key for key, _, _ in PINNED_RUNS])
    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_output_matches_pinned_digest(self, capsys, monkeypatch, verb_files,
                                          key, argv, force, mode):
        if force:
            force(monkeypatch)
        rc, out, err = run(capsys, *fill(argv, verb_files), *mode)
        pinned = json.loads(PINNED_OUTPUTS.read_text())
        assert pinned[" ".join((key,) + mode)] == {
            "exit": rc, "stdout": sha256(out), "stderr": sha256(err)}

    @pytest.mark.parametrize("argv", REFUSED_PENCILS, ids=lambda argv: " ".join(argv[2::2]))
    def test_refused_carrier_exits_two(self, capsys, verb_files, argv):
        message = ("flag in M is empty: M must have positive dimension" if "{zero}" in argv
                   else "ambient dimension must be nonnegative, got -1")
        for mode in ((), ("--json",)):
            rc, out, err = run(capsys, *fill(argv, verb_files), *mode)
            assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("marked, message", [
        ((1, 3, 5, 6, 9), "marked subspace must be a hyperplane of M"),
        ((3, 5, 6, 9), "marked subspace must be a hyperplane of M"),
        ((2, 3, 5, 6, 8), "marked hyperplane must contain M_l"),
        ((2, 3, 5, 8, 9), "marked hyperplane must not contain M_(l-1)"),
    ], ids=["outside M", "not a hyperplane", "misses F_9", "contains F_8"])
    def test_bad_marked_step_exits_two(self, capsys, tmp_path, worked_files,
                                       marked, message):
        bad = dump(tmp_path / "bad.json", span(9, *[e(i) for i in marked]))
        for mode in ((), ("--json",)):
            rc, out, err = run(capsys, "step", "--n", "9", "--alpha", "7,4,1", "--s", "2",
                               "--r", "1", "--file", worked_files[0], "--marked-file", bad,
                               *mode)
            assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_verification_error_exits_one(self, capsys, monkeypatch):
        def broken():
            raise VerificationError("stubbed exact check")
        monkeypatch.setattr(deform, "golden_run_741", broken)
        rc, out, err = run(capsys, "appendix-a")
        assert (rc, out, err) == (1, "", "failed: stubbed exact check\n")

    @pytest.mark.parametrize("argv", VERB_ARGV, ids=lambda argv: argv[0])
    def test_json_schema_stamp(self, capsys, verb_files, argv):
        rc, out, err = run(capsys, *fill(argv, verb_files), "--json")
        assert (rc, err) == (0, "")
        assert f'"schema": "pierikit/{argv[0]}/1"' in out

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_witness_failed_clause(self, capsys, monkeypatch, verb_files, mode):
        argv = fill(("witness", "--n", "9", "--alpha", "7,4,1", "--file", "{L}"),
                    verb_files)
        rc, good, err = run(capsys, *argv, *mode)
        assert (rc, err) == (0, "")
        monkeypatch.setattr(cli, "schubert_member", lambda *a: False)
        rc, out, err = run(capsys, *argv, *mode)
        assert (rc, err) == (1, "failed: schubert_member\n")
        # stdout still reports the plane and the failed clause, nothing else moves
        if mode:
            want = json.loads(good)
            want["checks"]["schubert_member"] = False
            assert json.loads(out) == want
        else:
            assert "schubert_member: True" in good
            assert out == good.replace("schubert_member: True", "schubert_member: False")


def _miss_cell_point(monkeypatch):
    monkeypatch.setattr(schubgeom, "cell_member", lambda *a: False)
    return ("cell", "--n", "9", "--alpha", "7,4,1", "--s", "2"), \
        "pivot span missed the incidence cell"


def _miss_witness_point(monkeypatch):
    monkeypatch.setattr(schubgeom, "vector_avoiding",
                        lambda inside, avoid, rng: (0,) * inside.ambient)
    return ("witness", "--n", "9", "--alpha", "7,4,1", "--file", "{L}"), \
        "witness plane fails its defining conditions"


def _descend_to_the_carrier(monkeypatch):
    # valid input, but the library's own descent hands back M itself
    monkeypatch.setattr(deform, "_descend_hyperplane", lambda a, s, flag, M, rng: M)
    return ("chain-deform", "--n", "9", "--alpha", "7,4,1", "--b", "2"), \
        "marked subspace must be a hyperplane of M"


def _exhaust_descent(monkeypatch):
    monkeypatch.setattr(deform, "cell_member", lambda *a: False)
    return ("chain-deform", "--n", "9", "--alpha", "7,4,1", "--b", "2"), \
        "no generic descent hyperplane found"


def _exhaust_witness_table(monkeypatch):
    def not_generic(*a):
        raise GenericityError("stub C meets the slice sum off a line")
    monkeypatch.setattr(enumerative, "_witness", not_generic)
    return ("triple-witness",) + PROBLEM, \
        "no suitable C after 32 draws: stub C meets the slice sum off a line"


class TestGenericityExit:
    @pytest.mark.parametrize("exhaust", [_exhaust_descent, _exhaust_witness_table],
                             ids=["descend_hyperplane", "witness_table"])
    def test_exhausted_sampler_exits_three(self, capsys, monkeypatch, verb_files, exhaust):
        argv, message = exhaust(monkeypatch)
        rc, out, err = run(capsys, *fill(argv, verb_files))
        assert (rc, out) == (3, "")
        assert err == f"error: genericity retries exhausted: {message}\n"

    @pytest.mark.parametrize("miss", [_miss_cell_point, _miss_witness_point,
                                      _descend_to_the_carrier],
                             ids=["cell_point", "witness_point", "descent fault"])
    def test_one_draw_sampler_miss_exits_one(self, capsys, monkeypatch, verb_files, miss):
        # cell points and witness planes are built once and cannot miss, so
        # a failed post-check is a library fault, not a reason to reseed; a
        # descent step_verify refuses is one too
        argv, message = miss(monkeypatch)
        rc, out, err = run(capsys, *fill(argv, verb_files))
        assert (rc, out, err) == (1, "", f"failed: {message}\n")

    def test_genericity_error_is_a_runtime_error(self):
        assert issubclass(GenericityError, RuntimeError)
        assert pierikit.GenericityError is GenericityError
        assert not issubclass(GenericityError, (ValueError, VerificationError))

    def test_non_termination_is_a_failure_exit(self, capsys, monkeypatch, verb_files):
        # limit_at_zero's own proof allows it D divisions by t, D the sum of
        # the column degrees; one more is a fault of the routine, exit 1, not
        # a usage error: here a budget one short meets e_1, e_1 + t e_2
        short = ref.source_mutant(limit_at_zero, "if divisions > D:", "if divisions > D - 1:")
        needs_one = family_from_vectors(2, [[(1,), ()], [(1,), (0, 1)]])
        monkeypatch.setattr(cli, "limit_at_zero", lambda fam: short(needs_one))
        rc, out, err = run(capsys, *fill(("pencil", "--file", "{M}", "--marked-file", "{Lm}"),
                                          verb_files))
        assert (rc, out) == (1, "")
        assert err == "failed: limit computation took more than D = 1 divisions by t\n"


class TestCellRange:
    @pytest.mark.parametrize("s,rc", [("0", 2), ("4", 0), ("5", 2), ("6", 2)])
    def test_s_outside_the_nonempty_range_is_usage_error(self, capsys, s, rc):
        got, out, err = run(capsys, "cell", "--n", "9", "--alpha", "7,4,1", "--s", s)
        assert got == rc
        if rc:
            assert out == "" and err.startswith("error: ")
        else:
            assert "profile: PASS" in out and err == ""

    def test_chain_longer_than_n_plus_one_minus_a1_is_usage_error(self, capsys):
        # cell --s 4 has a member, but a chain of length 4 would descend
        # through a hyperplane avoiding F_{a_1+3} = F_10 = 0
        rc, out, err = run(capsys, "chain-deform", "--n", "9", "--alpha", "7,4,1",
                           "--b", "4")
        assert (rc, out) == (2, "")
        assert err == "error: chain length must be at most n+1-a_1 = 3\n"
        rc, out, _ = run(capsys, "chain-deform", "--n", "9", "--alpha", "7,4,1",
                         "--b", "3")
        assert rc == 0 and out.endswith("overall: PASS\n")


SRC = Path(__file__).resolve().parent.parent / "src"

# the library layers a fresh `python -m pierikit.cli VERB` loads: the
# counting verbs need no deform or tableaux, the chain verbs no tableaux or
# enumerative
LAYERS_RUN = {
    "pieri": {"exactla", "seqcomb", "schubgeom"},
    "count-real": {"exactla", "seqcomb", "schubgeom", "enumerative"},
    "triple-witness": {"exactla", "seqcomb", "schubgeom", "enumerative"},
    "chain-deform": {"exactla", "seqcomb", "schubgeom", "deform"},
    "appendix-a": {"exactla", "seqcomb", "schubgeom", "deform"},
}


# modules whose import cost a fresh process about 25 ms at start-up:
# dataclasses pulls in inspect (and with it ast, dis, tokenize, linecache)
START_UP_HEAVY = {"dataclasses", "inspect"}
LAYERS = ("exactla", "seqcomb", "schubgeom", "deform", "enumerative", "tableaux", "cli")


def fresh_run(*args):
    """Run `python -X importtime ARGS` with src on the path.  Returns the
    exit code, stdout, stderr without the import-time lines, and the set of
    modules the interpreter imported: every module -X importtime reports
    (a module the interpreter preloads before it starts reporting is not
    among them)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    loaded, err = set(), []
    for line in proc.stderr.splitlines(keepends=True):
        if not line.startswith("import time:"):
            err.append(line)
            continue
        loaded.add(line.rsplit("|", 1)[1].strip())
    return proc.returncode, proc.stdout, "".join(err), loaded


def pierikit_modules(loaded) -> set:
    return {name for name in loaded if name == "pierikit" or name.startswith("pierikit.")}


@pytest.fixture(scope="module")
def bare_modules():
    """What a bare interpreter imports on this host (site hooks included):
    the start-up guard holds the library to what it adds."""
    rc, _, _, loaded = fresh_run("-c", "pass")
    assert rc == 0
    return loaded


class TestImportFootprint:
    @pytest.mark.parametrize("verb", sorted(LAYERS_RUN))
    def test_verb_loads_only_its_layers(self, verb, bare_modules):
        argv = next(argv for argv in VERB_ARGV if argv[0] == verb)
        rc, out, err, loaded = fresh_run("-m", "pierikit.cli", *argv)
        assert pierikit_modules(loaded) == {"pierikit"} | {
            f"pierikit.{m}" for m in LAYERS_RUN[verb]}
        assert (loaded - bare_modules) & START_UP_HEAVY == set()
        pinned = json.loads(PINNED_OUTPUTS.read_text())[verb]
        assert {"exit": rc, "stdout": sha256(out), "stderr": sha256(err)} == pinned

    @pytest.mark.parametrize("layer", LAYERS)
    def test_layer_import_skips_start_up_heavy_modules(self, layer, bare_modules):
        rc, out, err, loaded = fresh_run("-c", f"import pierikit.{layer}")
        assert (rc, out, err) == (0, "", "")
        assert f"pierikit.{layer}" in loaded
        assert (loaded - bare_modules) & START_UP_HEAVY == set()

    def test_package_import_loads_no_submodule(self):
        rc, out, err, loaded = fresh_run("-c", "import pierikit")
        assert (rc, out, err, pierikit_modules(loaded)) == (0, "", "", {"pierikit"})

"""The package namespace: what `pierikit` exports, and from where."""

import importlib

import pytest

import pierikit
import pierikit.exactla as exactla

# every exported name by home module
HOMES = {
    "seqcomb": ("DecSeq", "PieriTree", "alpha_of", "bruhat_leq", "codim",
                "covers_under", "dual", "first_diff_index", "lambda_of",
                "pieri_set", "tree_chains"),
    "exactla": ("Flag", "GenericityError", "PolyFamily", "Subspace",
                "VerificationError", "annihilator_basis", "intersect",
                "kernel_basis", "limit_at_zero", "span", "sum_span",
                "unit_vector", "verdict_line", "zero_subspace"),
    "tableaux": ("BijectionReport", "SparsePoly", "Tableau", "chow_project",
                 "complete_homogeneous", "pieri_bijection_check", "pieri_shapes",
                 "row_insert", "schur_decompose", "schur_expand", "ssyt_enumerate"),
    "schubgeom": ("Classification", "cell_index", "cell_member", "cell_point",
                  "classify_pieri", "meets_properly", "random_flag",
                  "restrict_flag", "restrict_sequence", "schubert_cell_point",
                  "schubert_member", "standard_flag", "tangent_codim",
                  "witness_point", "x_member", "y_cycle"),
    "deform": ("GoldenReport", "Pencil", "StepReport", "build_pencil",
               "chain_deformation", "chain_histories", "flag_within",
               "golden_run_741", "step_verify", "worked_family", "worked_kernel"),
    "enumerative": ("QuintupleProblem", "cohomology_oracle", "count_pairs_d",
                    "pieri_pairing_oracle", "real_witness_set", "reversed_flag",
                    "triple_witnesses", "valid_instances", "witness_table"),
}
EXPORTED = [(module, name) for module, names in HOMES.items() for name in names]


def test_all_lists_every_export_once():
    assert len(EXPORTED) == 72
    assert pierikit.__all__ == sorted([name for _, name in EXPORTED] + ["__version__"])


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_name_is_its_home_object(module, name):
    home = importlib.import_module(f"pierikit.{module}")
    assert getattr(pierikit, name) is getattr(home, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from pierikit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == pierikit.__all__
    assert namespace["__version__"] == pierikit.__version__
    assert namespace["intersect"] is exactla.intersect


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pierikit.no_such_name
    assert not hasattr(pierikit, "trim_partition")


def test_dir_lists_the_exports():
    assert set(pierikit.__all__) <= set(dir(pierikit))


def test_lookup_is_not_cached(monkeypatch):
    original = exactla.intersect

    def patched(*args):
        return original(*args)
    monkeypatch.setattr(exactla, "intersect", patched)
    assert pierikit.intersect is patched
    monkeypatch.undo()
    assert pierikit.intersect is original
    assert "intersect" not in vars(pierikit)

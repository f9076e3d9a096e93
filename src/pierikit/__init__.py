"""pierikit: exact-arithmetic workbench for Pieri-type Schubert intersections.

Sequence combinatorics, tableau bijections, exact rational subspace
computations, intersection classification with explicit witnesses, rational
deformation chains, and enumerative cross-checks, all over the rationals.

`import pierikit` loads no submodule.  Each exported name is looked up in
its home module on first access (PEP 562), so a program loads only the
layers it uses.  The lookup is not cached here: `pierikit.X` is always the
home module's current `X`.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported names by home module
_EXPORTS = {
    "seqcomb": (
        "DecSeq", "PieriTree", "alpha_of", "bruhat_leq", "codim", "covers_under",
        "dual", "first_diff_index", "lambda_of", "pieri_set", "tree_chains",
    ),
    "exactla": (
        "Flag", "GenericityError", "PolyFamily", "Subspace", "VerificationError",
        "annihilator_basis", "intersect", "kernel_basis", "limit_at_zero", "span",
        "sum_span", "unit_vector", "verdict_line", "zero_subspace",
    ),
    "tableaux": (
        "BijectionReport", "SparsePoly", "Tableau", "chow_project",
        "complete_homogeneous", "pieri_bijection_check", "pieri_shapes",
        "row_insert", "schur_decompose", "schur_expand", "ssyt_enumerate",
    ),
    "schubgeom": (
        "Classification", "cell_index", "cell_member", "cell_point",
        "classify_pieri", "meets_properly", "random_flag", "restrict_flag",
        "restrict_sequence", "schubert_cell_point", "schubert_member",
        "standard_flag", "tangent_codim", "witness_point", "x_member", "y_cycle",
    ),
    "deform": (
        "GoldenReport", "Pencil", "StepReport", "build_pencil", "chain_deformation",
        "chain_histories", "flag_within", "golden_run_741", "step_verify",
        "worked_family", "worked_kernel",
    ),
    "enumerative": (
        "QuintupleProblem", "cohomology_oracle", "count_pairs_d",
        "pieri_pairing_oracle", "real_witness_set", "reversed_flag",
        "triple_witnesses", "valid_instances", "witness_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return list(__all__)

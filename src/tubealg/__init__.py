"""Exact tube-algebra and annular-algebra computations.

Finite groups carrying a circle-valued 3-cocycle give rise to
finite-dimensional *-algebras with explicitly computable structure
constants; this package builds them in exact root-of-unity arithmetic,
realizes their block decompositions into twisted centralizer group
algebras, and provides the induction machinery for their
representations.

The public names below are resolved on first use (PEP 562), so
``import tubealg`` loads no submodule and a process compiles only the
modules it reads.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "grp": ("ClassData", "GroupTable", "GroupError", "centralizer",
            "conjugacy_data", "cyclic_group", "direct_product",
            "group_from_permutations", "group_from_table", "subgroup_closure"),
    "phase": ("CheckResult", "Cocycle2", "Cocycle3", "CocycleError",
              "coboundary1", "coboundary2", "cocycle3_check",
              "inflate_cocycle", "is_normalized", "normalize3", "phase_str",
              "product_type_cocycle", "root", "standard_cyclic_cocycle",
              "trivial_cocycle", "two_factor_cocycle"),
    "coho": ("BHSetup", "BHSetupError", "gamma", "gamma_identity_check",
             "gauge_fix_bh", "gl_relations_check", "phi_a", "phi_class"),
    "tube_diag": ("BlockAlgebra", "BlockImage", "SimpleCount", "TubeAlgebra",
                  "TubeBasisElement", "TubeShapedAlgebra", "simple_count",
                  "verify_star_iso"),
    "annular_bh": ("ABasisElement", "AnnularAlgebra", "BoxMorphism",
                   "CutdownAlgebra", "bh_verify_star_iso",
                   "compare_cutdown_diagonal", "double_cosets",
                   "end_xg_algebra", "tube_cutdown"),
    "staralg": ("TwistedGroupAlgebra", "center_dimension"),
    "rep": ("Representation", "decompose", "induce", "regular_representation",
            "restrict", "support_decompose"),
    "splitting": ("projective_dimensions",),
}
_SUBMODULES = (*_EXPORTS, "cyclotomic")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value

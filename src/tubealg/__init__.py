"""Exact tube-algebra and annular-algebra computations.

Finite groups carrying a circle-valued 3-cocycle give rise to
finite-dimensional *-algebras with explicitly computable structure
constants; this package builds them in exact root-of-unity arithmetic,
realizes their block decompositions into twisted centralizer group
algebras, and provides the induction machinery for their
representations.
"""

from .grp import (ClassData, GroupTable, GroupError, centralizer,
                  conjugacy_data, cyclic_group, direct_product,
                  group_from_permutations, group_from_table, subgroup_closure)
from .phase import (CheckResult, Cocycle2, Cocycle3, CocycleError,
                    coboundary1, coboundary2, cocycle3_check,
                    inflate_cocycle, is_normalized, normalize3, phase_str,
                    product_type_cocycle, root, standard_cyclic_cocycle,
                    trivial_cocycle, two_factor_cocycle)
from .coho import (BHSetup, BHSetupError, gamma, gamma_identity_check,
                   gamma_transport_check, gauge_fix_bh, gl_relations_check,
                   phi_a, phi_class)
from .tube_diag import (BlockAlgebra, BlockImage, SimpleCount, TubeAlgebra,
                        TubeBasisElement, TubeShapedAlgebra, simple_count,
                        verify_star_iso)
from .annular_bh import (ABasisElement, AnnularAlgebra, BoxMorphism,
                         CutdownAlgebra, bh_verify_star_iso,
                         compare_cutdown_diagonal, double_cosets,
                         end_xg_algebra, tube_cutdown)
from .rep import (Representation, TwistedGroupAlgebra, center_dimension,
                  decompose, induce, regular_representation, restrict,
                  support_decompose)
from .splitting import projective_dimensions

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

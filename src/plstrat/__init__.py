"""Stratifications of piecewise linear maps.

Exact rational tools for the critical locus of a PL map into the line or
the plane, the arrangement its image cuts in the codomain, and the poset of
fiber components lying over it.
"""
from .arrangement import (CodomainStratification, Face, LineCuts,
                          LocusStratification, PlanarArrangement,
                          RefinedImage, SingularLocus,
                          build_codomain_stratification, coarseness_check,
                          containment_comparable, refine_image, render_svg,
                          stratification_from_refined, stratify_singular_locus,
                          stratum_dimension)
from .complexes import (ManifoldReport, Simplex, SimplicialComplex,
                        euler_characteristic, face_poset, join, link,
                        manifold_check, open_star, sphere_verdict, star)
from .errors import (DegeneracyError, EmptyComplexError, GenericityError,
                     InputError, InternalError, NotAMemberError, PLStratError,
                     StructuralError)
from .homology import (BettiVector, boundary_columns, is_h_nontrivial,
                       reduced_betti)
from .jacobi import (CriticalityVerdict, GenericityReport, JacobiSet, PLMap,
                     check_generic, criticality_verdict, directional_links,
                     domain_stratification, h_side_verdicts, is_d_critical,
                     is_h_critical, is_l_critical_surface, jacobi_set)
from .posets import (MonotoneMap, Poset, StratifiedSpace, chain_poset,
                     check_stratified_map, collapse_to_point, is_partial_order,
                     is_refinement, left_cone, linear_subposets,
                     poset_to_json_dict, product, right_cone, validate_poset,
                     wedge_extend)
from .reeb import (FiberAudit, ReebGraph, ReebScaffold, SteinReport,
                   check_stein_square, fiber_components, interval_fiber_audit,
                   reeb_graph, reeb_scaffold, stratum_fiber_audit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

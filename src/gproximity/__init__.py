"""Approximate best proximity pairs for cyclic maps on graph-endowed metric spaces.

The package models a metric space X = A ∪ B carrying a directed graph whose
vertex set is X and whose edge set contains the diagonal, together with a
cyclic map T (T(A) ⊆ B, T(B) ⊆ A) or a pair of maps (T, S).  It classifies
maps against contraction-type operator classes, runs Picard-style iteration
schemes with a-priori stopping bounds, and enumerates the approximate best
proximity sets these schemes converge into.
"""
from .analysis import (PairProximitySet, ProximitySet, MinimizerReport,
                       STRICT, VACUOUS, contraction_diam_bound,
                       enumerate_pair_set, enumerate_proximity_set,
                       minimizer_report, pair_diameter, proximity_diameter,
                       two_map_diam_bound)
from .errors import (ClassificationError, DomainError, GproximityError,
                     HypothesisError, OrbitError, ParseError, SpecError,
                     StructuralError)
from .graph import (COMPLETE, CUSTOM, DIAGONAL, EXPLICIT, DirectedGraph,
                    complete_graph, contains_edge, custom_graph,
                    diagonal_graph, explicit_graph, iter_edges,
                    preserves_edges, validate_graph)
from .instances import (affine_segments_pair, contraction_instance,
                        dumps, ellipse_example, identity_pair_instance,
                        interval_example, load_instance, loads,
                        random_instance, reflection_instance, save_instance,
                        segments_example)
from .maps import CrrParams, CyclicMap, Instance, MapPair, apply_map
from .metric import (DEFAULT_TOL, CoordinateSpace, SubsetPair, TabulatedSpace,
                     ValidationReport, Violation, pair_distance, set_diameter,
                     validate_metric, validate_sets)
from .operators import (CheckResult, ContractionEstimate, crr_params_feasible,
                        is_crr_2map, is_crr_moh, is_edge_nonexpansive,
                        is_g_contraction, min_contraction_factor,
                        pair_preserves_edges, validate_cyclic, validate_pair)
from .solver import (EXHAUSTED, FOUND, INELIGIBLE, IterationTrace, SolveConfig,
                     SolveResult, crr_iteration_bound, epsilon_fixed_point,
                     find_proximity_point, is_gt_minimizing, picard_orbit,
                     two_map_alternating, two_map_parallel)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

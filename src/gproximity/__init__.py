"""Approximate best proximity pairs for cyclic maps on graph-endowed metric spaces.

The package models a metric space X = A ∪ B carrying a directed graph whose
vertex set is X and whose edge set contains the diagonal, together with a
cyclic map T (T(A) ⊆ B, T(B) ⊆ A) or a pair of maps (T, S).  It classifies
maps against contraction-type operator classes, runs Picard-style iteration
schemes with a-priori stopping bounds, and enumerates the approximate best
proximity sets these schemes converge into.

``import gproximity`` alone imports neither numpy nor the modules below: the
first access to any public name imports them all (PEP 562), so the command
line can reject a bad file or option before it pays for them.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_API = {
    "analysis": ("PairProximitySet", "ProximitySet", "MinimizerReport", "STRICT", "VACUOUS",
                 "contraction_diam_bound", "enumerate_pair_set", "enumerate_proximity_set",
                 "minimizer_report", "pair_diameter", "proximity_diameter",
                 "two_map_diam_bound"),
    "errors": ("ClassificationError", "DomainError", "GproximityError", "HypothesisError",
               "OrbitError", "ParseError", "SpecError", "StructuralError"),
    "graph": ("COMPLETE", "DIAGONAL", "EXPLICIT", "DirectedGraph", "complete_graph",
              "contains_edge", "diagonal_graph", "explicit_graph", "validate_graph"),
    "instances": ("affine_segments_pair", "contraction_instance", "dumps", "ellipse_example",
                  "identity_pair_instance", "interval_example", "load_instance", "loads",
                  "random_instance", "reflection_instance", "save_instance",
                  "segments_example"),
    "maps": ("CrrParams", "CyclicMap", "Instance", "MapPair", "apply_map"),
    "metric": ("DEFAULT_TOL", "CoordinateSpace", "SubsetPair", "TabulatedSpace",
               "ValidationReport", "Violation", "pair_distance", "set_diameter",
               "validate_metric", "validate_sets"),
    "operators": ("CheckResult", "ContractionEstimate", "crr_params_feasible", "is_crr_2map",
                  "is_crr_moh", "is_edge_nonexpansive", "is_g_contraction",
                  "min_contraction_factor", "pair_preserves_edges", "validate_cyclic",
                  "validate_pair"),
    "solver": ("EXHAUSTED", "FOUND", "INELIGIBLE", "IterationTrace", "SolveConfig",
               "SolveResult", "crr_iteration_bound", "epsilon_fixed_point",
               "find_proximity_point", "is_gt_minimizing", "picard_orbit",
               "two_map_alternating", "two_map_parallel"),
}

__all__ = sorted([*_API, *(name for names in _API.values() for name in names)])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _API.items():
        mod = _import_module(f"{__name__}.{module}")
        globals().update((key, getattr(mod, key)) for key in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})

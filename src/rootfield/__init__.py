"""Root/critical-point counting for convex domains and charge potentials."""

__version__ = "0.1.0"

from . import charges, contours, errors, geometry, harness, kernels, poly, \
    regions, render, search
from .charges import (ChargeSet, Curve, TorusConfig, curve_min,
                      lemma1_curve_bound, sharp_example,
                      torus_low_potential_point)
from .geometry import ConvexDomain
from .harness import (ExperimentConfig, LemmaSuiteReport, TheoremReport,
                      run_lemma_suite, run_theorem_experiment, sweep_m)
from .poly import Polynomial, RootSplit, critical_points, from_roots
from .regions import (RegionMask, adelta_indicator, bridging_check,
                      build_mask, build_masks, classify_components,
                      field_lower_bound)
from .render import emit_svg
from .search import SearchConfig, SearchResult, conjecture_sweep, \
    optimize_charges

__all__ = [
    "__version__",
    "charges", "contours", "errors", "geometry", "harness", "kernels", "poly",
    "regions", "render", "search",
    "ChargeSet", "Curve", "TorusConfig", "curve_min", "lemma1_curve_bound",
    "sharp_example", "torus_low_potential_point",
    "ConvexDomain",
    "ExperimentConfig", "LemmaSuiteReport", "TheoremReport",
    "run_lemma_suite", "run_theorem_experiment", "sweep_m",
    "Polynomial", "RootSplit", "critical_points", "from_roots",
    "RegionMask", "adelta_indicator", "bridging_check", "build_mask",
    "build_masks", "classify_components", "field_lower_bound",
    "emit_svg",
    "SearchConfig", "SearchResult", "conjecture_sweep", "optimize_charges",
]

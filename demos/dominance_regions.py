"""
The dominance set A_delta up close
==================================

Two roots at +-1/2 inside the unit disk, one root at 3 outside.  The
set A_delta = {z : |q'/q| <= |r'/r| + delta/|r|} contains every critical
point of the product.  Here it has two parts: a small blob pinned to the
critical point near the origin, and a fat Apollonius-style disk around
the outside root where |r'/r| is large.
"""

import numpy as np

from rootfield import ConvexDomain, ExperimentConfig, RootSplit, \
    adelta_indicator, build_masks, classify_components, emit_svg, \
    run_theorem_experiment
from rootfield import regions

K = ConvexDomain.disk(0.0, 1.0)
EPS = 0.5
split = RootSplit([-0.5, 0.5], [3.0])

# hand values of the indicator g = |q'/q| - |r'/r| - delta/|r|
for z in (0.0, 1.5, 5.0):
    g = adelta_indicator(split, 1e-2, z)
    side = "inside A_delta" if g <= 0 else "outside"
    print(f"g({z}) = {g:+.4f}   ({side})")

# every critical point satisfies q'/q = -r'/r, so g < 0 exactly there
crit = split.critical
print("\ncritical points:", np.round(crit, 6))

bbox = regions.default_bbox(split, K, EPS)
masks = build_masks(split, [1e-2, 1e-3, 1e-4], bbox, 200.0)
for mask in masks:
    reports = classify_components(mask, split, K, EPS)
    cells = int((mask.labels >= 0).sum())
    print(f"\ndelta = {mask.delta:g}: {mask.n_components} components, "
          f"{cells} cells")
    for c in reports:
        print(f"  component {c.component}: touches K = {c.touches_K}, "
              f"escapes K_eps = {c.escapes_Keps}, "
              f"crit = {c.crit_points_inside}, margin = {c.rouche_margin:.3g}")

# shrinking delta shrinks the set toward the critical points and roots;
# the figure is a theorem run's on the same roots, deltas and grid
cfg = ExperimentConfig(domain=K, epsilon=EPS, n=2, m=1,
                       root_sampler=[-0.5, 0.5], outside_sampler=[3.0],
                       delta_sweep=[mask.delta for mask in masks],
                       resolution=masks[0].resolution)
emit_svg(run_theorem_experiment(cfg), "dominance_regions.svg")
print("\nwrote dominance_regions.svg")

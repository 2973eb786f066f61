#!/usr/bin/env python3
"""Empirical tube radii for the built-in models.

Three notions are scanned per momentum direction and the infimum over
directions is reported. The continuation radius is the distance to the
nearest spreading-matrix singularity in the complex time plane; by fiber
scaling it equals the largest momentum magnitude whose unit-disk continuation
stays clear of poles. Conjugate points put those poles on the real axis,
where a scan finds them; the surface of revolution also has genuinely
off-axis singularities, which the rational fit of the scanned window locates.
Transversality and positivity radii push straight up the imaginary axis until
the frame degenerates or the metric loses definiteness. No chart bounds the
imaginary part of a flow: the sweep ends only where the frame does, or where
the flow's step rule meets a genuine singularity of the metric.

Flat models have no singularities at all, so every number is the sweep cap.
On the unit sphere the continuation radius must come out at pi/2, and the
transversality and positivity radii at the cap: the adapted structure exists
on the whole tangent bundle there.
"""

import argparse

from grauert.catalog import catalog
from grauert.verify import estimate_tube_radius

ap = argparse.ArgumentParser()
ap.add_argument("--directions", type=int, default=6)
ap.add_argument("--cap", type=float, default=2.0)
ap.add_argument("--resolution", type=float, default=2e-3)
args = ap.parse_args()

print(f"{'model':<24} {'continuation':>13} {'transversality':>15} "
      f"{'positivity':>11} {'capped':>7}")
for name in ("flat_torus", "round_sphere", "surface_of_revolution"):
    est = estimate_tube_radius(catalog(name), n_directions=args.directions,
                               sweep_cap=args.cap, resolution=args.resolution)
    flags = "".join("c" if v else "-" for v in est.capped.values())
    print(f"{name:<24} {est.radius_continuation:13.6f} "
          f"{est.radius_transversality:15.6f} {est.radius_positivity:11.6f} "
          f"{flags:>7}")
    if est.pade_nearest_pole is not None:
        print(f"{'':<24} nearest rational-fit pole: {est.pade_nearest_pole:.6f}")

print()
print(f"sweep cap {args.cap}; 'ccc' means capped in all three senses.")
print("pi/2 = 1.570796")

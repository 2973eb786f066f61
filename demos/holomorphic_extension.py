#!/usr/bin/env python3
"""Three routes to the holomorphic extension of a function on the base.

A function f on M extends to the tube; the toolkit computes the extension by
(a) summing the power series sum_k i^k/k! X_E^k(f) of iterated derivatives
along the energy field, (b) transporting the base point by the complex-time
flow and evaluating f's chart formula there, and (c) where a closed-form
continued exponential map exists, evaluating a declared extension at exp(iv).
The routes share no code beyond the metric, so their agreement is a real
check, printed per point below.
"""

import numpy as np

from grauert.catalog import catalog
from grauert.extend import crosscheck, sphere_ambient, torus_trig
from grauert.geometry import metric_inv_matrix
from grauert.verify import sample_tube_points

cases = [
    ("flat_torus", {}, lambda m: torus_trig("mix", {(1, 0): 1.0, (2, 1): 0.3 - 0.2j})),
    ("round_sphere", {"radius": 1.0}, lambda m: sphere_ambient(m, "height", (0, 0, 1.0))),
]

for name, params, make in cases:
    model = catalog(name, **params)
    fn = make(model)
    pts = sample_tube_points(model, 4, 1, 0.1, 0.5)
    print(f"{name}, function {fn.name!r}")
    print(f"  {'|v|':>5} {'series':>26} {'flow':>26} {'spread':>9}")
    for z, rep in zip(pts, crosscheck(model, fn, pts)):
        gi = metric_inv_matrix(model, z.chart_id, z.q).real
        rho = float(np.sqrt(z.p.real @ gi @ z.p.real))
        v = rep["values"]
        print(f"  {rho:5.2f} {v['series']:26.14f} {v['flow']:26.14f} "
              f"{rep['max_deviation']:9.1e}")
    print()

print("'spread' is the largest pairwise gap across every applicable route,")
print("including the continued exponential map where the model carries one.")

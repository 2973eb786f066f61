#!/usr/bin/env python3
"""Calibration on the flat torus, where everything is known in closed form.

The geodesic flow is q + sigma p, so pushing the vertical subspace to time i
must produce the span of (i e_j, e_j), whose structure tensor is the standard
block [[0, -I], [I, 0]] and whose Kahler metric is the identity. This script
computes all three from the numerical pipeline and prints the deviations,
which should sit at roundoff.
"""

import numpy as np

from grauert.catalog import catalog
from grauert.lagrangian import (
    distribution_at,
    j_tensor_from_frame,
    positivity_check,
    principal_angles,
    symplectic_form_matrix,
)
from grauert.verify import sample_tube_points

model = catalog("flat_torus")
points = sample_tube_points(model, 5, 0, 0.1, 0.6)

span = np.vstack([1j * np.eye(2), np.eye(2)])
J_std = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])

print("flat torus, five sample points, flow route to time i")
print(f"{'point':<34} {'angle':>9} {'J dev':>9} {'G dev':>9} {'min eig':>8}")
for z in points:
    F = distribution_at(model, z, 1j)
    angle = float(np.max(principal_angles(F, span)))
    J = j_tensor_from_frame(F)
    G = symplectic_form_matrix(2).real @ J
    min_eig, _ = positivity_check(F)
    label = "q=(%.2f, %.2f) p=(%.2f, %.2f)" % (*z.q.real, *z.p.real)
    print(f"{label:<34} {angle:9.1e} {np.max(np.abs(J - J_std)):9.1e} "
          f"{np.max(np.abs(G - np.eye(4))):9.1e} {min_eig:8.4f}")

print()
print("largest principal angle against span{(i e_j, e_j)} should be ~1e-16,")
print("the structure tensor should match [[0,-I],[I,0]] entrywise, and the")
print("positivity eigenvalue should be exactly 2 (the flat fiber weight).")

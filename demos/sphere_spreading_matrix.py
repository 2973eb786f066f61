#!/usr/bin/env python3
"""Two independent routes to the spreading matrix at time i on the unit sphere.

Along a unit-sphere geodesic the matrix is diag(sigma, tan(rho sigma)/rho) in
the frame led by the momentum, so its value at sigma = i is diag(i,
i tanh(rho)/rho). The flow route pushes the vertical subspace through the
complex-time variational flow directly; the continuation route samples the
matrix at real times only and reaches i by a rational fit. Both are compared
against the closed form, and the fit's nearest pole is compared against the
conjugate-point location pi/(2 rho).

Usage: python3 demos/sphere_spreading_matrix.py [rho ...]
"""

import math
import sys

import numpy as np

from grauert.catalog import catalog
from grauert.flow import PhasePoint
from grauert.jacobi import continue_f_to_i, first_f_singularity
from grauert.lagrangian import FrameRays, distribution_at, f_matrix_from_frame, lifted_basis

rhos = [float(a) for a in sys.argv[1:]] or [0.3, 0.7, 1.0, 1.3]
model = catalog("round_sphere", radius=1.0)

print("unit sphere, equatorial start q=(pi/2, 0), momentum p = rho * dphi")
print(f"{'rho':>5} {'flow route':>11} {'continued':>11} {'pole found':>11} {'pi/2rho':>9}")
for rho in rhos:
    z = PhasePoint("a", [math.pi / 2, 0.0], [0.0, rho])
    target = np.diag([1j, 1j * math.tanh(rho) / rho])

    f = f_matrix_from_frame(lifted_basis(model, z), distribution_at(model, z, 1j))
    err_flow = float(np.max(np.abs(f - target)))

    window = min(1.2, 0.75 * math.pi / (2 * rho))
    f_i, _ = continue_f_to_i(FrameRays(model, [z], [window, -window]), 0, window)
    err_fit = float(np.max(np.abs(f_i - target)))

    cap = math.pi / (2 * rho) + 0.8
    pole = first_f_singularity(FrameRays(model, [z], [cap, -cap]), 0, tau_max=cap, coarse=0.05)
    print(f"{rho:5.2f} {err_flow:11.1e} {err_fit:11.1e} "
          f"{pole:11.6f} {math.pi / (2 * rho):9.6f}")

print()
print("columns 2 and 3 are deviations from diag(i, i tanh(rho)/rho); the last")
print("two agree because the first pole of tan(rho tau) is the conjugate point.")

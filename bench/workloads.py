"""Workloads: seeded INI configs, operation counts, and output checks.

A workload is a list of jobs; a job is one ``grauert`` subcommand run on one
generated config. The program only ever sees these configs. Every output is
checked against what it must say, computed here apart from the program:
verdicts against the documented tolerances, record counts against the
documented sample grids, radii against the closed-form pole of the unit
sphere, and extension values against closed forms of the extended functions.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

CHECKS = (
    "adaptedness",
    "involution",
    "kahler_potential",
    "nijenhuis",
    "scaling",
    "theta_sigma",
    "zero_section",
)

# The documented tolerance of each check; a report may tighten it, never loosen it.
TOLERANCES = {
    "adaptedness": 1e-5,
    "involution": 1e-7,
    "kahler_potential": 1e-6,
    "nijenhuis": 1e-4,
    "scaling": 1e-8,
    "theta_sigma": 1e-8,
    "zero_section": 1e-9,
}

# Residuals per sampled point: theta_sigma shifts by 4 times, scaling tries 2
# factors at 2 times, zero_section flows to 3 times.
RECORDS_PER_POINT = {
    "involution": 1,
    "kahler_potential": 1,
    "nijenhuis": 1,
    "scaling": 4,
    "theta_sigma": 4,
    "zero_section": 3,
}
# Adaptedness nodes per strip: 5 sigma rows x 5 tau columns; a sigma row whose
# difference stencil straddles a chart seam is skipped as a whole.
STRIP_ROWS, STRIP_COLUMNS = 5, 5

VERIFY_MODELS = (
    # (tag, model section, rho_min, rho_max) as in configs/sphere.ini and
    # configs/surface_of_revolution.ini
    ("round_sphere", "name = round_sphere\nradius = 1.0", 0.1, 0.5),
    ("surface_of_revolution", "name = surface_of_revolution\nbase = 2.0\namp = 1.0", 0.1, 0.32),
)
VERIFY_SAMPLES = 8
VERIFY_STRIPS = 1

# The tube-radius direction does not come from the workload seed: see README.
TUBE_CONFIG_SEED = 7
TUBE_DIRECTIONS = 1
TUBE_SWEEP_CAP = 2.0
TUBE_RESOLUTION = 1e-3
PADE_POLE_TOL = 1e-6

EXTEND_POINTS = 48
EXTEND_RHO = (0.1, 0.4)
ROUTE_TOL = 1e-8

WORKLOADS = ("verify", "tube_radius", "extend")


@dataclass(frozen=True)
class Job:
    """One subcommand on one generated config.

    ``check`` reads the output file and returns (operations done, problems).
    ``ops`` is what the job attempts, counted as failed if the command breaks.
    """

    tag: str
    command: str
    ini: str
    output: str
    ops: int
    check: Callable


def jobs_for(workload, seed):
    if workload == "verify":
        return [_verify_job(tag, model, lo, hi, seed) for tag, model, lo, hi in VERIFY_MODELS]
    if workload == "tube_radius":
        return [_tube_job()]
    if workload == "extend":
        return [
            _extend_job("flat_torus", "name = flat_torus", "wave", "main", _torus_wave, seed),
            _extend_job("round_sphere", "name = round_sphere\nradius = 1.0", "height", "a",
                        _sphere_height, seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# -- verify -------------------------------------------------------------------


def _verify_job(tag, model, rho_min, rho_max, seed):
    ini = (
        f"[model]\n{model}\n\n"
        f"[checks]\nnames = {', '.join(CHECKS)}\nflow_tol = 1e-12\n\n"
        f"[grids]\nn_samples = {VERIFY_SAMPLES}\nn_strips = {VERIFY_STRIPS}\n"
        f"seed = {seed}\nrho_min = {rho_min}\nrho_max = {rho_max}\n"
    )
    ops = (VERIFY_SAMPLES * sum(RECORDS_PER_POINT.values())
           + VERIFY_STRIPS * STRIP_ROWS * STRIP_COLUMNS)
    return Job(tag, "verify", ini, "verify.jsonl", ops,
               lambda path: _check_verify(tag, path))


def _check_verify(tag, path):
    records = read_records(path)
    problems = []
    names = sorted(r["check"] for r in records)
    if names != sorted(CHECKS):
        problems.append(f"{tag}: report holds checks {names}, expected {sorted(CHECKS)}")
    ops = 0
    for r in records:
        name, n = r["check"], r["n_samples"]
        ops += n
        if not r["max_residual"] <= r["tolerance"] or r["verdict"] != "pass":
            problems.append(f"{tag}: {name} residual {r['max_residual']:.3e} "
                            f"against tolerance {r['tolerance']:.1e} ({r['verdict']})")
        if name in TOLERANCES and not r["tolerance"] <= TOLERANCES[name]:
            problems.append(f"{tag}: {name} tolerance {r['tolerance']:.1e} looser than "
                            f"the documented {TOLERANCES[name]:.1e}")
        if name == "adaptedness":
            ok = 0 < n <= VERIFY_STRIPS * STRIP_ROWS * STRIP_COLUMNS and n % STRIP_COLUMNS == 0
        else:
            ok = n == VERIFY_SAMPLES * RECORDS_PER_POINT.get(name, -1)
        if not ok:
            problems.append(f"{tag}: {name} reports {n} samples, which the configured grid cannot give")
    return ops, problems


# -- tube radius --------------------------------------------------------------


def _tube_job():
    ini = (
        "[model]\nname = round_sphere\nradius = 1.0\n\n"
        f"[grids]\nn_directions = {TUBE_DIRECTIONS}\nsweep_cap = {TUBE_SWEEP_CAP}\n"
        f"resolution = {TUBE_RESOLUTION}\nseed = {TUBE_CONFIG_SEED}\n"
    )
    return Job("round_sphere", "tube-radius", ini, "tube_radius.jsonl", TUBE_DIRECTIONS,
               _check_tube)


def _check_tube(path):
    records = read_records(path)
    if len(records) != 1:
        return 0, [f"tube_radius: expected one record, found {len(records)}"]
    rec = records[0]
    problems = []
    # unit sphere, unit covectors: the spreading matrix (1/rho) tan(rho sigma)
    # has its first pole at sigma = pi/2 in every direction
    pole = math.pi / 2.0
    if not abs(rec["radius_continuation"] - pole) <= TUBE_RESOLUTION:
        problems.append(f"tube_radius: continuation radius {rec['radius_continuation']!r} "
                        f"is not within {TUBE_RESOLUTION} of pi/2")
    pade = rec["pade_nearest_pole"]
    if pade is None or not abs(pade - pole) <= PADE_POLE_TOL:
        problems.append(f"tube_radius: nearest rational pole {pade!r} is not within "
                        f"{PADE_POLE_TOL} of pi/2")
    if rec["monotone"] is not True:
        problems.append("tube_radius: scan reports a non-monotone breakdown")
    if rec["capped"]["continuation"] is not False:
        problems.append("tube_radius: continuation reached the sweep cap without a pole")
    if rec["n_directions"] != TUBE_DIRECTIONS:
        problems.append(f"tube_radius: scanned {rec['n_directions']} directions, "
                        f"expected {TUBE_DIRECTIONS}")
    return rec["n_directions"], problems


# -- extend -------------------------------------------------------------------


def _torus_wave(q, p):
    """exp(i x1) continued to x + i v; the flat metric makes v = p."""
    return cmath.exp(1j * complex(q[0], p[0]))


def _sphere_height(q, p):
    """cos(theta) on the unit sphere continued along the imaginary exponential map.

    With v = g^-1 p and rho = |v|, exp(i v) lands on cosh(rho) P + i sinh(rho)/rho V
    in 3-space; its height is cos(theta) cosh(rho) - i sin(theta) v_theta sinh(rho)/rho.
    """
    theta = q[0]
    s = math.sin(theta)
    v_theta, v_phi = p[0], p[1] / (s * s)
    rho = math.hypot(v_theta, s * v_phi)
    return complex(math.cos(theta) * math.cosh(rho), -s * v_theta * math.sinh(rho) / rho)


def _extend_job(model_name, model, function, chart, closed_form, seed):
    ini = (
        f"[model]\n{model}\n\n"
        f"[grids]\nn_points = {EXTEND_POINTS}\nseed = {seed}\n"
        f"rho_min = {EXTEND_RHO[0]}\nrho_max = {EXTEND_RHO[1]}\nfunction = {function}\n"
    )
    return Job(model_name, "extend", ini, "extend.csv", EXTEND_POINTS,
               lambda path: _check_extend(model_name, chart, closed_form, path))


def _check_extend(tag, chart, closed_form, path):
    rows = read_table(path)
    problems = []
    if len(rows) != EXTEND_POINTS:
        problems.append(f"{tag}: {len(rows)} extension rows, expected {EXTEND_POINTS}")
    for k, row in enumerate(rows):
        if row["chart"] != chart:
            problems.append(f"{tag} row {k}: chart {row['chart']!r}, expected {chart!r}")
            continue
        q = [float(row["q0"]), float(row["q1"])]
        p = [float(row["p0"]), float(row["p1"])]
        want = closed_form(q, p)
        for route in ("series", "flow", "exp_map"):
            re, im = row[f"{route}_re"], row[f"{route}_im"]
            got = complex(float(re), float(im)) if re and im else None
            if got is None or not abs(got - want) <= ROUTE_TOL:
                problems.append(f"{tag} row {k}: {route} route gives {got!r}, "
                                f"closed form {want!r}")
        if not float(row["max_pairwise_dev"]) <= ROUTE_TOL:
            problems.append(f"{tag} row {k}: routes disagree by {row['max_pairwise_dev']}")
    return len(rows), problems


# -- output readers -------------------------------------------------------------


def read_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip() and not line.startswith("#")]


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))

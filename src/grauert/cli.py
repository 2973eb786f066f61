"""Command-line driver: flows, structure tensors, extensions, verification.

Configuration is an INI file; every key is validated and unknown keys are
rejected so a typo cannot silently fall back to a default. The schema:

[model]   name (catalog entry), plus that entry's parameters verbatim
          (dim, radius, base, amp, periods as a comma list).
[checks]  names (comma list of battery checks, empty for none), flow_tol,
          tol_<check> overrides, dbar_sign (demonstration knob, see
          configs/broken_sign.ini).
[grids]   n_samples, n_strips, seed, rho_min, rho_max, n_directions,
          sweep_cap, resolution, n_points, rows, q0, p0 (comma lists),
          chart, function (auto | wave | height | const).
[paths]   sigma (complex, e.g. 1j) or waypoints (comma list of complex
          corners for a multi-leg time path).
[output]  dir.

Flags override the config (--model, --seed, --tol, --out). Outputs are CSV
tables for trajectories and grids, and line-delimited JSON records for
reports; every file starts with a '#' header block carrying the toolkit
version, a hash of the effective configuration, and the model parameters, so
identical config and seed give byte-identical files.

Exit codes: 0 success, 1 a verification check failed, 2 numerical breakdown
(a singularity; the last good time is written to a sidecar record), 3
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import catalog
from .errors import (
    ChartDomainError,
    ConfigError,
    GrauertError,
    InvalidParamsError,
    SingularityError,
    UnknownModelError,
)
from .extend import crosscheck, sphere_ambient, torus_trig
from .flow import PhasePoint, SigmaPath, flow
from .geometry import energy, metric_matrix
from .lagrangian import (
    distribution_at,
    j_tensor_from_frame,
    positivity_check,
    symplectic_form_matrix,
)
from .verify import (
    CHECK_NAMES,
    _plain,
    estimate_tube_radius,
    run_battery,
    sample_tube_points,
)

_SECTIONS = ("model", "checks", "grids", "paths", "output")
_CHECK_KEYS = {"names", "dbar_sign", "flow_tol"} | {f"tol_{n}" for n in CHECK_NAMES}
_GRID_KEYS = {
    "n_samples", "n_strips", "seed", "rho_min", "rho_max", "n_directions",
    "sweep_cap", "resolution", "n_points", "rows", "q0", "p0", "chart",
    "function",
}
_PATH_KEYS = {"sigma", "waypoints"}
_OUTPUT_KEYS = {"dir"}


@dataclass
class RunConfig:
    model_name: str = "flat_space"
    model_params: dict = field(default_factory=dict)
    checks: tuple = CHECK_NAMES
    dbar_sign: float = 1.0
    flow_tol: float = 1e-12
    tolerances: dict = field(default_factory=dict)
    n_samples: int = 20
    n_strips: int = 2
    seed: int = 0
    rho_min: float | None = None
    rho_max: float | None = None
    n_directions: int = 20
    sweep_cap: float = 3.0
    resolution: float = 1e-3
    n_points: int = 8
    rows: int = 33
    q0: tuple | None = None
    p0: tuple | None = None
    chart: str | None = None
    function: str = "auto"
    sigma: complex = 1j
    waypoints: tuple | None = None
    out_dir: str = "out"

    def build_model(self):
        try:
            return catalog(self.model_name, **self.model_params)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad model parameters: {e}") from e

    def hash(self):
        """Stable digest of everything that shapes output content.

        The output directory is excluded on purpose: the same run sent to a
        different place must still be byte-identical.
        """
        items = []
        for key, val in sorted(vars(self).items()):
            if key == "out_dir":
                continue
            items.append(f"{key}={val!r}")
        return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _parse_scalar(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_floats(text, what):
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{what} must be a list of numbers, got {text!r}")


def _parse_complex(text, what):
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{what} must be a complex number, got {text!r}")


def _number(text, what, kind=float):
    try:
        return kind(text)
    except ValueError:
        kind_name = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {kind_name}, got {text!r}")


def _positive(value, what):
    if not value > 0:
        raise ConfigError(f"{what} must be positive, got {value}")
    return value


def load_config(path=None):
    """Read an INI file into a RunConfig; None gives the built-in defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")

    if parser.has_section("model"):
        for key, val in parser.items("model"):
            if key == "name":
                cfg.model_name = val.strip()
            else:
                if key == "periods":
                    cfg.model_params[key] = _parse_floats(val, "periods")
                else:
                    cfg.model_params[key] = _parse_scalar(val)

    if parser.has_section("checks"):
        for key, val in parser.items("checks"):
            if key not in _CHECK_KEYS:
                raise ConfigError(f"unknown key {key!r} in [checks]")
            if key == "names":
                names = tuple(t.strip() for t in val.split(",") if t.strip())
                unknown = set(names) - set(CHECK_NAMES)
                if unknown:
                    raise ConfigError(f"unknown checks: {sorted(unknown)}")
                cfg.checks = names
            elif key == "dbar_sign":
                cfg.dbar_sign = _number(val, key)
            elif key == "flow_tol":
                cfg.flow_tol = _positive(_number(val, key), key)
            else:
                cfg.tolerances[key[4:]] = _positive(_number(val, key), key)

    if parser.has_section("grids"):
        for key, val in parser.items("grids"):
            if key not in _GRID_KEYS:
                raise ConfigError(f"unknown key {key!r} in [grids]")
            if key in ("q0", "p0"):
                setattr(cfg, key, _parse_floats(val, key))
            elif key == "chart":
                cfg.chart = val.strip()
            elif key == "function":
                cfg.function = val.strip()
            elif key in ("rho_min", "rho_max"):
                setattr(cfg, key, _number(val, key))
            elif key in ("sweep_cap", "resolution"):
                setattr(cfg, key, _positive(_number(val, key), key))
            else:
                iv = _number(val, key, int)
                if iv < 0 or (iv == 0 and key != "seed"):
                    raise ConfigError(f"{key} must be positive, got {iv}")
                setattr(cfg, key, iv)

    if parser.has_section("paths"):
        for key, val in parser.items("paths"):
            if key not in _PATH_KEYS:
                raise ConfigError(f"unknown key {key!r} in [paths]")
            if key == "sigma":
                cfg.sigma = _parse_complex(val, "sigma")
            else:
                cfg.waypoints = tuple(
                    _parse_complex(tok, "waypoint") for tok in val.split(",") if tok.strip()
                )

    if parser.has_section("output"):
        for key, val in parser.items("output"):
            if key not in _OUTPUT_KEYS:
                raise ConfigError(f"unknown key {key!r} in [output]")
            cfg.out_dir = val.strip()
    return cfg


# -- output plumbing ----------------------------------------------------------


def _header(cfg, model):
    params = json.dumps({k: _plain(v) for k, v in sorted(model.params.items())})
    return [
        f"# toolkit_version: {__version__}",
        f"# config_hash: {cfg.hash()}",
        f"# model: {model.name}",
        f"# params: {params}",
    ]


def _fmt(x):
    return repr(float(x))


def write_csv(path, header_lines, fieldnames, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(line + "\r\n")
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow(row)


def write_records(path, header_lines, records):
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _start_point(cfg, model):
    cid = cfg.chart or model.default_chart
    if cid not in model.charts:
        raise ConfigError(f"unknown chart {cid!r}; {model.name} has {sorted(model.charts)}")
    ch = model.chart(cid)
    if cfg.q0 is not None:
        q = np.array(cfg.q0, dtype=float)
    else:
        q = 0.5 * (ch.lo + ch.hi)
    if len(q) != model.dim:
        raise ConfigError(f"q0 needs {model.dim} components")
    try:
        model.require_inside(cid, q)
    except ChartDomainError as e:
        raise ConfigError(f"q0 is not a point of the model: {e}") from e
    if cfg.p0 is not None:
        p = np.array(cfg.p0, dtype=float)
        if len(p) != model.dim:
            raise ConfigError(f"p0 needs {model.dim} components")
    else:
        g = metric_matrix(model, cid, q.astype(complex)).real
        v = np.zeros(model.dim)
        v[0] = 1.0 / np.sqrt(g[0, 0])
        p = g @ v
    return PhasePoint(cid, q, p)


def _flow_path(cfg):
    if cfg.waypoints:
        return SigmaPath.via(*cfg.waypoints)
    return SigmaPath.straight(cfg.sigma)


# -- subcommands --------------------------------------------------------------


def cmd_flow(cfg, out):
    model = cfg.build_model()
    z = _start_point(cfg, model)
    path = _flow_path(cfg)
    head = _header(cfg, model)
    n = model.dim
    names = ["sigma_re", "sigma_im"]
    for tag in ("q", "p"):
        for i in range(n):
            names += [f"{tag}{i}_re", f"{tag}{i}_im"]
    names += ["E_re", "E_im"]
    try:
        res = flow(model, z, path=path, dense=True, tol=cfg.flow_tol)
    except SingularityError as e:
        sidecar = {
            "error": "singularity",
            "reason": e.reason,
            "message": str(e),
            "last_good_sigma_re": float(np.real(e.last_good_sigma or 0)),
            "last_good_sigma_im": float(np.imag(e.last_good_sigma or 0)),
        }
        write_records(out / "flow_breakdown.jsonl", head, [sidecar])
        print(f"flow breakdown: {e}", file=sys.stderr)
        return 2
    if res.segments:
        nodes = res.sample(max(cfg.rows, 2))
    else:
        nodes = [(0.0 + 0.0j, z)]  # zero-length path: the single starting row
    rows = []
    for s, pt in nodes:
        E = complex(energy(model, pt.chart_id, pt.q, pt.p, check_domain=False))
        row = [_fmt(np.real(s)), _fmt(np.imag(s))]
        for vec in (pt.q, pt.p):
            for i in range(n):
                row += [_fmt(vec[i].real), _fmt(vec[i].imag)]
        row += [_fmt(E.real), _fmt(E.imag)]
        rows.append(row)
    write_csv(out / "flow.csv", head, names, rows)
    return 0


def cmd_jtensor(cfg, out):
    model = cfg.build_model()
    rho = (cfg.rho_min or 0.1, cfg.rho_max or 0.5)
    pts = sample_tube_points(model, cfg.n_points, cfg.seed, *rho)
    n = model.dim
    names = ["chart"]
    for i in range(n):
        names.append(f"q{i}")
    for i in range(n):
        names.append(f"p{i}")
    for a in range(2 * n):
        for b in range(2 * n):
            names.append(f"j{a}{b}")
    for a in range(2 * n):
        for b in range(2 * n):
            names.append(f"metric{a}{b}")
    names += ["pos_min_eig", "j_imag_max"]
    Om = symplectic_form_matrix(n).real
    rows = []
    for z in pts:
        fr = distribution_at(model, z, 1j, tol=cfg.flow_tol)
        J = j_tensor_from_frame(fr)
        min_eig, _ = positivity_check(fr)
        G = Om @ J.real
        row = [z.chart_id]
        row += [_fmt(z.q[i].real) for i in range(n)]
        row += [_fmt(z.p[i].real) for i in range(n)]
        row += [_fmt(x) for x in J.real.ravel()]
        row += [_fmt(x) for x in G.ravel()]
        row += [_fmt(min_eig), _fmt(float(np.max(np.abs(J.imag))))]
        rows.append(row)
    write_csv(out / "jtensor.csv", _header(cfg, model), names, rows)
    return 0


def _base_function(cfg, model):
    name = cfg.function
    if name == "auto":
        name = "height" if model.name == "round_sphere" else "wave"
    if name == "wave":
        k = tuple([1] + [0] * (model.dim - 1))
        return torus_trig("wave", {k: 1.0})
    if name == "height":
        if model.name != "round_sphere":
            raise ConfigError("function 'height' needs the round_sphere model")
        return sphere_ambient(model, "height", np.array([0.0, 0.0, 1.0]))
    if name == "const":
        if model.name == "round_sphere":
            return sphere_ambient(model, "const", np.zeros(3), offset=2.5)
        return torus_trig("const", {(0,) * model.dim: 2.5})
    raise ConfigError(f"unknown function {name!r} "
                      "(expected auto, wave, height, const)")


def cmd_extend(cfg, out):
    model = cfg.build_model()
    f = _base_function(cfg, model)
    rho = (cfg.rho_min or 0.1, cfg.rho_max or 0.4)
    pts = sample_tube_points(model, cfg.n_points, cfg.seed, *rho)
    n = model.dim
    names = ["chart"]
    for i in range(n):
        names.append(f"q{i}")
    for i in range(n):
        names.append(f"p{i}")
    methods = ("series", "flow", "exp_map")
    for m in methods:
        names += [f"{m}_re", f"{m}_im"]
    names += ["max_pairwise_dev"]
    rows = []
    for z in pts:
        rep = crosscheck(model, f, z, tol=cfg.flow_tol)
        row = [z.chart_id]
        row += [_fmt(z.q[i].real) for i in range(n)]
        row += [_fmt(z.p[i].real) for i in range(n)]
        for m in methods:
            if m in rep["values"]:
                row += [_fmt(rep["values"][m].real), _fmt(rep["values"][m].imag)]
            else:
                row += ["", ""]
        row.append(_fmt(rep["max_deviation"]))
        rows.append(row)
    write_csv(out / "extend.csv", _header(cfg, model), names, rows)
    return 0


def cmd_verify(cfg, out):
    model = cfg.build_model()
    rho = None
    if cfg.rho_min is not None and cfg.rho_max is not None:
        rho = (cfg.rho_min, cfg.rho_max)
    reports = run_battery(
        model,
        checks=cfg.checks,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
        flow_tol=cfg.flow_tol,
        rho_range=rho,
        n_strips=cfg.n_strips,
        tolerances=cfg.tolerances,
        dbar_sign=cfg.dbar_sign,
    )
    write_records(out / "verify.jsonl", _header(cfg, model),
                  [r.to_record() for r in reports])
    failed = [r for r in reports if r.verdict != "pass"]
    for r in reports:
        print(f"{r.check}: {r.verdict} (max residual {r.max_residual:.3e}, "
              f"tolerance {r.tolerance:.1e}, {r.n_samples} samples)")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_tube_radius(cfg, out):
    model = cfg.build_model()
    est = estimate_tube_radius(
        model,
        n_directions=cfg.n_directions,
        seed=cfg.seed,
        sweep_cap=cfg.sweep_cap,
        resolution=cfg.resolution,
        flow_tol=cfg.flow_tol,
    )
    rec = est.to_record()
    rec["no_breakdown"] = all(est.capped.values())
    write_records(out / "tube_radius.jsonl", _header(cfg, model), [rec])
    print(f"continuation {est.radius_continuation:.4f}  "
          f"transversality {est.radius_transversality:.4f}  "
          f"positivity {est.radius_positivity:.4f}"
          + ("  (no breakdown below sweep cap)" if rec["no_breakdown"] else ""))
    return 0


_COMMANDS = {
    "flow": cmd_flow,
    "jtensor": cmd_jtensor,
    "extend": cmd_extend,
    "verify": cmd_verify,
    "tube-radius": cmd_tube_radius,
}


class _Parser(argparse.ArgumentParser):
    # usage mistakes are configuration errors, not numerical breakdowns
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    ap = _Parser(
        prog="grauert",
        description="numerical toolkit for adapted complex structures on tubes",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", help="INI configuration file")
    ap.add_argument("--out", help="output directory (overrides config)")
    ap.add_argument("--seed", type=int, help="sampling seed (overrides config)")
    ap.add_argument("--model", help="model name (overrides config)")
    ap.add_argument("--tol", type=float, help="flow tolerance (overrides config)")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.model:
            cfg.model_name = args.model
            cfg.model_params = {}
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be non-negative")
            cfg.seed = args.seed
        if args.tol is not None:
            cfg.flow_tol = _positive(args.tol, "tol")
        if args.out:
            cfg.out_dir = args.out
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except (ConfigError, UnknownModelError, InvalidParamsError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except SingularityError as e:
        print(f"numerical breakdown: {e}", file=sys.stderr)
        return 2
    except GrauertError as e:
        print(f"numerical breakdown: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

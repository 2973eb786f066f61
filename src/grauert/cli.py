"""Command-line driver: flows, structure tensors, extensions, verification.

Configuration is an INI file; one table, ``_SCHEMA``, parses and checks
every key, and unknown keys are rejected so a typo cannot silently fall back
to a default. The schema:

[model]   name (catalog entry), plus that entry's parameters verbatim
          (dim, radius, base, amp, periods as a comma list).
[checks]  names (comma list of battery checks, empty for none), flow_tol
          and tol_<check> overrides (positive), dbar_sign (demonstration
          knob, see configs/broken_sign.ini).
[grids]   n_samples, n_strips, n_directions, n_points, rows (positive
          counts), seed (non-negative), rho_min, rho_max (verify takes both
          or neither), sweep_cap, resolution (positive), q0, p0 (comma
          lists), chart, function (auto | wave | height | const).
[paths]   sigma (complex, e.g. 1j) or waypoints (comma list of complex
          corners for a multi-leg time path).
[output]  dir.

Flags override the config. --model replaces the model and its parameters;
--seed, --tol and --out are checked exactly as the keys they override
(seed, flow_tol, dir), by the same table entry. Outputs are CSV
tables for trajectories and grids, and line-delimited JSON records for
reports; every file starts with a '#' header block carrying the toolkit
version, a hash of the effective configuration, and the model parameters, so
identical config and seed give byte-identical files.

Exit codes: 0 success, 1 a verification check failed, 2 numerical breakdown
(a singularity; ``flow`` also writes its last good time to a sidecar record,
flow_breakdown.jsonl), 3 configuration error (including a number that is
nan or infinite, an output directory that cannot be created, a sweep_cap
above 500, whose scan would read a frame every 0.05 out to it, a model
scale whose square is zero or infinite, and a start point whose energy is
not finite), 4 internal error (an exception the toolkit does not diagnose;
reported on one line of stderr).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
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
    FrameRays,
    j_tensor_from_frame,
    positivity_check,
    symplectic_form_matrix,
)
from .verify import (
    CHECK_NAMES,
    MAX_SWEEP_CAP,
    _plain,
    estimate_tube_radius,
    run_battery,
    sample_tube_points,
)


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


# -- configuration schema -----------------------------------------------------
# A parser takes a value's text and its key, and returns the value or raises a
# ConfigError that names the key.


def _finite(value, what):
    """value, unless it is nan or infinite (a ConfigError)."""
    if not abs(value) < math.inf:
        raise ConfigError(f"{what} must be finite, got {value}")
    return value


def _number(text, what, kind=float, sign=None):
    """text as a finite kind; sign "positive" or "non-negative" also bounds it below."""
    try:
        value = kind(text)
    except ValueError:
        kind_name = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {kind_name}, got {text!r}")
    _finite(value, what)
    if sign and not (value > 0 or sign == "non-negative" and value == 0):
        raise ConfigError(f"{what} must be {sign}, got {value}")
    return value


_positive = partial(_number, sign="positive")
_count = partial(_number, kind=int, sign="positive")
_non_negative_int = partial(_number, kind=int, sign="non-negative")


def _text(text, what):
    return text.strip()


def _parse_scalar(text, what):
    """A free-form model parameter: an int, else a float, else the text."""
    text = text.strip()
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse_floats(text, what):
    try:
        values = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"{what} must be a list of numbers, got {text!r}")
    return tuple(_finite(value, what) for value in values)


def _parse_complex(text, what):
    try:
        value = complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{what} must be a complex number, got {text!r}")
    return _finite(value, what)


def _parse_complexes(text, what):
    # a bad entry is named by the key's singular, e.g. "waypoint"
    return tuple(_parse_complex(tok, what.rstrip("s")) for tok in text.split(",") if tok.strip())


def _check_names(text, what):
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    unknown = set(names) - set(CHECK_NAMES)
    if unknown:
        raise ConfigError(f"unknown checks: {sorted(unknown)}")
    return names


# section -> key -> (RunConfig field, parser). A field "d.k" sets item k of the
# dict field d; the "*" key of [model] takes every other key, as a parameter
# of the catalog entry under its own name.
_SCHEMA = {
    "model": {
        "name": ("model_name", _text),
        "periods": ("model_params.periods", _parse_floats),
        "*": ("model_params.*", _parse_scalar),
    },
    "checks": {
        "names": ("checks", _check_names),
        "dbar_sign": ("dbar_sign", _number),
        "flow_tol": ("flow_tol", _positive),
        **{f"tol_{n}": (f"tolerances.{n}", _positive) for n in CHECK_NAMES},
    },
    "grids": {
        **{key: (key, _count)
           for key in ("n_samples", "n_strips", "n_directions", "n_points", "rows")},
        "seed": ("seed", _non_negative_int),
        **{key: (key, _number) for key in ("rho_min", "rho_max")},
        **{key: (key, _positive) for key in ("sweep_cap", "resolution")},
        **{key: (key, _parse_floats) for key in ("q0", "p0")},
        **{key: (key, _text) for key in ("chart", "function")},
    },
    "paths": {"sigma": ("sigma", _parse_complex), "waypoints": ("waypoints", _parse_complexes)},
    "output": {"dir": ("out_dir", _text)},
}


def _assign(cfg, section, key, text):
    """Parse one value by its table entry and store it in cfg."""
    keys = _SCHEMA[section]
    if key not in keys and "*" not in keys:
        raise ConfigError(f"unknown key {key!r} in [{section}]")
    target, parse = keys.get(key, keys.get("*"))
    attr, _, item = target.replace("*", key).partition(".")
    if item:
        getattr(cfg, attr)[item] = parse(text, key)
    else:
        setattr(cfg, attr, parse(text, key))


def _override(cfg, attr, text):
    """Set a field from a flag through the table entry of the key that sets it."""
    section, key = next((section, key) for section, keys in _SCHEMA.items()
                        for key, (target, _) in keys.items() if target == attr)
    _assign(cfg, section, key, text)


def load_config(path=None):
    """Read an INI file into a RunConfig; None gives the built-in defaults."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as e:
        raise ConfigError(" ".join(f"cannot parse config file: {e}".split())) from e
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
    for section in _SCHEMA:
        if parser.has_section(section):
            for key, text in parser.items(section):
                _assign(cfg, section, key, text)
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
    with np.errstate(all="ignore"):
        if not np.isfinite(energy(model, cid, q, p)):
            raise ConfigError("the start point's energy is not finite")
    return PhasePoint(cid, q, p)


# -- subcommands --------------------------------------------------------------


def cmd_flow(cfg, out):
    model = cfg.build_model()
    z = _start_point(cfg, model)
    path = SigmaPath.via(*cfg.waypoints) if cfg.waypoints else SigmaPath.straight(cfg.sigma)
    head = _header(cfg, model)
    n = model.dim
    names = ["sigma_re", "sigma_im"]
    for tag in ("q", "p"):
        for i in range(n):
            names += [f"{tag}{i}_re", f"{tag}{i}_im"]
    names += ["E_re", "E_im"]
    try:
        res = flow(model, z, path=path, tol=cfg.flow_tol)
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
        E = complex(energy(model, pt.chart_id, pt.q, pt.p))
        row = [_fmt(np.real(s)), _fmt(np.imag(s))]
        for vec in (pt.q, pt.p):
            for i in range(n):
                row += [_fmt(vec[i].real), _fmt(vec[i].imag)]
        row += [_fmt(E.real), _fmt(E.imag)]
        rows.append(row)
    write_csv(out / "flow.csv", head, names, rows)
    return 0


def _tube_sample(cfg, model, rho_max):
    """The point cloud of jtensor and extend, its leading CSV columns, and each point's cells."""
    rho = (0.1 if cfg.rho_min is None else cfg.rho_min,
           rho_max if cfg.rho_max is None else cfg.rho_max)
    pts = sample_tube_points(model, cfg.n_points, cfg.seed, *rho)
    names = ["chart", *(f"q{i}" for i in range(model.dim)), *(f"p{i}" for i in range(model.dim))]
    rows = [[z.chart_id, *map(_fmt, z.q.real), *map(_fmt, z.p.real)] for z in pts]
    return pts, names, rows


def cmd_jtensor(cfg, out):
    model = cfg.build_model()
    pts, names, rows = _tube_sample(cfg, model, 0.5)
    entries = [f"{a}{b}" for a in range(2 * model.dim) for b in range(2 * model.dim)]
    names += [f"j{ab}" for ab in entries] + [f"metric{ab}" for ab in entries]
    names += ["pos_min_eig", "j_imag_max"]
    Om = symplectic_form_matrix(model.dim).real
    frames = FrameRays(model, pts, [1j], tol=cfg.flow_tol)
    for k, row in enumerate(rows):
        F = frames.at(1j, k)
        J = j_tensor_from_frame(F)
        min_eig, _ = positivity_check(F)
        row += [_fmt(x) for x in J.real.ravel()]
        row += [_fmt(x) for x in (Om @ J.real).ravel()]
        row += [_fmt(min_eig), _fmt(float(np.max(np.abs(J.imag))))]
    write_csv(out / "jtensor.csv", _header(cfg, model), names, rows)
    return 0


def _base_function(cfg, model):
    name = cfg.function
    if name == "auto":
        name = "height" if model.name == "round_sphere" else "wave"
    if name == "wave":
        if "main" not in model.charts:
            raise ConfigError(f"function 'wave' needs a model with a 'main' chart; "
                              f"{model.name} has {sorted(model.charts)}")
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
    pts, names, rows = _tube_sample(cfg, model, 0.4)
    methods = ("series", "flow", "exp_map")
    names += [f"{m}_{part}" for m in methods for part in ("re", "im")]
    names += ["max_pairwise_dev"]
    for row, rep in zip(rows, crosscheck(model, f, pts, tol=cfg.flow_tol)):
        for m in methods:
            if m in rep["values"]:
                row += [_fmt(rep["values"][m].real), _fmt(rep["values"][m].imag)]
            else:
                row += ["", ""]
        row.append(_fmt(rep["max_deviation"]))
    write_csv(out / "extend.csv", _header(cfg, model), names, rows)
    return 0


def cmd_verify(cfg, out):
    if (cfg.rho_min is None) != (cfg.rho_max is None):
        # the battery's default momentum range is per model, so a lone bound
        # has no other end to pair with
        raise ConfigError("verify needs both rho_min and rho_max, or neither")
    model = cfg.build_model()
    rho = None if cfg.rho_min is None else (cfg.rho_min, cfg.rho_max)
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
    if not cfg.resolution < cfg.sweep_cap:
        # the bisections resolve each radius to within resolution, inside the cap
        raise ConfigError("tube-radius needs resolution < sweep_cap")
    if cfg.sweep_cap > MAX_SWEEP_CAP:
        # the scan reads a frame every verify.RADIUS_SCAN_STEP out to the cap
        raise ConfigError(f"sweep_cap must be at most {MAX_SWEEP_CAP:g}, got {cfg.sweep_cap:g}")
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
    ap.add_argument("--seed", help="sampling seed (overrides config)")
    ap.add_argument("--model", help="model name (overrides config)")
    ap.add_argument("--tol", help="flow tolerance (overrides config)")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.model:
            cfg.model_name = args.model
            cfg.model_params = {}
        for attr, text in (("seed", args.seed), ("flow_tol", args.tol), ("out_dir", args.out)):
            if text is not None:
                _override(cfg, attr, text)
        out = Path(cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory {cfg.out_dir!r}: {e.strerror}")
        return _COMMANDS[args.command](cfg, out)
    except (ConfigError, UnknownModelError, InvalidParamsError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 3
    except GrauertError as e:
        print(f"numerical breakdown: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a defect, not a verdict: one line, and never exit 1
        print(" ".join(f"internal error: {type(e).__name__}: {e}".split()), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

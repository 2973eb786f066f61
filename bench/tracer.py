"""Outside-in tracer for the traced run.

The tracer wraps public functions of the grauert modules from the outside and
puts each wrapper in place of the original in every grauert module that holds
it, because the modules import each other's functions by name (``from .flow
import flow``). A wrapper either records a span or only counts calls: the jet
arithmetic, the metric evaluators, the field evaluation and ``eval_poly`` run
up to a million times per pass and are counted, not spanned.

A span is (name, parent index, start, end, result, error), held in memory.
Flow counts come from the ``FlowDiagnostics`` each ``flow()`` returns. A
function a later version of the program no longer has is skipped and listed
in ``missing``; its metrics then read 0.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

from workloads import CHECKS

CHECK_FUNCTIONS = {c: f"check_{c}" for c in CHECKS}
CHECK_FUNCTIONS["theta_sigma"] = "check_theta_sigma_identity"

SPANNED = {
    "cli": ("main", "write_csv", "write_records"),
    "verify": ("run_battery", "sample_tube_points", "estimate_tube_radius",
               *CHECK_FUNCTIONS.values()),
    "extend": ("crosscheck", "extend_by_series", "extend_by_flow", "extend_by_exp"),
    "jacobi": (
        "frame_vertical_det",
        "f_samples",
        "first_f_singularity",
        "continue_f_to_i",
        "pade_fit",
        "pade_eval",
        "pade_poles",
        "f_by_jacobi_transport",
        "j_tensor_from_f",
    ),
    "lagrangian": (
        "distribution_at",
        "f_matrix_from_frame",
        "j_tensor_from_frame",
        "positivity_check",
        "orthonormal_tangent_basis",
        "lifted_frames",
        "principal_angles",
    ),
    "flow": ("flow",),
}

COUNTED_FUNCTIONS = {
    ("flow", "hamiltonian_vector_field"): "flow.field_evals",
    ("jets", "eval_poly"): "jets.eval_poly_calls",
}

_SERIES_FNS = ("sin", "cos", "exp", "log", "sqrt", "arccos", "reciprocal")
COUNTED_METHODS = {
    ("jets", "Jet"): {"__mul__": "jets.mul_calls", "__rmul__": "jets.mul_calls",
                      **{m: "jets.series_fn_calls" for m in _SERIES_FNS}},
    # metric, inverse metric, their derivatives, curvature, chart transitions;
    # a Christoffel evaluation is one ginv and one dg call
    ("geometry", "MetricModel"): {m: "geometry.calls" for m in (
        "g", "ginv", "dg", "dginv", "gauss_curvature", "transition_coords")},
}

# span name -> the verify metric its flows are charged to
_FLOW_OWNERS = {f"verify.{fn}": check for check, fn in CHECK_FUNCTIONS.items()}
_FLOW_OWNERS["verify.estimate_tube_radius"] = "radius"
_DEGENERATE = {"TransversalityError", "DegenerateFrameError", "PositivityError"}


def _flow_result(out, args, kwargs):
    d = out.diagnostics
    return (d.steps, d.transitions, float(d.energy_drift), out.jacobian is not None)


def _file_size(out, args, kwargs):
    return os.path.getsize(args[0])


# what a span keeps of a function's return value
_RESULTS = {
    "flow.flow": _flow_result,
    "cli.write_csv": _file_size,
    "cli.write_records": _file_size,
    "jacobi.f_samples": lambda out, args, kwargs: len(out),
    "extend.extend_by_series": lambda out, args, kwargs: out.terms_used or 0,
    "verify.estimate_tube_radius": lambda out, args, kwargs: out.n_directions,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- installing -----------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "grauert" or name.startswith("grauert."))]
        for layer, names in SPANNED.items():
            for fname in names:
                orig = self._lookup(layer, fname)
                if orig is not None:
                    self._replace(modules, orig, self._span(f"{layer}.{fname}", orig))
        for (layer, fname), key in COUNTED_FUNCTIONS.items():
            orig = self._lookup(layer, fname)
            if orig is not None:
                self._replace(modules, orig, self._counter(key, orig))
        for (layer, cname), methods in COUNTED_METHODS.items():
            cls = self._lookup(layer, cname)
            for attr, key in methods.items():
                orig = cls.__dict__.get(attr) if cls is not None else None
                if orig is None:
                    self.missing.append(f"{layer}.{cname}.{attr}")
                    continue
                setattr(cls, attr, self._counter(key, orig))
                self._patches.append((cls, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _lookup(self, layer, name):
        obj = getattr(sys.modules.get(f"grauert.{layer}"), name, None)
        if obj is None:
            self.missing.append(f"{layer}.{name}")
        return obj

    def _replace(self, modules, orig, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, orig))

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = _RESULTS.get(name)

        def spanned(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                # an exception passes through every enclosing span; only the
                # innermost one marks it first
                first = not getattr(exc, "_bench_seen", False)
                try:
                    exc._bench_seen = True
                except AttributeError:
                    pass
                rec[5] = (type(exc).__name__, first)
                raise
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if keep is not None:
                rec[4] = keep(out, args, kwargs)
            return out

        return spanned

    # -- reading --------------------------------------------------------------

    def write_spans(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, result, error) in enumerate(self.spans):
                rec = {"id": i, "parent": parent, "name": name,
                       "start": t0 - origin, "end": t1 - origin}
                if error is not None:
                    rec["error"] = error[0]
                fh.write(json.dumps(rec) + "\n")

    def metrics(self):
        """Per-layer metrics of the spans and counts since the last reset."""
        spans, counts = self.spans, self.counts
        n = len(spans)
        layer = [s[0].split(".", 1)[0] for s in spans]
        covered = [0.0] * n  # time covered by direct children
        for name, parent, t0, t1, _, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        busy, self_s, total = Counter(), Counter(), Counter()
        calls = Counter(s[0] for s in spans)
        for i, (name, parent, t0, t1, _, _) in enumerate(spans):
            dur = t1 - t0
            total[name] += dur
            self_s[layer[i]] += dur - covered[i]
            if not any(layer[a] == layer[i] for a in _ancestors(spans, i)):
                busy[layer[i]] += dur

        flows = [i for i in range(n) if spans[i][0] == "flow.flow"]
        done = [i for i in flows if spans[i][4] is not None]
        steps = sum(spans[i][4][0] for i in done)
        done_s = sum(spans[i][3] - spans[i][2] for i in done)
        check_flows, check_steps = Counter(), Counter()
        for i in flows:
            for a in _ancestors(spans, i):
                check = _FLOW_OWNERS.get(spans[a][0])
                if check is not None:
                    check_flows[check] += 1
                    if spans[i][4] is not None:
                        check_steps[check] += spans[i][4][0]
                    break
        directions = sum(s[4] or 0 for s in spans if s[0] == "verify.estimate_tube_radius")
        frames = calls["lagrangian.distribution_at"]
        errors = [s[5] for s in spans if s[5] is not None]

        out = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        put("jets.mul_calls", counts["jets.mul_calls"], "count")
        put("jets.series_fn_calls", counts["jets.series_fn_calls"], "count")
        put("jets.eval_poly_calls", counts["jets.eval_poly_calls"], "count")
        put("geometry.calls", counts["geometry.calls"], "count")
        put("flow.calls", len(flows), "count")
        put("flow.calls_variational", sum(1 for i in done if spans[i][4][3]), "count")
        put("flow.steps", steps, "count")
        put("flow.steps_per_flow", steps / len(done) if done else 0.0, "steps/flow")
        put("flow.field_evals", counts["flow.field_evals"], "count")
        put("flow.transitions", sum(spans[i][4][1] for i in done), "count")
        put("flow.busy_s", busy["flow"], "s")
        put("flow.step_ms", 1e3 * done_s / steps if steps else 0.0, "ms")
        put("flow.breakdowns", sum(1 for i in flows if spans[i][5] is not None
                                   and spans[i][5][0] == "SingularityError"), "count")
        put("flow.max_energy_drift", max((spans[i][4][2] for i in done), default=0.0), "energy")
        put("lagrangian.frames", frames, "count")
        put("lagrangian.frame_ms",
            1e3 * total["lagrangian.distribution_at"] / frames if frames else 0.0, "ms")
        put("lagrangian.self_s", self_s["lagrangian"], "s")
        put("lagrangian.j_tensors", calls["lagrangian.j_tensor_from_frame"], "count")
        put("lagrangian.degenerate", sum(1 for name, first in errors
                                         if first and name in _DEGENERATE), "count")
        put("jacobi.det_evals", calls["jacobi.frame_vertical_det"], "count")
        put("jacobi.f_sample_points",
            sum(s[4] or 0 for s in spans if s[0] == "jacobi.f_samples"), "count")
        put("jacobi.rational_fits", calls["jacobi.pade_fit"], "count")
        put("jacobi.busy_s", busy["jacobi"], "s")
        put("jacobi.self_s", self_s["jacobi"], "s")
        put("extend.series_s", total["extend.extend_by_series"], "s")
        put("extend.flow_s", total["extend.extend_by_flow"], "s")
        put("extend.exp_s", total["extend.extend_by_exp"], "s")
        put("extend.series_terms",
            sum(s[4] or 0 for s in spans if s[0] == "extend.extend_by_series"), "count")
        for check, fn in CHECK_FUNCTIONS.items():
            put(f"verify.{check}.s", total[f"verify.{fn}"], "s")
            put(f"verify.{check}.flows", check_flows[check], "count")
        put("verify.radius.s", total["verify.estimate_tube_radius"], "s")
        put("verify.radius.flows_per_direction",
            check_flows["radius"] / directions if directions else 0.0, "flows/dir")
        put("verify.radius.steps_per_direction",
            check_steps["radius"] / directions if directions else 0.0, "steps/dir")
        put("cli.write_s", total["cli.write_csv"] + total["cli.write_records"], "s")
        put("cli.bytes_written",
            sum(s[4] or 0 for s in spans if s[0] in ("cli.write_csv", "cli.write_records")),
            "bytes")
        return out


def _ancestors(spans, i):
    p = spans[i][1]
    while p >= 0:
        yield p
        p = spans[p][1]

"""Benchmark of the grauert command line: timed runs, traced runs, comparison.

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare OLD.json NEW.json

A timed run (--trace 0) measures set-up in fresh interpreters, then runs whole
passes of the workload's commands through ``grauert.cli.main`` until the time
is up, and reports the end-to-end metrics. A traced run (--trace 1) runs one
untraced pass and two traced passes and reports the per-layer metrics. Every
pass checks its outputs (see workloads.py) and that they are byte-identical to
the first pass. The last line of standard output is the result as JSON; the
full record goes to .bench_work/results/.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, jobs_for  # noqa: E402

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_REPEATS = 3
MIN_PASSES = 2
MAX_RUN_S = 150.0

# Times are reported in reference seconds. The machine this benchmark runs
# on is shared, and its speed drifts by 20% or more within a minute, so while
# a measurement runs a timer interrupts it every PROBE_PERIOD_S to time a
# fixed piece of interpreter and small-array work that does not touch the
# program. The measured time, less the probes' own time, is scaled by the
# mean of REFERENCE_S / (probe time), which removes the drift and nothing
# the program does. REFERENCE_S is the probe's typical time on the machine
# described in the README.
REFERENCE_S = 0.0014
PROBE_PERIOD_S = 0.1


def probe_work():
    t0 = time.perf_counter()
    acc = 0
    for i in range(6_000):
        acc += i * i % 7
    a = np.full((4, 4), 0.1)
    b = np.eye(4) * 0.5
    for _ in range(200):
        a = np.sin(a @ b) + 0.1
    return time.perf_counter() - t0


class SpeedProbe:
    """Times probe_work on a wall-clock timer while the block runs."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # wall time of the block less the probes' own time
        self.own_wall = time.perf_counter() - self._start - sum(self.samples)
        if not self.samples:
            self.samples.append(probe_work())

    def _tick(self, signum, frame):
        self.samples.append(probe_work())

    @property
    def factor(self):
        """Reference seconds per second of the machine as the probes saw it."""
        return statistics.fmean(REFERENCE_S / t for t in self.samples)


SETUP_SCRIPT = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from grauert.cli import load_config
for path in sys.argv[2:]:
    load_config(path).build_model()
print(repr(time.monotonic()))
"""


def measure_setup(config_paths):
    """Seconds from spawning an interpreter until grauert.cli is imported and the models built."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, str(SRC), *map(str, config_paths)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


class Session:
    """Generated configs of one run, and the passes made over them."""

    def __init__(self, workload, seed, workdir, cli_main):
        self.jobs = jobs_for(workload, seed)
        self.workdir = workdir
        self.cli_main = cli_main
        self.configs = []
        for job in self.jobs:
            path = workdir / f"{job.tag}.ini"
            path.write_text(job.ini, encoding="utf-8")
            self.configs.append(path)
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_outputs = None

    def run_pass(self):
        """Run every job once, then check the outputs.

        Returns (reference seconds, wall seconds) of the pass without the checks.
        """
        out = self.workdir / f"pass-{self.passes}"
        self.passes += 1
        codes = []
        with SpeedProbe() as probe, contextlib.redirect_stdout(io.StringIO()):
            for job, config in zip(self.jobs, self.configs):
                try:
                    codes.append(self.cli_main([job.command, "--config", str(config),
                                                "--out", str(out / job.tag)]))
                except Exception:  # the program crashed: count the job as failed, keep going
                    traceback.print_exc()
                    codes.append(None)
        self._check(out, codes)
        shutil.rmtree(out, ignore_errors=True)
        return probe.own_wall * probe.factor, probe.own_wall

    def _check(self, out, codes):
        outputs = {}
        for job, code in zip(self.jobs, codes):
            path = out / job.tag / job.output
            if code not in (0, 1) or not path.is_file():
                # exit 2 is a numerical breakdown, 3 a rejected config
                self.attempted += job.ops
                self.failed += job.ops
                self.problems.append(f"{job.tag}: grauert {job.command} exited with {code}")
                continue
            try:
                ops, problems = job.check(path)
            except (KeyError, TypeError, ValueError) as exc:  # output not in the documented form
                ops, problems = job.ops, [f"{job.tag}: unreadable {job.output}: {exc!r}"]
            self.attempted += ops
            self.problems += problems
            outputs[job.tag] = path.read_bytes()
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            self.problems.append("outputs differ from the first pass with the same configs")

    @property
    def correct(self):
        return not self.problems


def timed_run(session, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        with SpeedProbe() as probe:
            wall = measure_setup(session.configs)
        setups.append((wall * probe.factor, wall))

    passes, ops = [], []
    start = time.perf_counter()
    while True:
        before = session.attempted - session.failed
        passes.append(session.run_pass())
        ops.append(session.attempted - session.failed - before)
        elapsed = time.perf_counter() - start
        typical = statistics.median(wall for _, wall in passes)
        if len(passes) >= MIN_PASSES and (elapsed + typical > seconds or elapsed > MAX_RUN_S):
            break
    metrics = {
        "setup_s": statistics.median(ref for ref, _ in setups),
        "wall_s": statistics.median(ref for ref, _ in passes),
        "ops_per_s": statistics.median(n / ref for n, (ref, _) in zip(ops, passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setups": setups, "passes": passes}
    return {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}, detail


def traced_run(session, spans_path):
    from tracer import Tracer

    passes = [session.run_pass()]
    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        passes.append(session.run_pass())
        first = tracer.metrics()
        tracer.write_spans(spans_path, origin)
        tracer.reset()
        passes.append(session.run_pass())
        second = tracer.metrics()
    finally:
        tracer.uninstall()
    for key, (value, unit) in first.items():
        if unit not in ("s", "ms") and second[key][0] != value:
            session.problems.append(f"trace count {key} changed between traced passes: "
                                    f"{value} then {second[key][0]}")
    metrics = dict(first)
    metrics["src.lines"] = (src_lines(), "lines")
    metrics["trace.overhead_s"] = (passes[1][0] - passes[0][0], "s")
    detail = {"passes": passes, "untraced": tracer.missing}
    return metrics, detail


def src_lines():
    return sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))


def versions():
    import scipy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "machine": platform.machine(),
        "cpu": model,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"{'metric':40} {'unit':>10} {'old':>14} {'new':>14} {'new/old':>9}")
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (new["metrics"].get(name) or old["metrics"][name])["unit"]
        ratio = f"{b / a:9.3f}" if a and b is not None else f"{'-':>9}"
        verdict = ""
        if name in END_TO_END and a and b is not None and b != a:
            verdict = "better" if (b < a) == (END_TO_END[name][1] == "lower") else "worse"
        print(f"{name:40} {unit:>10} {_fmt(a):>14} {_fmt(b):>14} {ratio} {verdict}")
    for side, rec in (("old", old), ("new", new)):
        print(f"{side}: {rec['workload']} seed {rec['seed']}, {rec['attempted']} attempted, "
              f"{rec['failed']} failed, correct {rec['correct']}")


def _fmt(x):
    return "-" if x is None else f"{x:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "grauert" / "cli.py").is_file():
        print(f"no grauert sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import grauert
    from grauert.cli import main as cli_main

    if SRC.resolve() not in Path(grauert.__file__).resolve().parents:
        print(f"imported grauert from {grauert.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        session = Session(args.workload, args.seed, workdir, cli_main)
        if args.trace:
            metrics, detail = traced_run(session, results / f"{stem}-spans.jsonl")
        else:
            metrics, detail = timed_run(session, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "metrics": metrics,
        "src_lines": src_lines(),
        "configs": {job.tag: job.ini for job in session.jobs},
        "detail": detail,
        "versions": versions(),
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in session.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": session.correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

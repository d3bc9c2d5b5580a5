"""Runs one workload in a closed loop and prints its metrics; the entry
point is ``benchmarks/bench.py``, which pins BLAS and puts ``src/`` on the
path before this module imports ltvlab.

End-to-end metrics (``--trace 0``): ``setup_s`` is the median over fresh
processes of ``import ltvlab`` plus parsing the system spec; ``job_s`` the
median time of one job; ``steps_per_s`` the workload's nominal
horizon-steps per job over ``job_s``; ``peak_rss_mb`` the process's peak
resident set.  Times are taken at a reference machine speed
(``speed.py``), because the host's speed drifts by up to 2x; raw wall-time
medians are printed beside them.

Per-layer metrics (``--trace 1``): untraced and traced jobs alternate;
values are per traced job, derived from spans around ltvlab's public
functions (``tracer.py``), plus ``trace.overhead_frac`` (traced over
untraced ``job_s``, minus 1) and the ``check.*`` gate results.  Spans are
saved to ``.bench-spans/`` in the checkout.
"""

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from benchmarks.speed import SpeedProbe
from benchmarks.tracer import ROOT_SPAN, Tracer
from benchmarks.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 11  # fresh processes timed per run, after one untimed warm-up
WORK_PREFIX = ".bench-work-"  # scratch directory in the checkout, removed at exit
SPANS_DIR = ".bench-spans"

END_TO_END = (
    ("setup_s", "s"),
    ("job_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# spans reported as <name>.calls and <name>.self_s
CALL_SPANS = (
    "expressions.eval",
    "system.matrix_at",
    "system.propagate",
    "spectrum.spectrum_estimate",
    "spectrum.incompressibility_test",
    "spectrum.limsup_estimate",
    "spectrum.exponent_profile",
    "splitness.fss_build",
    "splitness.angle_profile",
    "splitness.cos_angle_profile",
    "splitness.splitness_report",
    "splitness.broken_away_scan",
    "splitness.gamma_statistics",
    "linalg.angle_to_subspace",
    "linalg.cosine_to_subspace",
    "linalg.spectral_norm",
    "perturb.calibrate",
    "perturb.solve_mu",
    "perturb.lambda_mu",
    "perturb.build_plan",
    "perturb.perturbation_at",
    "perturb.execute_plan",
    "perturb.openness_experiment",
)
CLI_COMMANDS = ("spectrum", "splitness", "perturb", "assign")
GATE_MEASURES = ("exponent_err", "angle_err", "oracle_residual")

PER_LAYER = (
    *((f"{name}.{key}", unit) for name in CALL_SPANS
      for key, unit in (("calls", "count"), ("self_s", "s"))),
    ("system.matrix_at.evals_per_step", "ratio"),
    ("system.propagate.steps", "count"),
    ("system.parse.calls", "count"),
    ("system.parse.self_s", "s"),
    ("system.parse.bytes", "B"),
    ("spectrum.incompressibility_test.candidates", "count"),
    ("spectrum.incompressibility_test.useful_ratio", "ratio"),
    ("splitness.angle_profile.computed", "count"),
    ("splitness.collapsed_angles", "count"),
    ("linalg.angle_to_subspace.failed", "count"),
    *((f"cli.{command}.wall_s", "s") for command in CLI_COMMANDS),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("job.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("check.failed_frac", "ratio"),
    *((f"check.{measure}", "abs") for measure in GATE_MEASURES),
)


@dataclass
class JobRecord:
    seconds: float  # at the reference machine speed
    wall: float
    traced: bool
    check: object  # workloads.Check
    report_bytes: int
    collapsed_angles: int


def setup_seconds(inputs, workdir):
    """Medians over fresh processes of importing ltvlab and parsing the
    spec: (at the reference speed, wall)."""
    spec_file = Path(workdir) / "spec.txt"
    spec_file.write_text(inputs.spec)
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             str(SRC), str(spec_file)]
    walls, times = [], []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60)
        wall, seconds = map(float, done.stdout.split())
        walls.append(wall)
        times.append(seconds)
    return statistics.median(times[1:]), statistics.median(walls[1:])


def run_job(workload, inputs, workdir, tracer=None):
    out_dir = Path(tempfile.mkdtemp(dir=workdir))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is None:
                with SpeedProbe() as probe:
                    job = workload.run(inputs, out_dir)
            else:
                with tracer.installed(), tracer.span(ROOT_SPAN), SpeedProbe() as probe:
                    job = workload.run(inputs, out_dir)
        collapsed = sum("numerically collapsed" in str(w.message) for w in caught)
        check = workload.check(inputs, job)
        report_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
    finally:
        shutil.rmtree(out_dir)
    for command, messages in check.failed.items():
        for message in messages:
            print(f"FAILED {command}: {message}", file=sys.stderr)
    return JobRecord(probe.seconds(), probe.wall, tracer is not None, check, report_bytes,
                     collapsed)


def run_jobs(workload, inputs, workdir, seconds, tracer=None):
    """Closed loop for about ``seconds``: the next job starts only if the
    median job so far would end in time.  With a tracer, every other job is
    traced and the loop runs at least one of each."""
    records, walls = [], []
    start = time.perf_counter()
    minimum = 1 if tracer is None else 2
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.job_id = len(records)
        job_start = time.perf_counter()
        records.append(run_job(workload, inputs, workdir, tracer if traced else None))
        walls.append(time.perf_counter() - job_start)
        elapsed = time.perf_counter() - start
        if len(records) >= minimum and elapsed + statistics.median(walls) > seconds:
            return records


def gate_summary(workload, records):
    attempted = len(workload.commands) * len(records)
    failed = sum(len(r.check.failed) for r in records)
    measures = {}
    for measure in GATE_MEASURES:
        values = [r.check.measures.get(measure, math.nan) for r in records]
        values = [v for v in values if not math.isnan(v)]
        measures[measure] = max(values) if values else None  # None: not computed here
    return attempted, failed, measures


def layer_metrics(workload, stats, records):
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    jobs = len(traced)

    def total(name, key):
        return stats.get(name, {}).get(key, 0.0)

    values = {}
    for name in CALL_SPANS:
        values[f"{name}.calls"] = total(name, "calls") / jobs
        values[f"{name}.self_s"] = total(name, "self_s") / jobs
    values["system.matrix_at.evals_per_step"] = (
        total("system.matrix_at", "calls") / jobs / workload.nominal_steps)
    values["system.propagate.steps"] = total("system.propagate", "count") / jobs
    parse = ("system.parse_generator_spec", "system.read_matrix_sequence")
    values["system.parse.calls"] = total(parse[0], "calls") / jobs
    values["system.parse.self_s"] = sum(total(p, "self_s") for p in parse) / jobs
    values["system.parse.bytes"] = sum(total(p, "count") for p in parse) / jobs
    incompressibility = stats.get("spectrum.incompressibility_test", {})
    candidates = incompressibility.get("children", {}).get("system.propagate", 0)
    values["spectrum.incompressibility_test.candidates"] = candidates / jobs
    values["spectrum.incompressibility_test.useful_ratio"] = (
        incompressibility.get("count", 0.0) / candidates if candidates else 0.0)
    values["splitness.angle_profile.computed"] = total("splitness.angle_profile", "count") / jobs
    values["splitness.collapsed_angles"] = sum(r.collapsed_angles for r in traced) / jobs
    values["linalg.angle_to_subspace.failed"] = total("linalg.angle_to_subspace", "failed") / jobs
    cli_spans = ["cli.main"]
    for command in CLI_COMMANDS:
        values[f"cli.{command}.wall_s"] = total(f"cli.{command}", "wall_s") / jobs
        cli_spans.append(f"cli.{command}")
    values["cli.self_s"] = sum(total(name, "self_s") for name in cli_spans) / jobs
    values["cli.report_bytes"] = sum(r.report_bytes for r in traced) / jobs
    values["job.self_s"] = total(ROOT_SPAN, "self_s") / jobs
    values["trace.overhead_frac"] = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in untraced) - 1.0)
    attempted, failed, measures = gate_summary(workload, records)
    values["check.failed_frac"] = failed / attempted
    for measure in GATE_MEASURES:
        values[f"check.{measure}"] = measures[measure] or 0.0
    return values


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None  # not a git checkout of this tree
    return lines[1]


def provenance(seed, inputs):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(),
        "seed": seed,
        "input_sha256": inputs.sha256,
    }


def percentile_line(times):
    """The highest percentile with at least ten jobs beyond it, from 20 jobs up."""
    n = len(times)
    if n < 20:
        return f"no percentile: {n} jobs, 20 needed for p50 with 10 beyond"
    p = math.floor(100 * (n - 10) / n)
    return f"p{p} {statistics.quantiles(times, n=100, method='inclusive')[p - 1]:.6f} s"


def run(args):
    workload = WORKLOADS[args.workload]()
    workdir = tempfile.mkdtemp(prefix=WORK_PREFIX, dir=ROOT)
    try:
        inputs = workload.prepare(workdir, args.seed)
        if args.trace:
            tracer = Tracer()
            records = run_jobs(workload, inputs, workdir, args.seconds, tracer)
        else:
            setup_s, setup_wall = setup_seconds(inputs, workdir)
            records = run_jobs(workload, inputs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir)

    attempted, failed, measures = gate_summary(workload, records)
    print(f"workload {workload.name}: {workload.why}")
    print("provenance " + json.dumps(provenance(args.seed, inputs), sort_keys=True))
    untraced = [r.seconds for r in records if not r.traced]
    print(f"jobs {len(records)} ({len(untraced)} untraced), commands {attempted}, "
          f"failed {failed}, failed_frac {failed / attempted:.6g}")
    for measure, value in measures.items():
        print(f"{measure} " + ("n/a (not computed on this workload)" if value is None
                               else f"{value:.3e}"))
    if args.trace:
        spans_dir = ROOT / SPANS_DIR
        spans_dir.mkdir(exist_ok=True)
        spans_file = spans_dir / f"{workload.name}-seed{args.seed}.npz"
        tracer.save(spans_file)
        print(f"spans {len(tracer.end)} saved to {spans_file.relative_to(ROOT)}")
        values = layer_metrics(workload, tracer.stats(), records)
        reported = PER_LAYER
    else:
        job_s = statistics.median(untraced)
        walls = [r.wall for r in records]
        print(f"job_s median of {len(untraced)} jobs; {percentile_line(untraced)}; "
              "each " + " ".join(f"{t:.3f}" for t in untraced))
        print(f"wall-time medians: setup {setup_wall:.6f} s, job {statistics.median(walls):.6f} s"
              "; each job " + " ".join(f"{t:.3f}" for t in walls))
        values = {
            "setup_s": setup_s,
            "job_s": job_s,
            "steps_per_s": workload.nominal_steps / job_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        reported = END_TO_END
    for name, unit in reported:
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in reported},
    }))
    return 0

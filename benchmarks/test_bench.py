"""Tests of the benchmark itself, at short horizons so they run in seconds.

Run with ``PYTHONPATH=src python -m pytest benchmarks``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks import bench, runner, speed, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent
SHORT = {"sinlog-diagnose": 2000, "diag12-perturb": 2000, "tri3-file-assign": 2000}


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    out = {}
    for name, horizon in SHORT.items():
        workload = workloads.WORKLOADS[name](horizon)
        workdir = tmp_path_factory.mktemp(name)
        out[name] = (workload, workload.prepare(workdir, seed=3), workdir)
    return out


def traced_job(workload, inputs, out_dir):
    t = tracer.Tracer()
    with t.installed(), t.span(tracer.ROOT_SPAN):
        job = workload.run(inputs, out_dir)
    return t, job


def bindings():
    """Every attribute of every ltvlab module and of the classes the tracer wraps."""
    owners = list(tracer.ltvlab_modules())
    for _, module, qualname, _, _ in tracer.TARGETS:
        if "." in qualname:
            owners.append(getattr(sys.modules[module], qualname.split(".")[0]))
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracing_restores_every_rebinding():
    from ltvlab import linalg, perturb, spectrum, splitness, system

    before = bindings()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            for module in (system, spectrum, splitness):
                assert module.propagate is not before[(id(system), "propagate")]
            for module in (linalg, system, perturb):
                assert module.spectral_norm is not before[(id(linalg), "spectral_norm")]
            assert splitness.angle_to_subspace is not before[(id(linalg), "angle_to_subspace")]
            assert isinstance(vars(splitness.FSSRecord)["from_initial_vectors"], classmethod)
            raise RuntimeError("leave the block by an exception")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", sorted(SHORT))
def test_traced_and_untraced_jobs_write_identical_reports(prepared, tmp_path, name):
    workload, inputs, _ = prepared[name]
    plain = workload.run(inputs, tmp_path / "plain")
    _, traced = traced_job(workload, inputs, tmp_path / "traced")
    assert plain.errors == {} and traced.errors == {}
    files = sorted(p.name for p in plain.out_dir.iterdir())
    assert files == sorted(p.name for p in traced.out_dir.iterdir())
    for file in files:
        a, b = plain.out_dir / file, traced.out_dir / file
        if file.endswith(".json"):
            a, b = json.loads(a.read_text()), json.loads(b.read_text())
            a["params"].pop("out_dir"), b["params"].pop("out_dir")
            assert a == b, file
        else:
            assert a.read_bytes() == b.read_bytes(), file
    if "incompressibility_test" in plain.results:
        fss_a, cos_a, verdict_a = plain.results["incompressibility_test"]
        fss_b, cos_b, verdict_b = traced.results["incompressibility_test"]
        assert np.array_equal(cos_a, cos_b)
        assert verdict_a.status == verdict_b.status


def test_self_times_are_nonnegative_and_sum_to_the_root(prepared, tmp_path):
    workload, inputs, _ = prepared["tri3-file-assign"]
    t, _ = traced_job(workload, inputs, tmp_path)
    spans = t.arrays()
    assert spans["self"].min() >= -1e-12
    root = spans["name"] == t.names.index(tracer.ROOT_SPAN)
    assert root.sum() == 1
    assert spans["self"].sum() == pytest.approx(spans["duration"][root][0], rel=1e-9)


def test_bypassed_layers_count_zero(prepared, tmp_path):
    stats = {}
    for name, (workload, inputs, _) in prepared.items():
        t, _ = traced_job(workload, inputs, tmp_path / name)
        stats[name] = {span: s["calls"] for span, s in t.stats().items()}

    def calls(workload, span):
        return stats[workload].get(span, 0)

    assert calls("tri3-file-assign", "expressions.eval") == 0
    assert calls("sinlog-diagnose", "expressions.eval") > 0
    for name in ("sinlog-diagnose", "diag12-perturb"):
        assert calls(name, "linalg.angle_to_subspace") == 0
    assert calls("tri3-file-assign", "linalg.angle_to_subspace") > 0
    perturb_spans = [s for s, *_ in tracer.TARGETS if s.startswith("perturb.")]
    assert all(calls("sinlog-diagnose", s) == 0 for s in perturb_spans)
    assert all(calls("diag12-perturb", s) > 0 for s in
               ("perturb.perturbation_at", "perturb.execute_plan"))


def test_gates_fail_on_a_wrong_report(prepared, tmp_path):
    workload, inputs, _ = prepared["diag12-perturb"]
    job = workload.run(inputs, tmp_path)
    assert workload.check(inputs, job).failed == {}
    report_file = tmp_path / "perturb.json"
    report = json.loads(report_file.read_text())
    report["perturbed_exponents"][1] += 0.01
    report_file.write_text(json.dumps(report))
    assert list(workload.check(inputs, job).failed) == ["perturb"]


def test_same_seed_gives_same_input(tmp_path):
    workload = workloads.WORKLOADS["tri3-file-assign"](200)
    hashes = []
    for workdir, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / workdir).mkdir()
        hashes.append(workload.prepare(tmp_path / workdir, seed).sha256)
    assert hashes[0] == hashes[1] != hashes[2]


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(runner.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(runner.PER_LAYER)


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "diag12-perturb",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.2  # about 20 sampling periods
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    work = probe.wall - sum(probe.samples)
    assert probe.seconds() == pytest.approx(
        work * speed.REFERENCE_S / (sum(probe.samples) / len(probe.samples)))

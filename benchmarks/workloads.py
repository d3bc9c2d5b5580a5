"""The benchmark's workloads: generated inputs, one job, and the gates that
every job's outputs must pass.

A job drives ltvlab the way a user does: ``ltvlab.cli.main`` in-process for
each CLI command, plus the library calls that have no command.  Each
workload fixes its horizon; the seed changes only generated inputs, so the
same seed always gives the same input bytes.  Every gate compares an output
with a closed-form reference computed before the job, outside its timing.

Why these three workloads
-------------------------
``sinlog-diagnose``
    The 2-d ``sin(ln n)`` formula system at H = 1e4.  It is the only
    workload where coefficient evaluation (``expressions``,
    ``CoefficientSequence.matrix_at``), propagation and the discrete QR do
    most of the work.  Perturbation is never called, and angles take the
    vectorised s = 2 path, so ``linalg.angle_to_subspace`` is bypassed.
``diag12-perturb``
    The constant ``diag(1,2)`` system at H = 2e4 running ``ltvlab perturb``.
    Perturbation (``execute_plan``, ``perturbation_at``, ``spectral_norm``)
    dominates; coefficient evaluation is free and neither the spectrum nor
    incompressibility is computed.  It is the long-horizon and memory
    workload, since FSS storage grows with H.  At H = 1e5 one job took
    13-20 s on a 2-core x86 VM, so a 35 s run held one or two jobs and five
    runs spread 26% (quartile distance over median); at 2e4 a run holds
    about ten jobs.
``tri3-file-assign``
    A seeded 3-d upper-triangular system at H = 1e4, read from a
    matrix-sequence file.  It is the only workload on the s >= 3 angle path
    (one QR per step per member in ``angle_to_subspace``), on 3-d
    perturbation with several active projections, and on file parsing.  It
    runs the same ``perturb`` layer as ``diag12-perturb``, at s = 3 and a
    short horizon.

Measured limits of the sin(ln n) system (witness FSS {(1,1), (0,1)}, one
BLAS thread): its reference verdicts (splitted, NOT-NORMAL with witness
(1,-1)) hold at H = 5e3 and 1e4; at 2e4 ``incompressibility_test`` finds no
witness and propagates all 68 candidates; from 3e4 up the FSS is not
splitted; at 1e5 the NORMAL verdict makes it propagate all 68 candidates,
74-95 s per job on a 2-core x86 VM.  So the longest horizon lives on
``diag12-perturb``.

Commands without a workload: ``instability`` only composes layers the three
workloads already time (splitness, incompressibility, calibration,
``execute_plan``, spectrum), and ``sinln`` and ``selftest`` are trivial.
"""

import hashlib
import io
import json
import math
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ltvlab import cli, linalg, spectrum, splitness, system

# Gate tolerances: the repository's acceptance tolerances.
LOG_NORM_RTOL = 1e-9  # closed-form log-norms, relative
COS_ANGLE_TOL = 1e-9  # cos phi_1 on sin-log
ANGLE_TOL = 1e-9  # phi = pi/2 on diag(1,2)
EXPONENT_TOL = 1e-9  # exponents with an exact closed form
SHIFT_TOL = 1e-3  # exponents hit by a perturbation plan
R_NORM_TOL = 1e-6  # ||R - I|| on diag(1,2)
ORACLE_TOL = 1e-9  # execute_plan closed form vs simulation
PROJECTION_TOL = 1e-9  # ||P^i|| sin(phi_i) = 1
CSV_ANGLE_TOL = 1e-7  # angles printed with 9 decimals, arcsin route near pi/2

TAIL_FRACTION = 0.5  # passed explicitly, so references need no defaults


@dataclass
class Inputs:
    """What ltvlab sees (a config file) plus the references to check against."""

    seed: int
    config: Path
    spec: str  # the system spec text the config names
    sha256: str  # hash of the generated input: the matrix file, else the config
    reference: dict


@dataclass
class JobOutput:
    out_dir: Path
    errors: dict = field(default_factory=dict)  # failed command -> exit code or traceback
    results: dict = field(default_factory=dict)  # library command -> value


@dataclass
class Check:
    """Gate outcome of one job: failed commands and the measured errors."""

    failed: dict = field(default_factory=dict)  # command -> [messages]
    measures: dict = field(default_factory=dict)  # e.g. exponent_err -> value

    def gate(self, command, label, value, tol):
        value = float(value)
        if not value <= tol:  # NaN fails too
            self.failed.setdefault(command, []).append(f"{label} = {value:.3e} > {tol:g}")
        return value

    def require(self, command, label, ok):
        if not ok:
            self.failed.setdefault(command, []).append(label)


def _run_cli(job, command, inputs):
    """One CLI command in-process; its printout is kept off the benchmark's."""
    err = io.StringIO()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([command, "--config", str(inputs.config),
                             "--out-dir", str(job.out_dir)])
    except Exception:
        job.errors[command] = traceback.format_exc()
        return
    if code != 0:
        job.errors[command] = f"exit code {code}: {err.getvalue().strip()}"


def _run_library(job, command, fn):
    try:
        job.results[command] = fn()
    except Exception:
        job.errors[command] = traceback.format_exc()


def _tail_max(values_by_n, first_n):
    """Tail-max over n >= ceil(last_n * (1 - TAIL_FRACTION)); rows are n = first_n..."""
    last_n = first_n + len(values_by_n) - 1
    start = max(first_n, math.ceil(last_n * (1.0 - TAIL_FRACTION)))
    return values_by_n[start - first_n:].max(axis=0)


def _write_config(workdir, config):
    path = Path(workdir) / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    name = ""
    why = ""
    horizon = 0
    commands = ()  # attempted per job, in order
    steps_per_horizon = 0  # nominal horizon-steps per job = this * horizon

    def __init__(self, horizon=None):
        if horizon is not None:
            self.horizon = int(horizon)

    @property
    def nominal_steps(self):
        return self.steps_per_horizon * self.horizon

    def prepare(self, workdir, seed):
        raise NotImplementedError

    def run(self, inputs, out_dir):
        """The timed job."""
        raise NotImplementedError

    def check(self, inputs, job):
        raise NotImplementedError

    def _check_errors(self, job):
        check = Check()
        for command, message in job.errors.items():
            check.require(command, message, False)
        return check


# --- sinlog-diagnose ---------------------------------------------------------

SIN_LOG_SPEC = """\
dimension: 2
kind: diagonal
entries:
  exp(n*sin(ln(n)) - (n+1)*sin(ln(n+1)))
  exp(2*((n+1)*sin(ln(n+1)) - n*sin(ln(n))))
"""
WITNESS_FSS = [[1.0, 1.0], [0.0, 1.0]]


class SinlogDiagnose(Workload):
    name = "sinlog-diagnose"
    why = ("sin(ln n) formulas at H=1e4: coefficient evaluation, propagation "
           "and discrete QR dominate; perturbation and the s>=3 angle path are bypassed")
    horizon = 10_000
    commands = ("spectrum", "splitness", "incompressibility_test")
    steps_per_horizon = 3

    def prepare(self, workdir, seed):
        h = self.horizon
        config = _write_config(workdir, {
            "system": SIN_LOG_SPEC,
            "horizon": h,
            "initial_vectors": WITNESS_FSS,
            "checkpoint_every": 1,
            "tail_fraction": TAIL_FRACTION,
        })
        n = np.arange(1, h + 1, dtype=float)
        a = n * np.sin(np.log(n))  # log of the A22 product up to n, halved
        log_norms = np.column_stack([0.5 * np.logaddexp(-2.0 * a, 4.0 * a), 2.0 * a])
        with np.errstate(over="ignore"):
            phi = np.arctan(np.exp(-3.0 * a))
        # discrete QR on a diagonal system: column logs are -a and 2a
        qr_logs = np.column_stack([-np.sin(np.log(n)), 2.0 * np.sin(np.log(n))])[1:]
        reference = {
            "log_norms": log_norms,
            "cos_phi": np.exp(-0.5 * np.logaddexp(0.0, -6.0 * a)),
            "phi": phi,
            "fss_exponents": _tail_max(log_norms / n[:, None], 1),
            "spectrum": np.sort(_tail_max(qr_logs, 2)),
        }
        return Inputs(seed, config, SIN_LOG_SPEC, _sha256(config), reference)

    def run(self, inputs, out_dir):
        job = JobOutput(Path(out_dir))
        _run_cli(job, "spectrum", inputs)
        _run_cli(job, "splitness", inputs)

        def diagnose():
            seq = system.parse_generator_spec(inputs.spec)
            fss = splitness.FSSRecord.from_initial_vectors(seq, WITNESS_FSS, self.horizon)
            cos_phi = fss.cos_angle_profile()[:, 0]
            verdict = spectrum.incompressibility_test(fss, seed=0)
            return fss, cos_phi, verdict

        _run_library(job, "incompressibility_test", diagnose)
        return job

    def check(self, inputs, job):
        check = self._check_errors(job)
        ref = inputs.reference
        exponent_errs = []
        if "spectrum" not in job.errors:
            report = json.loads((job.out_dir / "spectrum.json").read_text())
            err = np.abs(np.asarray(report["exponents"]) - ref["spectrum"]).max()
            exponent_errs.append(check.gate(
                "spectrum", "spectrum exponents vs closed form", err, EXPONENT_TOL))
        if "splitness" not in job.errors:
            report = json.loads((job.out_dir / "splitness.json").read_text())
            check.require("splitness", "splitted is not True", report["splitted"] is True)
            lams = np.array([v["lambda_hat"] for v in report["verdicts"]])
            err = np.abs(lams - ref["fss_exponents"]).max()
            exponent_errs.append(check.gate(
                "splitness", "FSS tail-max exponents vs closed form", err, EXPONENT_TOL))
            rows = np.loadtxt(job.out_dir / "splitness.csv", delimiter=",",
                              skiprows=1, usecols=(1, 2))
            check.require("splitness", "splitness CSV needs one row per step",
                          rows.shape == (self.horizon, 2))
            if rows.shape == (self.horizon, 2):
                err = np.abs(rows - ref["phi"][:, None]).max()
                check.gate("splitness", "CSV angles vs closed form", err, CSV_ANGLE_TOL)
        angle_err = math.nan
        if "incompressibility_test" not in job.errors:
            fss, cos_phi, verdict = job.results["incompressibility_test"]
            logs = np.column_stack([t.log_norms for t in fss.trajectories])
            rel = np.abs(logs - ref["log_norms"]) / np.maximum(1.0, np.abs(ref["log_norms"]))
            check.gate("incompressibility_test", "log-norms vs closed form, relative",
                       rel.max(), LOG_NORM_RTOL)
            angle_err = check.gate("incompressibility_test", "cos phi_1 vs closed form",
                                   np.abs(cos_phi - ref["cos_phi"]).max(), COS_ANGLE_TOL)
            witness = verdict.witness
            check.require(
                "incompressibility_test",
                f"expected NOT-NORMAL with witness +-(1,-1), got {verdict.status} {witness}",
                verdict.status == "NOT-NORMAL"
                and np.allclose(witness / witness[0], [1.0, -1.0]),
            )
        check.measures = {"exponent_err": max(exponent_errs, default=math.nan),
                          "angle_err": angle_err}
        return check


# --- diag12-perturb ----------------------------------------------------------

DIAG12_SHIFTS = [0.01, -0.01]


class Diag12Perturb(Workload):
    name = "diag12-perturb"
    why = ("constant diag(1,2) at H=2e4 through ltvlab perturb: execute_plan, "
           "perturbation_at and spectral_norm dominate; longest horizon and memory")
    horizon = 20_000
    commands = ("perturb",)
    steps_per_horizon = 1

    def prepare(self, workdir, seed):
        config = _write_config(workdir, {
            "system": "diag(1,2)",
            "horizon": self.horizon,
            "shifts": DIAG12_SHIFTS,
        })
        reference = {
            "exponents": np.array([0.0, math.log(2.0)]) + DIAG12_SHIFTS,
            "r_norm": math.expm1(max(DIAG12_SHIFTS)),
        }
        return Inputs(seed, config, "diag(1,2)", _sha256(config), reference)

    def run(self, inputs, out_dir):
        job = JobOutput(Path(out_dir))
        _run_cli(job, "perturb", inputs)
        return job

    def check(self, inputs, job):
        check = self._check_errors(job)
        if "perturb" in job.errors:
            return check
        report = json.loads((job.out_dir / "perturb.json").read_text())
        ref = inputs.reference
        exponent_err = check.gate(
            "perturb", "perturbed exponents vs (0.01, ln2 - 0.01)",
            np.abs(np.asarray(report["perturbed_exponents"]) - ref["exponents"]).max(),
            SHIFT_TOL)
        check.gate("perturb", "||R - I|| vs e^0.01 - 1",
                   abs(report["r_norm_sup"] - ref["r_norm"]), R_NORM_TOL)
        oracle = check.gate("perturb", "oracle residual", report["agreement_residual"],
                            ORACLE_TOL)
        # both solutions stay orthogonal, so calibration settles on gamma = pi/2
        angle_err = check.gate("perturb", "|phi - pi/2| via calibrated gamma",
                               abs(report["constants"]["gamma"] - math.pi / 2), ANGLE_TOL)
        check.measures = {"exponent_err": exponent_err, "angle_err": angle_err,
                          "oracle_residual": oracle}
        return check


# --- tri3-file-assign --------------------------------------------------------

TRI3_LAMBDA = np.array([-0.3, 0.2, 0.7])
TRI3_EPSILON = 0.5
PROJECTION_SAMPLE = 64  # steps sampled for the ||P^i|| sin(phi_i) = 1 gate


def tri3_matrices(seed, horizon):
    """Upper-triangular A(n): diagonal exp(lambda + 0.2 u), u ~ U(-1, 1),
    strict upper entries ~ U(-0.5, 0.5); one matrix per step."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=(horizon, 3))
    upper = rng.uniform(-0.5, 0.5, size=(horizon, 3))
    mats = np.zeros((horizon, 3, 3))
    mats[:, [0, 1, 2], [0, 1, 2]] = np.exp(TRI3_LAMBDA + 0.2 * u)
    mats[:, [0, 0, 1], [1, 2, 2]] = upper
    return mats


def write_matrix_file(path, mats):
    """The documented matrix-sequence format: header 's count', then rows."""
    s = mats.shape[1]
    lines = [f"{s} {len(mats)}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in mats.reshape(-1, s))
    Path(path).write_text("\n".join(lines) + "\n")


def projection_residual(seq, horizon):
    """max |(||P^i|| sin phi_i) - 1| over members and a fixed step sample of
    the standard-basis FSS, from the public linalg functions."""
    fss = splitness.FSSRecord.from_initial_vectors(seq, list(np.eye(3)), horizon)
    steps = np.unique(np.linspace(1, horizon, PROJECTION_SAMPLE).astype(int))
    worst = 0.0
    for n in steps:
        dirs = np.column_stack([t.direction_at(n) for t in fss.trajectories])
        projections = linalg.oblique_projections(list(dirs.T))
        for i in range(3):
            others = np.delete(dirs, i, axis=1)
            phi = linalg.angle_to_subspace(dirs[:, i], others)
            norm = linalg.spectral_norm(projections[i])
            worst = max(worst, abs(norm * math.sin(phi) - 1.0))
    return worst


class Tri3FileAssign(Workload):
    name = "tri3-file-assign"
    why = ("seeded 3-d triangular system from a matrix file at H=1e4: file parsing, "
           "the s>=3 angle path and 3-d perturbation; no formula evaluation")
    horizon = 10_000
    commands = ("spectrum", "splitness", "assign")
    steps_per_horizon = 3

    def prepare(self, workdir, seed):
        h = self.horizon
        mats = tri3_matrices(seed, h)
        matrix_file = Path(workdir) / "tri3.seq"
        write_matrix_file(matrix_file, mats)
        spec = f"dimension: 3\nkind: file\npath: {matrix_file.resolve()}\n"
        config = _write_config(workdir, {
            "system": spec,
            "horizon": h,
            "target_spectrum": TRI3_LAMBDA.tolist(),
            "epsilon": TRI3_EPSILON,
            "checkpoint_every": 1,
            "tail_fraction": TAIL_FRACTION,
        })
        # discrete QR keeps an upper-triangular basis diagonal: column logs
        # are the running sums of log A_jj
        read_back = system.read_matrix_sequence(matrix_file)
        logs = np.cumsum(np.log(np.diagonal(mats, axis1=1, axis2=2))[: h - 1], axis=0)
        reference = {
            "spectrum": np.sort(_tail_max(logs / np.arange(2, h + 1)[:, None], 2)),
            "projection_residual": projection_residual(read_back, h),
        }
        return Inputs(seed, config, spec, _sha256(matrix_file), reference)

    def run(self, inputs, out_dir):
        job = JobOutput(Path(out_dir))
        for command in self.commands:
            _run_cli(job, command, inputs)
        return job

    def check(self, inputs, job):
        check = self._check_errors(job)
        ref = inputs.reference
        if "spectrum" not in job.errors:
            report = json.loads((job.out_dir / "spectrum.json").read_text())
            check.gate("spectrum", "spectrum exponents vs closed form",
                       np.abs(np.asarray(report["exponents"]) - ref["spectrum"]).max(),
                       EXPONENT_TOL)
        if "splitness" not in job.errors:
            report = json.loads((job.out_dir / "splitness.json").read_text())
            check.require("splitness", "splitted is not True", report["splitted"] is True)
        angle_err = check.gate("assign", "||P^i|| sin(phi_i) - 1 on sampled steps",
                               ref["projection_residual"], PROJECTION_TOL)
        exponent_err = oracle = math.nan
        if "assign" not in job.errors:
            report = json.loads((job.out_dir / "assign.json").read_text())
            exponent_err = check.gate(
                "assign", "achieved vs target spectrum",
                np.abs(np.asarray(report["achieved_exponents"]) - TRI3_LAMBDA).max(),
                SHIFT_TOL)
            oracle = check.gate("assign", "oracle residual", report["agreement_residual"],
                                ORACLE_TOL)
            check.require("assign", "||R - I|| not within epsilon", report["within_epsilon"])
        check.measures = {"exponent_err": exponent_err, "angle_err": angle_err,
                          "oracle_residual": oracle}
        return check


WORKLOADS = {w.name: w for w in (SinlogDiagnose, Diag12Perturb, Tri3FileAssign)}

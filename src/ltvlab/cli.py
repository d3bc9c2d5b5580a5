"""Scenario runner: execute named experiments from a JSON config and emit
CSV/JSON reports with the full resolved parameter set.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 precondition violation (e.g. a shift outside the delta budget).
"""

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInputError, LtvLabError, ParseError
from .perturb import (
    build_plan,
    execute_plan,
    instability_experiment,
    openness_experiment,
)
from .spectrum import incompressibility_test, spectrum_estimate
from .presets import geometric_diag, sin_log_extrema
from .splitness import GAMMA_GRID, FSSRecord, _initial_basis, gamma_statistics, splitness_report
from .system import CoefficientSequence, parse_generator_spec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4

_LABELS = {EXIT_CONFIG: "config error", EXIT_NUMERICAL: "numerical failure",
           EXIT_PRECONDITION: "precondition error"}


# --- config fields: a check(key, value, seq) returns the value to use ------


def _numbers(key, value):
    """The finite number or numbers ``value`` of config field ``key``, as an array."""
    try:
        values = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"config field {key!r} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ParseError(f"config field {key!r} has a non-finite value")
    return values


def _vector(key, value, seq):
    """One finite number per dimension of the system."""
    values = _numbers(key, value)
    if values.shape != (seq.dimension,):
        raise ParseError(f"config field {key!r} must hold {seq.dimension} numbers, got {value!r}")
    return values


def _in_range(key, value, seq, high, ndim=0):
    """Numbers in (0, high]: one number (ndim 0) or a non-empty list of them (ndim 1)."""
    values = _numbers(key, value)
    if values.ndim != ndim or values.size == 0 or not np.all((values > 0.0) & (values <= high)):
        what = "a number" if ndim == 0 else "a non-empty list of numbers"
        bound = "> 0" if high == math.inf else f"in (0, {high:.6g}]"
        raise ParseError(f"config field {key!r} must be {what} {bound}, got {value!r}")
    return float(values) if ndim == 0 else values


def _integer(key, value, seq, minimum):
    """An integer >= ``minimum``."""
    try:
        number = int(value)
        whole = not isinstance(value, bool) and number == float(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or number < minimum:
        raise ParseError(f"config field {key!r} must be an integer >= {minimum}, got {value!r}")
    return number


def _horizon(key, value, seq):
    """An integer >= 2 that a file-backed system holds the records for."""
    horizon = _integer(key, value, seq, 2)
    count = getattr(seq, "count", None)  # records in a file-backed system
    if count is not None and horizon > count + 1:  # step H uses A(1) ... A(H-1)
        raise ParseError(f"horizon {horizon} needs {horizon - 1} matrix records, "
                         f"but the matrix file holds only {count}")
    return horizon


def _basis(key, value, seq):
    """s finite, linearly independent rows of s numbers."""
    try:
        return _initial_basis(seq, _numbers(key, value))
    except InvalidInputError as exc:
        raise ParseError(f"config field {key!r}: {exc}") from exc


_REQUIRED = object()

_FIELDS = {  # config field -> (check, default); a default of None also accepts null
    "horizon": (_horizon, 10_000),
    "seed": (partial(_integer, minimum=0), 0),
    "checkpoint_every": (partial(_integer, minimum=1), None),
    "tail_fraction": (partial(_in_range, high=1.0), 0.5),
    "sigma": (partial(_integer, minimum=1), 1),
    "gamma_grid": (partial(_in_range, high=math.pi / 2, ndim=1), GAMMA_GRID),
    "initial_vectors": (_basis, None),  # None: the standard basis
    "shifts": (_vector, _REQUIRED),
    "target_spectrum": (_vector, _REQUIRED),
    "epsilon": (partial(_in_range, high=math.inf), _REQUIRED),
    "trials": (partial(_integer, minimum=1), 16),
    "epsilon_grid": (partial(_in_range, high=math.inf, ndim=1), _REQUIRED),
}


def _read_system(config):
    """The system of config field 'system': a generator spec, or
    {"file": path} naming a file that holds one."""
    system = config.get("system")
    if system is None:
        raise ParseError("config field 'system' is required")
    try:
        text = Path(system["file"]).read_text() if isinstance(system, dict) else str(system)
        return parse_generator_spec(text)  # a 'file' kind reads a matrix file
    except (KeyError, TypeError, OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"config field 'system': {type(exc).__name__}: {exc}") from exc


def _load(args):
    """The system, the checked config fields and the params to echo of a
    config-driven command.  It reads horizon, seed and ``args.fields``, with
    --horizon and --seed over the config's values, and for a command that
    reads initial_vectors it builds the FSS as opts["fss"]."""
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ParseError(str(exc)) from exc
    if not isinstance(config, dict):
        raise ParseError(f"config must be a JSON object, got {type(config).__name__}")
    seq = _read_system(config)
    overrides = {"horizon": args.horizon, "seed": args.seed}
    given = {**config, **{k: v for k, v in overrides.items() if v is not None}}
    opts = {}
    for key in ("horizon", "seed", *args.fields):
        check, default = _FIELDS[key]
        value = given.get(key, default)  # a default is checked too: a horizon against a file
        if value is _REQUIRED:
            raise ParseError(f"config field {key!r} is required")
        opts[key] = None if value is None and default is None else check(key, value, seq)
    if "initial_vectors" in opts:
        vectors = opts["initial_vectors"]
        opts["fss"] = FSSRecord.from_initial_vectors(
            seq, np.eye(seq.dimension) if vectors is None else vectors, opts["horizon"])
    params = {**config, "horizon": opts["horizon"], "seed": opts["seed"],
              "format": args.format, "out_dir": str(args.out_dir)}
    return seq, opts, params


def _report(args, name, payload, csv_rows=None, csv_header=None, csv_format=None):
    """Write the JSON payload and, when rows are given, a CSV with CRLF line
    ends; each row is formatted by ``csv_format``, a %-format with one
    field per column (default %s for every column)."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **payload}
    if args.format in ("json", "both"):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if csv_rows is not None and args.format in ("csv", "both"):
        path = out_dir / f"{name}.csv"
        line = (csv_format or ",".join(["%s"] * len(csv_header))) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(csv_header) + "\r\n")
            fh.writelines(line % tuple(row) for row in csv_rows)
        print(f"wrote {path}")
    return payload


# --- subcommands -----------------------------------------------------------


def cmd_spectrum(args):
    seq, opts, params = _load(args)
    estimate = spectrum_estimate(seq, opts["horizon"], checkpoint_every=opts["checkpoint_every"],
                                 tail_fraction=opts["tail_fraction"])
    rows = [
        (value, count, sum(len(r) for r in estimate.realizing_indices))
        for value, count in estimate.multiplicities
    ]
    payload = {
        "params": params,
        "exponents": estimate.exponents.tolist(),
        "multiplicities": estimate.multiplicities,
        "horizon": estimate.horizon,
    }
    _report(args, "spectrum", payload, rows, ("exponent", "multiplicity", "realizing_count"))
    print("spectrum:", " ".join(f"{v:.6f} (x{c})" for v, c in estimate.multiplicities))
    return EXIT_OK


def cmd_splitness(args):
    _, opts, params = _load(args)
    fss, sigma, gamma_grid = opts["fss"], opts["sigma"], opts["gamma_grid"]
    report = splitness_report(fss, gamma_grid, sigma)

    angles = fss.angle_profile()
    s = fss.dimension
    stats = []
    for v in report.verdicts:
        gamma = v.gamma if v.gamma is not None else min(gamma_grid)
        stats.append(gamma_statistics(fss, v.solution_index, gamma, sigma))
    ns = sigma * np.arange(1, len(stats[0].member_flags) + 1)
    rows = np.column_stack(
        [ns, angles[ns - 1]]
        + [st.member_flags for st in stats]
        + [st.densities for st in stats]
    ).tolist()
    row_format = ",".join(["%d"] + ["%.9f"] * s + ["%d"] * s + ["%.9f"] * s)
    header = (
        ["n"]
        + [f"phi_{i + 1}" for i in range(s)]
        + [f"flag_{i + 1}" for i in range(s)]
        + [f"g_{i + 1}" for i in range(s)]
    )
    payload = {
        "params": {**params, "sigma": sigma},
        "splitted": report.splitted,
        "verdicts": [
            {
                "solution": v.solution_index,
                "status": v.status,
                "gamma": v.gamma,
                "rho_hat": v.rho_hat,
                "lambda_hat": v.lambda_hat,
            }
            for v in report.verdicts
        ],
    }
    _report(args, "splitness", payload, rows, header, row_format)
    print(f"splitted: {report.splitted}")
    for v in report.verdicts:
        print(
            f"  solution {v.solution_index}: {v.status}"
            + ("" if v.rho_hat is None else f" (gamma={v.gamma:.4f}, rho={v.rho_hat:.4f})")
        )
    return EXIT_OK


def cmd_perturb(args):
    seq, opts, params = _load(args)
    plan = build_plan(opts["fss"], opts["shifts"])
    outcome = execute_plan(seq, opts["fss"], plan)
    payload = {
        "params": params,
        "constants": {
            "gamma": plan.constants.gamma,
            "rho": plan.constants.rho,
            "r": plan.constants.r,
            "delta1": plan.constants.delta1,
            "delta": plan.constants.delta,
            "beta": plan.constants.beta,
        },
        "targets": plan.target_shifts.tolist(),
        "base_exponents": outcome.base_exponents.tolist(),
        "perturbed_exponents": outcome.perturbed_exponents.tolist(),
        "achieved_shifts": outcome.achieved_shifts.tolist(),
        "r_norm_sup": outcome.r_norm_sup,
        "norm_budget": outcome.norm_budget,
        "agreement_residual": outcome.agreement_residual,
    }
    _report(args, "perturb", payload)
    print(
        f"perturbed exponents: {outcome.perturbed_exponents.tolist()} "
        f"(||R-I|| = {outcome.r_norm_sup:.6g} <= budget {outcome.norm_budget:.6g})"
    )
    return EXIT_OK


def cmd_assign(args):
    seq, opts, params = _load(args)
    result = openness_experiment(seq, opts["fss"], opts["target_spectrum"], opts["epsilon"])
    payload = {"params": params, **result}
    _report(args, "assign", payload)
    print(
        f"assigned spectrum {result['achieved_exponents']} "
        f"(error {result['assignment_error']:.3e}, ||R-I|| = {result['r_norm_sup']:.6g})"
    )
    return EXIT_OK


def cmd_instability(args):
    seq, opts, params = _load(args)
    result = instability_experiment(seq, opts["fss"], opts["epsilon_grid"],
                                    trials=opts["trials"], seed=opts["seed"])
    rows = [
        (
            row["epsilon"],
            row["r_norm_sup"],
            row["distance_to_base"],
            "SUCCESS" if row["success"] else "FAIL",
        )
        for row in result["rows"]
    ]
    payload = {"params": params, **result}
    _report(args, "instability", payload, rows,
            ("epsilon", "r_norm_sup", "distance_to_base", "status"))
    for row in result["rows"]:
        print(
            f"epsilon={row['epsilon']:g}: ||R-I||={row['r_norm_sup']:.4g}, "
            f"distance={row['distance_to_base']:.4g} -> "
            + ("SUCCESS" if row["success"] else "FAIL")
        )
    return EXIT_OK


def cmd_sinln(args):
    if args.max_n < 10:
        raise ParseError(f"--max-n must be at least 10, got {args.max_n}")
    result = sin_log_extrema(args.max_n)
    payload = {"params": {"max_n": args.max_n}, **result}
    rows = [
        ("max", result["max_value"], result["argmax"]),
        ("min", result["min_value"], result["argmin"]),
    ]
    _report(args, "sinln", payload, rows, ("kind", "value", "n"))
    print(
        f"sin(ln n) over n<= {args.max_n}: max {result['max_value']:.9f} at "
        f"n={result['argmax']}, min {result['min_value']:.9f} at n={result['argmin']}"
    )
    return EXIT_OK


def cmd_selftest(args):
    from .linalg import angle_to_subspace, oblique_projections, spectral_norm

    checks = []

    extrema = sin_log_extrema(10_000)
    checks.append(("sin-ln scan max", extrema["max_value"] >= 1 - 1e-7))

    # a rotated Q diag(1,2) Q^T turns the basis, which diag(1,2) leaves fixed
    rotation = np.linalg.qr([[2.0, 1.0], [-1.0, 1.0]])[0]
    rotated = CoefficientSequence.constant(rotation @ np.diag([1.0, 2.0]) @ rotation.T)
    for name, seq in (
        ("constant diag spectrum", geometric_diag([1.0, 2.0])),
        ("rotated diag spectrum", rotated),
    ):
        est = spectrum_estimate(seq, 2000)
        checks.append((name, float(np.abs(est.exponents - [0.0, math.log(2)]).max()) < 5e-3))

    # shifting the exponents of diag(1,2) by (0.01, -0.01) through a synthesized R(n)
    diag12 = geometric_diag([1.0, 2.0])
    fss = FSSRecord.from_initial_vectors(diag12, np.eye(2), 2000)
    outcome = execute_plan(diag12, fss, build_plan(fss, [0.01, -0.01]))
    targets = np.array([0.01, math.log(2) - 0.01])
    checks.append(("perturbation closed-form oracle", outcome.agreement_residual <= 1e-9))
    checks.append(
        ("perturbed exponents", float(np.abs(outcome.perturbed_exponents - targets).max()) <= 1e-3)
    )

    # the standard basis of diag(1,2) is normal; (1,1), (0,1) cancel to (1,0) along +-(1,-1)
    normal = incompressibility_test(fss)
    checks.append(("normal FSS verdict", normal.is_normal))
    skew_fss = FSSRecord.from_initial_vectors(diag12, [[1.0, 1.0], [0.0, 1.0]], 2000)
    skew = incompressibility_test(skew_fss)
    found = skew.witness is not None and sorted(skew.witness) == [-1.0, 1.0]
    checks.append(("non-normal FSS witness", not skew.is_normal and found))

    ps = oblique_projections([[1.0, 0.0], [1.0, 1.0]])
    checks.append(("projection completeness", float(np.abs(sum(ps) - np.eye(2)).max()) < 1e-9))
    checks.append(("projection norm", abs(spectral_norm(ps[0]) - math.sqrt(2)) < 1e-9))

    # ||P^i|| sin(phi_i) = 1 for every column of a 3-d basis, all columns at once
    cols = np.array([[1.0, 0.3, -0.2], [0.1, 1.0, 0.5], [0.4, -0.6, 1.0]])
    others = np.stack([np.delete(cols, i, axis=1) for i in range(3)])
    phis = angle_to_subspace(cols.T, others)
    norms = spectral_norm(np.stack(oblique_projections(list(cols.T))))
    worst = float(np.abs(norms * np.sin(phis) - 1.0).max())
    checks.append(("3-d projection norm times angle sine", worst < 1e-9))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_NUMERICAL


# --- entry point -------------------------------------------------------------


def _add_output(parser):
    parser.add_argument("--out-dir", default="out", help="report output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltvlab",
        description="Lyapunov spectrum experiments for discrete linear "
        "time-varying systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {  # name -> (function, help, the config fields it reads besides horizon and seed)
        "spectrum": (cmd_spectrum, "estimate the Lyapunov spectrum",
                     ("checkpoint_every", "tail_fraction")),
        "splitness": (cmd_splitness, "angle statistics and broken-away verdicts",
                      ("sigma", "gamma_grid", "initial_vectors")),
        "perturb": (cmd_perturb, "synthesize and execute a spectrum-shift plan",
                    ("shifts", "initial_vectors")),
        "assign": (cmd_assign, "assign a nearby target spectrum (openness)",
                   ("target_spectrum", "epsilon", "initial_vectors")),
        "instability": (cmd_instability, "drive spectrum jumps from a non-normal FSS",
                        ("trials", "epsilon_grid", "initial_vectors")),
    }
    for name, (fn, help_text, fields) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON scenario config")
        p.add_argument("--horizon", type=int, default=None, help="override the config horizon")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        _add_output(p)
        p.set_defaults(fn=fn, fields=fields)

    p = sub.add_parser("sinln", help="extrema scan of sin(ln n)")
    p.add_argument("--max-n", type=int, required=True)
    _add_output(p)
    p.set_defaults(fn=cmd_sinln)

    p = sub.add_parser("selftest", help="quick internal consistency checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LtvLabError, FloatingPointError, np.linalg.LinAlgError) as exc:
        code = getattr(exc, "exit_code", EXIT_NUMERICAL)
        print(f"{_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

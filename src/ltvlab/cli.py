"""Scenario runner: execute named experiments from a JSON config and emit
CSV/JSON reports with the full resolved parameter set.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 precondition violation (e.g. a shift outside the delta budget).
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    BracketError,
    BudgetError,
    InadmissiblePerturbationError,
    InvalidInputError,
    NotLyapunovSequenceError,
    ParseError,
    PreconditionError,
    PropagationError,
    SingularMatrixError,
)
from .perturb import (
    build_plan,
    execute_plan,
    instability_experiment,
    openness_experiment,
)
from .spectrum import spectrum_estimate
from .splitness import GAMMA_GRID, FSSRecord, gamma_statistics, splitness_report
from .system import parse_generator_spec

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4

_CONFIG_ERRORS = (ParseError, KeyError, TypeError, OSError, json.JSONDecodeError)
_PRECONDITION_ERRORS = (PreconditionError, BudgetError)
_NUMERICAL_ERRORS = (
    PropagationError,
    BracketError,
    SingularMatrixError,
    NotLyapunovSequenceError,
    InadmissiblePerturbationError,
    InvalidInputError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _build_system(config):
    system = config.get("system")
    if system is None:
        raise KeyError("config is missing the 'system' field")
    if isinstance(system, dict):
        text = Path(system["file"]).read_text()
    else:
        text = str(system)
    return parse_generator_spec(text)


def _load(args):
    """Config, system and resolved horizon of a config-driven command."""
    config = _load_config(args.config)
    seq = _build_system(config)
    horizon = _horizon(config, args)
    count = getattr(seq, "count", None)  # records in a file-backed system
    if count is not None and horizon > count + 1:
        # propagation to step H uses A(1) ... A(H-1)
        raise ParseError(
            f"horizon {horizon} needs {horizon - 1} matrix records, but the "
            f"matrix file holds only {count}"
        )
    return config, seq, horizon


def _numbers(config, key):
    """The finite number or numbers in config field ``key``, as an array."""
    try:
        values = np.asarray(config[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"config field {key!r} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ParseError(f"config field {key!r} has a non-finite value")
    return values


def _build_fss(seq, config, horizon):
    vectors = config.get("initial_vectors")
    if vectors is None:
        vectors = list(np.eye(seq.dimension))
    return FSSRecord.from_initial_vectors(seq, vectors, horizon)


def _resolved_params(config, args, **extra):
    params = dict(config)
    params.update(
        {
            "horizon": args.horizon if args.horizon else config.get("horizon"),
            "seed": args.seed if args.seed is not None else config.get("seed", 0),
            "format": args.format,
            "out_dir": str(args.out_dir),
        }
    )
    params.update(extra)
    return params


def _report(args, name, payload, csv_rows=None, csv_header=None):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **payload}
    if args.format in ("json", "both"):
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if csv_rows is not None and args.format in ("csv", "both"):
        path = out_dir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(csv_header)
            writer.writerows(csv_rows)
        print(f"wrote {path}")
    return payload


def _horizon(config, args, default=10_000):
    if args.horizon:
        return int(args.horizon)
    return int(config.get("horizon", default))


# --- subcommands -----------------------------------------------------------


def cmd_spectrum(args):
    config, seq, horizon = _load(args)
    estimate = spectrum_estimate(
        seq,
        horizon,
        checkpoint_every=config.get("checkpoint_every"),
        tail_fraction=config.get("tail_fraction", 0.5),
    )
    rows = [
        (value, count, sum(len(r) for r in estimate.realizing_indices))
        for value, count in estimate.multiplicities
    ]
    payload = {
        "params": _resolved_params(config, args, horizon=horizon),
        "exponents": estimate.exponents.tolist(),
        "multiplicities": estimate.multiplicities,
        "horizon": estimate.horizon,
    }
    _report(args, "spectrum", payload, rows, ("exponent", "multiplicity", "realizing_count"))
    print("spectrum:", " ".join(f"{v:.6f} (x{c})" for v, c in estimate.multiplicities))
    return EXIT_OK


def cmd_splitness(args):
    config, seq, horizon = _load(args)
    sigma = int(config.get("sigma", 1))
    gamma_grid = config.get("gamma_grid", list(GAMMA_GRID))
    fss = _build_fss(seq, config, horizon)
    report = splitness_report(fss, gamma_grid, sigma)

    angles = fss.angle_profile()
    s = fss.dimension
    stats = []
    for v in report.verdicts:
        gamma = v.gamma if v.gamma is not None else min(gamma_grid)
        stats.append(gamma_statistics(fss, v.solution_index, gamma, sigma))
    k_max = len(stats[0].member_flags)
    rows = []
    for k in range(k_max):
        n = (k + 1) * sigma
        rows.append(
            (n,
             *(f"{angles[n - 1, i]:.9f}" for i in range(s)),
             *(int(st.member_flags[k]) for st in stats),
             *(f"{st.densities[k]:.9f}" for st in stats))
        )
    header = (
        ["n"]
        + [f"phi_{i + 1}" for i in range(s)]
        + [f"flag_{i + 1}" for i in range(s)]
        + [f"g_{i + 1}" for i in range(s)]
    )
    payload = {
        "params": _resolved_params(config, args, horizon=horizon, sigma=sigma),
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
    _report(args, "splitness", payload, rows, header)
    print(f"splitted: {report.splitted}")
    for v in report.verdicts:
        print(
            f"  solution {v.solution_index}: {v.status}"
            + ("" if v.rho_hat is None else f" (gamma={v.gamma:.4f}, rho={v.rho_hat:.4f})")
        )
    return EXIT_OK


def cmd_perturb(args):
    config, seq, horizon = _load(args)
    shifts = _numbers(config, "shifts")
    fss = _build_fss(seq, config, horizon)
    plan = build_plan(fss, shifts)
    outcome = execute_plan(seq, fss, plan)
    payload = {
        "params": _resolved_params(config, args, horizon=horizon),
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
    config, seq, horizon = _load(args)
    target = _numbers(config, "target_spectrum")
    epsilon = float(_numbers(config, "epsilon"))
    fss = _build_fss(seq, config, horizon)
    result = openness_experiment(seq, fss, target, epsilon)
    payload = {"params": _resolved_params(config, args, horizon=horizon), **result}
    _report(args, "assign", payload)
    print(
        f"assigned spectrum {result['achieved_exponents']} "
        f"(error {result['assignment_error']:.3e}, ||R-I|| = {result['r_norm_sup']:.6g})"
    )
    return EXIT_OK


def cmd_instability(args):
    config, seq, horizon = _load(args)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    epsilon_grid = _numbers(config, "epsilon_grid")
    fss = _build_fss(seq, config, horizon)
    result = instability_experiment(
        seq,
        fss,
        epsilon_grid,
        trials=config.get("trials", 16),
        seed=seed,
    )
    rows = [
        (
            row["epsilon"],
            row["r_norm_sup"],
            row["distance_to_base"],
            "SUCCESS" if row["success"] else "FAIL",
        )
        for row in result["rows"]
    ]
    payload = {"params": _resolved_params(config, args, horizon=horizon), **result}
    _report(args, "instability", payload, rows,
            ("epsilon", "r_norm_sup", "distance_to_base", "status"))
    for row in result["rows"]:
        print(
            f"epsilon={row['epsilon']:g}: ||R-I||={row['r_norm_sup']:.4g}, "
            f"distance={row['distance_to_base']:.4g} -> "
            + ("SUCCESS" if row["success"] else "FAIL")
        )
    return EXIT_OK


def _sin_log_extrema(max_n):
    ns = np.arange(1, int(max_n) + 1, dtype=float)
    values = np.sin(np.log(ns))
    i_max = int(np.argmax(values))
    i_min = int(np.argmin(values))
    return {
        "max_n": int(max_n),
        "max_value": float(values[i_max]),
        "argmax": i_max + 1,
        "min_value": float(values[i_min]),
        "argmin": i_min + 1,
    }


def cmd_sinln(args):
    if args.max_n < 10:
        raise InvalidInputError("--max-n must be at least 10")
    result = _sin_log_extrema(args.max_n)
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

    extrema = _sin_log_extrema(10_000)
    checks.append(("sin-ln scan max", extrema["max_value"] >= 1 - 1e-7))

    from .presets import geometric_diag

    est = spectrum_estimate(geometric_diag([1.0, 2.0]), 2000)
    checks.append(
        ("constant diag spectrum", float(np.abs(est.exponents - [0.0, math.log(2)]).max()) < 5e-3)
    )

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


def _add_common(parser, needs_config=True):
    if needs_config:
        parser.add_argument("--config", required=True, help="path to a JSON scenario config")
    parser.add_argument("--horizon", type=int, default=None, help="override the config horizon")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out-dir", default="out", help="report output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default="both")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ltvlab",
        description="Lyapunov spectrum experiments for discrete linear "
        "time-varying systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "spectrum": (cmd_spectrum, "estimate the Lyapunov spectrum"),
        "splitness": (cmd_splitness, "angle statistics and broken-away verdicts"),
        "perturb": (cmd_perturb, "synthesize and execute a spectrum-shift plan"),
        "assign": (cmd_assign, "assign a nearby target spectrum (openness)"),
        "instability": (cmd_instability, "drive spectrum jumps from a non-normal FSS"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("sinln", help="extrema scan of sin(ln n)")
    p.add_argument("--max-n", type=int, required=True)
    _add_common(p, needs_config=False)
    p.set_defaults(fn=cmd_sinln)

    p = sub.add_parser("selftest", help="quick internal consistency checks")
    _add_common(p, needs_config=False)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

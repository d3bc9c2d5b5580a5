"""Scenario runner: execute named experiments from a JSON config and emit
CSV/JSON reports with the full resolved parameter set.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 precondition violation (e.g. a shift outside the delta budget).
"""

import argparse
import dataclasses
import json
import math
import sys
import warnings
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
from .linalg import _check_integer, _check_real
from .system import CoefficientSequence, parse_generator_spec

SCHEMA_VERSION = 2
_CSV_BLOCK_ROWS = 4096  # rows of a column-built CSV formatted and written at a time

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4

_LABELS = {EXIT_CONFIG: "config error", EXIT_NUMERICAL: "numerical failure",
           EXIT_PRECONDITION: "precondition error"}


# --- config fields: a check(key, value, seq) returns the value to use ------


def _relabel(check, key, *args):
    """check(f"config field {key!r}", *args), its InvalidInputError raised as a ParseError."""
    try:
        return check(f"config field {key!r}", *args)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from None


def _integer(key, value, seq, minimum):
    """An integer >= ``minimum`` by the library's integer rule; a whole JSON number in range,
    such as 2.0 or 2.0**64, is the integer it equals, and any other float is refused as given."""
    if isinstance(value, float) and value.is_integer() and value >= minimum:
        value = int(value)  # exact: the float is whole
    return _relabel(_check_integer, key, value, minimum)


def _real(key, value, seq, low=-math.inf, high=math.inf, shape=None):
    """Real numbers in (low, high] by the library's real-number rule, of ``shape`` (-1: a
    non-empty list), or one per dimension of the system where ``shape`` is None."""
    return _relabel(_check_real, key, value, low, high,
                    (seq.dimension,) if shape is None else shape)


def _horizon(key, value, seq):
    """An integer >= 2 that a file-backed system holds the records for."""
    horizon = _integer(key, value, seq, 2)
    count = getattr(seq, "count", None)  # records in a file-backed system
    if count is not None and horizon > count + 1:  # step H uses A(1) ... A(H-1)
        raise ParseError(f"horizon {horizon} needs {horizon - 1} matrix records, "
                         f"but the matrix file holds only {count}")
    return horizon


def _basis(key, value, seq):
    """s linearly independent rows of s real numbers."""
    try:
        return _initial_basis(seq, value)
    except InvalidInputError as exc:
        raise ParseError(f"config field {key!r}: {exc}") from None


_REQUIRED = object()

_FIELDS = {  # config field -> (check, default); a default of None also accepts null
    "horizon": (_horizon, 10_000),
    "seed": (partial(_integer, minimum=0), 0),
    "checkpoint_every": (partial(_integer, minimum=1), None),
    "sigma": (partial(_integer, minimum=1), 1),
    "gamma_grid": (partial(_real, low=0.0, high=math.pi / 2, shape=(-1,)), GAMMA_GRID),
    "initial_vectors": (_basis, None),  # None: the standard basis
    "shifts": (_real, _REQUIRED),
    "target_spectrum": (_real, _REQUIRED),
    "epsilon": (partial(_real, low=0.0, shape=()), _REQUIRED),
    "trials": (partial(_integer, minimum=1), 16),
    "epsilon_grid": (partial(_real, low=0.0, shape=(-1,)), _REQUIRED),
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
    """The system, the checked config fields and the params to echo (the
    config with the resolved horizon, seed and sigma) of a config-driven
    command.  It reads horizon, seed and ``args.fields``, with --horizon and
    --seed over the config's values, and for a command that reads
    initial_vectors it builds the FSS as opts["fss"]."""
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
    if opts.get("sigma", 1) > opts["horizon"]:
        raise ParseError(f"config field 'sigma' must be at most the horizon "
                         f"{opts['horizon']}, got {opts['sigma']}")
    if "initial_vectors" in opts:
        vectors = opts["initial_vectors"]
        opts["fss"] = FSSRecord.from_initial_vectors(
            seq, np.eye(seq.dimension) if vectors is None else vectors, opts["horizon"])
    params = {**config, **{key: opts[key] for key in ("horizon", "seed", "sigma") if key in opts},
              "format": args.format, "out_dir": str(args.out_dir)}
    return seq, opts, params


def _fixed_point(x):
    """Round-half-even of the exact x * 10**9 (x >= 0), as %.9f: Dekker's product
    (10**9 has 21 bits) gives the error of p = x * 1e9, to settle a p on a half."""
    p = x * 1e9
    hi = x * 134217729.0 - (x * 134217729.0 - x)  # x to 26 bits
    err = (hi * 1e9 - p) + (x - hi) * 1e9
    r = np.rint(p)
    half = p - r
    return r + np.where((np.abs(half) == 0.5) & (half * err > 0.0), 2.0 * half, 0.0)


def _csv_field(v, neg, least, sep):
    """Bytes (slots, rows) of a sign, the digits of the whole numbers
    v < 2**52 (at least ``least``) and ``sep``, and which to write."""
    width = max(len(str(int(v.max(initial=0)))), least)
    q = np.floor(v / 10.0 ** np.arange(width, -1, -1)[:, None])  # exact below 2**52
    chars = np.empty((1 + width + len(sep), len(v)), np.uint8)
    chars[0], chars[width + 1:] = ord("-"), np.frombuffer(sep, np.uint8)[:, None]
    chars[1:width + 1] = q[1:] - 10.0 * q[:-1] + ord("0")
    keep = np.ones(chars.shape, bool)
    keep[0], keep[1:width + 1 - least] = neg, q[1:width + 1 - least] > 0.0  # no leading 0
    return chars, keep


def _csv_blocks(header, columns):
    """A CSV as bytes blocks: the header, then _CSV_BLOCK_ROWS rows of the 1-d columns
    at a time, byte for byte as %.9f for a float column and %d for any other;
    a magnitude (times 10**9 for a float) not below 2**52 is refused."""
    yield (",".join(header) + "\r\n").encode()
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        fields = []
        for i, column in enumerate(columns):
            x = np.asarray(column[start:start + _CSV_BLOCK_ROWS])
            sep = b"\r\n" if i == len(columns) - 1 else b","
            v = np.abs(x) * 1e9 if x.dtype.kind == "f" else np.abs(x.astype(float))
            if not np.all(v < 2.0**52):  # NaN fails too
                raise InvalidInputError("a CSV value is not finite or too large to write exactly")
            if x.dtype.kind != "f":
                fields.append(_csv_field(v, x < 0, 1, sep))
                continue
            v = _fixed_point(np.abs(x))
            whole = np.floor(v / 1e9)  # the integer part, a point, then 9 digits
            fields += [_csv_field(whole, np.signbit(x), 1, b"."),
                       _csv_field(v - 1e9 * whole, False, 9, sep)]
        chars, keep = (np.concatenate(parts) for parts in zip(*fields))
        yield chars.T[keep.T].tobytes()


def _csv_table(header, rows):
    """A small table's CSV as one bytes block, each cell as %s."""
    return ["".join(",".join(map(str, row)) + "\r\n" for row in [header, *rows]).encode()]


def _make_out_dir(out_dir):
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file there or above it, or no permission
        raise ParseError(f"--out-dir {str(out_dir)!r} cannot be a directory: "
                         f"{exc.strerror or exc}") from exc


def _fields(*results):
    """The repr fields of dataclass results, side by side, by name."""
    return {f.name: getattr(r, f.name) for r in results for f in dataclasses.fields(r) if f.repr}


def _encode(value):
    """A report value that JSON has no type for: a dataclass as its repr
    fields, an array as a list and a numpy scalar as a number."""
    if dataclasses.is_dataclass(value):
        return _fields(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"a {type(value).__name__} cannot be written to a report")


def _report(args, name, payload, csv=None):
    """Write the JSON payload and, when given, the CSV: bytes blocks with
    CRLF line ends, one write each.  A payload with a NaN or an infinity,
    which JSON has no token for, raises InvalidInputError (exit 3)."""
    out_dir = Path(args.out_dir)
    payload = {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **payload}
    if args.format in ("json", "both"):
        path = out_dir / f"{name}.json"
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_encode)
        except ValueError as exc:
            raise InvalidInputError(f"the {name}.json report cannot be written: {exc}") from exc
        path.write_text(text + "\n")
        print(f"wrote {path}")
    if csv is not None and args.format in ("csv", "both"):
        path = out_dir / f"{name}.csv"
        with open(path, "wb") as fh:
            fh.writelines(csv)
        print(f"wrote {path}")


# --- subcommands -----------------------------------------------------------


def _run(args):
    """A config command: its ``args.cmd(seq, opts)`` returns (a result or a
    tuple of them, CSV blocks or None, summary lines); the report holds the
    params and the results' repr fields side by side."""
    seq, opts, params = _load(args)
    result, csv, lines = args.cmd(seq, opts)
    results = result if isinstance(result, tuple) else (result,)
    _report(args, args.command, {"params": params, **_fields(*results)}, csv)
    print("\n".join(lines))
    return EXIT_OK


def cmd_spectrum(seq, opts):
    estimate = spectrum_estimate(seq, opts["horizon"], checkpoint_every=opts["checkpoint_every"])
    rows, slot = [], 0
    for value, count in estimate.multiplicities:  # a group's slots follow the previous group's
        realizing = estimate.realizing_indices[slot:slot + count]
        rows.append((value, count, sum(len(r) for r in realizing)))
        slot += count
    return estimate, _csv_table(("exponent", "multiplicity", "realizing_count"), rows), [
        "spectrum: " + " ".join(f"{v:.6f} (x{c})" for v, c in estimate.multiplicities)]


def cmd_splitness(seq, opts):
    fss, sigma = opts["fss"], opts["sigma"]
    report = splitness_report(fss, opts["gamma_grid"], sigma)
    flags, densities = zip(*(gamma_statistics(fss, v.solution_index, v.gamma, sigma)
                             for v in report.verdicts))
    ns = sigma * np.arange(1, len(flags[0]) + 1)
    columns = [ns, *fss.angle_profile()[ns - 1].T, *flags, *densities]
    header = ["n", *(f"{c}_{i + 1}" for c in ("phi", "flag", "g") for i in range(fss.dimension))]
    lines = [f"splitted: {report.splitted}"] + [
        f"  solution {v.solution_index}: {v.status} (gamma={v.gamma:.4f}, rho={v.rho_hat:.4f})"
        for v in report.verdicts
    ]
    return report, _csv_blocks(header, columns), lines


def cmd_perturb(seq, opts):
    plan = build_plan(opts["fss"], opts["shifts"])
    outcome = execute_plan(plan)
    return (plan, outcome), None, [
        f"perturbed exponents: {outcome.perturbed_exponents.tolist()} "
        f"(||R-I|| = {outcome.r_norm_sup:.6g} <= budget {outcome.norm_budget:.6g})"
    ]


def cmd_assign(seq, opts):
    result = openness_experiment(opts["fss"], opts["target_spectrum"], opts["epsilon"])
    return result, None, [
        f"assigned spectrum {result.achieved_exponents.tolist()} "
        f"(error {result.assignment_error:.3e}, ||R-I|| = {result.r_norm_sup:.6g})"
    ]


def cmd_instability(seq, opts):
    result = instability_experiment(opts["fss"], opts["epsilon_grid"],
                                    trials=opts["trials"], seed=opts["seed"])
    rows = [(row.epsilon, row.r_norm_sup, row.distance_to_base,
             "SUCCESS" if row.success else "FAIL") for row in result.rows]
    lines = [
        f"epsilon={eps:g}: ||R-I||={r_norm:.4g}, distance={distance:.4g} -> {status}"
        for eps, r_norm, distance, status in rows
    ]
    return result, _csv_table(("epsilon", "r_norm_sup", "distance_to_base", "status"), rows), lines


def cmd_sinln(args):
    if args.max_n < 10:
        raise ParseError(f"--max-n must be at least 10, got {args.max_n}")
    result = sin_log_extrema(args.max_n)
    payload = {"params": {"max_n": args.max_n}, **result}
    rows = [
        ("max", result["max_value"], result["argmax"]),
        ("min", result["min_value"], result["argmin"]),
    ]
    _report(args, "sinln", payload, _csv_table(("kind", "value", "n"), rows))
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
    outcome = execute_plan(build_plan(fss, [0.01, -0.01]))
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
                     ("checkpoint_every",)),
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
        p.set_defaults(fn=_run, cmd=fn, fields=fields)

    p = sub.add_parser("sinln", help="extrema scan of sin(ln n)")
    p.add_argument("--max-n", type=int, required=True)
    _add_output(p)
    p.set_defaults(fn=cmd_sinln)

    p = sub.add_parser("selftest", help="quick internal consistency checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    """Run a command; its exit code.  A run that fails writes its labelled
    line alone to stderr: the warnings raised on the way are held, and only
    a run that exits 0 prints each as a line ``warning: <message>``."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as held:
        try:
            if hasattr(args, "out_dir"):  # made first, so a bad one exits before any work
                _make_out_dir(args.out_dir)
            code = args.fn(args)
        except (LtvLabError, FloatingPointError, np.linalg.LinAlgError) as exc:
            code = getattr(exc, "exit_code", EXIT_NUMERICAL)
            print(f"{_LABELS[code]}: {exc}", file=sys.stderr)
        except MemoryError as exc:  # the arrays of a horizon too long for this machine
            code = EXIT_CONFIG
            print(f"{_LABELS[code]}: config field 'horizon' is too large to hold in memory: "
                  f"{exc}", file=sys.stderr)
    if code == EXIT_OK:
        for w in held:
            print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

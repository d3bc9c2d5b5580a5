"""Compare what ``python -m ltvlab.cli`` reports in two checkouts.

Usage: python3 tools/compare_reports.py PARENT CHANGE

Runs every config of the table in ``configs`` through the five config commands
(spectrum, splitness, perturb, assign, instability), and the two commands that
take no config once each, ``selftest`` and ``sinln --max-n 100000``, in each
checkout, with ``PYTHONPATH=<checkout>/src`` and a fresh working directory per
run, and prints each run whose exit code, stdout, stderr or report bytes
differ between the two, with both stderr line counts where stderr differs.
Selftest is the one other command that runs ``execute_plan`` and
``incompressibility_test``; it writes no report.  Where a JSON report
differs, it also prints three key lists: keys only in PARENT, keys only in
CHANGE and keys whose values differ.  A key is a path such as
``constants.gamma``, with ``[]`` standing for every object of a list, as in
``verdicts[].status``.  Every config holds the fields of all five commands,
so a command that refuses its config is compared by its exit code and
message.  Three configs hold a malformed real number: a string ``epsilon``, a
``true`` inside ``gamma_grid`` and a 400-digit integer in ``epsilon_grid``;
the one command of each that reads the field refuses it.  Where stderr
differs, the last stderr line of each side is printed under the run.
Each checkout's own path, and the run's working directory, are replaced by
placeholders in stdout and stderr before comparing.  Exits 1 when any run
differs.  Standard library only, so it runs against any two checkouts.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

COMMANDS = ("spectrum", "splitness", "perturb", "assign", "instability")
# the commands that take no config -> their options
SINGLE_RUNS = {"selftest": [], "sinln": ["--max-n", "100000", "--out-dir", "out"]}

SIN_LOG = (
    "dimension: 2\n"
    "kind: diagonal\n"
    "entries:\n"
    "  exp(n*sin(ln(n)) - (n+1)*sin(ln(n+1)))\n"
    "  exp(2*((n+1)*sin(ln(n+1)) - n*sin(ln(n))))\n"
)


def _fields(s):
    """The fields besides system and horizon that the commands read, for an s-d system."""
    return {
        "shifts": [0.01, -0.01, 0.0, 0.005, -0.005][:s],
        "target_spectrum": [0.001, 0.694, 1.1, 1.387, 1.61][:s],
        "epsilon": 1.0,
        "epsilon_grid": [0.1, 1.0],
    }


def _rotated_diag12():
    """Q diag(1, 2) Q^T for a rotation Q by 0.4, as a constant spec."""
    c, s = math.cos(0.4), math.sin(0.4)
    a = [[c * c + 2 * s * s, c * s - 2 * s * c], [s * c - 2 * c * s, s * s + 2 * c * c]]
    return "dimension: 2\nkind: constant\nentries:\n" + "".join(
        f"  {row[0]!r} {row[1]!r}\n" for row in a)


def _write_matrix_file(path, matrices):
    """A matrix-sequence file of ``matrices``, lists of rows, one line of entries per step."""
    s = len(matrices[0])
    with open(path, "w") as fh:
        fh.write(f"{s} {len(matrices)}\n")
        for m in matrices:
            fh.write(" ".join(repr(v) for row in m for v in row) + "\n")
    return f"dimension: {s}\nkind: file\npath: {path}\n"


def _write_diagonal_file(path, diagonals):
    """A matrix-sequence file of diagonal matrices, one row of entries per step."""
    s = len(diagonals[0])
    return _write_matrix_file(path, [[[d[i] if i == j else 0.0 for j in range(s)]
                                      for i in range(s)] for d in diagonals])


def _triangular(rng, count):
    """``count`` upper-triangular 3 x 3 matrices: diagonal exp(lambda + 0.2 u) with
    lambda = (-0.3, 0.2, 0.7) and u from U(-1, 1), strict upper entries from
    U(-0.5, 0.5), so the standard basis is a splitted FSS with dense projections."""
    return [[[math.exp((-0.3, 0.2, 0.7)[i] + 0.2 * rng.uniform(-1.0, 1.0)) if i == j
              else rng.uniform(-0.5, 0.5) if j > i else 0.0 for j in range(3)]
             for i in range(3)] for _ in range(count)]


def _dense_5d(rng):
    """A 5 x 5 constant spec: diagonal 1 + 0.5 j plus U(-0.3, 0.3) entries, so the
    spectrum takes the per-step QR loop (s >= 5) and the FSS the s >= 3 angle path."""
    a = [[1.0 + 0.5 * i if i == j else 0.0 for j in range(5)] for i in range(5)]
    a = [[v + rng.uniform(-0.3, 0.3) for v in row] for row in a]
    return "dimension: 5\nkind: constant\nentries:\n" + "".join(
        "  " + " ".join(repr(v) for v in row) + "\n" for row in a)


def configs(inputs):
    """The config table: name -> config; matrix files are written to ``inputs``."""
    rng = random.Random(0)
    signed = [[rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)) for _ in range(3)]
              for _ in range(6000)]
    zero = [[1.0, 2.0] for _ in range(5000)]
    zero[2999][0] = 0.0  # A(3000) empties e_1
    skew2, skew3 = [[1, 1], [0, 1]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    return {
        "diag12-2e4": {"system": "diag(1,2)", "horizon": 20000, **_fields(2)},
        "diag12-skew": {"system": "diag(1,2)", "horizon": 5000, "initial_vectors": skew2,
                        **_fields(2)},
        "sinlog-witness": {"system": SIN_LOG, "horizon": 10000, "initial_vectors": skew2,
                           "checkpoint_every": 1, **_fields(2), "epsilon_grid": [0.05, 0.5]},
        "sinlog-standard-12345": {"system": SIN_LOG, "horizon": 12345, **_fields(2)},
        "diag123": {"system": "diag(1,2,3)", "horizon": 9000, "checkpoint_every": 1,
                    **_fields(3)},
        "diag-3d-file": {"system": _write_diagonal_file(inputs / "signed.seq", signed),
                         "horizon": 6000, "checkpoint_every": 1, **_fields(3)},
        "rotated-diag12": {"system": _rotated_diag12(), "horizon": 6000, **_fields(2)},
        "diag-neg1-half": {"system": "diag(-1,0.5)", "horizon": 5000, **_fields(2)},
        "zero-entry": {"system": _write_diagonal_file(inputs / "zero.seq", zero),
                       "horizon": 5000, **_fields(2)},
        "diag-half-1-3-skew": {"system": "diag(0.5,1,3)", "horizon": 6000,
                               "initial_vectors": skew3, **_fields(3)},
        "triangular-3d-file": {"system": _write_matrix_file(inputs / "triangular.seq",
                                                            _triangular(random.Random(1), 4000)),
                               "horizon": 4000, **_fields(3), "shifts": [0.005, -0.004, 0.003],
                               "target_spectrum": [-0.293, 0.197, 0.702]},
        # x_2 and x_3 both turn towards e_2: x_1's angle basis collapses from n = 43 on
        "collapsing-3d": {"system": "dimension: 3\nkind: diagonal\nentries:\n  1\n  2\n"
                                    "  exp(sin(n))\n",
                          "horizon": 3001, "sigma": 2, "gamma_grid": [0.3, 1.1],
                          "initial_vectors": [[1, 0, 0], [1, 1, 0], [0, 1, 1]], **_fields(3)},
        # the volume pass at VOLUME_MAX_DIMENSION = 4; x_1 - x_4 = e_1 is a sign pattern, but
        # x_1 and x_4 both turn towards e_4, so the FSS is not splitted; the standard basis is,
        # and its instability run tries the s = 4 sign patterns before it refuses a normal FSS
        "diag1234-standard": {"system": "diag(1,2,3,4)", "horizon": 3000, **_fields(4)},
        "diag1234-cancelling": {"system": "diag(1,2,3,4)", "horizon": 3000, "checkpoint_every": 1,
                                "initial_vectors": [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0],
                                                    [0, 0, 0, 1]], **_fields(4)},
        "dense-5d": {"system": _dense_5d(random.Random(2)), "horizon": 3000, **_fields(5)},
        # malformed reals: assign, splitness and instability refuse them in turn
        "bad-epsilon-string": {"system": "diag(1,2)", "horizon": 2000, **_fields(2),
                               "epsilon": "0.5"},
        "bad-gamma-grid-true": {"system": "diag(1,2)", "horizon": 2000, **_fields(2),
                                "gamma_grid": [0.5, True]},
        "bad-epsilon-grid-huge": {"system": "diag(1,2)", "horizon": 2000, **_fields(2),
                                  "epsilon_grid": [0.1, 10**400]},
    }


def run(checkout, config_path, command, workdir):
    """Exit code, stdout, stderr and report bytes of one command in ``checkout``;
    a command of SINGLE_RUNS takes its own options and no config."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    options = SINGLE_RUNS.get(command, ["--config", str(config_path), "--out-dir", "out"])
    proc = subprocess.run(
        [sys.executable, "-m", "ltvlab.cli", command, *options],
        cwd=workdir, env=env, capture_output=True, check=False)
    out = workdir / "out"
    reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}

    def normalized(data):
        for path, mark in ((workdir, b"<workdir>"), (checkout, b"<checkout>")):
            data = data.replace(str(path).encode(), mark)
        return data

    return proc.returncode, normalized(proc.stdout), normalized(proc.stderr), reports


def _leaves(data, path=""):
    """The leaf values of JSON ``data`` by key path, each path's values in
    order; a list of objects is walked under ``path[]``, any other list is a leaf."""
    if isinstance(data, dict):
        items = [(f"{path}.{key}" if path else key, value) for key, value in data.items()]
    elif isinstance(data, list) and data and all(isinstance(v, dict) for v in data):
        items = [(f"{path}[]", value) for value in data]
    else:
        return {path: [data]}
    leaves = {}
    for key, value in items:
        for leaf, values in _leaves(value, key).items():
            leaves.setdefault(leaf, []).extend(values)
    return leaves


def key_lists(parent, change):
    """Keys only in PARENT, keys only in CHANGE and keys whose values differ,
    of two JSON reports given as bytes."""
    a, b = _leaves(json.loads(parent)), _leaves(json.loads(change))
    return (sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys()),
            sorted(key for key in a.keys() & b.keys() if a[key] != b[key]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        tmp = Path(tmp)
        (tmp / "inputs").mkdir()
        table = configs(tmp / "inputs")
        for name, config in table.items():
            (tmp / "inputs" / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")
        # every config through every config command, and each command that takes none
        pairs = ([(name, command) for name in table for command in COMMANDS]
                 + [("-", command) for command in SINGLE_RUNS])
        jobs = [(name, command, side) for name, command in pairs for side in checkouts]
        with ThreadPoolExecutor(max_workers=2) as pool:  # two runs at a time
            results = dict(zip(jobs, pool.map(
                lambda job: run(checkouts[job[2]], tmp / "inputs" / f"{job[0]}.json", job[1],
                                tmp / job[2] / f"{job[0]}-{job[1]}"), jobs)))
    differ = 0
    for name, command in pairs:
        parent, change = results[name, command, "parent"], results[name, command, "change"]
        what = [part for part, a, b in zip(("exit code", "stdout", "stderr", "reports"),
                                           parent, change) if a != b]
        differ += bool(what)
        lines = [len(side[2].splitlines()) for side in (parent, change)]
        print(f"{'DIFFERS' if what else 'same':8s} {name:22s} {command:12s} "
              f"exit {parent[0]} -> {change[0]}"
              + (f"  ({', '.join(what)})" if what else "")
              + (f"  stderr lines {lines[0]} -> {lines[1]}" if "stderr" in what else "")
              + (f"  stderr: {parent[2].decode(errors='replace').splitlines()[-1][:90]}"
                 if parent[2] and not what else ""))
        if "stderr" in what:
            for side, result in (("PARENT", parent), ("CHANGE", change)):
                last = (result[2].decode(errors="replace").splitlines() or ["-"])[-1]
                print(f"{'':9s}{side} stderr: {last[:150]}")
        for file in sorted(parent[3].keys() & change[3].keys()):
            if file.endswith(".json") and parent[3][file] != change[3][file]:
                for label, keys in zip(("only in PARENT", "only in CHANGE", "values differ"),
                                       key_lists(parent[3][file], change[3][file])):
                    print(f"{'':9s}{file} {label}: {', '.join(keys) or '-'}")
    print(f"{len(pairs)} runs, {len(pairs) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

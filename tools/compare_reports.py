"""Compare what ``python -m ltvlab.cli`` reports in two checkouts.

Usage: python3 tools/compare_reports.py PARENT CHANGE

Runs every config of the table in ``configs`` through the five config commands
(spectrum, splitness, perturb, assign, instability) once in each checkout,
with ``PYTHONPATH=<checkout>/src`` and a fresh working directory per run,
and prints each run whose exit code, stdout, stderr or report bytes differ
between the two, with both stderr line counts where stderr differs.  Every
config holds the fields of all five commands, so a command that refuses its
config is compared by its exit code and message.
Each checkout's own path, and the run's working directory, are replaced by
placeholders in stdout and stderr before comparing, so a warning that names
a source file compares equal.  Exits 1 when any run differs.  Standard
library only, so it runs against any two checkouts.
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
        "shifts": [0.01, -0.01, 0.0][:s],
        "target_spectrum": [0.001, 0.694, 1.1][:s],
        "epsilon": 1.0,
        "epsilon_grid": [0.1, 1.0],
    }


def _rotated_diag12():
    """Q diag(1, 2) Q^T for a rotation Q by 0.4, as a constant spec."""
    c, s = math.cos(0.4), math.sin(0.4)
    a = [[c * c + 2 * s * s, c * s - 2 * s * c], [s * c - 2 * c * s, s * s + 2 * c * c]]
    return "dimension: 2\nkind: constant\nentries:\n" + "".join(
        f"  {row[0]!r} {row[1]!r}\n" for row in a)


def _write_diagonal_file(path, diagonals):
    """A matrix-sequence file of diagonal matrices, one row of entries per step."""
    s = len(diagonals[0])
    with open(path, "w") as fh:
        fh.write(f"{s} {len(diagonals)}\n")
        for entries in diagonals:
            fh.write(" ".join(repr(entries[i] if i == j else 0.0)
                              for i in range(s) for j in range(s)) + "\n")
    return f"dimension: {s}\nkind: file\npath: {path}\n"


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
        # x_2 and x_3 both turn towards e_2: x_1's angle basis collapses from n = 43 on
        "collapsing-3d": {"system": "dimension: 3\nkind: diagonal\nentries:\n  1\n  2\n"
                                    "  exp(sin(n))\n",
                          "horizon": 3001, "sigma": 2, "gamma_grid": [0.3, 1.1],
                          "initial_vectors": [[1, 0, 0], [1, 1, 0], [0, 1, 1]], **_fields(3)},
    }


def run(checkout, config_path, command, workdir):
    """Exit code, stdout, stderr and report bytes of one command in ``checkout``."""
    workdir.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "ltvlab.cli", command, "--config", str(config_path),
         "--out-dir", "out"],
        cwd=workdir, env=env, capture_output=True, check=False)
    out = workdir / "out"
    reports = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}

    def normalized(data):
        for path, mark in ((workdir, b"<workdir>"), (checkout, b"<checkout>")):
            data = data.replace(str(path).encode(), mark)
        return data

    return proc.returncode, normalized(proc.stdout), normalized(proc.stderr), reports


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
        jobs = [(name, command, side) for name in table for command in COMMANDS
                for side in checkouts]
        with ThreadPoolExecutor(max_workers=2) as pool:  # two runs at a time
            results = dict(zip(jobs, pool.map(
                lambda job: run(checkouts[job[2]], tmp / "inputs" / f"{job[0]}.json", job[1],
                                tmp / job[2] / f"{job[0]}-{job[1]}"), jobs)))
    differ = 0
    for name in table:
        for command in COMMANDS:
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
    runs = len(table) * len(COMMANDS)
    print(f"{runs} runs, {runs - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

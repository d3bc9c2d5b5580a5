"""The exit-code contract of ``python -m ltvlab.cli``, through the module's
own ``sys.exit(main())``: the tests that call ``main()`` never reach that
path.  Each case runs the module in process by ``runpy`` with its own
working directory, where the configs below are written; one case runs it
in a real subprocess.  A run that exits 0 prints each warning it raised as
one ``warning: <message>`` line of its own stderr.
"""

import json
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ltvlab
from ltvlab.cli import _LABELS

WITNESS_SYSTEM = (
    "dimension: 2\n"
    "kind: diagonal\n"
    "entries:\n"
    "  exp(n*sin(ln(n)) - (n+1)*sin(ln(n+1)))\n"
    "  exp(2*((n+1)*sin(ln(n+1)) - n*sin(ln(n))))\n"
)

# x_2 and x_3 of this FSS both turn towards e_2, so x_1's complement basis
# collapses at every step from n = 43 on; perturb, assign and instability refuse it
COLLAPSING = {"system": "dimension: 3\nkind: diagonal\nentries:\n  1\n  2\n  exp(sin(n))\n",
              "sigma": 2, "gamma_grid": [0.3, 1.1],
              "initial_vectors": [[1, 0, 0], [1, 1, 0], [0, 1, 1]],
              "shifts": [0.01, -0.01, 0.0], "target_spectrum": [0.001, 0.694, 1.1],
              "epsilon": 1.0, "epsilon_grid": [0.1, 1.0]}

CONFIGS = {
    "perturb": {"system": "diag(1,2)", "horizon": 200, "shifts": [1, -1]},
    "seed": {"system": "diag(1,2)", "horizon": 200, "seed": 18446744073709551615},
    "sigma": {"system": "diag(1,2)", "horizon": 200, "sigma": 500},
    "seed_string": {"system": "diag(1,2)", "horizon": 200, "seed": "12"},
    "huge": {"system": "diag(1,2)", "horizon": 1e15},
    "tail_string": {"system": "diag(1,2)", "horizon": 200, "tail_fraction": "0.5"},
    "underscore": {"system": "diag(1_000,2)", "horizon": 200},
    "leading_zero": {"system": "diag(05,2)", "horizon": 200},
    "identity": {"system": "identity 1000000000", "horizon": 200},
    "seams": {"system": "diag(1,2)", "horizon": 8195, "shifts": [0.01, -0.01]},
    "wide": {"system": "diag(1e-200,1e200)", "horizon": 3000},
    "zero": {"system": "diag(0,2)", "horizon": 3000},
    "assign": {"system": "diag(1,2)", "horizon": 2000, "target_spectrum": [0.001, 0.694],
               "epsilon": 1.0},
    "assign_equal": {"system": "diag(2,2)", "horizon": 2000, "target_spectrum": [0.7, 0.7],
                     "epsilon": 1.0},
    "assign_1d": {"system": "diag(2)", "horizon": 2000, "target_spectrum": [0.7],
                  "epsilon": 1.0},
    "witness": {"system": WITNESS_SYSTEM, "horizon": 10000, "initial_vectors": [[1, 1], [0, 1]],
                "epsilon_grid": [0.05, 0.5]},
    "normal": {"system": "diag(1,2)", "horizon": 2000, "epsilon_grid": [0.1, 1.0]},
    "witness_2e4": {"system": WITNESS_SYSTEM, "horizon": 20000,
                    "initial_vectors": [[1, 1], [0, 1]], "epsilon_grid": [0.05, 0.5]},
    "collapsing_3001": {**COLLAPSING, "horizon": 3001},
    "collapsing_6001": {**COLLAPSING, "horizon": 6001},
}

PAST_DOUBLE = 10**400  # a JSON integer too large for a double
# real config field -> (a command that reads it, a value that holds PAST_DOUBLE)
PAST_DOUBLE_FIELDS = {
    "epsilon": ("assign", PAST_DOUBLE),
    "shifts": ("perturb", [PAST_DOUBLE, 0.0]),
    "target_spectrum": ("assign", [0.001, PAST_DOUBLE]),
    "gamma_grid": ("splitness", [0.5, PAST_DOUBLE]),
    "epsilon_grid": ("instability", [PAST_DOUBLE]),
    "initial_vectors": ("splitness", [[PAST_DOUBLE, 0], [0, 1]]),
}
CONFIGS.update({
    f"past_double_{field}": {"system": "diag(1,2)", "horizon": 200, "shifts": [0.01, -0.01],
                             "target_spectrum": [0.001, 0.694], "epsilon": 1.0,
                             "epsilon_grid": [0.1], field: value}
    for field, (_, value) in PAST_DOUBLE_FIELDS.items()
})

# (command, config, expected exit code): a config names a file of CONFIGS,
# "missing" one that does not exist; every report goes to ./out unless the
# command names its own --out-dir
CASES = [
    ("spectrum", "missing", 2),
    ("perturb", "perturb", 4),
    ("spectrum", "seed", 0),
    ("splitness", "sigma", 2),
    ("spectrum", "seed_string", 2),
    ("splitness", "huge", 2),
    # tail_fraction is no longer a field, and a command ignores fields it does not read
    ("spectrum", "tail_string", 0),
    ("spectrum", "underscore", 2),
    ("spectrum", "leading_zero", 2),
    ("spectrum", "identity", 2),
    ("perturb", "seams", 0),
    # 8195 rows: past the 4096-step chunk seams and a splitness.csv row-block seam
    ("splitness", "seams", 0),
    ("spectrum --out-dir a_file", "seed", 2),
    ("spectrum", "wide", 0),
    ("spectrum", "zero", 3),
    ("assign", "assign", 0),
    # equal exponents are refused; one exponent has no gap to refuse
    ("assign", "assign_equal", 4),
    ("assign", "assign_1d", 0),
    # the sin-log witness FSS {(1,1), (0,1)} is splitted and not normal
    ("instability", "witness", 0),
    # the standard basis of diag(1,2) is normal: no violation found
    ("instability", "normal", 4),
    # at 2e4 every candidate on the witness FSS reaches its bound, so the pass stops early: normal
    ("instability", "witness_2e4", 4),
    # a refused run writes its labelled line alone, not the collapse warning before it
    ("perturb", "collapsing_3001", 4),
    ("assign", "collapsing_3001", 4),
    ("instability", "collapsing_3001", 4),
    ("sinln --max-n 100", None, 0),
    ("selftest", None, 0),
]


def _argv(command, config):
    words = command.split()
    if config is not None:
        words += ["--config", f"{config}.json"]
    if words[0] != "selftest" and "--out-dir" not in words:
        words += ["--out-dir", "out"]
    return words


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, payload in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    (tmp_path / "a_file").write_text("")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _check_outcome(code, stderr, want, out_dir):
    assert code == want, stderr
    assert "Traceback" not in stderr
    if code in _LABELS:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{_LABELS[code]}: "), stderr
    if code == 0:  # every report written is strict JSON: no bare NaN or Infinity
        for report in out_dir.glob("*.json"):
            json.loads(report.read_text(), parse_constant=_refuse_constant)


def _run_module(monkeypatch, capsys, argv):
    """Exit code and stderr of ``python -m ltvlab.cli argv``, run in process."""
    monkeypatch.setattr(sys, "argv", ["ltvlab", *argv])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exit_info:
        warnings.simplefilter("default")
        # runpy's own notice that the test already imported ltvlab.cli
        warnings.filterwarnings("ignore", "'ltvlab.cli' found in sys.modules", RuntimeWarning)
        runpy.run_module("ltvlab.cli", run_name="__main__")
    return exit_info.value.code, capsys.readouterr().err


@pytest.mark.parametrize("command, config, want", CASES,
                         ids=[f"{c.split()[0]}-{f}-{w}" for c, f, w in CASES])
def test_exit_code_through_the_module(workdir, monkeypatch, capsys, command, config, want):
    argv = _argv(command, config)
    code, stderr = _run_module(monkeypatch, capsys, argv)
    _check_outcome(code, stderr, want, workdir / "out")
    if want == 0 and argv[0] != "selftest":
        assert list((workdir / "out").glob("*.json"))


@pytest.mark.parametrize("field", list(PAST_DOUBLE_FIELDS))
def test_a_number_past_the_double_range_is_a_config_error(workdir, monkeypatch, capsys, field):
    command = PAST_DOUBLE_FIELDS[field][0]
    code, stderr = _run_module(monkeypatch, capsys, _argv(command, f"past_double_{field}"))
    _check_outcome(code, stderr, 2, workdir / "out")
    assert f"config field {field!r}" in stderr


def test_stderr_of_a_collapsing_basis_does_not_grow_with_the_horizon(workdir, monkeypatch,
                                                                     capsys):
    # one labelled line for the whole profile, with no source location
    for config in ("collapsing_3001", "collapsing_6001"):
        code, stderr = _run_module(monkeypatch, capsys, _argv("splitness", config))
        _check_outcome(code, stderr, 0, workdir / "out")
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("warning: angle basis numerically collapsed at "), stderr


def test_exit_code_through_a_subprocess(workdir):
    paths = [str(Path(ltvlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-m", "ltvlab.cli", *_argv("spectrum", "zero")],
                         capture_output=True, text=True, env=env, timeout=120)
    _check_outcome(run.returncode, run.stderr, 3, workdir / "out")

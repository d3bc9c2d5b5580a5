import json
import math

import numpy as np
import pytest

from ltvlab import ParseError, read_matrix_sequence, write_matrix_sequence
from ltvlab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
)

SIN_LOG_SYSTEM = (
    "dimension: 2\n"
    "kind: diagonal\n"
    "entries:\n"
    "  exp(n*sin(ln(n)) - (n+1)*sin(ln(n+1)))\n"
    "  exp(2*((n+1)*sin(ln(n+1)) - n*sin(ln(n))))\n"
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_spectrum_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 4000}
    )
    out = tmp_path / "out"
    code = main(["spectrum", "--config", cfg, "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["schema_version"] == 1
    assert abs(payload["exponents"][0]) < 1e-3
    assert abs(payload["exponents"][1] - math.log(2)) < 1e-3
    assert (out / "spectrum.csv").exists()
    assert "spectrum:" in capsys.readouterr().out


def test_spectrum_horizon_override(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)"})
    out = tmp_path / "out"
    code = main(
        ["spectrum", "--config", cfg, "--horizon", "500", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["horizon"] == 500


def test_splitness_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "system": SIN_LOG_SYSTEM,
            "horizon": 3000,
            "initial_vectors": [[1, 1], [0, 1]],
        },
    )
    out = tmp_path / "out"
    code = main(["splitness", "--config", cfg, "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "splitness.json").read_text())
    assert payload["splitted"] is True
    assert all(v["status"] == "yes" for v in payload["verdicts"])
    assert "splitted: True" in capsys.readouterr().out


def test_perturb_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"system": "diag(1,2)", "horizon": 4000, "shifts": [0.01, -0.01]},
    )
    out = tmp_path / "out"
    code = main(["perturb", "--config", cfg, "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "perturb.json").read_text())
    assert payload["constants"]["beta"] == pytest.approx(13.444, abs=1e-3)
    assert payload["agreement_residual"] < 1e-9
    assert abs(payload["perturbed_exponents"][0] - 0.01) < 2e-3


def test_perturb_budget_violation_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"system": "diag(1,2)", "horizon": 2000, "shifts": [0.5, -0.5]},
    )
    code = main(["perturb", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION


def test_assign_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "system": "diag(1,2)",
            "horizon": 4000,
            "target_spectrum": [0.01, math.log(2) - 0.01],
            "epsilon": 0.2,
        },
    )
    out = tmp_path / "out"
    code = main(["assign", "--config", cfg, "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "assign.json").read_text())
    assert payload["assignment_error"] < 2e-3
    assert payload["within_epsilon"]


def test_assign_precondition_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "system": "diag(1,2)",
            "horizon": 2000,
            "target_spectrum": [1.0, 2.0],
            "epsilon": 0.2,
        },
    )
    code = main(["assign", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_PRECONDITION


def test_instability_command(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {
            "system": SIN_LOG_SYSTEM,
            "horizon": 10000,
            "initial_vectors": [[1, 1], [0, 1]],
            "epsilon_grid": [0.05],
        },
    )
    out = tmp_path / "out"
    code = main(["instability", "--config", cfg, "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "instability.json").read_text())
    assert payload["rows"][0]["success"]
    assert "SUCCESS" in capsys.readouterr().out


def test_instability_precondition_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"system": "diag(1,2)", "horizon": 2000, "epsilon_grid": [0.1]},
    )
    code = main(
        ["instability", "--config", cfg, "--out-dir", str(tmp_path / "o")]
    )
    assert code == EXIT_PRECONDITION


def test_sinln_command(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sinln", "--max-n", "100000", "--out-dir", str(out)])
    assert code == EXIT_OK
    payload = json.loads((out / "sinln.json").read_text())
    assert payload["max_value"] >= 1 - 1e-7
    assert payload["min_value"] <= -0.9999
    assert "max" in capsys.readouterr().out


def test_selftest_command(tmp_path, capsys):
    code = main(["selftest", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_missing_config_file_exit_code(tmp_path):
    code = main(
        ["spectrum", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]
    )
    assert code == EXIT_CONFIG


def test_malformed_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["spectrum", "--config", str(path), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_bad_system_spec_exit_code(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,oops)"})
    code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_format_json_only(tmp_path):
    cfg = write_config(
        tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 500}
    )
    out = tmp_path / "out"
    code = main(
        ["spectrum", "--config", cfg, "--out-dir", str(out), "--format", "json"]
    )
    assert code == EXIT_OK
    assert (out / "spectrum.json").exists()
    assert not (out / "spectrum.csv").exists()


def file_system(tmp_path, count, bad_value=None):
    matrices = [np.diag([1.0, 2.0]) for _ in range(count)]
    if bad_value is not None:
        matrices[count // 2] = np.array([[1.0, bad_value], [0.0, 2.0]])
    path = tmp_path / "seq.txt"
    write_matrix_sequence(path, matrices)
    return path, f"dimension: 2\nkind: file\npath: {path}\n"


def test_file_backed_horizon_beyond_the_records_exit_code(tmp_path, capsys):
    _, spec = file_system(tmp_path, 50)
    cfg = write_config(tmp_path, "cfg.json", {"system": spec, "horizon": 52})
    code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "holds only 50" in capsys.readouterr().err
    # A(1) ... A(H-1) drive a horizon of H, so count + 1 steps still fit
    code = main(["spectrum", "--config", cfg, "--horizon", "51",
                 "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_OK


@pytest.mark.parametrize("bad_value", [float("nan"), float("inf")])
def test_non_finite_matrix_file_exit_code(tmp_path, capsys, bad_value):
    path, spec = file_system(tmp_path, 20, bad_value)
    with pytest.raises(ParseError, match="seq.txt"):
        read_matrix_sequence(path)
    cfg = write_config(tmp_path, "cfg.json", {"system": spec, "horizon": 20})
    code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "seq.txt" in capsys.readouterr().err


def test_non_numeric_matrix_file_exit_code(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("2 1\n1 0\n0 two\n")
    cfg = write_config(
        tmp_path, "cfg.json", {"system": f"dimension: 2\nkind: file\npath: {path}\n"}
    )
    code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, fields",
    [
        ("perturb", {"shifts": ["a", 0.0]}),
        ("perturb", {"shifts": [0.01, float("nan")]}),
        ("assign", {"target_spectrum": [0.0, "x"], "epsilon": 0.2}),
        ("assign", {"target_spectrum": [0.01, 0.68], "epsilon": "big"}),
        ("instability", {"epsilon_grid": ["0.1x"]}),
    ],
)
def test_non_numeric_config_numbers_exit_code(tmp_path, capsys, command, fields):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 500, **fields})
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_selftest_checks_projection_norms_in_3d(tmp_path, capsys):
    assert main(["selftest", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert "PASS  3-d projection norm times angle sine" in capsys.readouterr().out

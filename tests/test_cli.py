import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ltvlab import ParseError, read_matrix_sequence, write_matrix_sequence
from ltvlab.cli import (
    _FIELDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
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


def test_splitness_csv_has_nine_decimals_and_crlf_line_ends(tmp_path):
    from ltvlab.splitness import FSSRecord, gamma_statistics, splitness_report
    from ltvlab.system import parse_generator_spec

    fields = {"system": SIN_LOG_SYSTEM, "horizon": 600, "initial_vectors": [[1, 1], [0, 1]],
              "sigma": 3}
    out = tmp_path / "out"
    assert main(["splitness", "--config", write_config(tmp_path, "cfg.json", fields),
                 "--out-dir", str(out)]) == EXIT_OK
    # the same table through csv.writer, one formatted cell at a time
    fss = FSSRecord.from_initial_vectors(parse_generator_spec(SIN_LOG_SYSTEM), [[1, 1], [0, 1]],
                                         600)
    report = splitness_report(fss, sigma=3)
    stats = [gamma_statistics(fss, v.solution_index, v.gamma, 3) for v in report.verdicts]
    angles = fss.angle_profile()
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["n", "phi_1", "phi_2", "flag_1", "flag_2", "g_1", "g_2"])
    for k in range(200):
        n = 3 * (k + 1)
        writer.writerow([n, *(f"{angles[n - 1, i]:.9f}" for i in range(2)),
                         *(int(st.member_flags[k]) for st in stats),
                         *(f"{st.densities[k]:.9f}" for st in stats)])
    assert (out / "splitness.csv").read_bytes() == expected.getvalue().encode()


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


def test_selftest_command(capsys):
    code = main(["selftest"])
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
    constant = "dimension: 2\nkind: constant\nentries:\n  1 0\n  0 {}\n"
    diagonal = "dimension: 1\nkind: diagonal\nentries:\n  {}\n"
    for spec in ("diag(1,oops)", "diag(1,nan)", "diag(1e400, 2)",
                 constant.format("nan"), constant.format("inf"),
                 diagonal.format("1e400"), diagonal.format("n*1e400")):
        cfg = write_config(tmp_path, "cfg.json", {"system": spec})
        code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == EXIT_CONFIG, spec


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
    cfg = write_config(
        tmp_path, "cfg.json", {"system": f"dimension: 2\nkind: file\npath: {path}\n"}
    )
    for text in ("2 1\n1 0\n0 two\n", "2 0\n", "0 5\n"):
        path.write_text(text)
        code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG, text


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


def test_selftest_checks_projection_norms_in_3d(capsys):
    assert main(["selftest"]) == EXIT_OK
    assert "PASS  3-d projection norm times angle sine" in capsys.readouterr().out


def test_selftest_checks_the_spectrum_of_a_rotated_system(capsys):
    assert main(["selftest"]) == EXIT_OK
    assert "PASS  rotated diag spectrum" in capsys.readouterr().out


@pytest.mark.parametrize(
    "formula",
    ["(" * 300 + "n" + ")" * 300, "n" + "+n" * 250, "-" * 250 + "n"],
    ids=["parentheses", "sum", "negations"],
)
def test_formula_nested_too_deeply_exit_code(tmp_path, capsys, formula):
    spec = f"dimension: 2\nkind: diagonal\nentries:\n  {formula}\n  1\n"
    cfg = write_config(tmp_path, "cfg.json", {"system": spec, "horizon": 100})
    code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["spectrum", "splitness"])
@pytest.mark.parametrize(
    "formula, step",
    [("1/(n-3)", 3), ("pow(-1-n, 0.5)", 1)],  # a division by zero; a complex value
)
def test_formula_without_a_finite_real_value_exit_code(tmp_path, capsys, command, formula, step):
    spec = f"dimension: 2\nkind: diagonal\nentries:\n  {formula}\n  1\n"
    cfg = write_config(tmp_path, "cfg.json", {"system": spec, "horizon": 100})
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert f"n={step}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, fields, name",
    [
        ("spectrum", {"horizon": "abc"}, "horizon"),
        ("spectrum", {"horizon": 0}, "horizon"),
        ("splitness", {"horizon": 1}, "horizon"),
        ("perturb", {"horizon": 2.5, "shifts": [0.01, -0.01]}, "horizon"),
        ("spectrum", {"checkpoint_every": 0}, "checkpoint_every"),
        ("splitness", {"sigma": 0}, "sigma"),
        ("instability", {"trials": "abc", "epsilon_grid": [0.1]}, "trials"),
        ("instability", {"trials": 2.5, "epsilon_grid": [0.1]}, "trials"),
        ("instability", {"trials": 0, "epsilon_grid": [0.1]}, "trials"),
        ("instability", {"seed": -1, "epsilon_grid": [0.1]}, "seed"),
        ("spectrum", {"seed": "abc"}, "seed"),
    ],
)
def test_bad_integer_config_field_exit_code(tmp_path, capsys, command, fields, name):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 200, **fields})
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert repr(name) in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--horizon", "0")])
def test_bad_integer_option_exit_code(tmp_path, capsys, option, value):
    cfg = write_config(tmp_path, "cfg.json",
                       {"system": "diag(1,2)", "horizon": 200, "epsilon_grid": [0.1]})
    code = main(["instability", "--config", cfg, option, value, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert repr(option[2:]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, fields, name",
    [
        ("splitness", {"gamma_grid": []}, "gamma_grid"),
        ("splitness", {"gamma_grid": [float("nan")]}, "gamma_grid"),
        ("splitness", {"gamma_grid": [0.5, 2.0]}, "gamma_grid"),
        ("spectrum", {"tail_fraction": float("nan")}, "tail_fraction"),
        ("spectrum", {"tail_fraction": 5}, "tail_fraction"),
        ("spectrum", {"tail_fraction": -1}, "tail_fraction"),
        ("perturb", {"shifts": [0.01, -0.01], "initial_vectors": [[1, 0], ["x", 1]]},
         "initial_vectors"),
        ("perturb", {"shifts": [0.01, -0.01], "initial_vectors": [[1, 0], [1]]},
         "initial_vectors"),
        ("perturb", {"shifts": [0.01, -0.01], "initial_vectors": [[1, 0, 0], [0, 1, 0]]},
         "initial_vectors"),
        ("assign", {"target_spectrum": [0.01, 0.68], "epsilon": [0.2]}, "epsilon"),
        ("instability", {"epsilon_grid": []}, "epsilon_grid"),
        ("instability", {"epsilon_grid": [0.1, -0.1]}, "epsilon_grid"),
        ("perturb", {"shifts": [0.01]}, "shifts"),
        ("perturb", {"shifts": [0.01, -0.01, 0.0]}, "shifts"),
        ("perturb", {"shifts": [[0.01, -0.01]]}, "shifts"),
        ("assign", {"target_spectrum": [0.01], "epsilon": 0.2}, "target_spectrum"),
        ("assign", {"target_spectrum": [0.01, 0.68, 1.0], "epsilon": 0.2}, "target_spectrum"),
        ("perturb", {"shifts": [0.01, -0.01], "initial_vectors": [[1, 1], [2, 2]]},
         "initial_vectors"),
        ("splitness", {"initial_vectors": [[1, 1], [2, 2]]}, "initial_vectors"),
        ("assign", {"target_spectrum": [0.01, 0.68], "epsilon": 0.2,
                    "initial_vectors": [[0, 0], [0, 0]]}, "initial_vectors"),
    ],
)
def test_bad_number_config_field_exit_code(tmp_path, capsys, command, fields, name):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 200, **fields})
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert repr(name) in capsys.readouterr().err


def test_bad_max_n_option_exit_code(tmp_path, capsys):
    assert main(["sinln", "--max-n", "5", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize("config", [[1, 2], 3, "diag(1,2)", None])
def test_config_that_is_not_an_object_exit_code(tmp_path, capsys, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    code = main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "JSON object" in capsys.readouterr().err


def test_selftest_checks_two_incompressibility_verdicts(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  normal FSS verdict" in out
    assert "PASS  non-normal FSS witness" in out


def test_selftest_checks_a_perturbation_plan(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS  perturbation closed-form oracle" in out
    assert "PASS  perturbed exponents" in out


# --- malformed configs: a documented exit code, never a traceback ----------

VALID_CONFIGS = {  # command -> (a valid config on diag(1,2), its exit code)
    "spectrum": ({"horizon": 200, "tail_fraction": 0.5, "checkpoint_every": 10}, EXIT_OK),
    "splitness": (
        {"horizon": 200, "gamma_grid": [0.4, 0.8], "sigma": 2, "initial_vectors": [[1, 0], [1, 1]]},
        EXIT_OK,
    ),
    "perturb": ({"horizon": 200, "shifts": [0.01, -0.01], "initial_vectors": [[1, 0], [0, 1]]},
                EXIT_OK),
    "assign": ({"horizon": 200, "target_spectrum": [0.01, 0.68], "epsilon": 0.2}, EXIT_OK),
    # diag(1,2) has a normal FSS, which the instability experiment refuses
    "instability": ({"horizon": 200, "epsilon_grid": [0.1]}, EXIT_PRECONDITION),
}
TOP_LEVEL = "<top level>"
ABSENT = object()  # a drawn value that removes the field from the config
MISSING_FILE = "no-such-directory/spec.txt"

_NOT_A_NUMBER = st.one_of(
    st.text(alphabet="abxyz ,{}", max_size=4),  # no digits, so never parses as a number
    st.lists(st.text(alphabet="ab", min_size=1), min_size=1, max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=1),
    st.sampled_from([[], [[1.0], [1.0, 2.0]], float("nan"), float("inf"), -float("inf")]),
)
_NOT_AN_INTEGER = st.one_of(
    _NOT_A_NUMBER,
    st.just(True),
    st.floats(0.0, 1000.0).filter(lambda x: x != int(x)),
)
_GOOD_GAMMAS = st.lists(st.floats(0.1, 1.5), max_size=2)
_BAD_GAMMA = st.one_of(st.floats(max_value=0.0), st.floats(min_value=math.pi / 2, exclude_min=True))
_NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False)
_WRONG_LENGTH = st.lists(st.floats(-0.01, 0.01), max_size=4).filter(lambda v: len(v) != 2)

BAD_VALUES = {  # field -> (commands that read it, values it must refuse)
    "horizon": (list(VALID_CONFIGS), st.one_of(_NOT_AN_INTEGER, st.integers(max_value=1))),
    "checkpoint_every": (["spectrum"], st.one_of(_NOT_AN_INTEGER, st.integers(max_value=0))),
    "sigma": (["splitness"], st.one_of(_NOT_AN_INTEGER, st.integers(max_value=0))),
    "tail_fraction": (["spectrum"], st.one_of(
        _NOT_A_NUMBER, _NOT_POSITIVE, st.floats(min_value=1.0, exclude_min=True),
        st.lists(st.floats(0.1, 1.0), min_size=1, max_size=2),
    )),
    "gamma_grid": (["splitness"], st.one_of(
        _NOT_A_NUMBER, st.floats(0.1, 1.5),
        st.tuples(_GOOD_GAMMAS, _BAD_GAMMA).map(lambda t: t[0] + [t[1]]),
    )),
    "epsilon": (["assign"], st.one_of(
        _NOT_A_NUMBER, _NOT_POSITIVE, st.lists(st.floats(0.1, 1.0), min_size=1, max_size=2),
    )),
    "epsilon_grid": (["instability"], st.one_of(
        _NOT_A_NUMBER, st.floats(0.1, 1.0),
        st.tuples(st.lists(st.floats(0.1, 1.0), max_size=2), _NOT_POSITIVE).map(
            lambda t: t[0] + [t[1]]),
    )),
    "shifts": (["perturb"], st.one_of(
        _NOT_A_NUMBER, _WRONG_LENGTH, st.lists(st.floats(0.5, 10.0), min_size=2, max_size=2),
    )),
    "target_spectrum": (["assign"], st.one_of(
        _NOT_A_NUMBER, _WRONG_LENGTH, st.lists(st.floats(2.0, 10.0), min_size=2, max_size=2),
    )),
    "initial_vectors": (["splitness", "perturb"], st.one_of(
        _NOT_A_NUMBER,
        st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda rc: rc != (2, 2)).flatmap(
            lambda rc: st.lists(st.lists(st.floats(-1.0, 1.0), min_size=rc[1], max_size=rc[1]),
                                min_size=rc[0], max_size=rc[0])),
        st.just([[1.0, 1.0], [2.0, 2.0]]),  # linearly dependent
    )),
    "seed": (list(VALID_CONFIGS), st.one_of(_NOT_AN_INTEGER, st.integers(max_value=-1))),
    "trials": (["instability"], st.one_of(_NOT_AN_INTEGER, st.integers(max_value=0))),
    "system": (list(VALID_CONFIGS), st.sampled_from(
        [{}, {"file": 3}, {"file": MISSING_FILE}, ABSENT])),
    TOP_LEVEL: (list(VALID_CONFIGS), st.one_of(
        st.lists(st.integers(), max_size=3), st.integers(), st.text(max_size=3), st.none(),
    )),
}
CORRUPTIONS = [(command, field) for field, (commands, _) in BAD_VALUES.items()
               for command in commands]


@pytest.mark.parametrize("command", list(VALID_CONFIGS))
def test_valid_configs_behind_the_malformed_config_property(tmp_path, command):
    fields, code = VALID_CONFIGS[command]
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", **fields})
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == code


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_config_gives_a_documented_exit_code(tmp_path, data):
    command, field = data.draw(st.sampled_from(CORRUPTIONS))
    value = data.draw(BAD_VALUES[field][1], label=field)
    if field == TOP_LEVEL:
        config = value
    else:
        config = {"system": "diag(1,2)", **VALID_CONFIGS[command][0], field: value}
        if value is ABSENT:
            del config[field]
    cfg = write_config(tmp_path, "cfg.json", config)
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code in (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_PRECONDITION)


@pytest.mark.parametrize("command, field", [
    (command, field) for field, (commands, _) in BAD_VALUES.items()
    if field not in (TOP_LEVEL, "system") for command in commands
])
def test_null_config_field_exit_code(tmp_path, capsys, command, field):
    # null stands for the default where the default is none; elsewhere it is refused
    fields, code = VALID_CONFIGS[command]
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", **fields, field: None})
    if field in ("checkpoint_every", "initial_vectors"):
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == code
    else:
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert repr(field) in capsys.readouterr().err


@pytest.mark.parametrize("system", [{}, {"file": 3}, {"file": MISSING_FILE}, ABSENT,
                                    f"dimension: 2\nkind: file\npath: {MISSING_FILE}\n"])
def test_bad_system_field_exit_code(tmp_path, capsys, system):
    config = {"horizon": 200} if system is ABSENT else {"system": system, "horizon": 200}
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "config field 'system'" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [
    ("perturb", "shifts"), ("assign", "target_spectrum"), ("assign", "epsilon"),
    ("instability", "epsilon_grid"),
])
def test_missing_required_config_field_exit_code(tmp_path, capsys, command, name):
    fields = {**VALID_CONFIGS[command][0]}
    del fields[name]
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", **fields})
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config field {name!r} is required" in capsys.readouterr().err


def test_readme_config_table_has_a_row_per_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config format\n")[1].split("\n#")[0]
    rows = {line.split("|")[1].strip(" `") for line in section.splitlines()
            if line.startswith("| `")}
    assert rows == {"system", *_FIELDS}

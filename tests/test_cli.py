import csv
import dataclasses
import io
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ltvlab import (
    InvalidInputError,
    ParseError,
    PerturbationOutcome,
    PerturbationPlan,
    SpectrumEstimate,
    SplitnessReport,
    perturb,
    read_matrix_sequence,
    write_matrix_sequence,
)
from ltvlab.cli import (
    _CSV_BLOCK_ROWS,
    _FIELDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    _csv_blocks,
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
    assert payload["schema_version"] == 2
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
    assert payload["params"]["horizon"] == 500


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


# an orthogonal Q: its solutions keep their angles, none collapses
ROTATION_3D = ("dimension: 3\nkind: dense\nentries:\n"
               "  2/3; -2/3; 1/3\n  2/3; 1/3; -2/3\n  1/3; 2/3; 2/3\n")


@pytest.mark.parametrize("system, vectors, horizon, sigma", [
    pytest.param(SIN_LOG_SYSTEM, [[1, 1], [0, 1]], 600, 3, id="sin-log"),
    # 4,100 rows: past the first block of rows the CSV writer formats at once
    pytest.param(ROTATION_3D, [[1, 0.2, 0.3], [0.1, 1, 0.5], [0.4, -0.6, 1]], 8200, 2,
                 id="rotation-3d"),
])
def test_splitness_csv_has_nine_decimals_and_crlf_line_ends(tmp_path, system, vectors,
                                                            horizon, sigma):
    from ltvlab.splitness import FSSRecord, gamma_statistics, splitness_report
    from ltvlab.system import parse_generator_spec

    fields = {"system": system, "horizon": horizon, "initial_vectors": vectors, "sigma": sigma}
    out = tmp_path / "out"
    assert main(["splitness", "--config", write_config(tmp_path, "cfg.json", fields),
                 "--out-dir", str(out)]) == EXIT_OK
    # the same table through csv.writer, one formatted cell at a time
    fss = FSSRecord.from_initial_vectors(parse_generator_spec(system), vectors, horizon)
    report = splitness_report(fss, sigma=sigma)
    stats = [gamma_statistics(fss, v.solution_index, v.gamma, sigma)
             for v in report.verdicts]  # (flags, densities) per member
    angles = fss.angle_profile()
    s = len(vectors)
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(["n", *(f"{c}_{i + 1}" for c in ("phi", "flag", "g") for i in range(s))])
    for k in range(horizon // sigma):
        n = sigma * (k + 1)
        writer.writerow([n, *(f"{angles[n - 1, i]:.9f}" for i in range(s)),
                         *(int(flags[k]) for flags, _ in stats),
                         *(f"{densities[k]:.9f}" for _, densities in stats)])
    assert (out / "splitness.csv").read_bytes() == expected.getvalue().encode()


def csv_lines(columns):
    header, *rows = b"".join(_csv_blocks(["a", "b"], columns)).decode().split("\r\n")
    assert header == "a,b" and rows[-1] == ""
    return rows[:-1]


def percent_lines(columns):
    formats = ["%d" if np.asarray(c).dtype.kind in "biu" else "%.9f" for c in columns]
    return [",".join(f % v for f, v in zip(formats, row))
            for row in zip(*(np.asarray(c).tolist() for c in columns))]


# below 2**52 / 10**9, the largest |x| whose x * 10**9 the formatter takes
FIXED_LIMIT = float(np.nextafter(2.0**52 / 1e9, 0.0))


def half_way_values(count=9):
    """x = k * 2**-52 in [1, 2) with k * 5**9 = 2**42 + t (mod 2**43): x * 10**9
    is t * 2**-43 off a half, which the double nearest x * 1e9 rounds onto."""
    inverse = pow(5**9, -1, 2**43)
    values = []
    for t in [t for t in range(-count, count + 1) if t]:
        k = (2**42 + t) * inverse % 2**43 + 700 * 2**43
        values.append(k * 2.0**-52)
    return values


def test_csv_columns_match_percent_formats_on_fixed_cases():
    ties = np.arange(-2048, 2049) / 1024.0
    floats = np.concatenate([
        [0.0, -0.0, math.pi / 2, 1.0, -1.0, FIXED_LIMIT, -FIXED_LIMIT, 5e-324, -1e-300],
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), half_way_values(),
    ])
    ints = np.resize(np.array([0, 7, -7, 10, 2**52 - 1, -(2**52 - 1)]), floats.size)
    flags = np.arange(floats.size) % 3 == 0
    columns = [ints, floats, flags, floats[::-1]]
    assert csv_lines(columns) == percent_lines(columns)
    assert csv_lines([np.array([1]), np.array([1.0005514405])]) == ["1,1.000551441"]
    # a block boundary: each row is written once and in order
    n = np.arange(1, 2 * _CSV_BLOCK_ROWS + 3)
    assert csv_lines([n, n / 7.0]) == percent_lines([n, n / 7.0])


def test_csv_columns_refuse_values_outside_the_exact_range():
    for bad in (np.nan, np.inf, -np.inf, 2.0**52 / 1e9):
        with pytest.raises(InvalidInputError):
            csv_lines([np.array([1, 2]), np.array([0.5, bad])])
    for bad in (2**52, -(2**52), np.iinfo(np.int64).min):
        with pytest.raises(InvalidInputError):
            csv_lines([np.array([1, bad])])


FIXED_FLOATS = st.one_of(
    st.floats(-FIXED_LIMIT, FIXED_LIMIT),
    st.floats(-10.0, 10.0),
    st.integers(-2**20, 2**20).map(lambda k: k / 1024.0),
    st.sampled_from(half_way_values()),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-(2**52) + 1, 2**52 - 1), FIXED_FLOATS, st.booleans(),
                          FIXED_FLOATS), min_size=1, max_size=40))
def test_csv_columns_match_percent_formats(rows):
    ints, floats, flags, more = (np.array(c) for c in zip(*rows))
    columns = [ints, floats, flags, more]
    assert csv_lines(columns) == percent_lines(columns)


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


@pytest.mark.parametrize(
    "system, targets, expected",
    [("diag(2)", [0.7], EXIT_OK), ("diag(2,2)", [0.7, 0.7], EXIT_PRECONDITION)],
    ids=["one-dimensional", "equal-exponents"],
)
def test_assign_exit_code_by_exponent_gaps(tmp_path, system, targets, expected):
    cfg = write_config(
        tmp_path,
        "cfg.json",
        {"system": system, "horizon": 2000, "target_spectrum": targets, "epsilon": 1.0},
    )
    code = main(["assign", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == expected


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_assign_on_one_exponent_writes_a_strict_json_report(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(2)", "horizon": 2000,
                                              "target_spectrum": [0.7], "epsilon": 1.0})
    assert main(["assign", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    payload = strict_json((tmp_path / "o" / "assign.json").read_text())
    assert payload["eta"] is None  # one exponent has no gap
    assert abs(payload["achieved_exponents"][0] - 0.7) <= 1e-3


def test_a_report_value_that_is_not_json_exits_3_naming_the_report(tmp_path, capsys,
                                                                   monkeypatch):
    def openness_experiment(fss, target, epsilon):
        result = perturb.openness_experiment(fss, target, epsilon)
        return dataclasses.replace(result, assignment_error=math.nan)

    monkeypatch.setattr("ltvlab.cli.openness_experiment", openness_experiment)
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(2)", "horizon": 200,
                                              "target_spectrum": [0.7], "epsilon": 1.0})
    assert main(["assign", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the assign.json report") and err.count("\n") == 1
    assert not (tmp_path / "o" / "assign.json").exists()


REPORTED_RESULTS = {  # command -> the results whose repr fields its report holds
    "spectrum": (SpectrumEstimate,),
    "splitness": (SplitnessReport,),
    "perturb": (PerturbationPlan, PerturbationOutcome),
    "assign": (perturb.OpennessResult,),
    "instability": (perturb.InstabilityResult,),
}


@pytest.mark.parametrize("command", list(REPORTED_RESULTS))
def test_a_report_holds_the_repr_fields_of_its_results(tmp_path, command):
    config = {"system": "diag(1,2)", "horizon": 2000, "shifts": [0.01, -0.01],
              "target_spectrum": [0.01, math.log(2) - 0.01], "epsilon": 0.2}
    if command == "instability":  # needs a splitted, non-normal FSS
        config = {"system": SIN_LOG_SYSTEM, "horizon": 5000, "initial_vectors": [[1, 1], [0, 1]],
                  "epsilon_grid": [0.05]}
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    payload = strict_json((tmp_path / "o" / f"{command}.json").read_text())
    fields = {f.name for cls in REPORTED_RESULTS[command] for f in dataclasses.fields(cls)
              if f.repr}
    assert set(payload) == {"schema_version", "tool_version", "params"} | fields
    if command != "instability":  # no per-step array: no list is longer than s = 2
        assert longest_list(payload) <= 2


def longest_list(value):
    """The length of the longest list anywhere in JSON ``value``, 0 for none."""
    if isinstance(value, dict):
        return max(map(longest_list, value.values()), default=0)
    if isinstance(value, list):
        return max([len(value), *map(longest_list, value)])
    return 0


def test_spectrum_csv_counts_the_realizing_checkpoints_of_each_group(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 2000,
                                              "checkpoint_every": 1})
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    rows = (tmp_path / "o" / "spectrum.csv").read_text().splitlines()
    assert rows[0] == "exponent,multiplicity,realizing_count"
    # each exponent of diag(1,2) is realized at every checkpoint n = 1000, ..., 2000
    assert [row.split(",")[1:] for row in rows[1:]] == [["1", "1001"], ["1", "1001"]]


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


@pytest.mark.parametrize("command", ["spectrum", "splitness", "perturb", "assign",
                                     "instability", "sinln"])
@pytest.mark.parametrize("below", [False, True])
def test_out_dir_that_cannot_be_a_directory_exit_code(tmp_path, capsys, monkeypatch, command,
                                                      below):
    def refuse(*args):
        raise AssertionError("the system was read before the output directory was checked")

    monkeypatch.setattr("ltvlab.cli.parse_generator_spec", refuse)
    monkeypatch.setattr("ltvlab.cli.sin_log_extrema", refuse)
    blocker = tmp_path / "a file"
    blocker.write_text("")
    out = blocker / "sub" if below else blocker
    fields, _ = VALID_CONFIGS.get(command, ({}, None))
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", **fields})
    argv = ["sinln", "--max-n", "100"] if command == "sinln" else [command, "--config", cfg]
    assert main([*argv, "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --out-dir ") and str(out) in err
    assert err.count("\n") == 1
    assert blocker.read_text() == ""


def file_system(tmp_path, count, bad_value=None):
    path = tmp_path / "seq.txt"
    write_matrix_sequence(path, [np.diag([1.0, 2.0]) for _ in range(count)])
    if bad_value is not None:  # the writer refuses it, so it goes in by hand
        lines = path.read_text().splitlines(keepends=True)
        lines[1 + 2 * (count // 2)] = f"1.0 {bad_value!r}\n"  # row 1 of record count // 2 + 1
        path.write_text("".join(lines))
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


def test_matrix_file_rewritten_between_commands_of_one_process(tmp_path, capsys):
    path, spec = file_system(tmp_path, 20)
    cfg = write_config(tmp_path, "cfg.json", {"system": spec, "horizon": 20})
    out = tmp_path / "o"

    def exponents():
        assert main(["spectrum", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
        return json.loads((out / "spectrum.json").read_text())["exponents"]

    first = exponents()  # log-norms over a fixed step count: ln of each diagonal entry, scaled
    scale = first[1] / math.log(2.0)
    assert first[0] == 0.0 and scale == pytest.approx(1.0, abs=0.1)
    # diag(3, 4) in the same number of bytes, with the old mtime given back
    before = path.stat()
    text = path.read_text()
    path.write_text(text.replace("1.0 0.0", "3.0 0.0").replace("0.0 2.0", "0.0 4.0"))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert exponents() == pytest.approx([scale * math.log(3.0), scale * math.log(4.0)],
                                        rel=1e-12)
    path.write_text(text.replace("0.0 2.0", "0.0 nan", 1))
    capsys.readouterr()
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out)]) == EXIT_CONFIG
    assert "seq.txt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, fields",
    [
        ("perturb", {"shifts": ["a", 0.0]}),
        ("perturb", {"shifts": [0.01, float("nan")]}),
        ("assign", {"target_spectrum": [0.0, "x"], "epsilon": 0.2}),
        ("assign", {"target_spectrum": [0.01, 0.68], "epsilon": "big"}),
        ("instability", {"epsilon_grid": ["0.1x"]}),
        ("spectrum", {"checkpoint_every": "10"}),
        ("spectrum", {"checkpoint_every": True}),
        ("perturb", {"shifts": ["0.01", "-0.01"]}),
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
        ("splitness", {"sigma": 500}, "sigma"),  # beyond the horizon
        ("spectrum", {"seed": "12"}, "seed"),  # a string, even one int() reads
        ("spectrum", {"horizon": "300"}, "horizon"),
        ("splitness", {"sigma": "2"}, "sigma"),
    ],
)
def test_bad_integer_config_field_exit_code(tmp_path, capsys, command, fields, name):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 200, **fields})
    code = main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert repr(name) in capsys.readouterr().err


@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1, 2.0**64])
def test_whole_number_config_field_above_2_53(tmp_path, seed):
    # 2**53 + 1 and 2**64 - 1 have no float of the same value
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 200, "seed": seed})
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    assert json.loads((tmp_path / "o" / "spectrum.json").read_text())["params"]["seed"] == seed


def test_a_diagonal_system_past_the_scan_s_range_runs(tmp_path):
    # diag(1e-200, 1e200): every column loses 1e-400 a step of its e_1 part
    # against its e_2 part, which the log form of a diagonal system keeps
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1e-200,1e200)", "horizon": 3000,
                                              "shifts": [0.01, -0.01]})
    for command in ("spectrum", "splitness", "perturb"):
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    ns = np.arange(2, 3001)
    ns = ns[(((ns - 1) % 3 == 0) | (ns == 3000)) & (ns >= 1500)]  # checkpoints in the tail window
    expected = [((ns - 1) / ns * math.log(a)).max() for a in (1e-200, 1e200)]
    exponents = json.loads((tmp_path / "o" / "spectrum.json").read_text())["exponents"]
    assert exponents == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("system, codes, message", [
    ("diag(1e-320,1)", (EXIT_OK, EXIT_NUMERICAL, EXIT_NUMERICAL), "n=2 (max |x|=1e-320)"),
    ("diag(0,2)", (EXIT_NUMERICAL,) * 3, "n=2 (max |x|=0.0)"),
])
def test_a_subnormal_or_zero_diagonal_entry_exit_code(tmp_path, capsys, system, codes, message):
    cfg = write_config(tmp_path, "cfg.json", {"system": system, "horizon": 3000,
                                              "shifts": [0.01, -0.01]})
    for command, code in zip(("spectrum", "splitness", "perturb"), codes):
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert code == EXIT_OK or f"propagation collapsed at {message}" in err


def test_sigma_up_to_the_horizon(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 200, "sigma": 200})
    assert main(["splitness", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_OK


def test_horizon_too_large_to_hold_exit_code(tmp_path, capsys):
    # the FSS of 1e15 steps asks for petabytes, which numpy refuses at once
    cfg = write_config(tmp_path, "cfg.json", {"system": "diag(1,2)", "horizon": 1e15})
    assert main(["splitness", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'horizon'" in err and "Traceback" not in err


@pytest.mark.parametrize("size", ["1000000000", "10000000000"])
def test_identity_too_large_to_hold_is_a_system_error(tmp_path, capsys, size):
    # a MemoryError and a ValueError from numpy, both before any allocation
    cfg = write_config(tmp_path, "cfg.json", {"system": f"identity {size}", "horizon": 200})
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'identity {size}' is too large to hold in memory" in err
    assert "'horizon'" not in err and "Traceback" not in err


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
        ("spectrum", {"checkpoint_every": float("nan")}, "checkpoint_every"),
        ("spectrum", {"checkpoint_every": 2.5}, "checkpoint_every"),
        ("spectrum", {"checkpoint_every": [10]}, "checkpoint_every"),
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
    st.sampled_from([[], [[1.0], [1.0, 2.0]], float("nan"), float("inf"), -float("inf"),
                     10**400]),  # the last is past the double range
)
_NOT_AN_INTEGER = st.one_of(
    _NOT_A_NUMBER.filter(lambda v: v != 10**400),  # an integer, however large
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

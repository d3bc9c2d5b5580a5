import dataclasses
import itertools
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltvlab import (
    CoefficientSequence,
    FSSRecord,
    InadmissiblePerturbationError,
    InvalidInputError,
    NotLyapunovSequenceError,
    ParseError,
    PreconditionError,
    PropagationError,
    additive_to_multiplicative,
    build_plan,
    execute_plan,
    incompressibility_test,
    parse_generator_spec,
    propagate,
    read_matrix_sequence,
    spectrum_estimate,
    transition,
    write_matrix_sequence,
)
from ltvlab.errors import UnderflowError
from ltvlab.presets import SIN_LOG_SPEC, geometric_diag
from ltvlab.spectrum import _compound, _qr_logs, _unit_part, _volume_logs
from ltvlab.system import (
    BLOCK_STEPS,
    _TINY,
    _block_states,
    _kept,
    _running_products,
    _segment_scans,
)


def test_constant_sequence():
    seq = CoefficientSequence.constant([[1.0, 0.0], [0.0, 2.0]])
    assert seq.dimension == 2
    assert np.array_equal(seq.matrix_at(1), np.diag([1.0, 2.0]))
    assert np.array_equal(seq.matrix_at(999), np.diag([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        seq.matrix_at(0)


def diagonal_spec(*formulas):
    """The sequence of a ``kind: diagonal`` spec of ``formulas``."""
    return parse_generator_spec(f"dimension: {len(formulas)}\nkind: diagonal\nentries:\n"
                                + "".join(f"  {f}\n" for f in formulas))


def test_diagonal_formula_sequence():
    seq = diagonal_spec("n", "2*n")
    assert np.array_equal(seq.matrix_at(3), np.diag([3.0, 6.0]))


def test_parse_generator_shorthands():
    seq = parse_generator_spec("diag(1,2)")
    assert np.array_equal(seq.matrix_at(5), np.diag([1.0, 2.0]))
    seq = parse_generator_spec("identity 3")
    assert np.array_equal(seq.matrix_at(1), np.eye(3))


def test_parse_generator_block_diagonal():
    seq = parse_generator_spec(SIN_LOG_SPEC)
    assert seq.dimension == 2
    for n in range(1, 11):
        a1 = math.exp(n * math.sin(math.log(n)) - (n + 1) * math.sin(math.log(n + 1)))
        a2 = math.exp(
            2 * ((n + 1) * math.sin(math.log(n + 1)) - n * math.sin(math.log(n)))
        )
        m = seq.matrix_at(n)
        assert m[0, 0] == pytest.approx(a1, abs=1e-12, rel=1e-12)
        assert m[1, 1] == pytest.approx(a2, abs=1e-12, rel=1e-12)
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_parse_generator_block_constant_and_dense():
    seq = parse_generator_spec("dimension: 2\nkind: constant\nentries:\n  1 0\n  0 2\n")
    assert np.array_equal(seq.matrix_at(4), np.diag([1.0, 2.0]))
    seq = parse_generator_spec(
        "dimension: 2\nkind: dense\nentries:\n  1; 0\n  n; 1\n"
    )
    assert np.array_equal(seq.matrix_at(7), np.array([[1.0, 0.0], [7.0, 1.0]]))


def test_parse_generator_errors():
    with pytest.raises(ParseError):
        parse_generator_spec("kind: diagonal\nentries:\n  n\n")  # no dimension
    with pytest.raises(ParseError):
        parse_generator_spec("dimension: 2\nkind: diagonal\nentries:\n  n\n")
    with pytest.raises(ParseError):
        parse_generator_spec("dimension: 2\nkind: banana\nentries:\n  n\n  n\n")
    with pytest.raises(ParseError):
        parse_generator_spec("diag(1,oops)")
    with pytest.raises(ParseError):
        parse_generator_spec("identity 0")
    with pytest.raises(ParseError):
        parse_generator_spec("identity \u00b2")  # a digit that int() refuses


@pytest.mark.parametrize(
    "spec, line, column",
    [
        ("dimension: 2\nkind: diagonal\nentries:\n  n\n  n**2\n", 5, 3),
        ("dimension: 2\nkind: dense\nentries:\n  1; 0\n  0; sin(n$)\n", 5, 11),
        ("dimension: 1\nkind: diagonal\n# one formula\nentries: ln(n) + $\n", 4, 18),
    ],
)
def test_formula_errors_point_into_the_spec(spec, line, column):
    with pytest.raises(ParseError) as info:
        parse_generator_spec(spec)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value).count("(line ") == 1


@pytest.mark.parametrize(
    "spec, message, line, column",
    [
        ("dimension: 2\nkind: banana\nentries:\n  n\n  n\n", "unknown kind", 2, 1),
        ("dimension: 2\n\nkind: file\n", "requires a 'path'", 3, 1),
        ("dimension: 2\nkind: diagonal\n# one entry\nentries:\n  n\n", "needs 2 entries", 4, 1),
        ("dimension: 2\nkind: dense\nentries: 1; 0\n  1\n", "needs 4 entries", 3, 1),
        ("dimension: 2\nkind: constant\n\nentries:\n  1 0 0\n", "or 2 diagonal", 4, 1),
        ("dimension: 2\nkind: constant\nentries:\n  1 0\n  0,  x2\n", "'x2'", 5, 7),
        ("dimension: 2\nkind: constant\nentries: 1; 2 0; nan\n", "'nan'", 3, 18),
        # numbers are signed ASCII decimals and counts ASCII digits, though
        # float() and int() take these
        ("dimension: 2\nkind: constant\nentries: 1 1_0\n", "bad number '1_0'", 3, 12),
        ("dimension: 2\nkind: constant\nentries:\n  1 0\n  0 \u0662\n", "'\u0662'", 5, 5),
        ("diag(1_000,2)", "bad number '1_000'", 1, 1),
        ("diag(\u0661,2)", "bad number '\u0661'", 1, 1),
        # an integer with a leading zero is refused, as in a formula
        ("diag(05,2)", "bad number '05'", 1, 1),
        ("dimension: 2\nkind: constant\nentries:\n  1 0\n  0 05\n", "bad number '05'", 5, 5),
        ("dimension: 2\nkind: diagonal\nentries:\n  1\n  05\n", "leading zeros", 5, 3),
        ("identity \u0663", "bad identity shorthand: 'identity \u0663'", 1, 1),
        ("identity 1_0", "bad identity shorthand", 1, 1),
        ("dimension: \u0662\nkind: constant\nentries: 1 2\n", "bad dimension '\u0662'", 1, 1),
        ("dimension: 1_0\nkind: constant\nentries: 1\n", "bad dimension '1_0'", 1, 1),
        # numpy refuses these N x N requests at once (6.94 EiB, and past the
        # largest array size), so nothing is allocated
        ("identity 1000000000", "'identity 1000000000' is too large to hold in memory", 1, 1),
        ("identity 10000000000", "'identity 10000000000' is too large to hold in memory", 1, 1),
        ("dimension: 2\nkind diagonal\nentries:\n  n\n  n\n",
         "^expected 'key: value', got 'kind diagonal'", 2, 1),
        ("dimension: 0\nkind: constant\nentries: 1\n", "^dimension must be >= 1, got 0", 1, 1),
    ],
    ids=["kind", "file-path", "diagonal-count", "dense-count", "constant-count",
         "constant-number", "constant-non-finite", "constant-underscore",
         "constant-arabic-digit", "diag-underscore", "diag-arabic-digit",
         "diag-leading-zero", "constant-leading-zero", "diagonal-leading-zero",
         "identity-arabic-digit", "identity-underscore", "dimension-arabic-digit",
         "dimension-underscore", "identity-past-memory", "identity-past-array-size",
         "no-colon", "dimension-zero"],
)
def test_spec_errors_point_at_their_line(spec, message, line, column):
    with pytest.raises(ParseError, match=message) as info:
        parse_generator_spec(spec)
    assert (info.value.line, info.value.column) == (line, column)


def test_spec_numbers_read_as_python_reads_them():
    seq = parse_generator_spec("diag(0,00,05.5,05e1,-0.5)")
    assert np.diag(seq.matrix_at(1)).tolist() == [0.0, 0.0, 5.5, 50.0, -0.5]
    seq = parse_generator_spec("dimension: 2\nkind: constant\nentries: 00 05.\n")
    assert np.diag(seq.matrix_at(1)).tolist() == [0.0, 5.0]


def test_matrix_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(3, 3)) for _ in range(5)]
    path = tmp_path / "seq.txt"
    write_matrix_sequence(path, mats)
    seq = read_matrix_sequence(path)
    assert seq.dimension == 3
    assert seq.count == 5
    for n in range(1, 6):
        assert np.array_equal(seq.matrix_at(n), mats[n - 1])
    with pytest.raises(IndexError):
        seq.matrix_at(6)


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e300, -0.0]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), s=st.integers(1, 4), count=st.integers(1, 4))
def test_matrix_sequence_round_trip_is_bit_exact(data, s, count):
    values = data.draw(st.lists(FLOATS, min_size=count * s * s, max_size=count * s * s))
    mats = np.array(values).reshape(count, s, s)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.txt"
        write_matrix_sequence(path, mats)
        back = read_matrix_sequence(path).matrices(1, count + 1)
    assert np.array_equal(back.view(np.uint64), mats.view(np.uint64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["constant", "diagonal", "dense"]),
       s=st.integers(1, 4))
def test_generator_spec_round_trip_is_bit_exact(data, kind, s):
    # a spec written with repr reads back every double it was written from
    size = s if kind == "diagonal" else s * s
    values = data.draw(st.lists(FLOATS, min_size=size, max_size=size))
    if kind == "diagonal":  # one formula a line, and exact zeros off the diagonal
        matrix, lines = np.diag(values), [repr(v) for v in values]
    else:  # a row a line: numbers split by commas, formulas by semicolons
        matrix = np.array(values).reshape(s, s)
        sep = ", " if kind == "constant" else "; "
        lines = [sep.join(map(repr, row)) for row in matrix.tolist()]
    spec = f"dimension: {s}\nkind: {kind}\nentries:\n" + "".join(f"  {line}\n" for line in lines)
    back = parse_generator_spec(spec).matrices(1, 4)
    assert back.shape == (3, s, s)
    assert (back.view(np.uint64) == matrix.view(np.uint64)).all()


# tokens on which np.fromstring and float() may differ, each with 1.5 as a
# second value: float() takes the first three and the decimal grammar does
# not, numpy reads 'nan(123)' and float() refuses it, both refuse the next
# two, both take the two overflows, and the rest must round as float() does
PARSE_CASES = {
    "underscore": "1 2\n1_000 1.5\n",
    "arabic-digits": "1 2\n\u0661\u0662 1.5\n",
    "no-break-space": "1 2\n1\u00a01.5\n",
    "nan-payload": "1 2\nnan(123) 1.5\n",
    "hex": "1 2\n0x10 1.5\n",
    "trailing-letter": "1 2\n1e5x 1.5\n",
    "leading-zero": "1 2\n05 1.5\n",  # numpy reads it, though a spec refuses it
    "infinity": "1 2\ninfinity 1.5\n",
    "overflow": "1 2\n1e400 1.5\n",
    "smallest-subnormal": "1 2\n5e-324 1.5\n",
    "below-normal": "1 2\n2.2250738585072011e-308 1.5\n",
    "repr-17-digits": "3 7\n" + " ".join(
        f"{v:.17g}" for v in np.random.default_rng(0).normal(size=63) * 10.0 ** np.arange(-31, 32)
    ) + "\n",
}
PARSE_ERRORS = {  # what the ParseError names where the file is refused
    "underscore": "bad number '1_000'",
    "arabic-digits": "bad number '\u0661\u0662'",
    "no-break-space": r"not whitespace-separated \(found '\\xa0'\)",
    "nan-payload": "record 1 has a non-finite value",
    "hex": "bad number '0x10'",
    "trailing-letter": "bad number '1e5x'",
    "infinity": "record 1 has a non-finite value",
    "overflow": "record 1 has a non-finite value",
}
FLOAT_ONLY_CASES = {"underscore", "arabic-digits", "no-break-space"}


def _float_records(text):
    """The values of a matrix file read token by token with float(), or None
    where float() refuses a token or reads a non-finite value."""
    try:
        values = np.array([float(v) for v in text.split()[2:]])
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


@pytest.mark.parametrize("case", sorted(PARSE_CASES))
def test_matrix_file_parse_agrees_with_float_token_by_token(tmp_path, case):
    path = tmp_path / "seq.txt"
    path.write_text(PARSE_CASES[case], encoding="utf-8")
    by_float = _float_records(PARSE_CASES[case])
    assert (by_float is not None) == (case in FLOAT_ONLY_CASES or case not in PARSE_ERRORS)
    if case in PARSE_ERRORS:
        with pytest.raises(ParseError, match=PARSE_ERRORS[case]):
            read_matrix_sequence(path)
        return
    seq = read_matrix_sequence(path)
    records = seq.matrices(1, seq.count + 1)
    assert records.ravel().view(np.uint64).tolist() == by_float.view(np.uint64).tolist()


def test_matrix_file_parse_refuses_where_numpy_warns(monkeypatch, tmp_path):
    # numpy < 2 warns on an unreadable token and returns what it read so far
    def partial_read(text, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([1.0])

    monkeypatch.setattr(np, "fromstring", partial_read)
    path = tmp_path / "seq.txt"
    path.write_text("1 2\n1 1_0\n")  # refused by any numpy, so no earlier read kept it
    with pytest.raises(ParseError, match="bad number '1_0'"):
        read_matrix_sequence(path)


def test_matrix_file_rewritten_with_the_same_size_and_mtime_reads_anew(tmp_path):
    # same path, inode, length and mtime: only the bytes tell the two files apart
    path = tmp_path / "seq.txt"
    path.write_text("1 2\n1.5 2.5\n")
    before = path.stat()
    assert read_matrix_sequence(path).matrices(1, 3).ravel().tolist() == [1.5, 2.5]
    path.write_text("1 2\n3.5 4.5\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns)
    assert read_matrix_sequence(path).matrices(1, 3).ravel().tolist() == [3.5, 4.5]


def test_matrix_file_refusals_are_not_kept(tmp_path):
    path = tmp_path / "seq.txt"
    for text, refusal in [("1 2\n1 two\n", "bad number 'two'"),
                          ("1 3\n1 2\n", "expected 3 values, found 2"),
                          ("1 2\n1 nan\n", "record 2 has a non-finite value"),
                          ("1\n", "^matrix sequence file .* is too short")]:
        path.write_text("1 2\n1 2\n")  # a good file first, at the same path
        assert read_matrix_sequence(path).matrices(1, 3).ravel().tolist() == [1.0, 2.0]
        path.write_text(text)
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError, match=refusal) as info:
                read_matrix_sequence(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    path.write_text("2 1\n1 2\n3 4\n")  # a 2-d file where 1-d is declared
    spec = f"dimension: 1\nkind: file\npath: {path}\n"
    for _ in range(2):
        with pytest.raises(ParseError, match="file dimension 2 does not match declared 1"):
            parse_generator_spec(spec)


def test_matrix_files_with_the_same_bytes_read_alike(tmp_path):
    mats = np.random.default_rng(5).normal(size=(4, 2, 2))
    first, second = tmp_path / "first.seq", tmp_path / "second.seq"
    write_matrix_sequence(first, mats)
    second.write_bytes(first.read_bytes())
    seqs = [read_matrix_sequence(path) for path in (first, second)]
    assert seqs[1] is seqs[0]  # the same bytes give the kept sequence, not a copy
    records = seqs[0].matrices(1, 5)
    assert records.view(np.uint64).tolist() == mats.view(np.uint64).tolist()
    with pytest.raises(ValueError, match="read-only"):  # no caller can change another's
        records[0, 0, 0] = 7.0
    for path, other in ((first, second), (second, first)):  # the same refused bytes
        path.write_text("2 4\n1 2\n")
        with pytest.raises(ParseError, match="expected 16 values, found 2") as info:
            read_matrix_sequence(path)
        assert path.name in str(info.value) and other.name not in str(info.value)


def test_a_matrix_file_of_another_length_with_the_same_hash_reads_anew(monkeypatch, tmp_path):
    # the kept sequence is matched on the byte length as well as on hash()
    monkeypatch.setattr("ltvlab.system.hash", lambda raw: 0, raising=False)
    monkeypatch.setattr("ltvlab.system._last_parsed", (None, None))  # restored after the test
    first, second = tmp_path / "first.seq", tmp_path / "second.seq"
    first.write_text("1 1\n1.5\n")
    second.write_text("1 2\n3.5 4.5\n")
    assert read_matrix_sequence(first).matrices(1, 2).ravel().tolist() == [1.5]
    assert read_matrix_sequence(second).matrices(1, 3).ravel().tolist() == [3.5, 4.5]


def test_matrix_file_messages_name_a_path_as_its_str(tmp_path):
    path = tmp_path / "short.seq"
    path.write_text("1 4\n1 2\n")
    messages = []
    for given in (path, str(path)):
        with pytest.raises(ParseError) as read_info:
            read_matrix_sequence(given)
        with pytest.raises(InvalidInputError) as write_info:
            write_matrix_sequence(given, [[[math.nan]]])
        messages.append((str(read_info.value), str(write_info.value)))
    assert messages[0] == messages[1]
    assert messages[1][0].startswith(f"{str(path)!r}: expected 4 values, found 2")


def test_write_matrix_sequence_refuses_an_empty_sequence(tmp_path):
    path = tmp_path / "seq.txt"
    with pytest.raises(InvalidInputError, match="empty matrix sequence"):
        write_matrix_sequence(path, [])
    assert not path.exists()


@pytest.mark.parametrize("matrices, record", [
    ([np.eye(2), np.eye(3)], 2),
    ([np.eye(2), np.zeros((2, 3))], 2),
    ([np.zeros((2, 3))], 1),
    ([np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]])], 2),
    ([np.array([1.0, 2.0])], 1),
    ([np.eye(2), [[1.0, 2.0], [3.0]]], 2),
], ids=["sizes", "not-square", "not-square-first", "nan", "1-d", "ragged"])
def test_write_matrix_sequence_refuses_what_the_reader_refuses(tmp_path, matrices, record):
    path = tmp_path / "seq.txt"
    with pytest.raises(InvalidInputError, match=f"record {record} "):
        write_matrix_sequence(path, matrices)
    assert not path.exists()


def test_from_matrices_takes_an_array_and_keeps_its_own_copy():
    mats = np.arange(12.0).reshape(3, 2, 2)
    seq = CoefficientSequence.from_matrices(mats)
    mats[0] = -1.0
    assert mats.flags.writeable
    assert np.array_equal(seq.matrices(1, 4), np.arange(12.0).reshape(3, 2, 2))
    assert seq.count == 3
    with pytest.raises(IndexError):
        seq.matrices(3, 5)
    for bad in ([], [np.eye(2), np.eye(3)], np.zeros((3, 2, 3)), np.eye(2), [1j * np.eye(2)], [[[1j]]]):
        with pytest.raises(InvalidInputError):
            CoefficientSequence.from_matrices(bad)
    from_generator = CoefficientSequence.from_matrices(m for m in np.arange(12.0).reshape(3, 2, 2))
    assert np.array_equal(from_generator.matrices(1, 4), np.arange(12.0).reshape(3, 2, 2))


def test_file_backed_via_generator_spec(tmp_path):
    path = tmp_path / "seq.txt"
    write_matrix_sequence(path, [np.diag([1.0, 2.0])] * 4)
    seq = parse_generator_spec(f"dimension: 2\nkind: file\npath: {path}\n")
    assert np.array_equal(seq.matrix_at(2), np.diag([1.0, 2.0]))


def test_lyapunov_bound_diag():
    seq = geometric_diag([0.5, 2.0])
    assert seq.lyapunov_bound(100) == pytest.approx(2.0)
    assert seq.lyapunov_bound(10) == pytest.approx(2.0)


def test_lyapunov_bound_reads_only_the_steps_up_to_its_horizon():
    # A(n) = I up to n = 10 and diag(1, 5) after: a bound scanned to 100
    # does not answer for the horizon 10
    seq = CoefficientSequence.from_matrices([np.diag([1.0, 1.0 if n <= 10 else 5.0])
                                             for n in range(1, 101)])
    assert seq.lyapunov_bound(10) == 1.0
    assert seq.lyapunov_bound(100) == pytest.approx(5.0)
    assert seq.lyapunov_bound(10) == 1.0


def test_lyapunov_bound_rejects_singular():
    seq = diagonal_spec("n - 3", "1")
    with pytest.raises(NotLyapunovSequenceError) as info:
        seq.lyapunov_bound(5)
    assert info.value.index == 3


def test_the_rank_rule_is_relative_for_a_and_a_plus_q():
    # 1e-13 I is a perfectly conditioned contraction, so neither A = 1e-13 I nor
    # A + Q = 1e-13 I is singular; diag(1, 1e-13) is rank deficient to tolerance
    small, flat = 1e-13 * np.eye(2), np.diag([1.0, 1e-13])
    assert CoefficientSequence.constant(small).lyapunov_bound(5) == 1e13
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # ||A^-1|| = 1e320 is past the double range: inf, quietly
        assert CoefficientSequence.constant(1e-320 * np.eye(2)).lyapunov_bound(5) == math.inf
    with pytest.raises(NotLyapunovSequenceError,
                       match=r"^A\(1\) is singular to tolerance; not a Lyapunov sequence$"):
        CoefficientSequence.constant(flat).lyapunov_bound(5)
    r_seq = additive_to_multiplicative(CoefficientSequence.constant(2.0 * small),
                                       CoefficientSequence.constant(-small), check_horizon=5)
    assert np.array_equal(r_seq.matrix_at(5), 0.5 * np.eye(2))  # A + Q = A R, R = I / 2
    with pytest.raises(InadmissiblePerturbationError,
                       match=r"^A\(1\) \+ Q\(1\) is singular to tolerance$"):
        additive_to_multiplicative(CoefficientSequence.constant(2.0 * flat),
                                   CoefficientSequence.constant(-flat), check_horizon=5)


def test_propagate_log_scaled_growth():
    # 2^n growth held as log-norm, direction stays put
    seq = geometric_diag([1.0, 2.0])
    traj = propagate(seq, [0.0, 1.0], 101)
    assert traj.log_norms[100] == pytest.approx(100 * math.log(2))
    assert np.allclose(traj.direction_at(101), [0.0, 1.0])
    assert traj.value_at(3)[1] == pytest.approx(4.0)
    # step n is row n - 1, so step 0 would silently read the last row
    for outside in (lambda: traj.direction_at(0), lambda: traj.value_at(102)):
        with pytest.raises(KeyError):
            outside()


def test_propagate_huge_horizon_no_overflow():
    seq = geometric_diag([1.0, 2.0])
    traj = propagate(seq, [1.0, 1.0], 5001)
    assert np.isfinite(traj.log_norms).all()
    assert traj.log_norms[5000] == pytest.approx(5000 * math.log(2), rel=1e-9)


def test_propagate_rejects_zero_start():
    seq = geometric_diag([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        propagate(seq, [0.0, 0.0], 10)


def test_propagate_collapse_detected():
    seq = CoefficientSequence.constant([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(PropagationError):
        propagate(seq, [0.0, 1.0], 10)


def test_transition_products_and_inverse():
    seq = diagonal_spec("n", "1")
    x = transition(seq, 4, 1)  # A(3) A(2) A(1)
    assert np.allclose(x.to_dense(), np.diag([6.0, 1.0]))
    assert transition(seq, 3, 3).to_dense() == pytest.approx(np.eye(2))
    inv = transition(seq, 1, 4)
    assert np.allclose(inv.to_dense(), np.diag([1.0 / 6.0, 1.0]))


def test_transition_norm_bound():
    # ||X(n, m)|| <= a^(n-m) with a the Lyapunov bound of the sequence
    rng = np.random.default_rng(5)
    mats = [np.eye(3) + 0.3 * rng.normal(size=(3, 3)) for _ in range(20)]
    seq = CoefficientSequence.from_matrices(mats)
    a = seq.lyapunov_bound(20)
    for n, m in [(5, 1), (12, 3), (20, 10), (1, 8), (7, 7)]:
        x = transition(seq, n, m)
        assert x.log_spectral_norm <= abs(n - m) * math.log(a) + 1e-9


def per_step_transition(seq, n, m):
    """X_A(n, m) for n >= m as (unit, log_scale), with one product and one
    spectral normalization per step."""
    unit, log_scale = np.eye(seq.dimension), 0.0
    for a in seq.matrices(m, n):
        unit = a @ unit
        norm = np.linalg.norm(unit, 2)
        unit, log_scale = unit / norm, log_scale + math.log(norm)
    return unit, log_scale


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_blocked_transition_matches_the_per_step_product(s):
    rng = np.random.default_rng(s)
    dense = CoefficientSequence.from_matrices(rng.normal(size=(700, s, s)))
    # rotations times mild stretches: X(600, 1) stays well conditioned, so it inverts
    q = np.linalg.qr(rng.normal(size=(700, s, s)))[0]
    mild = CoefficientSequence.from_matrices(q * np.exp(0.01 * rng.normal(size=(700, 1, s))))
    for seq in (dense, mild):
        for n, m in [(600, 1), (300, 200), (258, 2), (257, 1), (2, 1)]:
            x = transition(seq, n, m)
            unit, log_scale = per_step_transition(seq, n, m)
            assert x.log_scale == pytest.approx(log_scale, rel=1e-12, abs=1e-12)
            assert np.allclose(x.unit, unit, rtol=0, atol=1e-10)
            assert np.linalg.norm(x.unit, 2) == pytest.approx(1.0, abs=1e-12)
    inv = transition(mild, 1, 600)
    unit, log_scale = per_step_transition(mild, 600, 1)
    ref = np.linalg.inv(unit)
    norm = np.linalg.norm(ref, 2)
    assert inv.log_scale == pytest.approx(math.log(norm) - log_scale, rel=1e-12, abs=1e-12)
    assert np.allclose(inv.unit, ref / norm, rtol=0, atol=1e-10)


def test_blocked_transition_of_entries_near_1e160():
    # the product passes 1e308 after two steps; its log scale does not overflow
    seq = geometric_diag([1e160, 1.0])
    x = transition(seq, 600, 1)
    unit, log_scale = per_step_transition(seq, 600, 1)
    assert x.log_scale == pytest.approx(599 * math.log(1e160), rel=1e-14)
    assert x.log_scale == pytest.approx(log_scale, rel=1e-14)
    assert np.allclose(x.unit, unit, rtol=0, atol=1e-14)
    with pytest.raises(NotLyapunovSequenceError):
        transition(seq, 1, 600)


def test_transition_of_a_vanishing_product_names_the_step():
    seq = CoefficientSequence.constant([[0.0, 0.0], [1.0, 0.0]])  # A(2) A(1) = 0
    assert np.array_equal(transition(seq, 2, 1).unit, [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(PropagationError, match=r"X\(3, 1\)"):
        transition(seq, 5, 1)


def test_a_value_past_the_double_range_raises_a_propagation_error():
    # 2**2000 and the norm of X(3000, 1) = diag(1, 2**2999) are stored as logs alone
    seq = geometric_diag([1.0, 2.0])
    traj = propagate(seq, [0.0, 1.0], 3000)
    assert traj.value_at(1000)[1] == pytest.approx(2.0**999, rel=1e-11)
    with pytest.raises(PropagationError, match=r"x\(n=2000\) overflows the double range"):
        traj.value_at(2000)
    x = transition(seq, 3000, 1)
    assert x.log_spectral_norm == pytest.approx(2999 * math.log(2.0), rel=1e-15)
    with pytest.raises(PropagationError, match="transition matrix overflows the double range"):
        x.to_dense()


def test_value_at_takes_an_array_of_steps():
    # the rows of the single steps, bit for bit; a step past the double range is named
    traj = propagate(geometric_diag([1.0, 2.0]), [0.6, 0.8], 3000)
    values = traj.value_at(np.array([1, 2, 1000]))
    assert values.shape == (3, 2)
    for row, n in zip(values, (1, 2, 1000)):
        assert row.tobytes() == traj.value_at(n).tobytes()
    assert traj.value_at(np.array([[1], [2]])).shape == (2, 1, 2)
    assert traj.value_at(np.array([], dtype=int)).shape == (0, 2)
    with pytest.raises(PropagationError, match=r"^x\(n=2000\) overflows the double range"):
        traj.value_at(np.array([3, 2000, 2500]))


def test_transition_composition():
    rng = np.random.default_rng(9)
    mats = [np.eye(2) + 0.2 * rng.normal(size=(2, 2)) for _ in range(10)]
    seq = CoefficientSequence.from_matrices(mats)
    x31 = transition(seq, 3, 1).to_dense()
    x73 = transition(seq, 7, 3).to_dense()
    x71 = transition(seq, 7, 1).to_dense()
    assert np.allclose(x73 @ x31, x71, rtol=1e-9, atol=1e-12)


def test_additive_multiplicative_round_trip():
    rng = np.random.default_rng(2)
    base = [np.eye(2) + 0.2 * rng.normal(size=(2, 2)) for _ in range(10)]
    bumps = [0.05 * rng.normal(size=(2, 2)) for _ in range(10)]
    seq = CoefficientSequence.from_matrices(base)
    q_seq = CoefficientSequence.from_matrices(bumps)
    r_seq = additive_to_multiplicative(seq, q_seq, check_horizon=10)
    for n in range(1, 11):
        a = seq.matrix_at(n)
        assert np.allclose(a @ r_seq.matrix_at(n) - a, q_seq.matrix_at(n), atol=1e-12)
        # the product system equals A + Q
        prod = CoefficientSequence(
            2, lambda start, stop: seq.matrices(start, stop) @ r_seq.matrices(start, stop))
        assert np.allclose(
            prod.matrix_at(n), seq.matrix_at(n) + q_seq.matrix_at(n), atol=1e-12
        )


def test_perturbation_class_inclusions():
    # additive balls map into multiplicative balls scaled by the Lyapunov
    # bound, and conversely: ||A^-1 Q|| <= a ||Q||, ||A R - A|| <= a ||R - I||
    rng = np.random.default_rng(13)
    for _ in range(200):
        s = int(rng.integers(2, 5))
        a_mat = np.eye(s) + 0.4 * rng.normal(size=(s, s))
        sv = np.linalg.svd(a_mat, compute_uv=False)
        if sv[-1] < 1e-3:
            continue
        a = max(sv[0], 1.0 / sv[-1], 1.0)
        delta = 10.0 ** rng.uniform(-4, -1)
        q = delta * rng.normal(size=(s, s))
        q *= delta / max(np.linalg.norm(q, 2), 1e-300)
        r_minus_i = np.linalg.solve(a_mat, q)
        assert np.linalg.norm(r_minus_i, 2) <= a * delta + 1e-12
        r = np.eye(s) + q * (delta / max(np.linalg.norm(q, 2), 1e-300))
        q_back = a_mat @ r - a_mat
        assert np.linalg.norm(q_back, 2) <= a * delta + 1e-12


# --- block evaluation and blocked propagation -------------------------


def per_step_propagate(seq, x0, horizon):
    """The reference recurrence: one matrix_at and one renormalization per step."""
    d = np.asarray(x0, dtype=float)
    log_norm = math.log(np.linalg.norm(d))
    d = d / np.linalg.norm(d)
    dirs, logs = [d], [log_norm]
    for n in range(1, horizon):
        y = seq.matrix_at(n) @ d
        ny = np.linalg.norm(y)
        d = y / ny
        log_norm += math.log(ny)
        dirs.append(d)
        logs.append(log_norm)
    return np.array(dirs), np.array(logs)


def assert_matches_reference(traj, seq, x0, horizon, tol=1e-12):
    dirs, logs = per_step_propagate(seq, x0, horizon)
    ns = np.arange(1, traj.horizon + 1)
    assert ns[0] == 1 and ns[-1] == horizon
    rel = np.abs(traj.log_norms - logs[ns - 1]) / np.maximum(1.0, np.abs(logs[ns - 1]))
    assert rel.max() <= tol
    assert np.abs(traj.directions - dirs[ns - 1]).max() <= tol


def random_file_system(tmp_path, s, count, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / f"dense{s}.seq"
    write_matrix_sequence(path, np.eye(s) + 0.5 * rng.normal(size=(count, s, s)))
    return read_matrix_sequence(path)


def test_matrices_stack_matrix_at_for_every_kind(tmp_path):
    rng = np.random.default_rng(4)
    file_seq = random_file_system(tmp_path, 3, 40, 4)
    dense = CoefficientSequence.dense_formulas(
        [["1 + sin(n)", "0.5", "ln(n)"], ["n/10", "cos(n)", "exp(-n)"], ["0", "1", "pow(n, 0.5)"]]
    )
    fixed = 1.0 + rng.normal(size=(40, 3, 3))
    callable_seq = CoefficientSequence(3, lambda start, stop: fixed[start - 1 : stop - 1])
    sequences = {
        "constant": CoefficientSequence.constant(np.arange(9.0).reshape(3, 3)),
        "diagonal": diagonal_spec("n", "exp(-n/7)", "2"),
        "dense": dense,
        "file-backed": file_seq,
        "product": CoefficientSequence(
            3, lambda start, stop: file_seq.matrices(start, stop) @ dense.matrices(start, stop)),
        "block function": callable_seq,
        "additive-to-multiplicative": additive_to_multiplicative(file_seq, callable_seq),
    }
    for name, seq in sequences.items():
        for start, stop in [(1, 41), (5, 6), (17, 33), (9, 9)]:
            block = seq.matrices(start, stop)
            assert block.shape == (stop - start, 3, 3), name
            stacked = [seq.matrix_at(n) for n in range(start, stop)]
            assert np.array_equal(block, np.array(stacked).reshape(-1, 3, 3)), name
    assert np.array_equal(callable_seq.matrices(1, 41), fixed)
    assert dense.matrices(7, 8)[0, 2, 2] == pytest.approx(math.sqrt(7), rel=1e-15)
    with pytest.raises(IndexError):
        file_seq.matrices(30, 42)
    with pytest.raises(InvalidInputError):
        file_seq.matrices(0, 3)


def test_matrices_name_the_first_non_finite_step(tmp_path):
    seq = diagonal_spec("1", "1/((n-5)*(n-9))")
    assert np.isfinite(seq.matrices(1, 5)).all()
    with pytest.raises(PropagationError, match="n=5"):
        seq.matrices(1, 20)
    with pytest.raises(PropagationError, match="n=9"):
        seq.matrices(6, 20)
    # one bad entry in a chunk: the last step of a chunk, off the diagonal at
    # the first step of the next one, and step 1
    for n, entry, value in [(4096, (0, 0), math.nan), (4097, (0, 1), math.inf),
                            (1, (1, 1), -math.inf)]:
        def block_fn(start, stop, n=n, entry=entry, value=value):
            mats = np.repeat(np.eye(2)[None], stop - start, axis=0)
            if start <= n < stop:
                mats[(n - start,) + entry] = value
            return mats

        seq = CoefficientSequence(2, block_fn)
        start = 1 + (n - 1) // 4096 * 4096
        assert np.isfinite(seq.matrices(n + 1, n + 4097)).all()
        for first, stop in ((start, start + 4096), (n, n + 1)):
            with pytest.raises(PropagationError) as info:
                seq.matrices(first, stop)
            assert str(info.value) == f"coefficient A(n) is not finite at n={n}"
    path = str(tmp_path / "seq.txt")
    Path(path).write_text("2 3\n1 0\n0 1\n2 0\n0 2\n3 0\n0 nan\n")
    with pytest.raises(ParseError) as info:
        read_matrix_sequence(path)
    assert str(info.value) == f"{path!r}: record 3 has a non-finite value (line 1, column 1)"


@pytest.mark.parametrize("s, seed", [(3, 11), (4, 12)])
def test_propagate_matches_the_per_step_loop_on_dense_systems(tmp_path, s, seed):
    horizon = 700  # two full blocks and a partial one
    seq = random_file_system(tmp_path, s, horizon, seed)
    starts = np.random.default_rng(seed).normal(size=(s, s))
    logs = propagate(seq, starts, horizon)
    assert len(logs) == s
    for j in range(s):
        assert_matches_reference(logs[j], seq, starts[:, j], horizon)
    assert_matches_reference(propagate(seq, starts[:, 0], horizon), seq, starts[:, 0], horizon)


def test_propagate_matches_the_per_step_loop_on_sin_log():
    seq = parse_generator_spec(SIN_LOG_SPEC)
    starts = np.array([[1.0, 0.0], [1.0, 1.0]])  # columns (1, 1) and (0, 1)
    logs = propagate(seq, starts, 3000)
    for j in range(2):
        assert_matches_reference(logs[j], seq, starts[:, j], 3000)


def test_propagate_splits_a_block_that_underflows():
    # over one block the (0, 1) column shrinks by 1e-1536 against (1, 0)
    seq = geometric_diag([1e3, 1e-3])
    starts = np.array([[1.0, 0.0], [1.0, 1.0]])
    logs = propagate(seq, starts, 600)
    for j in range(2):
        assert_matches_reference(logs[j], seq, starts[:, j], 600)
    assert logs[1].log_norms[599] == pytest.approx(599 * math.log(1e-3), rel=1e-13)
    assert_matches_reference(propagate(seq, [1.0, 1.0], 600), seq, [1.0, 1.0], 600)


def test_propagate_reports_a_collapse_inside_a_block():
    mats = np.repeat(np.eye(2)[None], 400, axis=0)
    mats[299] = np.diag([0.0, 1.0])  # A(300) maps (1, 0) to zero
    seq = CoefficientSequence.from_matrices(mats)
    with pytest.raises(PropagationError, match="n=301"):
        propagate(seq, [1.0, 0.0], 400)
    with pytest.raises(PropagationError, match="n=301"):
        propagate(seq, np.eye(2), 400)
    assert propagate(seq, [0.0, 1.0], 400).log_norms[399] == 0.0


def test_propagate_scales_before_taking_norms():
    # |x(n)| passes 1e154 at n = 2, where a plain sum of squares overflows
    traj = propagate(geometric_diag([1e160, 1.0]), [1.0, 1.0], 100)
    assert traj.log_norms[99] == pytest.approx(99 * math.log(1e160), rel=1e-14)
    assert np.allclose(traj.direction_at(100), [1.0, 0.0])


def test_propagate_scales_a_shrinking_column_before_taking_its_norm():
    # x(2) = (1e-200, 0), whose plain sum of squares underflows to zero
    traj = propagate(geometric_diag([1e-200, 1.0]), [1.0, 0.0], 100)
    assert traj.log_norms[99] == pytest.approx(99 * math.log(1e-200), rel=1e-14)
    assert np.array_equal(traj.direction_at(100), [1.0, 0.0])
    # x(2) = (0, 1e-310) is subnormal: too few digits left to go on
    with pytest.raises(UnderflowError, match="n=2"):
        propagate(geometric_diag([1.0, 1e-310]), [0.0, 1.0], 3)


@pytest.mark.parametrize("tiny", [1e-200, 1e-160])
def test_a_step_that_spans_past_the_double_range_keeps_a_normal_image(monkeypatch, tiny):
    # A(n) scaled by its largest entry 1/tiny maps e_1 to tiny**2 (zero, or
    # subnormal), though the image tiny * e_1 itself is normal
    seq = CoefficientSequence.constant([[tiny, 1.0], [0.0, 1.0 / tiny]])
    sizes = counted_scans(monkeypatch)
    traj = propagate(seq, [1.0, 0.0], 600)
    # a segment whose first step needs that image goes a step at a time, its
    # later A(n) scanned once more as one-step segments, and is not halved
    assert sizes == [512, 255, 255, 87, 86]
    ns = np.arange(1, 601)
    assert traj.log_norms == pytest.approx((ns - 1) * math.log(tiny), rel=1e-12, abs=0.0)
    assert np.array_equal(traj.directions, np.tile([1.0, 0.0], (600, 1)))
    both = propagate(seq, np.array([[1.0, 1.0], [0.0, 1.0]]), 600)
    assert np.array_equal(both[0].log_norms, traj.log_norms)
    assert both[1].log_norms[-1] == pytest.approx(599 * -math.log(tiny), rel=1e-12)
    # an image that is zero still collapses at its step
    zero = CoefficientSequence.constant([[0.0, 1.0], [0.0, 1.0 / tiny]])
    collapse = r"^propagation collapsed at n=2 \(max \|x\|=0\.0\)$"
    with pytest.raises(PropagationError, match=collapse):
        propagate(zero, [1.0, 0.0], 5)
    # a subnormal image raises UnderflowError, and the message gives the image
    subnormal = CoefficientSequence.constant([[1e-310, 1.0], [0.0, 1e300]])
    with pytest.raises(UnderflowError, match=r"^propagation collapsed at n=2 \(max \|x\|=1e-310\)$"):
        propagate(subnormal, [1.0, 0.0], 5)


def first_form_scan(mats):
    """``_running_products`` as first written: each matrix's max over its own
    trailing axes, and nothing updated in place."""
    _, exps = np.frexp(np.abs(mats).max(axis=(1, 2)))
    prods, lost, offset = np.ldexp(mats, -exps[:, None, None]), np.zeros(len(mats), bool), 1
    while offset < len(mats):
        raw = prods[offset:] @ prods[:-offset]
        top = np.abs(raw).max(axis=(1, 2))
        prods[offset:] = np.ldexp(raw, -np.frexp(top)[1][:, None, None])
        exps[offset:] = exps[offset:] + exps[:-offset] + np.frexp(top)[1]
        lost[offset:] |= lost[:-offset] | ~(top >= _TINY)
        offset *= 2
    return prods, exps, lost


def scan_outcome(fn, *args):
    """The arrays ``fn(*args)`` returns as raw bytes, or its PropagationError."""
    try:
        with np.errstate(all="ignore"):
            return [(a.dtype, a.shape, a.tobytes()) for a in fn(*args)]
    except PropagationError as exc:
        return repr(exc)


@pytest.mark.parametrize("k", [1, 2, 255, 256])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_the_scan_matches_its_first_form_bit_for_bit(monkeypatch, s, k):
    rng = np.random.default_rng(10 * k + s)
    mats = rng.normal(size=(k, s, s)) * 2.0 ** rng.integers(-300, 300, size=(k, 1, 1))
    zero = mats.copy()
    zero[k // 2] = 0.0  # every running product from here on is zero
    # every other axis shrinks 1e6-fold a step against the rest, so columns
    # in those axes fall below _TINY within a long block, which is halved
    shrink = np.repeat(np.diag(1e3 ** (1 - 2 * (np.arange(s) % 2)))[None], k, axis=0)
    for block in (mats, zero, shrink):
        assert scan_outcome(_running_products, block) == scan_outcome(first_form_scan, block)
        for m in (1, 68):
            d = rng.normal(size=(s, m))
            if block is shrink and s > 1:
                d[::2] = 0.0
            d /= np.linalg.norm(d, axis=0)
            with monkeypatch.context() as patch:
                calls = []
                patch.setattr("ltvlab.system._block_states",
                              lambda *args: calls.append(args) or _block_states(*args))
                fast = scan_outcome(_block_states, block, d, 7)
            assert bool(calls) == (block is zero and k > 1 or block is shrink and s > 1 and k > 2)
            with monkeypatch.context() as patch:
                patch.setattr("ltvlab.system._running_products", first_form_scan)
                patch.setattr("ltvlab.system._max_abs", lambda a: np.abs(a).max(axis=1))
                assert fast == scan_outcome(_block_states, block, d, 7)
    # the three blocks as independent segments of one (3, k, s, s) batch
    batch = _running_products(np.stack([mats, zero, shrink]))
    for i, block in enumerate((mats, zero, shrink)):
        segment = scan_outcome(lambda: tuple(a[i] for a in batch))
        assert segment == scan_outcome(_running_products, block)


@pytest.mark.parametrize("segments", [1, 2, 7, 40])
@pytest.mark.parametrize("s", [2, 3])
def test_a_batched_scan_equals_its_segments_scanned_alone(s, segments):
    rng = np.random.default_rng(100 * s + segments)
    mats = rng.normal(size=(segments, BLOCK_STEPS, s, s)) * 2.0 ** rng.integers(
        -300, 300, size=(segments, BLOCK_STEPS, 1, 1))
    mats[segments // 2, BLOCK_STEPS // 3] = 0.0
    batch = _running_products(mats)
    assert [a.shape for a in batch] == [mats.shape, mats.shape[:2], mats.shape[:2]]
    for i, segment in enumerate(mats):
        assert scan_outcome(lambda: tuple(a[i] for a in batch)) == scan_outcome(
            _running_products, segment)


def counted_scans(monkeypatch):
    """The matrices each ``_running_products`` call scans (the product of its
    leading dimensions), appended as it runs."""
    sizes = []
    monkeypatch.setattr(
        "ltvlab.system._running_products",
        lambda mats: sizes.append(math.prod(mats.shape[:-2])) or _running_products(mats))
    return sizes


def test_a_halved_block_scans_each_step_once(monkeypatch):
    # sin-log with A(n)_12 = 1, which is not diagonal and so takes the scan: at
    # H = 1e4 the volume and incompressibility passes each halve 10 of their 40
    # segments, and a halved segment scans only its second half anew; the 3
    # chunks take 4 batched scans (the last chunk's tail alone)
    a_11, a_22 = (line.strip() for line in SIN_LOG_SPEC.splitlines()[-2:])
    seq = parse_generator_spec(f"dimension: 2\nkind: dense\nentries:\n  {a_11}; 1\n  0; {a_22}\n")
    sizes = counted_scans(monkeypatch)

    def scans(fn, *args):
        sizes.clear()
        result = fn(*args)
        return result, (len(sizes), sum(sizes))

    _, volume_scans = scans(spectrum_estimate, seq, 10_000)
    fss, fss_scans = scans(FSSRecord.from_initial_vectors, seq, [[1.0, 1.0], [0.0, 1.0]], 10_000)
    _, test_scans = scans(incompressibility_test, fss)
    assert volume_scans == test_scans == (14, 11_279)
    assert fss_scans == (4, 9_999)


def chunked_outcomes(horizon):
    """Raw bytes (or the error) of every pass over A(n) at ``horizon``: sin-log
    through propagate, the spectrum and incompressibility_test, a seeded 3-d
    system through the spectrum's volume (compound) and QR passes, and
    diag(1,2) through execute_plan."""
    def raw(fn):
        try:
            value = fn()
        except Exception as exc:  # noqa: BLE001 - the same error is part of the outcome
            return repr(exc)
        values = value if isinstance(value, (list, tuple)) else [value]
        return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in values]

    sin_log = parse_generator_spec(SIN_LOG_SPEC)
    tri = CoefficientSequence.from_matrices(
        np.eye(3) + 0.5 * np.random.default_rng(2).normal(size=(horizon, 3, 3)))
    diag = geometric_diag([1.0, 2.0])
    out = [raw(lambda: [x for t in propagate(sin_log, np.array([[1.0, 0.0], [1.0, 1.0]]), horizon)
                        for x in (t.directions, t.log_norms)]),
           raw(lambda: spectrum_estimate(sin_log, horizon).exponents),
           raw(lambda: _volume_logs(tri, horizon, 1)),
           raw(lambda: _qr_logs(tri, horizon, 1)),
           raw(lambda: list(vars(incompressibility_test(FSSRecord.from_initial_vectors(
               sin_log, [[1.0, 1.0], [0.0, 1.0]], horizon))).values())),
           raw(lambda: tri.lyapunov_bound(horizon))]
    fss = FSSRecord.from_initial_vectors(diag, np.eye(2), horizon)
    plan = build_plan(fss, [0.01, -0.01])
    out.append(raw(lambda: list(vars(execute_plan(plan)).values())))
    return out


@pytest.mark.parametrize("horizon", [2, 257, 4096, 4097, 4098, 8195])
def test_chunks_give_the_bytes_of_one_segment_at_a_time(monkeypatch, horizon):
    chunked = chunked_outcomes(horizon)
    monkeypatch.setattr("ltvlab.system.CHUNK_STEPS", BLOCK_STEPS)
    assert chunked == chunked_outcomes(horizon)


def two_faults(s):
    """A system of identities but for A(300), which maps e_1 to zero, and a
    non-finite A(3000): both in the first chunk of A(n)."""
    def block_fn(start, stop):
        mats = np.repeat(np.eye(s)[None], stop - start, axis=0)
        ns = np.arange(start, stop)
        mats[ns == 300, 0, 0] = 0.0
        mats[ns == 3000] = np.nan
        return mats

    return CoefficientSequence(s, block_fn)


def test_faults_in_one_chunk_are_raised_in_step_order():
    # the first chunk's evaluation stops at A(3000); it is walked again a
    # segment at a time, so the earlier fault at n = 300 is the one raised
    seq = two_faults(2)
    collapse = r"^propagation collapsed at n=301 \(max \|x\|=0\.0\)$"
    with pytest.raises(PropagationError, match=collapse):
        propagate(seq, [1.0, 0.0], 5000)
    with pytest.raises(PropagationError, match=collapse):
        spectrum_estimate(seq, 5000)
    with pytest.raises(PropagationError, match=r"^basis collapsed at n=301$"):
        spectrum_estimate(two_faults(5), 5000)  # s = 5 takes the QR pass
    with pytest.raises(NotLyapunovSequenceError, match=r"^A\(300\) is singular"):
        seq.lyapunov_bound(5000)
    zero = CoefficientSequence.constant(np.zeros((2, 2)))
    with pytest.raises(InadmissiblePerturbationError, match=r"^A\(300\) \+ Q\(300\) is singular"):
        additive_to_multiplicative(seq, zero, check_horizon=5000)
    # with the collapse gone, the non-finite A(3000) is met
    with pytest.raises(PropagationError, match=r"^coefficient A\(n\) is not finite at n=3000$"):
        propagate(seq, [0.0, 1.0], 5000)


# --- diagonal chunks, carried in log form ---------------------------------


def test_diagonal_chunks_carry_the_signs(monkeypatch):
    seq = geometric_diag([-0.5, 3.0])
    sizes = counted_scans(monkeypatch)
    starts = np.array([[1.0, 0.0], [1.0, 1.0]])  # columns (1, 1) and (0, 1)
    logs = propagate(seq, starts, 700)
    assert sizes == []
    for j in range(2):
        assert_matches_reference(logs[j], seq, starts[:, j], 700)
    # x(n) = ((-0.5)**(n-1), 3**(n-1)); the first part is representable to n = 300
    ns = np.arange(1, 301)
    assert np.array_equal(np.sign(logs[0].directions[:300, 0]), (-1.0) ** (ns - 1))
    e_1 = propagate(seq, [1.0, 0.0], 700)
    ns = np.arange(1, 701)
    assert np.array_equal(e_1.directions[:, 0], (-1.0) ** (ns - 1))
    assert e_1.log_norms == pytest.approx((ns - 1) * math.log(0.5), rel=1e-13)


def test_a_diagonal_column_carried_alone_keeps_its_bits():
    # the squares of a component are added in order, so a column's norm does
    # not depend on how many columns ride with it, at any s
    rng = np.random.default_rng(0)
    mats = np.zeros((5000, 3, 3))
    mats[:, range(3), range(3)] = rng.uniform(0.5, 2.0, size=(5000, 3)) * rng.choice(
        [-1.0, 1.0], size=(5000, 3))
    seq = CoefficientSequence.from_matrices(mats)
    x, y = rng.normal(size=3), rng.normal(size=3)
    alone = propagate(seq, x, 4000)
    stacked = propagate(seq, np.column_stack([x, y]), 4000)[0]
    assert np.array_equal(alone.log_norms, stacked.log_norms)
    assert np.array_equal(alone.directions, stacked.directions)


def per_segment_chunk_states(mats, n0, state, read_from=1):
    """``_chunk_states`` in its per-segment form, the reference for the bits
    of the diagonal route: each BLOCK_STEPS segment is its own block, its
    running sums of ln |a_ii| start afresh, and its start is the last one's end."""
    d, log_norm, exact = state
    diagonal = np.diagonal(mats, axis1=1, axis2=2)
    if np.count_nonzero(mats) != np.count_nonzero(diagonal) or not np.all(
            (diagonal == 0.0) | (np.abs(diagonal) >= np.finfo(float).tiny)):
        for n, segment, scan in _segment_scans(mats, n0):
            dirs, growth = _block_states(segment, d, n, scan)
            logs = log_norm + growth
            state = dirs[-1], logs[-1], None
            keep = yield np.arange(n + 1, n + len(segment) + 1), dirs, logs, state
            d, log_norm, _ = _kept(state, keep)
        return
    with np.errstate(divide="ignore"):
        ln_a = np.log(np.abs(diagonal))
        sign, ln_x = exact or (np.sign(d)[..., None], (np.log(np.abs(d)) + log_norm)[..., None])
    for lo in range(0, len(mats), BLOCK_STEPS):
        sums = np.cumsum(ln_a[lo : lo + BLOCK_STEPS], axis=0).T[:, None]  # (s, 1, k)
        end = n0 + lo + sums.shape[-1]  # the segment's last step
        y = ln_x + (sums[..., -1:] if end < read_from else sums)
        top = y.max(axis=0)
        if np.isneginf(top[:, -1]).any():
            n = n0 + lo + int(np.argmax(np.isneginf((ln_x + sums).max(axis=0)).any(axis=0)))
            raise PropagationError(f"propagation collapsed at n={n + 1} (max |x|=0.0)")
        k = y.shape[-1]
        signs = np.cumprod(np.sign(diagonal[lo : lo + BLOCK_STEPS]), axis=0)[-k:].T[:, None]
        exact = sign * signs[..., -1:], y[..., -1:].copy()
        y -= top
        np.exp(y, out=y)
        norms = np.sqrt((y * y).sum(axis=0))
        y *= sign
        y *= signs
        y /= norms
        logs = np.log(norms, out=norms)
        logs += top
        state = y[..., -1].copy(), logs[:, -1], exact
        keep = yield np.arange(end - k + 1, end + 1), y.transpose(2, 0, 1), logs.T, state
        _, _, (sign, ln_x) = _kept(state, keep)


def raw_outcome(fn):
    """What ``fn()`` returns, arrays as their dtype, shape and bytes and
    floats by repr at any depth, or the error it raises."""
    def flat(value):
        if isinstance(value, np.ndarray):
            return (value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, dict):
            return flat(list(value.items()))
        if isinstance(value, (list, tuple)):
            return [flat(v) for v in value]
        return repr(value)

    try:
        return flat(fn())
    except Exception as exc:  # noqa: BLE001 - the same error is part of the outcome
        return repr(exc)


def signed_diagonal_file(s=3, count=3 * 4096 + 1000, seed=0):
    """A file-backed s-d diagonal system with entries from +-[0.5, 2]."""
    rng = np.random.default_rng(seed)
    mats = np.zeros((count, s, s))
    mats[:, range(s), range(s)] = rng.uniform(0.5, 2.0, size=(count, s)) * rng.choice(
        [-1.0, 1.0], size=(count, s))
    return CoefficientSequence.from_matrices(mats)


def zero_entry_system(both):
    """diag(-0.5, -2) but for A(2000) = diag(-0.5, 0) and A(2500) =
    diag(-0.5, -0.0), which empty e_2, and, when ``both``, A(3000) =
    diag(0, -2), which empties e_1 too."""
    mats = np.repeat(np.diag([-0.5, -2.0])[None], 3 * 4096 + 1000, axis=0)
    mats[1999, 1, 1], mats[2499, 1, 1] = 0.0, -0.0
    if both:
        mats[2999, 0, 0] = 0.0
    return CoefficientSequence.from_matrices(mats)


ROUTE_SYSTEMS = {
    "diag12": lambda: geometric_diag([1.0, 2.0]),
    "sin-log": lambda: parse_generator_spec(SIN_LOG_SPEC),
    "signed-3d-file": signed_diagonal_file,
    "zero-entry": lambda: zero_entry_system(False),
    "zero-entries": lambda: zero_entry_system(True),
}


def route_outcomes(seq, horizon):
    """Raw outcomes of every pass that takes the diagonal route: propagate
    with m = 1..5 columns (the first e_1), the spectrum at checkpoint_every
    1, the verdict of incompressibility_test on a skew FSS and execute_plan."""
    s = seq.dimension
    cols = np.column_stack([np.eye(s)[:, 0], np.random.default_rng(s).normal(size=(s, 4))])

    def verdict():
        skew = np.eye(s) + np.eye(s, k=1)  # rows (1, 1, 0), (0, 1, 1), ...
        v = incompressibility_test(FSSRecord.from_initial_vectors(seq, skew, horizon))
        return v.status, v.witness, v.witness_exponent

    def outcome():
        fss = FSSRecord.from_initial_vectors(seq, np.eye(s), horizon)
        return vars(execute_plan(build_plan(fss, [0.01, -0.01, 0.0][:s])))

    return [*(raw_outcome(lambda m=m: [(t.directions, t.log_norms)
                                       for t in propagate(seq, cols[:, :m], horizon)])
              for m in range(1, 6)),
            raw_outcome(lambda: vars(spectrum_estimate(seq, horizon, checkpoint_every=1))),
            raw_outcome(verdict),
            raw_outcome(outcome)]


@pytest.mark.parametrize("horizon", [2, 256, 257, 4096, 4097, 3 * 4096 + 1000])
@pytest.mark.parametrize("system", sorted(ROUTE_SYSTEMS))
def test_the_diagonal_route_keeps_its_per_segment_bits(monkeypatch, system, horizon):
    seq = ROUTE_SYSTEMS[system]()
    outcomes = route_outcomes(seq, horizon)
    monkeypatch.setattr("ltvlab.system._chunk_states", per_segment_chunk_states)
    monkeypatch.setattr("ltvlab.spectrum._chunk_states", per_segment_chunk_states)
    assert outcomes == route_outcomes(seq, horizon)
    # e_1 is emptied by A(3000) when both entries are zeroed; the 2-volume,
    # and the member e_2, by A(2000)
    collapse = "PropagationError('propagation collapsed at n={} (max |x|=0.0)')"
    if system.startswith("zero") and horizon > 3000:
        assert outcomes[5] == outcomes[-1] == collapse.format(2001)
        assert (outcomes[0] == collapse.format(3001)) == (system == "zero-entries")


def switching_system(diagonal_first):
    """diag(-0.5, 3) on the steps of the first two chunks of A(n), n <= 8192,
    and seeded dense matrices after them; or dense first and diagonal after."""
    dense = np.eye(2) + 0.3 * np.random.default_rng(8).normal(size=(9000, 2, 2))
    diagonal = (np.arange(1, 9001) <= 8192) == diagonal_first
    return CoefficientSequence.from_matrices(
        np.where(diagonal[:, None, None], np.diag([-0.5, 3.0]), dense))


@pytest.mark.parametrize("diagonal_first, scanned", [(True, 699), (False, 8192)])
def test_a_route_switch_at_a_chunk_boundary_matches_the_per_step_loop(
        monkeypatch, diagonal_first, scanned):
    seq = switching_system(diagonal_first)
    sizes = counted_scans(monkeypatch)
    starts = np.array([[1.0, 0.0], [1.0, 1.0]])
    logs = propagate(seq, starts, 8892)
    assert sum(sizes) == scanned  # the dense steps alone are scanned
    for j in range(2):
        assert_matches_reference(logs[j], seq, starts[:, j], 8892)


def test_a_zero_diagonal_entry_collapses_every_pass():
    # A(300) = diag(0, 2) empties e_1, on the route of a diagonal chunk
    mats = np.repeat(np.diag([1.0, 2.0])[None], 400, axis=0)
    mats[299, 0, 0] = 0.0
    seq = CoefficientSequence.from_matrices(mats)
    collapse = r"propagation collapsed at n=301 \(max \|x\|=0\.0\)$"
    with pytest.raises(PropagationError, match="^" + collapse):
        propagate(seq, np.eye(2), 400)
    with pytest.raises(PropagationError, match="^" + collapse):
        spectrum_estimate(seq, 400)
    fss = FSSRecord.from_initial_vectors(geometric_diag([1.0, 2.0]), np.eye(2), 400)
    plan = build_plan(fss, [0.01, -0.01])
    zeroed = FSSRecord(seq, fss.trajectories, fss.initial_vectors)
    with pytest.raises(PreconditionError, match="^perturbed " + collapse):
        execute_plan(dataclasses.replace(plan, fss=zeroed))


def test_a_subnormal_diagonal_entry_takes_the_scan(monkeypatch):
    seq = geometric_diag([1e-320, 1.0])
    sizes = counted_scans(monkeypatch)
    with pytest.raises(UnderflowError, match=r"^propagation collapsed at n=2 \(max \|x\|=1e-320\)$"):
        propagate(seq, [1.0, 0.0], 3)
    assert sizes == [2]


# --- compound blocks of the spectrum's volume pass ----------------------


def explicit_compound(a, j):
    subsets = list(itertools.combinations(range(len(a)), j))
    return np.array([[np.linalg.det(a[np.ix_(rows, cols)]) for cols in subsets] for rows in subsets])


def test_compound_holds_the_minors_in_lexicographic_order():
    rng = np.random.default_rng(3)
    seq = CoefficientSequence.from_matrices(rng.normal(size=(6, 4, 4)))
    mats = seq.matrices(2, 5)
    assert _compound(mats, 1, 2) is mats
    for j, size in ((2, 6), (3, 4), (4, 1)):
        block = _compound(mats, j, 2)
        assert block.shape == (3, size, size)
        for k, a in enumerate(mats):
            assert np.allclose(block[k], explicit_compound(a, j), rtol=0, atol=1e-12)
    assert np.allclose(_compound(seq.matrices(1, 7), 4, 1)[:, 0, 0], np.linalg.det(seq.matrices(1, 7)))
    diag = _compound(np.diag([2.0, 3.0, 5.0])[None], 2, 1)[0]
    assert np.allclose(diag, np.diag([6.0, 10.0, 15.0]), rtol=1e-15, atol=0)


def fancy_index_compound(mats, j):
    """``_compound`` in its first form, every minor through one fancy-index
    copy of shape (k, C, C, j, j): the reference for its bits."""
    subsets = np.array(list(itertools.combinations(range(mats.shape[1]), j)))
    sign, logdet = np.linalg.slogdet(mats[:, subsets[:, None, :, None], subsets[None, :, None, :]])
    return sign * np.exp(logdet)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_compound_keeps_the_bits_of_the_fancy_index_form(s):
    rng = np.random.default_rng(s)
    mats = rng.normal(size=(4096, s, s)) * 2.0 ** rng.integers(-40, 40, size=(4096, s, 1))
    mats[::5, 0] = 0.0  # singular minors
    units, _ = _unit_part(mats, 1)
    for j in range(2, s + 1):
        assert scan_outcome(lambda: (_compound(units, j, 1),)) == scan_outcome(
            lambda: (fancy_index_compound(units, j),))


def compound_sequence(seq, j):
    return CoefficientSequence(
        math.comb(seq.dimension, j), lambda start, stop: _compound(seq.matrices(start, stop), j, start)
    )


def test_compound_volumes_are_the_products_of_the_qr_diagonal():
    # Cauchy-Binet: propagating e_1 under C_j gives |r_11 ... r_jj| of X(n)
    rng = np.random.default_rng(5)
    seq = CoefficientSequence.from_matrices(np.eye(3) + 0.5 * rng.normal(size=(8, 3, 3)))
    x = np.eye(3)
    for a in seq.matrices(1, 9):
        x = a @ x
    r = np.abs(np.diag(np.linalg.qr(x)[1]))
    for j in (1, 2, 3):
        traj = propagate(compound_sequence(seq, j), np.eye(math.comb(3, j))[0], 9)
        assert traj.log_norms[8] == pytest.approx(np.log(r[:j]).sum(), abs=1e-12)


def test_compound_keeps_the_checks_of_the_sequence():
    seq = diagonal_spec("1", "1/(n-5)", "2")
    with pytest.raises(PropagationError, match="n=5"):
        _volume_logs(seq, 10, 1)
    file_seq = CoefficientSequence.from_matrices(np.ones((4, 3, 3)))
    assert _compound(file_seq.matrices(1, 5), 3, 1).shape == (4, 1, 1)
    with pytest.raises(IndexError):
        _volume_logs(file_seq, 7, 1)


def test_compound_raises_on_a_minor_below_the_normal_range():
    # det diag(1e-162, 7e-162) = 7e-324 would round to the subnormal 4.9e-324
    mats = np.array([np.eye(2), np.diag([1e-162, 7e-162])])
    assert _compound(mats[:1], 2, 1)[0, 0, 0] == 1.0
    with pytest.raises(UnderflowError, match="n=2"):
        _compound(mats, 2, 1)
    assert _compound(np.diag([0.0, 1.0])[None], 2, 1)[0, 0, 0] == 0.0


def test_split_scale_is_exact_and_keeps_the_minors_normal():
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(5, 3, 3)) * np.array([1e-162, 1e160, 1.0, 3e-300, 0.0])[:, None, None]
    units, e = _unit_part(CoefficientSequence.from_matrices(mats).matrices(1, 6), 1)
    assert e.dtype.kind == "i"  # so their running sums are exact
    scales = np.ldexp(1.0, e)
    assert np.array_equal(units * scales[:, None, None], mats)
    top = np.abs(units[:4]).max(axis=(1, 2))
    assert np.all((top >= 1.0) & (top < 2.0))
    assert scales[4] == 1.0 and not units[4].any()
    for j in (2, 3):
        assert np.all(np.isfinite(_compound(units, j, 1)))
    stretched = CoefficientSequence.constant(np.diag([1e200, 1e-120]))
    with pytest.raises(UnderflowError, match="n=1"):
        _unit_part(stretched.matrices(1, 2), 1)


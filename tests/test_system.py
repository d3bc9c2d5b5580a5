import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ltvlab import (
    CoefficientSequence,
    InvalidInputError,
    NotLyapunovSequenceError,
    ParseError,
    PropagationError,
    additive_to_multiplicative,
    parse_generator_spec,
    propagate,
    read_matrix_sequence,
    transition,
    write_matrix_sequence,
)
from ltvlab.errors import UnderflowError
from ltvlab.presets import SIN_LOG_SPEC, geometric_diag
from ltvlab.spectrum import _compound, _unit_part, _volume_logs


def test_constant_sequence():
    seq = CoefficientSequence.constant([[1.0, 0.0], [0.0, 2.0]])
    assert seq.dimension == 2
    assert np.array_equal(seq.matrix_at(1), np.diag([1.0, 2.0]))
    assert np.array_equal(seq.matrix_at(999), np.diag([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        seq.matrix_at(0)


def test_diagonal_formula_sequence():
    seq = CoefficientSequence.diagonal_formulas(["n", "2*n"])
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
    ],
    ids=["kind", "file-path", "diagonal-count", "dense-count", "constant-count",
         "constant-number", "constant-non-finite"],
)
def test_spec_errors_point_at_their_line(spec, message, line, column):
    with pytest.raises(ParseError, match=message) as info:
        parse_generator_spec(spec)
    assert (info.value.line, info.value.column) == (line, column)


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
    # cached value is reused for smaller horizons
    assert seq.lyapunov_bound(10) == pytest.approx(2.0)


def test_lyapunov_bound_rejects_singular():
    seq = CoefficientSequence.diagonal_formulas(["n - 3", "1"])
    with pytest.raises(NotLyapunovSequenceError) as info:
        seq.lyapunov_bound(5)
    assert info.value.index == 3


def test_propagate_log_scaled_growth():
    # 2^n growth held as log-norm, direction stays put
    seq = geometric_diag([1.0, 2.0])
    traj = propagate(seq, [0.0, 1.0], 101)
    assert traj.log_norm_at(101) == pytest.approx(100 * math.log(2))
    assert np.allclose(traj.direction_at(101), [0.0, 1.0])
    assert traj.value_at(3)[1] == pytest.approx(4.0)


def test_propagate_huge_horizon_no_overflow():
    seq = geometric_diag([1.0, 2.0])
    traj = propagate(seq, [1.0, 1.0], 5001, store_every=100)
    assert np.isfinite(traj.log_norms).all()
    assert traj.log_norm_at(5001) == pytest.approx(5000 * math.log(2), rel=1e-9)


def test_propagate_rejects_zero_start():
    seq = geometric_diag([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        propagate(seq, [0.0, 0.0], 10)


def test_propagate_collapse_detected():
    seq = CoefficientSequence.constant([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(PropagationError):
        propagate(seq, [0.0, 1.0], 10)


def test_transition_products_and_inverse():
    seq = CoefficientSequence.diagonal_formulas(["n", "1"])
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
        prod = CoefficientSequence.product(seq, r_seq)
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
    ns = traj.indices
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
    callable_seq = CoefficientSequence.from_function(3, lambda n: fixed[n - 1])
    sequences = {
        "constant": CoefficientSequence.constant(np.arange(9.0).reshape(3, 3)),
        "diagonal": CoefficientSequence.diagonal_formulas(["n", "exp(-n/7)", "2"]),
        "dense": dense,
        "file-backed": file_seq,
        "product": CoefficientSequence.product(file_seq, dense),
        "from_function": callable_seq,
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


def test_matrices_name_the_first_non_finite_step():
    seq = CoefficientSequence.diagonal_formulas(["1", "1/((n-5)*(n-9))"])
    assert np.isfinite(seq.matrices(1, 5)).all()
    with pytest.raises(PropagationError, match="n=5"):
        seq.matrices(1, 20)
    with pytest.raises(PropagationError, match="n=9"):
        seq.matrices(6, 20)


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
    sparse = propagate(seq, starts, horizon, store_every=7)
    assert list(sparse[0].indices[:3]) == [1, 8, 15] and sparse[0].indices[-1] == horizon
    for j in range(s):
        assert_matches_reference(sparse[j], seq, starts[:, j], horizon)


def test_propagate_matches_the_per_step_loop_on_sin_log():
    seq = parse_generator_spec(SIN_LOG_SPEC)
    starts = np.array([[1.0, 0.0], [1.0, 1.0]])  # columns (1, 1) and (0, 1)
    for store_every in (1, 7):
        logs = propagate(seq, starts, 3000, store_every)
        for j in range(2):
            assert_matches_reference(logs[j], seq, starts[:, j], 3000)


def test_propagate_splits_a_block_that_underflows():
    # over one block the (0, 1) column shrinks by 1e-1536 against (1, 0)
    seq = geometric_diag([1e3, 1e-3])
    starts = np.array([[1.0, 0.0], [1.0, 1.0]])
    logs = propagate(seq, starts, 600)
    for j in range(2):
        assert_matches_reference(logs[j], seq, starts[:, j], 600)
    assert logs[1].log_norm_at(600) == pytest.approx(599 * math.log(1e-3), rel=1e-13)
    assert_matches_reference(propagate(seq, [1.0, 1.0], 600), seq, [1.0, 1.0], 600)


def test_propagate_reports_a_collapse_inside_a_block():
    mats = np.repeat(np.eye(2)[None], 400, axis=0)
    mats[299] = np.diag([0.0, 1.0])  # A(300) maps (1, 0) to zero
    seq = CoefficientSequence.from_matrices(mats)
    with pytest.raises(PropagationError, match="n=301"):
        propagate(seq, [1.0, 0.0], 400)
    with pytest.raises(PropagationError, match="n=301"):
        propagate(seq, np.eye(2), 400)
    assert propagate(seq, [0.0, 1.0], 400).log_norm_at(400) == 0.0


def test_propagate_scales_before_taking_norms():
    # |x(n)| passes 1e154 at n = 2, where a plain sum of squares overflows
    traj = propagate(geometric_diag([1e160, 1.0]), [1.0, 1.0], 100)
    assert traj.log_norm_at(100) == pytest.approx(99 * math.log(1e160), rel=1e-14)
    assert np.allclose(traj.direction_at(100), [1.0, 0.0])


def test_propagate_scales_a_shrinking_column_before_taking_its_norm():
    # x(2) = (1e-200, 0), whose plain sum of squares underflows to zero
    traj = propagate(geometric_diag([1e-200, 1.0]), [1.0, 0.0], 100)
    assert traj.log_norm_at(100) == pytest.approx(99 * math.log(1e-200), rel=1e-14)
    assert np.array_equal(traj.direction_at(100), [1.0, 0.0])
    # x(2) = (0, 1e-310) is subnormal: too few digits left to go on
    with pytest.raises(UnderflowError, match="n=2"):
        propagate(geometric_diag([1.0, 1e-310]), [0.0, 1.0], 3)


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
        assert traj.log_norm_at(9) == pytest.approx(np.log(r[:j]).sum(), abs=1e-12)


def test_compound_keeps_the_checks_of_the_sequence():
    seq = CoefficientSequence.diagonal_formulas(["1", "1/(n-5)", "2"])
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


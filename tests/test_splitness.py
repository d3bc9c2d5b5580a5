import math
import warnings

import numpy as np
import pytest

from ltvlab import (
    CoefficientSequence,
    FSSRecord,
    InvalidInputError,
    NotLyapunovSequenceError,
    PreconditionError,
    TrajectoryLog,
    angle_to_subspace,
    apply_lyapunov_transformation,
    broken_away_scan,
    calibrate,
    cosine_to_subspace,
    gamma_statistics,
    splitness_report,
)
from ltvlab import splitness
from ltvlab.presets import geometric_diag, sin_log_witness_fss, standard_basis_fss
from ltvlab.splitness import GAMMA_GRID


def test_fss_requires_independent_initials():
    seq = geometric_diag([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        FSSRecord.from_initial_vectors(seq, [[1.0, 0.0], [2.0, 0.0]], 100)


def test_angle_profile_orthogonal_diag():
    # standard basis solutions of a diagonal system stay orthogonal
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 500)
    angles = fss.angle_profile()
    assert np.abs(angles - math.pi / 2).max() < 1e-12
    assert np.abs(fss.cos_angle_profile()).max() < 1e-12


def test_angle_profile_matches_closed_form_sin_log():
    fss = sin_log_witness_fss(2000)
    ns = np.arange(1, fss.horizon + 1).astype(float)
    with np.errstate(over="ignore"):
        expected = (1.0 + np.exp(-6.0 * ns * np.sin(np.log(ns)))) ** -0.5
    assert np.abs(fss.cos_angle_profile()[:, 0] - expected).max() < 1e-10


def test_sin_log_cosines_keep_their_digits_where_they_are_tiny():
    # cos phi_1 on the witness FSS falls to 1e-218 near n = 200; |d_1 . d_2|
    # keeps it to relative 1e-11 wherever it is a normal double
    fss = sin_log_witness_fss(10_000)
    ns = np.arange(1, fss.horizon + 1)
    a = ns * np.sin(np.log(ns))
    expected = np.exp(-0.5 * np.logaddexp(0.0, -6.0 * a))
    held = expected > 1e-290
    cosines = fss.cos_angle_profile()
    rel = np.abs(cosines[held] - expected[held, None]) / expected[held, None]
    assert rel.max() <= 1e-11


def test_two_dimensional_profiles_call_no_projection(monkeypatch):
    # at s = 2 both profiles read the one dot product d_1 . d_2
    def refuse(*args):
        raise AssertionError("a 2-d profile called the projection kernel")

    for name in ("angle_to_subspace", "cosine_to_subspace"):
        monkeypatch.setattr(splitness, name, refuse)
    fss = sin_log_witness_fss(500)
    assert fss.angle_profile().shape == fss.cos_angle_profile().shape == (500, 2)


def test_angle_profile_three_dimensional():
    seq = geometric_diag([1.0, 2.0, 3.0])
    fss = standard_basis_fss(seq, 50)
    angles = fss.angle_profile()
    assert angles.shape == (50, 3)
    assert np.abs(angles - math.pi / 2).max() < 1e-10


def test_gamma_statistics_counts_and_densities():
    fss = sin_log_witness_fss(2000)
    flags, densities = gamma_statistics(fss, 0, math.acos(0.9), sigma=1)
    counts = np.rint(np.arange(1, len(densities) + 1) * densities)  # N(k) = k g(k)
    assert counts[-1] == flags.sum()
    assert np.all(np.diff(counts) >= 0)
    assert np.all((densities >= 0) & (densities <= 1))
    # brute-force recount
    angles = fss.angle_profile()[:, 0]
    assert counts[-1] == int((angles >= math.acos(0.9)).sum())


def test_gamma_statistics_sigma_subsampling():
    fss = sin_log_witness_fss(2000)
    flags1, _ = gamma_statistics(fss, 0, 0.3, sigma=1)
    flags4, _ = gamma_statistics(fss, 0, 0.3, sigma=4)
    assert len(flags4) == 500
    assert np.array_equal(flags4, flags1[3::4])
    # a numpy integer is an integer sigma
    assert np.array_equal(gamma_statistics(fss, 0, 0.3, sigma=np.int64(4))[0], flags4)


def test_fss_members_must_share_one_horizon():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 50)
    short = fss.trajectories[1]
    members = [fss.trajectories[0], TrajectoryLog(short.directions[:49], short.log_norms[:49])]
    with pytest.raises(InvalidInputError, match="horizon"):
        FSSRecord(fss.seq, members, fss.initial_vectors)


@pytest.mark.parametrize("directions, log_norms", [
    (np.zeros((3, 2)), np.zeros(5)),
    (np.zeros((5, 2)), np.zeros(3)),
    (np.zeros(5), np.zeros(5)),
    (np.zeros((5, 2, 1)), np.zeros(5)),
    (np.zeros((5, 2)), np.zeros((5, 1))),
], ids=["fewer-directions", "fewer-log-norms", "1-d-directions", "3-d-directions",
        "2-d-log-norms"])
def test_a_trajectory_needs_one_direction_and_log_norm_per_step(directions, log_norms):
    with pytest.raises(InvalidInputError, match="trajectory"):
        TrajectoryLog(directions, log_norms)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["direction", "log-norm"])
def test_a_trajectory_refuses_a_non_finite_entry(where, value):
    # so every exponent profile is finite, and its tail-max has a realizing step
    directions, log_norms = np.tile([0.6, 0.8], (5, 1)), np.arange(5.0)
    if where == "direction":
        directions[3, 1] = value
    else:
        log_norms[3] = value
    with pytest.raises(InvalidInputError,
                       match=r"^trajectory step n=4 is not finite$"):
        TrajectoryLog(directions, log_norms)


def test_broken_away_orthogonal_solutions():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    verdict = broken_away_scan(fss, 0)
    assert verdict.status == "yes"
    assert verdict.gamma == pytest.approx(math.pi / 2)
    assert verdict.rho_hat == pytest.approx(1.0)


def test_broken_away_collapsing_pair():
    # two solutions of diag(1, 2) that converge in direction: x1 from
    # (1, 1) and x2 from (0, 1) align exponentially fast, so the angle
    # density dies and the verdict is "no"
    seq = geometric_diag([1.0, 2.0])
    fss = FSSRecord.from_initial_vectors(seq, [[1.0, 1.0], [0.0, 1.0]], 2000)
    verdict = broken_away_scan(fss, 0)
    assert verdict.status == "no"


def test_splitness_report_is_splitted_when_every_verdict_is_yes():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    report = splitness_report(fss)
    assert report.splitted is True
    assert all(v.status == "yes" for v in report.verdicts)

    seq = geometric_diag([1.0, 2.0])
    bad = FSSRecord.from_initial_vectors(seq, [[1.0, 1.0], [0.0, 1.0]], 2000)
    report = splitness_report(bad)
    assert report.splitted is False
    assert [v.status for v in report.verdicts] == ["no", "no"]  # one angle at s = 2


def rotated_fss():
    """The standard FSS of diag(1, 2) in the coordinates of a rotation by 0.9."""
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    c, s = math.cos(0.9), math.sin(0.9)
    return apply_lyapunov_transformation(fss, CoefficientSequence.constant([[c, -s], [s, c]]))


# the FSSs of this module, splitted and not
FSS_CASES = {
    "diag12-standard": lambda: standard_basis_fss(geometric_diag([1.0, 2.0]), 2000),
    "diag12-collapsing": lambda: FSSRecord.from_initial_vectors(
        geometric_diag([1.0, 2.0]), [[1.0, 1.0], [0.0, 1.0]], 2000),
    "sin-log-witness": lambda: sin_log_witness_fss(10_000),
    "diag123-standard": lambda: standard_basis_fss(geometric_diag([1.0, 2.0, 3.0]), 50),
    "diag2-1d": lambda: standard_basis_fss(geometric_diag([2.0]), 200),
    "rotated-diag12": rotated_fss,
    "triangular-3d": lambda: triangular_fss(3, 300, seed=3),
}


def test_calibrate_refuses_exactly_what_splitness_report_does_not_call_splitted():
    seen = set()
    for name, make in FSS_CASES.items():
        fss = make()
        report = splitness_report(fss)
        seen.add(report.splitted)
        if not report.splitted:
            with pytest.raises(PreconditionError, match="^FSS is not splitted at this horizon"):
                calibrate(fss)
            continue
        verdicts = calibrate(fss).verdicts
        assert [(v.gamma, v.rho_hat, v.status) for v in verdicts] == [
            (v.gamma, v.rho_hat, v.status) for v in report.verdicts], name
    assert seen == {True, False}


def test_sigma_invariance_sin_log():
    fss = sin_log_witness_fss(10_000)
    for sigma in (3, 5):
        v0, v1 = (broken_away_scan(fss, 0, GAMMA_GRID, every) for every in (1, sigma))
        assert v0.status == v1.status == "yes"


def test_witness_angles_are_right_angles_once_x_1_dominates_again():
    # from n = 12,400 the (1, 1) member of sin-log's witness FSS is
    # x_1-dominated: its direction is (1, x_2/x_1), at pi/2 to 1e-10 from
    # the line of the (0, 1) member, though x_1 fell to about e^-12,000 of
    # x_2 near n = 5,650
    phi = sin_log_witness_fss(30_000).angle_profile()[:, 0]
    assert np.abs(phi[12_399:] - math.pi / 2).max() <= 1e-9


def test_gamma_grid_shape():
    assert GAMMA_GRID[0] == pytest.approx(math.pi / 2)
    assert len(GAMMA_GRID) == 8
    ratios = [GAMMA_GRID[j] / GAMMA_GRID[j + 1] for j in range(7)]
    assert all(r == pytest.approx(2.0) for r in ratios)


def test_lyapunov_transformation_preserves_verdicts():
    # a fixed rotation is a Lyapunov transformation; broken-away verdicts
    # and exponents survive the coordinate change
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    theta = 0.9
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    transform = CoefficientSequence.constant(rot)
    new_fss = apply_lyapunov_transformation(fss, transform)
    new_seq = new_fss.seq
    before = broken_away_scan(fss, 0)
    after = broken_away_scan(new_fss, 0)
    assert after.status == before.status == "yes"
    assert after.lambda_hat == pytest.approx(before.lambda_hat, abs=1e-9)
    # transformed trajectories actually solve the transformed system
    y2 = new_fss.trajectories[0].value_at(2)
    y1 = new_fss.trajectories[0].value_at(1)
    assert np.allclose(new_seq.matrix_at(1) @ y1, y2, rtol=1e-9)


def test_the_transformed_fss_solves_its_own_system():
    # B(n) y_i(n) is parallel to y_i(n + 1) on both sides of the block
    # boundaries at 256 and 512, with the log-norm of the step between them
    fss = FSSRecord.from_initial_vectors(geometric_diag([1.0, 2.0]), [[1.0, 1.0], [0.0, 1.0]],
                                         600)
    transform = CoefficientSequence.dense_formulas(
        [["cos(sin(n))", "-sin(sin(n))"], ["sin(sin(n))", "cos(sin(n))"]])
    new_fss = apply_lyapunov_transformation(fss, transform)
    for n in (1, 2, 254, 255, 256, 257, 258, 511, 512, 513, 599):
        b_n = new_fss.seq.matrix_at(n)
        for traj in new_fss.trajectories:
            image = b_n @ traj.direction_at(n)
            size = np.linalg.norm(image)
            assert np.abs(image / size - traj.direction_at(n + 1)).max() <= 1e-12
            assert traj.log_norms[n - 1] + math.log(size) == pytest.approx(
                traj.log_norms[n], rel=1e-12, abs=1e-12)


def test_an_old_form_transformation_call_is_refused():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 10)
    with pytest.raises(TypeError):
        apply_lyapunov_transformation(fss.seq, fss, CoefficientSequence.constant(np.eye(2)))


def test_lyapunov_transformation_bounds():
    # the bound is max(sup ||L(n)||, sup ||L(n)^-1||): each side can set it
    for diag, bound in (([2.0, 0.5], 2.0), ([3.0, 0.5], 3.0), ([2.0, 0.25], 4.0)):
        assert CoefficientSequence.constant(np.diag(diag)).lyapunov_bound(10) == pytest.approx(bound)


def test_lyapunov_transformation_matches_the_per_step_map():
    # L(n) is the rotation by sin n, and the horizon crosses a block
    # boundary of the transformed system
    rng = np.random.default_rng(4)
    horizon = 300
    seq = CoefficientSequence.from_matrices(np.eye(2) + 0.3 * rng.normal(size=(horizon, 2, 2)))
    fss = FSSRecord.from_initial_vectors(seq, [[1.0, 1.0], [0.0, 1.0]], horizon)
    transform = CoefficientSequence.dense_formulas(
        [["cos(sin(n))", "-sin(sin(n))"], ["sin(sin(n))", "cos(sin(n))"]])
    new_fss = apply_lyapunov_transformation(fss, transform)
    new_seq = new_fss.seq
    l_at = transform.matrix_at
    for n in (1, 2, 256, 257, 299):
        expected = l_at(n + 1) @ seq.matrix_at(n) @ np.linalg.inv(l_at(n))
        assert np.allclose(new_seq.matrix_at(n), expected, rtol=1e-12, atol=1e-14)
    for traj, new in zip(fss.trajectories, new_fss.trajectories):
        assert new.horizon == traj.horizon == horizon
        for k, n in enumerate(np.arange(1, horizon + 1)):
            y = l_at(n) @ traj.directions[k]
            assert np.allclose(new.directions[k], y / np.linalg.norm(y), rtol=0, atol=1e-14)
            assert new.log_norms[k] == pytest.approx(
                traj.log_norms[k] + math.log(np.linalg.norm(y)), rel=1e-14, abs=1e-14
            )
    assert np.allclose(new_fss.initial_vectors, [l_at(1) @ v for v in fss.initial_vectors])


def identity_but_at(step, value):
    """The 2 x 2 identity but for diag(1, ``value``) at n = ``step``."""
    def block_fn(start, stop):
        mats = np.repeat(np.eye(2)[None], stop - start, axis=0)
        mats[np.arange(start, stop) == step, 1, 1] = value
        return mats

    return CoefficientSequence(2, block_fn)


def test_singular_lyapunov_transformation_names_the_step():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 10)
    for bad in (5, 11):  # a step of the FSS, and the step after the horizon
        transform = identity_but_at(bad, 0.0)
        with pytest.raises(NotLyapunovSequenceError, match=f"L\\({bad}\\)") as info:
            apply_lyapunov_transformation(fss, transform)
        assert info.value.index == bad


def test_lyapunov_transformation_checks_the_steps_past_the_horizon():
    # B(11) and B(12) read L(12), which the up-front check up to H + 1 = 11 misses
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 10)
    for small in (1e-300, 0.0):
        transform = identity_but_at(12, small)
        new_seq = apply_lyapunov_transformation(fss, transform).seq
        for n in (11, 12):
            with pytest.raises(NotLyapunovSequenceError, match=r"L\(12\)") as info:
                new_seq.matrix_at(n)
            assert info.value.index == 12


def test_a_scaled_rotation_is_a_lyapunov_transformation():
    # L = 1e-13 Q is perfectly conditioned, and B(n) = L A(n) L^-1 = Q A(n) Q^T;
    # L = diag(1, 1e-13) is rank deficient to tolerance
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 10)
    q = np.array([[0.8, -0.6], [0.6, 0.8]])
    new_seq = apply_lyapunov_transformation(fss, CoefficientSequence.constant(1e-13 * q)).seq
    for n in (1, 5, 10, 11):
        assert np.allclose(new_seq.matrix_at(n), q @ fss.seq.matrix_at(n) @ q.T, rtol=0, atol=1e-12)
    flat = CoefficientSequence.constant(np.diag([1.0, 1e-13]))
    with pytest.raises(NotLyapunovSequenceError,
                       match=r"^L\(1\) is singular to tolerance; not a Lyapunov transformation$"):
        apply_lyapunov_transformation(fss, flat)


def test_one_dimensional_fss_takes_the_general_angle_path():
    fss = standard_basis_fss(geometric_diag([2.0]), 200)
    assert np.all(fss.angle_profile() == math.pi / 2)
    assert np.all(fss.cos_angle_profile() == 0.0)
    report = splitness_report(fss)
    assert report.splitted is True
    (verdict,) = report.verdicts
    assert verdict.gamma == max(GAMMA_GRID) and verdict.rho_hat == 1.0


def test_fss_checks_initial_vectors_before_propagating(monkeypatch):
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagate called on bad initial vectors")

    monkeypatch.setattr("ltvlab.splitness.propagate", no_propagation)
    seq = geometric_diag([1.0, 2.0])
    for bad in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0]],
                [[1.0, 0.0], [0.0, float("nan")]]):
        with pytest.raises(InvalidInputError):
            FSSRecord.from_initial_vectors(seq, bad, 10_000)


def test_fss_independence_check_is_scale_free():
    seq = geometric_diag([1.0, 2.0])
    independent = np.array([[1.0, 0.0], [1.0, 1.0]])
    dependent = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-14]])
    for c in (1e-6, 1.0, 1e6):
        FSSRecord.from_initial_vectors(seq, c * independent, 10)
        with pytest.raises(InvalidInputError):
            FSSRecord.from_initial_vectors(seq, c * dependent, 10)
    FSSRecord.from_initial_vectors(seq, 1e-4 * np.eye(2), 10)


def triangular_fss(s, horizon, seed):
    """Standard-basis FSS of a seeded upper-triangular system with growth
    rates increasing down the diagonal, so the angles stay bounded away
    from zero."""
    rng = np.random.default_rng(seed)
    mats = np.triu(rng.uniform(-0.5, 0.5, size=(horizon, s, s)), 1)
    mats += np.eye(s) * np.exp(0.5 * np.arange(s) + 0.2 * rng.uniform(-1, 1, (horizon, 1, s)))
    seq = CoefficientSequence.from_matrices(list(mats))
    return standard_basis_fss(seq, horizon)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_angle_profiles_match_a_per_step_loop(s):
    # at s = 2 the profile's angle is arcsin of the closed form's residual and
    # the loop's is arcsin of project_out's: two roundings of sin phi, which
    # arcsin scales by 1 / cos phi, so the angles are held to 1e-14 / cos phi
    fss = triangular_fss(s, 300, seed=s)
    angles, cosines = fss.angle_profile(), fss.cos_angle_profile()
    assert angles.shape == cosines.shape == (300, s)
    for k, n in enumerate(np.arange(1, fss.horizon + 1)):
        dirs = np.column_stack([t.direction_at(n) for t in fss.trajectories])
        for i in range(s):
            others = np.delete(dirs, i, axis=1)
            angle = angle_to_subspace(dirs[:, i], others)
            assert abs(angles[k, i] - angle) <= 1e-14 / (math.cos(angle) if s == 2 else 1.0)
            assert abs(cosines[k, i] - cosine_to_subspace(dirs[:, i], others)) <= 1e-14


def test_collapsed_basis_warns_once_per_profile():
    # at steps 4 and 7 all three directions lie on one line, so every
    # member's complement basis collapses; at step 9 only x_3's does.
    # Each profile warns once, with the count of those steps and the first
    fss = standard_basis_fss(geometric_diag([1.0, 2.0, 3.0]), 10)
    trajectories = []
    for i, traj in enumerate(fss.trajectories):
        dirs = traj.directions.copy()
        dirs[[3, 6]] = [1.0, 0.0, 0.0]
        if i == 1:
            dirs[8] = [1.0, 0.0, 0.0]
        trajectories.append(TrajectoryLog(dirs, traj.log_norms))
    bad = FSSRecord(fss.seq, trajectories, fss.initial_vectors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        angles = bad.angle_profile()
        cosines = bad.cos_angle_profile()
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert messages == ["angle basis numerically collapsed at 3 steps from n=4"] * 2
    assert np.all(angles[[3, 6]] == 0.0) and np.all(cosines[[3, 6]] == 1.0)
    # x_1 = x_2 at step 9: angle 0 for both, and x_3 gets the collapsed value
    assert np.all(angles[8] == 0.0) and np.all(cosines[8] == 1.0)
    assert np.abs(np.delete(angles, [3, 6, 8], axis=0) - math.pi / 2).max() < 1e-12

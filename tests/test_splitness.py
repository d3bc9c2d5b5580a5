import math
import warnings

import numpy as np
import pytest

from ltvlab import (
    CoefficientSequence,
    FSSRecord,
    InvalidInputError,
    LyapunovTransformation,
    TrajectoryLog,
    angle_to_subspace,
    apply_lyapunov_transformation,
    broken_away_scan,
    cosine_to_subspace,
    gamma_statistics,
    sigma_invariance_check,
    splitness_report,
)
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
    ns = fss.indices.astype(float)
    with np.errstate(over="ignore"):
        expected = (1.0 + np.exp(-6.0 * ns * np.sin(np.log(ns)))) ** -0.5
    assert np.abs(fss.cos_angle_profile()[:, 0] - expected).max() < 1e-10


def test_angle_profile_three_dimensional():
    seq = geometric_diag([1.0, 2.0, 3.0])
    fss = standard_basis_fss(seq, 50)
    angles = fss.angle_profile()
    assert angles.shape == (50, 3)
    assert np.abs(angles - math.pi / 2).max() < 1e-10


def test_gamma_statistics_counts_and_densities():
    fss = sin_log_witness_fss(2000)
    stats = gamma_statistics(fss, 0, math.acos(0.9), sigma=1)
    assert stats.counts[-1] == stats.member_flags.sum()
    assert np.all(np.diff(stats.counts) >= 0)
    assert np.all((stats.densities >= 0) & (stats.densities <= 1))
    # brute-force recount
    angles = fss.angle_profile()[:, 0]
    assert stats.counts[-1] == int((angles >= math.acos(0.9)).sum())


def test_gamma_statistics_sigma_subsampling():
    fss = sin_log_witness_fss(2000)
    s1 = gamma_statistics(fss, 0, 0.3, sigma=1)
    s4 = gamma_statistics(fss, 0, 0.3, sigma=4)
    assert len(s4.member_flags) == 500
    assert np.array_equal(s4.member_flags, s1.member_flags[3::4])


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


def test_splitness_report_tri_state():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    report = splitness_report(fss)
    assert report.splitted is True
    assert all(v.status == "yes" for v in report.verdicts)

    seq = geometric_diag([1.0, 2.0])
    bad = FSSRecord.from_initial_vectors(seq, [[1.0, 1.0], [0.0, 1.0]], 2000)
    report = splitness_report(bad)
    assert report.splitted is False


def test_sigma_invariance_sin_log():
    fss = sin_log_witness_fss(10_000)
    for sigma in (3, 5):
        v0, v1 = sigma_invariance_check(fss, 0, 1, sigma)
        assert v0.status == v1.status == "yes"


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
    transform = LyapunovTransformation.constant(rot)
    new_seq, new_fss = apply_lyapunov_transformation(fss.seq, fss, transform)
    before = broken_away_scan(fss, 0)
    after = broken_away_scan(new_fss, 0)
    assert after.status == before.status == "yes"
    assert after.lambda_hat == pytest.approx(before.lambda_hat, abs=1e-9)
    # transformed trajectories actually solve the transformed system
    y2 = new_fss.trajectories[0].value_at(2)
    y1 = new_fss.trajectories[0].value_at(1)
    assert np.allclose(new_seq.matrix_at(1) @ y1, y2, rtol=1e-9)


def test_lyapunov_transformation_bounds():
    transform = LyapunovTransformation.constant(np.diag([2.0, 0.5]))
    sup_l, sup_linv = transform.bounds(10)
    assert sup_l == pytest.approx(2.0)
    assert sup_linv == pytest.approx(2.0)


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


@pytest.mark.parametrize("s", [3, 4])
def test_angle_profiles_match_a_per_step_loop(s):
    fss = triangular_fss(s, 300, seed=s)
    angles, cosines = fss.angle_profile(), fss.cos_angle_profile()
    assert angles.shape == cosines.shape == (300, s)
    for k, n in enumerate(fss.indices):
        dirs = np.column_stack([t.direction_at(n) for t in fss.trajectories])
        for i in range(s):
            others = np.delete(dirs, i, axis=1)
            assert abs(angles[k, i] - angle_to_subspace(dirs[:, i], others)) <= 1e-14
            assert abs(cosines[k, i] - cosine_to_subspace(dirs[:, i], others)) <= 1e-14


def test_collapsed_basis_warns_once_per_step():
    # at steps 4 and 7 all three directions lie on one line, so every
    # member's complement basis collapses; at step 9 only x_3's does
    fss = standard_basis_fss(geometric_diag([1.0, 2.0, 3.0]), 10)
    trajectories = []
    for i, traj in enumerate(fss.trajectories):
        dirs = traj.directions.copy()
        dirs[[3, 6]] = [1.0, 0.0, 0.0]
        if i == 1:
            dirs[8] = [1.0, 0.0, 0.0]
        trajectories.append(TrajectoryLog(traj.indices, dirs, traj.log_norms))
    bad = FSSRecord(fss.seq, trajectories, fss.initial_vectors)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        angles = bad.angle_profile()
        cosines = bad.cos_angle_profile()
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    per_profile = [f"angle basis numerically collapsed at n={n}" for n in (4, 7, 9)]
    assert messages == per_profile * 2
    assert np.all(angles[[3, 6]] == 0.0) and np.all(cosines[[3, 6]] == 1.0)
    # x_1 = x_2 at step 9: angle 0 for both, and x_3 gets the collapsed value
    assert np.all(angles[8] == 0.0) and np.all(cosines[8] == 1.0)
    assert np.abs(np.delete(angles, [3, 6, 8], axis=0) - math.pi / 2).max() < 1e-12

import math

import numpy as np
import pytest

from ltvlab import (
    BudgetError,
    CoefficientSequence,
    FSSRecord,
    PreconditionError,
    SingularMatrixError,
    TrajectoryLog,
    build_plan,
    calibrate,
    execute_plan,
    instability_experiment,
    lambda_mu,
    openness_experiment,
    perturbation_at,
    plan_r_sequence,
    solve_mu,
    synthesis_constants,
)
from ltvlab.presets import (
    geometric_diag,
    sin_log_system,
    sin_log_witness_fss,
    standard_basis_fss,
)


def test_synthesis_constants_defaults():
    c = synthesis_constants(math.pi / 2, 1.0, 2)
    assert c.l1 == pytest.approx(0.25)
    assert c.delta1 == pytest.approx(math.log(1.25) / 2)
    assert c.lipschitz == pytest.approx(0.25 / (math.log(1.25) / 2))
    assert c.delta == pytest.approx(c.delta1 / 3)
    assert c.beta == pytest.approx(c.lipschitz * 2 * 3.0 / 1.0)
    assert c.beta == pytest.approx(13.444, abs=1e-3)


def test_synthesis_constants_validation():
    with pytest.raises(Exception):
        synthesis_constants(0.0, 1.0, 2)
    with pytest.raises(Exception):
        synthesis_constants(math.pi / 2, 0.0, 2)
    with pytest.raises(Exception):
        synthesis_constants(math.pi / 2, 1.0, 2, r=1.5)
    with pytest.raises(Exception):
        synthesis_constants(math.pi / 2, 1.0, 2, delta1=10.0)


def test_solve_mu_identity_density():
    # orthogonal FSS of diag(1,2): g = 1 everywhere, so mu = zeta
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 4000)
    mu = solve_mu(fss, 0, 0.02, 1.0, math.pi / 2)
    assert mu == pytest.approx(0.02, abs=1e-6)
    assert solve_mu(fss, 0, 0.0, 1.0, math.pi / 2) == 0.0


def test_solve_mu_bracket_sin_log():
    # with the full-window tail the exponent estimate is realized near
    # k=2576 where the density floor is 0.19, so mu lands in
    # [zeta, zeta/0.19]
    fss = sin_log_witness_fss(10_000)
    cal = calibrate(fss)
    zeta = 0.01
    mu = solve_mu(fss, 0, zeta, 0.19, math.acos(0.9), tail_fraction=1.0)
    assert zeta <= mu <= zeta / 0.19 + 1e-9
    base = lambda_mu(fss, 0, 0.0, math.acos(0.9), tail_fraction=1.0)
    boosted = lambda_mu(fss, 0, mu, math.acos(0.9), tail_fraction=1.0)
    assert boosted - base == pytest.approx(zeta, abs=1e-6)
    assert cal.rho_hat > 0.05


def test_calibrate_rejects_non_splitted():
    seq = geometric_diag([1.0, 2.0])
    fss = FSSRecord.from_initial_vectors(seq, [[1.0, 1.0], [0.0, 1.0]], 2000)
    with pytest.raises(PreconditionError):
        calibrate(fss)


def test_build_plan_budget():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    cal = calibrate(fss)
    with pytest.raises(BudgetError) as info:
        build_plan(fss, [cal.constants.delta * 2, 0.0], calibration=cal)
    assert info.value.delta == pytest.approx(cal.constants.delta)


def test_plan_eigenvector_property():
    # R(n) x_i(n) = exp(s_i(n)) x_i(n) for every FSS member and step
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 300)
    plan = build_plan(fss, [0.01, -0.01])
    for n in (1, 2, 57, 299):
        r_mat = perturbation_at(plan, fss, n)
        for i, traj in enumerate(fss.trajectories):
            d = traj.direction_at(n)
            expected = math.exp(plan.schedule_at(n)[i]) * d
            assert np.abs(r_mat @ d - expected).max() < 1e-12


def test_plan_r_norm_within_proof_cap():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    plan = build_plan(fss, [0.01, -0.01])
    r_seq = plan_r_sequence(plan, fss)
    eye = np.eye(2)
    worst = max(
        np.linalg.norm(r_seq.matrix_at(n) - eye, 2) for n in range(1, 2001)
    )
    assert worst < plan.constants.r
    assert worst <= plan.norm_budget + 1e-12


def test_execute_plan_shifts_spectrum():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 10_000)
    plan = build_plan(fss, [0.01, -0.01])
    outcome = execute_plan(fss.seq, fss, plan)
    assert outcome.perturbed_exponents[0] == pytest.approx(0.01, abs=1e-3)
    assert outcome.perturbed_exponents[1] == pytest.approx(
        math.log(2) - 0.01, abs=1e-3
    )
    assert outcome.r_norm_sup == pytest.approx(math.exp(0.01) - 1, abs=1e-8)
    assert outcome.r_norm_sup <= outcome.norm_budget
    assert outcome.agreement_residual < 1e-9


def test_execute_plan_zero_shift_is_identity():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 3000)
    plan = build_plan(fss, [0.0, 0.0])
    outcome = execute_plan(fss.seq, fss, plan)
    assert outcome.r_norm_sup == 0.0
    assert np.abs(outcome.achieved_shifts).max() < 1e-12
    assert outcome.agreement_residual < 1e-12


def test_execute_plan_sin_log_closed_form_oracle():
    seq = sin_log_system()
    fss = sin_log_witness_fss(4000, seq)
    cal = calibrate(fss)
    delta = cal.constants.delta
    plan = build_plan(fss, [-delta / 2, delta / 2], calibration=cal)
    outcome = execute_plan(seq, fss, plan)
    assert outcome.agreement_residual < 1e-9
    assert outcome.r_norm_sup <= outcome.norm_budget


def test_instability_experiment_sin_log():
    seq = sin_log_system()
    fss = sin_log_witness_fss(10_000, seq)
    report = instability_experiment(seq, fss, [0.05, 0.01])
    assert report["witness"] is not None
    for row in report["rows"]:
        assert row["r_norm_sup"] < row["epsilon"]
        assert row["success"]


def test_instability_requires_non_normal_fss():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 2000)
    with pytest.raises(PreconditionError):
        instability_experiment(seq, fss, [0.1])


def test_openness_assigns_nearby_spectrum():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 10_000)
    result = openness_experiment(seq, fss, [0.01, math.log(2) - 0.01], 0.2)
    assert result["assignment_error"] < 1e-3
    assert result["r_norm_sup"] < 0.2
    assert result["pairwise_distinct"]
    assert result["agreement_residual"] < 1e-9


def test_openness_identity_for_exact_targets():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 3000)
    cal = calibrate(fss)
    lams = [v.lambda_hat for v in cal.verdicts]
    result = openness_experiment(seq, fss, lams, 0.1)
    assert result["r_norm_sup"] == 0.0


def test_openness_rejects_far_targets():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 3000)
    with pytest.raises(PreconditionError) as info:
        openness_experiment(seq, fss, [1.0, 2.0], 0.2)
    assert "gamma" in str(info.value)


def tri3_system(horizon, seed=0):
    """Seeded 3-d upper-triangular system with a splitted standard-basis FSS."""
    rng = np.random.default_rng(seed)
    mats = np.triu(rng.uniform(-0.5, 0.5, size=(horizon, 3, 3)), 1)
    growth = np.array([-0.3, 0.2, 0.7]) + 0.2 * rng.uniform(-1.0, 1.0, size=(horizon, 3))
    mats[:, [0, 1, 2], [0, 1, 2]] = np.exp(growth)
    return CoefficientSequence.from_matrices(list(mats))


def plan_cases(horizon):
    diag = geometric_diag([1.0, 2.0])
    diag_fss = standard_basis_fss(diag, horizon)
    tri = tri3_system(horizon)
    tri_fss = standard_basis_fss(tri, horizon)
    delta = calibrate(tri_fss).constants.delta
    return [
        (diag, diag_fss, build_plan(diag_fss, [0.01, -0.01])),
        (tri, tri_fss, build_plan(tri_fss, [delta / 2, -delta / 3, delta / 4])),
    ]


def per_step_execution(seq, fss, plan):
    """The recurrence x(n+1) = A(n) R(n) x(n) one step at a time."""
    eye = np.eye(fss.dimension)
    dirs = np.column_stack([traj.value_at(1) for traj in fss.trajectories])
    log_norms = np.log(np.linalg.norm(dirs, axis=0))
    dirs = dirs / np.exp(log_norms)
    logs, r_norm_sup = [log_norms], 0.0
    for n in range(1, plan.horizon):
        r_mat = perturbation_at(plan, fss, n)
        r_norm_sup = max(r_norm_sup, np.linalg.norm(r_mat - eye, 2))
        dirs = seq.matrix_at(n) @ r_mat @ dirs
        norms = np.linalg.norm(dirs, axis=0)
        dirs = dirs / norms
        log_norms = log_norms + np.log(norms)
        logs.append(log_norms)
    return np.array(logs), r_norm_sup


def test_perturbation_at_stacks_the_per_step_matrices():
    for seq, fss, plan in plan_cases(300):
        s = fss.dimension
        ns = np.arange(1, 300)
        stacked = perturbation_at(plan, fss, ns)
        assert stacked.shape == (299, s, s)
        assert perturbation_at(plan, fss, 5).shape == (s, s)
        for n in ns:
            assert np.abs(stacked[n - 1] - perturbation_at(plan, fss, n)).max() <= 1e-15
        assert np.array_equal(perturbation_at(plan, fss, ns[::-7]), stacked[::-7])
        with pytest.raises(KeyError):
            perturbation_at(plan, fss, [3, 301])


def test_execute_plan_matches_the_per_step_recurrence():
    for seq, fss, plan in plan_cases(500):
        outcome = execute_plan(seq, fss, plan)
        logs, r_norm_sup = per_step_execution(seq, fss, plan)
        rel = np.abs(outcome.perturbed_log_norms - logs) / np.maximum(1.0, np.abs(logs))
        assert rel.max() <= 1e-13
        assert outcome.r_norm_sup == pytest.approx(r_norm_sup, rel=1e-13)
        base = np.column_stack([t.log_norms for t in fss.trajectories])
        cum = np.vstack([np.zeros(fss.dimension), np.cumsum(plan.schedule[:-1], axis=0)])
        closed = base + cum
        agreement = np.max(np.abs(logs - closed) / np.maximum(1.0, np.abs(closed)))
        assert outcome.agreement_residual == pytest.approx(agreement, rel=1e-6, abs=1e-14)
        assert outcome.agreement_residual < 1e-9


def test_perturbation_at_rejects_a_collapsed_projection():
    seq, fss, plan = plan_cases(300)[1]
    trajectories = [
        TrajectoryLog(t.indices, t.directions.copy(), t.log_norms) for t in fss.trajectories
    ]
    # at step 40 x_1 falls into the span of x_2 and x_3
    trajectories[0].directions[39] = trajectories[1].directions[39]
    bad = FSSRecord(seq, trajectories, fss.initial_vectors)
    active = plan.gamma_flags[39] & (plan.mu > 0)
    assert active[0]
    with pytest.raises(SingularMatrixError) as info:
        perturbation_at(plan, bad, np.arange(1, 300))
    assert info.value.index == 40


def test_execute_plan_rejects_a_collapsed_propagation():
    seq, fss, plan = plan_cases(300)[0]

    def matrix_fn(n):
        return np.zeros((2, 2)) if n == 7 else seq.matrix_at(n)

    broken = CoefficientSequence.from_function(2, matrix_fn)
    with pytest.raises(PreconditionError, match="n=8"):
        execute_plan(broken, fss, plan)

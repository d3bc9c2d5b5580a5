import dataclasses
import math
import pickle

import numpy as np
import pytest

from ltvlab import (
    BracketError,
    BudgetError,
    CoefficientSequence,
    FSSRecord,
    InvalidInputError,
    PreconditionError,
    PropagationError,
    SingularMatrixError,
    TrajectoryLog,
    additive_to_multiplicative,
    angle_to_subspace,
    apply_lyapunov_transformation,
    broken_away_scan,
    build_plan,
    calibrate,
    execute_plan,
    exponent_profile,
    gamma_statistics,
    incompressibility_test,
    instability_experiment,
    lambda_mu,
    oblique_projections,
    openness_experiment,
    perturbation_at,
    propagate,
    solve_mu,
    spectrum_estimate,
    splitness_report,
    synthesis_constants,
    transition,
)
from ltvlab.linalg import project_out
from ltvlab.presets import (
    geometric_diag,
    sin_log_extrema,
    sin_log_system,
    sin_log_witness_fss,
    standard_basis_fss,
)
from ltvlab.spectrum import TAIL_FRACTION
from ltvlab.splitness import GAMMA_GRID


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


def test_synthesis_constants_refuse_a_gamma_too_small_for_delta1():
    # sin(gamma) * r / s below the double spacing at 1 makes ln(L1 + 1) zero
    with pytest.raises(InvalidInputError, match="delta1"):
        synthesis_constants(1e-17, 1.0, 2)


def test_solve_mu_identity_density():
    # orthogonal FSS of diag(1,2): g = 1 everywhere, so mu = zeta
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 4000)
    mu = solve_mu(fss, 0, 0.02, 1.0, math.pi / 2)
    assert mu == 0.02
    assert solve_mu(fss, 0, 0.0, 1.0, math.pi / 2) == 0.0


def test_solver_refuses_a_bad_rho_hat_or_mu():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 500)
    for rho_hat in (0.0, -0.5, math.nan):
        with pytest.raises(InvalidInputError, match="rho_hat"):
            solve_mu(fss, 0, 0.01, rho_hat, 0.5)
    for mu in (-0.01, math.nan):
        with pytest.raises(InvalidInputError, match="mu"):
            lambda_mu(fss, 0, mu, 0.5)
    with pytest.raises(InvalidInputError, match="zeta"):
        solve_mu(fss, 0, math.nan, 0.5, 0.5)


def diag12_fss():
    seq = geometric_diag([1.0, 2.0])
    return seq, standard_basis_fss(seq, 500)


def sin_log_fss():  # splitted and not normal, so the instability experiment runs
    seq = sin_log_system()
    return seq, sin_log_witness_fss(2000, seq)


BAD_LIBRARY_INPUTS = {  # name -> (system and FSS, the call, a word of its message)
    "gamma_statistics-nan-gamma":
        (diag12_fss, lambda seq, fss: gamma_statistics(fss, 0, math.nan), "gamma"),
    "lambda_mu-nan-gamma":
        (diag12_fss, lambda seq, fss: lambda_mu(fss, 0, 0.1, math.nan), "gamma"),
    "broken_away_scan-empty-grid":
        (diag12_fss, lambda seq, fss: broken_away_scan(fss, 0, gamma_grid=()), "gamma"),
    "broken_away_scan-nan-grid":
        (diag12_fss, lambda seq, fss: broken_away_scan(fss, 0, gamma_grid=(math.nan,)), "gamma"),
    "openness_experiment-nan-epsilon":
        (diag12_fss, lambda seq, fss: openness_experiment(fss, [0.0, math.log(2)], math.nan),
         "epsilon"),
    "openness_experiment-negative-epsilon":
        (diag12_fss, lambda seq, fss: openness_experiment(fss, [0.0, math.log(2)], -1.0),
         "epsilon"),
    "instability_experiment-empty-grid":
        (sin_log_fss, lambda seq, fss: instability_experiment(fss, []), "epsilon"),
    "instability_experiment-negative-epsilon":
        (sin_log_fss, lambda seq, fss: instability_experiment(fss, [-1.0]), "epsilon"),
    "incompressibility_test-negative-trials":
        (diag12_fss, lambda seq, fss: incompressibility_test(fss, trials=-3), "trials"),
    # trials and seed are integers >= 0: a float or a bool is refused, not truncated
    "incompressibility_test-fractional-trials":
        (diag12_fss, lambda seq, fss: incompressibility_test(fss, trials=2.5), "trials"),
    "incompressibility_test-bool-trials":
        (diag12_fss, lambda seq, fss: incompressibility_test(fss, trials=True), "trials"),
    "incompressibility_test-fractional-seed":
        (diag12_fss, lambda seq, fss: incompressibility_test(fss, seed=2.5), "seed"),
    "incompressibility_test-negative-seed":
        (diag12_fss, lambda seq, fss: incompressibility_test(fss, seed=-1), "seed"),
    "instability_experiment-fractional-trials":
        (sin_log_fss, lambda seq, fss: instability_experiment(fss, [0.1], trials=2.5),
         "trials"),
    "instability_experiment-negative-seed":
        (sin_log_fss, lambda seq, fss: instability_experiment(fss, [0.1], seed=-1), "seed"),
    # a sigma that is not an integer type is refused, not truncated
    "exponent_profile-fractional-sigma":
        (diag12_fss, lambda seq, fss: exponent_profile(fss.trajectories[0], 2.5), "sigma"),
    "exponent_profile-whole-float-sigma":
        (diag12_fss, lambda seq, fss: exponent_profile(fss.trajectories[0], 2.0), "sigma"),
    "gamma_statistics-fractional-sigma":
        (diag12_fss, lambda seq, fss: gamma_statistics(fss, 0, 0.5, sigma=2.7), "sigma"),
    "broken_away_scan-fractional-sigma":
        (diag12_fss, lambda seq, fss: broken_away_scan(fss, 0, sigma=1.9), "sigma"),
    "splitness_report-bool-sigma":
        (diag12_fss, lambda seq, fss: splitness_report(fss, sigma=True), "sigma"),
    # the refusals of shapes and non-finite entries at each entry point; a fourth
    # item names an error type other than InvalidInputError
    "angle_to_subspace-0d-p":
        (diag12_fss, lambda seq, fss: angle_to_subspace(1.0, [[1.0]]), "^p must be at least 1-d"),
    "angle_to_subspace-nan-p":
        (diag12_fss, lambda seq, fss: angle_to_subspace([1.0, math.nan], [[1.0], [0.0]]),
         "^p has non-finite entries"),
    "oblique_projections-not-square":
        (diag12_fss, lambda seq, fss: oblique_projections([[1.0, 0.0]]),
         r"^need 2 columns of dimension 2, got shape \(2, 1\)"),
    "oblique_projections-nan":
        (diag12_fss, lambda seq, fss: oblique_projections([[1.0, math.nan], [0.0, 1.0]]),
         "^columns have non-finite entries"),
    "build_plan-short-shifts":
        (diag12_fss, lambda seq, fss: build_plan(fss, [0.01]), "^expected 2 shifts"),
    "openness_experiment-short-target":
        (diag12_fss, lambda seq, fss: openness_experiment(fss, [0.0], 1.0),
         "^expected 2 target exponents"),
    "exponent_profile-sigma-past-horizon":
        (diag12_fss, lambda seq, fss: exponent_profile(fss.trajectories[0], 501),
         "^trajectory does not cover one sigma step"),
    "FSSRecord-one-member":
        (diag12_fss, lambda seq, fss: FSSRecord(seq, fss.trajectories[:1], fss.initial_vectors),
         "^an FSS of a 2-dimensional system needs 2 solutions, got 1"),
    "apply_lyapunov_transformation-3d":
        (diag12_fss, lambda seq, fss: apply_lyapunov_transformation(
            fss, CoefficientSequence.constant(np.eye(3))), "^transformation dimension mismatch"),
    "constant-not-square":
        (diag12_fss, lambda seq, fss: CoefficientSequence.constant([[1.0, 2.0]]),
         "^constant coefficient must be a square matrix"),
    "constant-nan":
        (diag12_fss, lambda seq, fss: CoefficientSequence.constant([[math.nan]]),
         "^constant coefficient has non-finite entries"),
    "dense_formulas-not-square":
        (diag12_fss, lambda seq, fss: CoefficientSequence.dense_formulas([["1", "0"]]),
         "^dense formula table must be square"),
    "block_fn-raises-value-error":
        (diag12_fss, lambda seq, fss: CoefficientSequence(2, _refuse_steps).matrices(1, 4),
         r"^coefficient evaluation failed on steps 1\.\.3: no steps here", PropagationError),
    "block_fn-wrong-shape":
        (diag12_fss, lambda seq, fss: CoefficientSequence(
            2, lambda start, stop: np.zeros((stop - start, 3, 3))).matrices(1, 4),
         r"^coefficients for steps 1\.\.3 have shape \(3, 3, 3\)"),
    "propagate-3-vector":
        (diag12_fss, lambda seq, fss: propagate(seq, [1.0, 0.0, 0.0], 10),
         r"^initial vectors must have shape \(2,\) or \(2, m\), got \(3,\)"),
    "additive_to_multiplicative-3d-q":
        (diag12_fss, lambda seq, fss: additive_to_multiplicative(seq, geometric_diag([1.0] * 3)),
         "^dimension mismatch between system and perturbation"),
}


def _refuse_steps(start, stop):
    raise ValueError("no steps here")


# a member index is an integer in 0, ..., s - 1: a negative index, a bool and a float
# are refused, not read by numpy as another member or a mask
MEMBER_ARGUMENTS = {
    "broken_away_scan": lambda fss, i: broken_away_scan(fss, i),
    "gamma_statistics": lambda fss, i: gamma_statistics(fss, i, 0.5),
    "lambda_mu": lambda fss, i: lambda_mu(fss, i, 0.1, 0.5),
    "solve_mu": lambda fss, i: solve_mu(fss, i, 0.01, 0.5, 0.5),
}
BAD_LIBRARY_INPUTS.update({
    f"{entry}-member-{label}": (diag12_fss, lambda seq, fss, call=call, bad=bad: call(fss, bad),
                                f"^i must be {rule}, got {bad!r}$")
    for entry, call in MEMBER_ARGUMENTS.items()
    for label, bad, rule in (("negative", -1, "an integer >= 0"), ("bool", True, "an integer >= 0"),
                             ("float", 1.0, "an integer >= 0"),
                             ("past-dimension", 2, "a member index below 2"))
})

# entry point -> (its call on diag(1,2) and one integer, the argument's name, a valid value)
INTEGER_ARGUMENTS = {
    "CoefficientSequence": (lambda seq, v: CoefficientSequence(v, seq.matrices).matrices(1, 4),
                            "dimension", 2),
    "matrices-start": (lambda seq, v: seq.matrices(v, 5), "start", 2),
    "matrices-stop": (lambda seq, v: seq.matrices(1, v), "stop", 3),
    "matrix_at": (lambda seq, v: seq.matrix_at(v), "n", 3),
    "lyapunov_bound": (lambda seq, v: seq.lyapunov_bound(v), "horizon", 3),
    "propagate": (lambda seq, v: propagate(seq, [1.0, 1.0], v), "horizon", 30),
    "from_initial_vectors": (
        lambda seq, v: FSSRecord.from_initial_vectors(seq, np.eye(2), v).trajectories,
        "horizon", 30),
    "transition-n": (lambda seq, v: transition(seq, v, 1), "n", 4),
    "transition-m": (lambda seq, v: transition(seq, 1, v), "m", 4),
    "additive_to_multiplicative": (
        lambda seq, v: additive_to_multiplicative(seq, seq, v).matrices(1, 3), "check_horizon", 3),
    "spectrum_estimate": (lambda seq, v: spectrum_estimate(seq, v), "horizon", 300),
    "synthesis_constants": (lambda seq, v: synthesis_constants(0.5, 0.5, v), "s", 2),
    "sin_log_extrema": (lambda seq, v: sin_log_extrema(v), "max_n", 100),
}
# one integer rule: a float, a bool or a string is refused by a message that names the argument
BAD_LIBRARY_INPUTS.update({
    f"{entry}-{label}": (diag12_fss, lambda seq, fss, call=call, bad=bad: call(seq, bad),
                         f"^{name} must be an integer >= ")
    for entry, (call, name, _) in INTEGER_ARGUMENTS.items()
    for label, bad in (("fractional", 2.5), ("bool", True), ("string", "3"))
})

# bad values of a real argument by label: one number, a list of s = 2, a non-empty grid
# and an s x s basis; a bool, a string or None is refused, not read as 1.0 or a number
_ONE = {"string": "0.5", "bool": True, "none": None}
_TWO = {"string": ["0.001", "-0.001"], "bool": [True, False], "none": None,
        "nan": [math.nan, 0.001]}
_GRID = {"string": ["0.5"], "bool": [True], "none": None}
_BASIS = {"string": [["1", "0"], ["0", "1"]], "bool": [[True, False], [False, True]],
          "none": None}
# entry point -> (its call on diag(1,2) and one value, the argument's name, bad values)
REAL_ARGUMENTS = {
    "synthesis_constants-gamma": (lambda seq, fss, v: synthesis_constants(v, 0.5, 2), "gamma",
                                  _ONE),
    "synthesis_constants-rho": (lambda seq, fss, v: synthesis_constants(0.5, v, 2), "rho", _ONE),
    "gamma_statistics-gamma": (lambda seq, fss, v: gamma_statistics(fss, 0, v), "gamma", _ONE),
    "lambda_mu-mu": (lambda seq, fss, v: lambda_mu(fss, 0, v, 0.5), "mu", _ONE),
    "solve_mu-zeta": (lambda seq, fss, v: solve_mu(fss, 0, v, 0.5, 0.5), "zeta", _ONE),
    "solve_mu-rho_hat": (lambda seq, fss, v: solve_mu(fss, 0, 0.01, v, 0.5), "rho_hat", _ONE),
    "splitness_report-gamma_grid": (lambda seq, fss, v: splitness_report(fss, v), "gamma_grid",
                                    _GRID),
    "build_plan-shifts": (lambda seq, fss, v: build_plan(fss, v), "shifts", _TWO),
    "openness_experiment-target": (lambda seq, fss, v: openness_experiment(fss, v, 1.0),
                                   "target exponents", _TWO),
    "openness_experiment-epsilon": (
        lambda seq, fss, v: openness_experiment(fss, [0.0, math.log(2)], v), "epsilon", _ONE),
    "instability_experiment-epsilon_grid": (lambda seq, fss, v: instability_experiment(fss, v),
                                            "epsilon_grid", _GRID),
    "from_initial_vectors-vectors": (
        lambda seq, fss, v: FSSRecord.from_initial_vectors(seq, v, 30), "initial vectors", _BASIS),
}
# one real-number rule: each refusal names the argument
BAD_LIBRARY_INPUTS.update({
    f"{entry}-{label}": (diag12_fss, lambda seq, fss, call=call, bad=bad: call(seq, fss, bad),
                         f"^{name} must be ")
    for entry, (call, name, bads) in REAL_ARGUMENTS.items() for label, bad in bads.items()
})
BAD_LIBRARY_INPUTS["instability_experiment-one-epsilon"] = (
    diag12_fss, lambda seq, fss: instability_experiment(fss, 0.1),
    r"^expected 1 or more epsilon_grid, got shape \(\)")


@pytest.mark.parametrize("name", sorted(BAD_LIBRARY_INPUTS))
def test_library_calls_refuse_what_the_cli_refuses(name):
    # gamma in (0, pi/2], a non-empty grid, epsilon finite and > 0, integer trials and seed >= 0
    make, call, word, *error = BAD_LIBRARY_INPUTS[name]
    seq, fss = make()
    with pytest.raises(error[0] if error else InvalidInputError, match=word):
        call(seq, fss)


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_take_a_numpy_integer(entry):
    call, _, value = INTEGER_ARGUMENTS[entry]
    seq = geometric_diag([1.0, 2.0])
    # pickled, the results compare by their bits and by the types they hold
    assert pickle.dumps(call(seq, np.int64(value))) == pickle.dumps(call(seq, value))


def test_solve_mu_bracket_sin_log():
    # the density floor rho measured along the realizing indices of the
    # tail window brackets mu in [zeta, zeta/rho]
    fss = sin_log_witness_fss(10_000)
    cal = calibrate(fss)
    rho = cal.constants.rho
    zeta = 0.01
    mu = solve_mu(fss, 0, zeta, rho, math.acos(0.9))
    assert zeta <= mu <= zeta / rho + 1e-9
    base = lambda_mu(fss, 0, 0.0, math.acos(0.9))
    boosted = lambda_mu(fss, 0, mu, math.acos(0.9))
    assert boosted - base == pytest.approx(zeta, abs=1e-6)
    assert cal.constants.rho > 0.05


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


def test_a_plan_keeps_the_fss_it_was_built_for():
    seq, fss = diag12_fss()
    plan = build_plan(fss, [0.01, -0.01])
    assert plan.fss is fss
    assert "fss" not in repr(plan)


def test_an_old_form_call_is_refused():
    # the system, the FSS and the plan are no longer passed side by side
    seq, fss = diag12_fss()
    plan = build_plan(fss, [0.01, -0.01])
    for call in (lambda: perturbation_at(plan, fss, 3), lambda: execute_plan(seq, fss, plan),
                 lambda: openness_experiment(seq, fss, [0.01, math.log(2) - 0.01], 0.2)):
        with pytest.raises(TypeError):
            call()
    # the FSS in the place of the epsilon grid is refused by the real-number rule
    with pytest.raises(InvalidInputError, match="epsilon_grid"):
        instability_experiment(seq, fss, [0.1])


def test_execute_plan_reads_each_step_of_the_fss_system_once():
    # A(1), ..., A(H - 1) of the plan's system, in order, across a chunk boundary
    horizon = 5000
    requested = []
    diag = geometric_diag([1.0, 2.0])

    def block_fn(start, stop):
        requested.extend(range(start, stop))
        return diag.matrices(start, stop)

    fss = standard_basis_fss(CoefficientSequence(2, block_fn), horizon)
    plan = build_plan(fss, [0.01, -0.01])
    requested.clear()
    outcome = execute_plan(plan)
    assert requested == list(range(1, horizon))
    assert outcome.agreement_residual < 1e-9


def test_plan_eigenvector_property():
    # R(n) x_i(n) = exp(s_i(n)) x_i(n) for every FSS member and step
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 300)
    plan = build_plan(fss, [0.01, -0.01])
    for n in (1, 2, 57, 299):
        r_mat = perturbation_at(plan, n)
        for i, traj in enumerate(fss.trajectories):
            d = traj.direction_at(n)
            expected = math.exp(plan.eta + plan.mu[i] * plan.gamma_flags[n - 1][i]) * d
            assert np.abs(r_mat @ d - expected).max() < 1e-12


def test_plan_r_norm_within_proof_cap():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 2000)
    plan = build_plan(fss, [0.01, -0.01])
    r_seq = CoefficientSequence(
        2, lambda start, stop: perturbation_at(plan, np.arange(start, stop))
    )
    eye = np.eye(2)
    worst = max(
        np.linalg.norm(r_seq.matrix_at(n) - eye, 2) for n in range(1, 2001)
    )
    assert worst < plan.constants.r
    assert worst <= plan.norm_budget + 1e-12


def test_execute_plan_shifts_spectrum():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 10_000)
    plan = build_plan(fss, [0.01, -0.01])
    outcome = execute_plan(plan)
    assert outcome.perturbed_exponents[0] == pytest.approx(0.01, abs=1e-3)
    assert outcome.perturbed_exponents[1] == pytest.approx(
        math.log(2) - 0.01, abs=1e-3
    )
    assert outcome.r_norm_sup == pytest.approx(math.exp(0.01) - 1, abs=1e-8)
    assert outcome.r_norm_sup <= outcome.norm_budget
    assert outcome.agreement_residual < 1e-9


def test_execute_plan_shift_on_diag12_is_the_closed_form():
    # g = 1 on the standard basis, so mu_0 = zeta = 0.02 exactly and the
    # perturbed tail-max of (k - 1)/k * (lambda + 0.01) is taken at k = H
    horizon = 2000
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), horizon)
    outcome = execute_plan(build_plan(fss, [0.01, -0.01]))
    assert abs(outcome.achieved_shifts[0] - 0.01 * (1 - 1 / horizon)) <= 1e-15


def test_execute_plan_zero_shift_is_identity():
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), 3000)
    plan = build_plan(fss, [0.0, 0.0])
    outcome = execute_plan(plan)
    assert outcome.r_norm_sup == 0.0
    assert np.abs(outcome.achieved_shifts).max() < 1e-12
    assert outcome.agreement_residual < 1e-12


def test_execute_plan_sin_log_closed_form_oracle():
    seq = sin_log_system()
    fss = sin_log_witness_fss(4000, seq)
    cal = calibrate(fss)
    delta = cal.constants.delta
    plan = build_plan(fss, [-delta / 2, delta / 2], calibration=cal)
    outcome = execute_plan(plan)
    assert outcome.agreement_residual < 1e-9
    assert outcome.r_norm_sup <= outcome.norm_budget


def test_instability_experiment_sin_log():
    seq = sin_log_system()
    fss = sin_log_witness_fss(10_000, seq)
    report = instability_experiment(fss, [0.05, 0.01])
    assert report.witness is not None
    for row in report.rows:
        assert row.r_norm_sup < row.epsilon
        assert row.success


def test_instability_requires_non_normal_fss():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 2000)
    with pytest.raises(PreconditionError):
        instability_experiment(fss, [0.1])


def test_openness_assigns_nearby_spectrum():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 10_000)
    result = openness_experiment(fss, [0.01, math.log(2) - 0.01], 0.2)
    assert result.assignment_error < 1e-3
    assert result.r_norm_sup < 0.2
    assert result.pairwise_distinct
    assert result.agreement_residual < 1e-9


def test_openness_identity_for_exact_targets():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 3000)
    cal = calibrate(fss)
    lams = [v.lambda_hat for v in cal.verdicts]
    result = openness_experiment(fss, lams, 0.1)
    assert result.r_norm_sup == 0.0


def test_openness_on_a_one_dimensional_system():
    # one exponent has no gap to its neighbours, so there is no eta
    seq = geometric_diag([2.0])
    fss = standard_basis_fss(seq, 2000)
    result = openness_experiment(fss, [math.log(2) + 0.01], 1.0)
    assert result.eta is None
    assert result.pairwise_distinct
    assert result.assignment_error <= 1e-3


def test_openness_refuses_equal_exponents():
    seq = geometric_diag([2.0, 2.0])
    fss = standard_basis_fss(seq, 2000)
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        openness_experiment(fss, [0.7, 0.7], 1.0)


def test_openness_rejects_far_targets():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 3000)
    with pytest.raises(PreconditionError) as info:
        openness_experiment(fss, [1.0, 2.0], 0.2)
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
    for n in range(1, len(plan.gamma_flags)):
        r_mat = perturbation_at(plan, n)
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
        stacked = perturbation_at(plan, ns)
        assert stacked.shape == (299, s, s)
        assert perturbation_at(plan, 5).shape == (s, s)
        for n in ns:
            assert np.abs(stacked[n - 1] - perturbation_at(plan, n)).max() <= 1e-15
        assert np.array_equal(perturbation_at(plan, ns[::-7]), stacked[::-7])
        for outside in ([3, 301], [0, 3], -1):  # row -1 would read the last step
            with pytest.raises(KeyError):
                perturbation_at(plan, outside)


def _first_form_perturbation_at(plan, fss, n):
    """perturbation_at in its first form, a stacked (k, s, s) gather of the
    directions, np.delete for each complement and a gather-add-scatter per
    member: the reference for its bits."""
    steps = np.asarray(n, dtype=np.int64)
    ns = np.atleast_1d(steps)
    s = fss.dimension
    dirs = np.stack([traj.directions[ns - 1] for traj in fss.trajectories], axis=2)
    active = plan.gamma_flags[ns - 1] & (plan.mu > 0.0)
    result = np.repeat(np.eye(s)[None], len(ns), axis=0)
    for i in np.flatnonzero(active.any(axis=0)):
        rows = np.flatnonzero(active[:, i])
        d = dirs[rows, :, i]
        _, w0, _ = project_out(d, np.delete(dirs[rows], i, axis=2))
        denom = np.einsum("km,km->k", w0, d)
        collapsed = denom <= 1e-30
        if collapsed.any():
            k = int(np.argmax(collapsed))
            raise SingularMatrixError(
                f"projection direction {i} has collapsed onto the complement span "
                f"at n={ns[rows[k]]}",
                smallest_singular_value=float(denom[k]),
                index=int(ns[rows[k]]),
            )
        covector = w0 / denom[:, None]
        result[rows] += (math.exp(plan.mu[i]) - 1.0) * (d[:, :, None] * covector[:, None, :])
    result *= math.exp(plan.eta)
    return result[0] if steps.ndim == 0 else result


def r_bit_case(name):
    """(fss, plan) at horizon 1e4 with shifts (delta/2, -delta/3), or (delta/2, 0,
    delta/4) in 3-d: diag(1, 2) with the standard basis, every row active; the
    sin-log witness FSS, member 0 active on about 13% of steps 1..4096; and tri3,
    whose zero shift leaves member 1 inactive."""
    horizon = 10000
    if name == "diag12":
        fss, fractions = standard_basis_fss(geometric_diag([1.0, 2.0]), horizon), [1 / 2, -1 / 3]
    elif name == "sin-log-witness":
        fss, fractions = sin_log_witness_fss(horizon), [1 / 2, -1 / 3]
    else:
        fss, fractions = standard_basis_fss(tri3_system(horizon), horizon), [1 / 2, 0.0, 1 / 4]
    delta = calibrate(fss).constants.delta
    return fss, build_plan(fss, delta * np.array(fractions))


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name", ["diag12", "sin-log-witness", "tri3"])
def test_perturbation_at_keeps_the_bits_of_its_first_form(name):
    fss, plan = r_bit_case(name)
    ns = np.arange(1, 4097)
    active = (plan.gamma_flags[ns - 1] & (plan.mu > 0.0)).mean(axis=0)
    if name == "sin-log-witness":
        assert 0.1 < active[0] < 0.15 and active[1] == 0.0
    else:  # member 1 has mu = 0; the others are active on every row
        assert active.tolist() == {"diag12": [1.0, 0.0], "tri3": [1.0, 0.0, 1.0]}[name]
    # [5, 7, 6, 8] spans four steps but is no run of them
    for steps in (17, ns, ns[::-7], np.array([5, 7, 6, 8])):
        assert_same_bits(np.asarray(perturbation_at(plan, steps)),
                         np.asarray(_first_form_perturbation_at(plan, fss, steps)))


def test_perturbation_at_raises_for_a_collapse_on_active_rows_only():
    seq = sin_log_system()
    fss, plan = r_bit_case("sin-log-witness")
    ns = np.arange(1, 4097)
    active = plan.gamma_flags[ns - 1, 0] & (plan.mu[0] > 0.0)
    inactive_row, active_row = int(np.argmin(active)), int(np.argmax(active[100:])) + 100
    for row in (inactive_row, active_row):
        trajectories = [TrajectoryLog(t.directions.copy(), t.log_norms) for t in fss.trajectories]
        trajectories[0].directions[row] = trajectories[1].directions[row]  # x_1 on x_2's line
        bad = FSSRecord(seq, trajectories, fss.initial_vectors)
        if row == inactive_row:
            assert_same_bits(perturbation_at(dataclasses.replace(plan, fss=bad), ns),
                             _first_form_perturbation_at(plan, bad, ns))
            continue
        with pytest.raises(SingularMatrixError) as want:
            _first_form_perturbation_at(plan, bad, ns)
        with pytest.raises(SingularMatrixError) as got:
            perturbation_at(dataclasses.replace(plan, fss=bad), ns)
        assert got.value.index == want.value.index == row + 1
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("step", [2.7, [1.9, 3.2], True, 3.0])
def test_a_step_that_is_not_an_integer_is_refused(step):
    # refused, not truncated to the R(n) of another step
    seq, fss = diag12_fss()
    plan = build_plan(fss, [0.01, -0.01])
    traj = fss.trajectories[0]
    first = np.ravel(step)[0].item()
    for call in (lambda: perturbation_at(plan, step), lambda: traj.direction_at(step),
                 lambda: traj.value_at(step)):
        with pytest.raises(InvalidInputError, match=f"step n={first!r} is not an integer"):
            call()


def test_steps_may_be_numpy_integers_or_an_empty_list():
    seq, fss = diag12_fss()
    plan = build_plan(fss, [0.01, -0.01])
    traj = fss.trajectories[0]
    want = perturbation_at(plan, [3, 4])
    for steps in (np.array([3, 4], dtype=np.int32), np.array([3, 4], dtype=np.uint16)):
        assert np.array_equal(perturbation_at(plan, steps), want)
    assert np.array_equal(perturbation_at(plan, np.int64(4)), want[1])
    assert np.array_equal(traj.direction_at(np.uint8(3)), traj.direction_at(3))
    assert traj.value_at(np.int16(4))[0] == traj.value_at(4)[0]
    assert perturbation_at(plan, []).shape == (0, 2, 2)
    with pytest.raises(KeyError):
        perturbation_at(plan, np.uint64(0))
    with pytest.raises(InvalidInputError, match="integer array, got dtype object"):
        perturbation_at(plan, [3, 2**70])


def test_execute_plan_matches_the_per_step_recurrence():
    for seq, fss, plan in plan_cases(500):
        outcome = execute_plan(plan)
        logs, r_norm_sup = per_step_execution(seq, fss, plan)
        rel = np.abs(outcome.perturbed_log_norms - logs) / np.maximum(1.0, np.abs(logs))
        assert rel.max() <= 1e-13
        assert outcome.r_norm_sup == pytest.approx(r_norm_sup, rel=1e-13)
        base = np.column_stack([t.log_norms for t in fss.trajectories])
        schedule = plan.eta + plan.mu * plan.gamma_flags
        cum = np.vstack([np.zeros(fss.dimension), np.cumsum(schedule[:-1], axis=0)])
        closed = base + cum
        agreement = np.max(np.abs(logs - closed) / np.maximum(1.0, np.abs(closed)))
        assert outcome.agreement_residual == pytest.approx(agreement, rel=1e-6, abs=1e-14)
        assert outcome.agreement_residual < 1e-9


def test_perturbation_at_rejects_a_collapsed_projection():
    seq, fss, plan = plan_cases(300)[1]
    trajectories = [
        TrajectoryLog(t.directions.copy(), t.log_norms) for t in fss.trajectories
    ]
    # at step 40 x_1 falls into the span of x_2 and x_3
    trajectories[0].directions[39] = trajectories[1].directions[39]
    bad = FSSRecord(seq, trajectories, fss.initial_vectors)
    active = plan.gamma_flags[39] & (plan.mu > 0)
    assert active[0]
    with pytest.raises(SingularMatrixError) as info:
        perturbation_at(dataclasses.replace(plan, fss=bad), np.arange(1, 300))
    assert info.value.index == 40


def test_execute_plan_rejects_a_collapsed_propagation():
    seq, fss, plan = plan_cases(300)[0]

    def block_fn(start, stop):
        mats = seq.matrices(start, stop).copy()
        mats[np.arange(start, stop) == 7] = 0.0
        return mats

    broken = FSSRecord(CoefficientSequence(2, block_fn), fss.trajectories, fss.initial_vectors)
    with pytest.raises(PreconditionError, match="n=8"):
        execute_plan(dataclasses.replace(plan, fss=broken))


def test_execute_plan_on_entries_near_1e150():
    # the steps pass 2**256; propagate's power-of-two scaling keeps them in range
    horizon = 2000
    seq = geometric_diag([1e150, 2e150])
    fss = standard_basis_fss(seq, horizon)
    outcome = execute_plan(build_plan(fss, [0.01, -0.01]))
    assert outcome.agreement_residual <= 1e-9
    # the tail-max of ((k - 1) / k) * lambda is taken at k = horizon
    targets = math.log(1e150) + np.array([0.01, math.log(2) - 0.01])
    assert np.abs(outcome.perturbed_exponents - targets * (1 - 1 / horizon)).max() <= 1e-3
    assert np.abs(outcome.achieved_shifts - [0.01, -0.01]).max() <= 1e-3


def per_call_densities(fss, i, gamma, sigma):
    """g_i(k; sigma) for every k, from the stored angles."""
    ns = sigma * np.arange(1, fss.horizon // sigma + 1)
    flags = fss.angle_profile()[np.searchsorted(np.arange(1, fss.horizon + 1), ns), i] >= gamma
    return np.cumsum(flags) / np.arange(1, len(ns) + 1)


def per_call_lambda_mu(fss, i, mu, gamma, sigma, tail_fraction):
    """Tail-max of f_i + mu g_i, with the profile and densities evaluated on every call."""
    ks, values = exponent_profile(fss.trajectories[i], sigma)
    boosted = values + mu * per_call_densities(fss, i, gamma, sigma)
    start = max(1, math.ceil(ks[-1] * (1.0 - tail_fraction)))
    return float(boosted[ks >= start].max())


def per_call_bisection(fss, i, zeta, rho_hat, gamma, sigma, tail_fraction):
    """The former bisection of solve_mu, every lambda_mu evaluated from scratch."""
    if zeta == 0.0:
        return 0.0
    target = per_call_lambda_mu(fss, i, 0.0, gamma, sigma, tail_fraction) + zeta
    lo, hi = 0.0, zeta / rho_hat
    if per_call_lambda_mu(fss, i, hi, gamma, sigma, tail_fraction) < target - 1e-6:
        return "bracket"
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        val = per_call_lambda_mu(fss, i, mid, gamma, sigma, tail_fraction)
        if abs(val - target) <= 1e-9:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_call_closed_form(fss, i, zeta, rho_hat, gamma, sigma, tail_fraction):
    """The root of lambda_mu = lambda_hat + zeta as the smallest crossing of
    the lines f_i(k) + mu g_i(k) with the target, from scratch."""
    if zeta == 0.0:
        return 0.0
    ks, values = exponent_profile(fss.trajectories[i], sigma)
    start = max(1, math.ceil(ks[-1] * (1.0 - tail_fraction)))
    f = values[ks >= start]
    g = per_call_densities(fss, i, gamma, sigma)[ks >= start]
    target = float(f.max()) + zeta
    if float((f + zeta / rho_hat * g).max()) < target - 1e-6 or not (g > 0).any():
        return "bracket"
    return float(((target - f[g > 0]) / g[g > 0]).min())


def per_call_scan(fss, i, gamma_grid, sigma, tail_fraction):
    """(gamma, rho_hat, status) of broken_away_scan, densities recomputed per gamma."""
    profile_ks, values = exponent_profile(fss.trajectories[i], sigma)
    start = max(1, math.ceil(profile_ks[-1] * (1.0 - tail_fraction)))
    window = profile_ks >= start
    lam = values[window].max()
    ks = profile_ks[window][values[window] >= lam - 1e-2]
    best_gamma, best_rho = None, -1.0
    for gamma in sorted(gamma_grid, reverse=True):
        rho = float(per_call_densities(fss, i, gamma, sigma)[ks - 1].min())
        if rho > best_rho + 1e-12:
            best_gamma, best_rho = float(gamma), rho
    return best_gamma, best_rho, "yes" if best_rho >= 0.05 else "no", ks


def solver_cases():
    diag = geometric_diag([1.0, 2.0])
    return [
        standard_basis_fss(diag, 2000),
        FSSRecord.from_initial_vectors(diag, [[1.0, 0.0], [1.0, 1.0]], 2000),
        sin_log_witness_fss(4000),
        standard_basis_fss(tri3_system(1000), 1000),
    ]


def test_solve_mu_is_the_closed_form_root_and_keeps_the_bisection_brackets():
    sigma, tail = 1, TAIL_FRACTION
    for fss in solver_cases():
        for i in range(fss.dimension):
            for gamma in (0.3, math.acos(0.9), 0.7):
                for mu in (0.0, 0.013, 0.2):
                    assert lambda_mu(fss, i, mu, gamma) == per_call_lambda_mu(
                        fss, i, mu, gamma, sigma, tail)
                for zeta, rho_hat in ((0.0, 0.5), (0.004, 0.5), (0.02, 0.19), (0.05, 1.0)):
                    try:
                        mu = solve_mu(fss, i, zeta, rho_hat, gamma)
                    except BracketError:
                        mu = "bracket"
                    assert mu == per_call_closed_form(fss, i, zeta, rho_hat, gamma, sigma, tail)
                    bisected = per_call_bisection(fss, i, zeta, rho_hat, gamma, sigma, tail)
                    assert (mu == "bracket") == (bisected == "bracket")
                    if mu == "bracket":
                        continue
                    target = lambda_mu(fss, i, 0.0, gamma) + zeta
                    boosted = lambda_mu(fss, i, mu, gamma)
                    assert abs(boosted - target) <= 2 * math.ulp(target)
                    assert abs(boosted - lambda_mu(fss, i, bisected, gamma)) <= 1e-9


def test_broken_away_scan_matches_the_per_gamma_scan():
    for fss in solver_cases():
        for i in range(fss.dimension):
            for grid, sigma in ((GAMMA_GRID, 1), ((0.2, 1.2, 0.7), 2)):
                verdict = broken_away_scan(fss, i, grid, sigma)
                gamma, rho, status, ks = per_call_scan(fss, i, grid, sigma, TAIL_FRACTION)
                assert (verdict.gamma, verdict.rho_hat, verdict.status) == (gamma, rho, status)
                assert np.array_equal(verdict.realizing_ks, ks)


def test_execute_plan_reports_a_collapsed_projection_as_such():
    seq, fss, plan = plan_cases(300)[1]
    trajectories = [
        TrajectoryLog(t.directions.copy(), t.log_norms) for t in fss.trajectories
    ]
    trajectories[0].directions[39] = trajectories[1].directions[39]
    bad = FSSRecord(seq, trajectories, fss.initial_vectors)
    with pytest.raises(SingularMatrixError) as info:
        execute_plan(dataclasses.replace(plan, fss=bad))
    assert info.value.index == 40


def test_execute_plan_raises_the_earlier_of_two_faults_in_one_chunk():
    # A(300) R(300) maps the perturbed solutions to zero at n = 301, and x_1
    # falls into the span of x_2 and x_3 at n = 3000, a projection collapse;
    # both lie in the first chunk of A(n) R(n), whose evaluation stops at
    # n = 3000, so the chunk is walked again a segment at a time
    seq, fss, plan = plan_cases(5000)[1]
    trajectories = [
        TrajectoryLog(t.directions.copy(), t.log_norms) for t in fss.trajectories
    ]
    trajectories[0].directions[2999] = trajectories[1].directions[2999]
    bad = FSSRecord(seq, trajectories, fss.initial_vectors)
    assert (plan.gamma_flags[2999] & (plan.mu > 0))[0]

    def block_fn(start, stop):
        mats = seq.matrices(start, stop).copy()
        mats[np.arange(start, stop) == 300] = 0.0
        return mats

    broken = FSSRecord(CoefficientSequence(3, block_fn), trajectories, fss.initial_vectors)
    with pytest.raises(PreconditionError) as info:
        execute_plan(dataclasses.replace(plan, fss=broken))
    assert str(info.value) == "perturbed propagation collapsed at n=301 (max |x|=0.0)"
    assert info.value.exit_code == 4
    with pytest.raises(SingularMatrixError) as info:  # the later fault alone
        execute_plan(dataclasses.replace(plan, fss=bad))
    assert info.value.index == 3000 and info.value.exit_code == 3

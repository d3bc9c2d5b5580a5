"""Constructive synthesis of small multiplicative perturbations that
shift each Lyapunov exponent of a splitted FSS by a prescribed amount.

The construction follows the angle-density machinery: from a common angle
threshold gamma, a measured density floor rho and r = SYNTHESIS_R it derives

    L1 = r * sin(gamma) / s,   delta1 = ln(L1 + 1) / 2,   L = L1 / delta1,
    delta = delta1 * rho / 3,  beta = L * s * (1 + 2/rho) / sin(gamma),

solves for the per-solution boosts mu_i, and builds R(n) as a combination
of oblique projections onto the FSS directions so that each x_i(n) is an
eigenvector of R(n) with eigenvalue exp(s_i(n)).  The resulting perturbed
solutions admit the closed form exp(sum_{j<k} s_i(j)) * x_i(k), which
serves as the module's internal oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BracketError,
    BudgetError,
    InvalidInputError,
    PreconditionError,
    PropagationError,
    SingularMatrixError,
)
from .linalg import project_out, spectral_norm
from .spectrum import (
    _tail_start,
    exponent_profile,
    incompressibility_test,
    limsup_estimate,
    spectrum_estimate,
)
from .splitness import RHO_THRESHOLD, FSSRecord, _check_gamma, gamma_statistics, splitness_report
from .system import CoefficientSequence, _check_integer, _check_real, _propagation_blocks

MU_BRACKET_TOL = 1e-6
SYNTHESIS_R = 0.5  # the constant r: the proof keeps ||R(n) - I|| below it
DISTINCT_EXPONENT_GAP = 1e-6  # estimates this close count as equal in openness_experiment


@dataclass(frozen=True)
class SynthesisConstants:
    gamma: float
    rho: float
    dimension: int
    r: float
    l1: float
    delta1: float
    lipschitz: float  # L = l1 / delta1
    delta: float
    beta: float


def synthesis_constants(gamma, rho, s):
    """Evaluate the synthesis constants for given angle threshold and
    density floor; delta1 is the midpoint-in-log ln(L1+1)/2."""
    gamma = _check_gamma("gamma", gamma)
    rho = _check_real("rho", rho, 0.0, 1.0)
    s = _check_integer("s", s, 1)
    r = SYNTHESIS_R
    l1 = r * math.sin(gamma) / s
    delta1 = math.log(l1 + 1.0) / 2.0
    if not delta1 > 0.0:  # ln(L1 + 1) rounds to 0 for a gamma near 0
        raise InvalidInputError(f"gamma = {gamma} leaves no room for delta1")
    lipschitz = l1 / delta1
    delta = delta1 * rho / 3.0
    beta = lipschitz * s * (1.0 + 2.0 / rho) / math.sin(gamma)
    return SynthesisConstants(gamma, rho, s, float(r), l1, delta1, lipschitz, delta, beta)


# --- exponent-boost solver ---------------------------------------------


def lambda_mu(fss, i, mu, gamma):
    """Tail-max estimate of limsup_k (f_i(k) + mu * g_i(k)), sigma = 1."""
    mu = _check_real("mu", mu, 0.0, closed=True)
    values, densities = _tail_lines(fss, i, gamma)
    return float((values + mu * densities).max())


def _tail_lines(fss, i, gamma):
    """The exponent profile f_i(k) and the gamma densities g_i(k) >= 0 on
    the tail window: lambda_mu is the maximum of the lines f_i + mu g_i."""
    ks, values = exponent_profile(fss.trajectories[fss._member(i)])
    start = np.searchsorted(ks, _tail_start(ks[-1]))
    return values[start:], gamma_statistics(fss, i, gamma)[1][start:]


def solve_mu(fss, i, zeta, rho_hat, gamma):
    """Solve lambda_mu(mu) = lambda_hat + zeta in closed form.

    lambda_mu is a maximum of lines f_i(k) + mu g_i(k) with g_i(k) >= 0,
    so its root is the smallest (target - f_i(k)) / g_i(k) over the k with
    g_i(k) > 0.  The density floor guarantees a root in [0, zeta/rho_hat];
    a lambda_mu(zeta/rho_hat) short of the target indicates inconsistent
    estimators and is reported as such.
    """
    zeta = _check_real("zeta", zeta, 0.0, closed=True)
    rho_hat = _check_real("rho_hat", rho_hat, 0.0)
    fss._member(i)  # refused even where zeta = 0 needs no lines
    if zeta == 0.0:
        return 0.0
    values, densities = _tail_lines(fss, i, gamma)
    lam0 = float(values.max())
    target = lam0 + zeta
    hi = zeta / rho_hat
    f_hi = float((values + hi * densities).max())
    rising = densities > 0.0
    if f_hi < target - MU_BRACKET_TOL or not rising.any():
        raise BracketError(
            f"estimator inconsistency for solution {i}: Lambda({hi:.6g}) = "
            f"{f_hi:.6g} < target {target:.6g} (lambda_hat={lam0:.6g}, "
            f"zeta={zeta:.6g}, rho_hat={rho_hat:.6g})"
        )
    return float(((target - values[rising]) / densities[rising]).min())


# --- plan construction --------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    verdicts: list
    constants: SynthesisConstants  # its gamma and rho are the common ones


def calibrate(fss):
    """Derive the synthesis constants from ``splitness_report``; PreconditionError if not splitted.

    Uses sigma = 1 throughout, the common gamma is the minimum over the
    per-solution certificates (enlarging every index set), and rho is the
    minimum of the measured density floors.
    """
    report = splitness_report(fss)
    if not report.splitted:
        raise PreconditionError("FSS is not splitted at this horizon: solutions " + ", ".join(
            f"{v.solution_index} (no)" for v in report.verdicts if v.status == "no"))
    gamma = min(v.gamma for v in report.verdicts)
    rho_hat = max(RHO_THRESHOLD, min(v.rho_hat for v in report.verdicts))
    return Calibration(report.verdicts, synthesis_constants(gamma, rho_hat, fss.dimension))


@dataclass(frozen=True)
class PerturbationPlan:
    target_shifts: np.ndarray  # xi_i
    eta: float
    mu: np.ndarray
    # (horizon, s): n in Gamma_i, so s_i(n) = eta + mu_i * flag
    gamma_flags: np.ndarray = field(repr=False)
    constants: SynthesisConstants
    fss: FSSRecord = field(repr=False, compare=False)  # the FSS the plan was built for

    @property
    def norm_budget(self):
        return self.constants.beta * float(np.abs(self.target_shifts).max())


def build_plan(fss, xi_shifts, calibration=None):
    """Build a perturbation plan shifting exponent i by xi_shifts[i].

    Every |xi_i| must fit within the budget delta of the synthesis
    constants, from ``calibration`` or else from ``calibrate(fss)``.
    Synthesis always uses sigma = 1.  The plan keeps ``fss``, whose
    directions build R(n) and whose system gives A(n).
    """
    s = fss.dimension
    xi = _check_real("shifts", xi_shifts, shape=(s,))
    constants = (calibration or calibrate(fss)).constants
    over = np.abs(xi) > constants.delta
    if over.any():
        idx = int(np.argmax(over))
        raise BudgetError(
            f"shift xi[{idx}] = {xi[idx]:.6g} exceeds the budget delta = "
            f"{constants.delta:.6g}",
            index=idx,
            delta=constants.delta,
        )

    eta = float(xi.min())
    zeta = xi - eta
    mu = np.array(
        [solve_mu(fss, i, float(zeta[i]), constants.rho, constants.gamma) for i in range(s)]
    )

    flags = fss.angle_profile() >= constants.gamma  # (horizon, s)
    worst = np.abs(eta + mu[None, :] * flags).max()
    if worst > constants.delta1 + 1e-12:
        raise BracketError(
            f"schedule magnitude {worst:.6g} exceeds delta1 = {constants.delta1:.6g}"
        )
    return PerturbationPlan(xi, eta, mu, flags, constants, fss)


# --- the perturbation matrices ------------------------------------------

_PROJECTION_DENOM_MIN = 1e-30  # w0 . d at or below this: direction collapsed


def perturbation_at(plan, n):
    """The matrix R(n) = sum_i P_n^i exp(s_i(n)), or the (k, s, s) stack
    of them for an array of k steps; InvalidInputError for a step that is
    not an integer, KeyError for one outside 1, ..., horizon.

    Evaluated as exp(eta) * (I + sum over active i of (exp(mu_i) - 1) P_n^i),
    where only solutions with n in Gamma_i (hence a well-separated angle)
    contribute a projection.  P_n^i = d (w0 / (w0 . d)) is the oblique
    projection onto direction d = x_i(n) along the span of the others,
    with w0 the residual of d against that span; it stays well
    conditioned while that angle is bounded away from zero, however
    degenerate the rest of the basis is.
    """
    fss = plan.fss
    steps = np.asarray(n)
    ns = np.atleast_1d(steps)
    pos = _as_slice(fss.trajectories[0].positions(ns))  # checks every step
    dirs = [traj.directions[pos] for traj in fss.trajectories]  # member i's (k, s) rows
    flags = plan.gamma_flags[pos]
    s = fss.dimension
    # entry (a, b) of every R(n) along one contiguous row of k, so the outer
    # products below run along k and not along rows of s
    result = np.repeat(np.eye(s)[:, :, None], len(ns), axis=2)
    for i in np.flatnonzero(plan.mu > 0.0):  # mu_i = 0 adds nothing
        rows = np.flatnonzero(flags[:, i])
        if not len(rows):
            continue
        sel = _as_slice(rows)
        d = dirs[i][sel]
        others = np.stack([dirs[j][sel] for j in range(s) if j != i], axis=2)
        _, w0, _ = project_out(d, others)
        denom = np.einsum("km,km->k", w0, d)  # equals ||w0||^2
        collapsed = denom <= _PROJECTION_DENOM_MIN
        if collapsed.any():
            k = int(np.argmax(collapsed))
            raise SingularMatrixError(
                f"projection direction {i} has collapsed onto the complement span "
                f"at n={ns[rows[k]]}",
                smallest_singular_value=float(denom[k]),
                index=int(ns[rows[k]]),
            )
        covector = w0.T / denom
        result[:, :, sel] += (math.exp(plan.mu[i]) - 1.0) * (d.T[:, None] * covector[None])
    result = np.multiply(result.transpose(2, 0, 1), math.exp(plan.eta), order="C")
    return result[0] if steps.ndim == 0 else result


def _as_slice(rows):
    """Row indices ``rows`` as the slice that reads the same rows where they
    run up one by one (a view, not a copy), else unchanged."""
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1 and (np.diff(rows) == 1).all():
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


# --- plan execution -------------------------------------------------------


@dataclass(frozen=True)
class PerturbationOutcome:
    base_exponents: np.ndarray
    perturbed_exponents: np.ndarray
    achieved_shifts: np.ndarray
    r_norm_sup: float
    norm_budget: float  # beta * max|xi_i|
    agreement_residual: float  # closed form vs simulation, relative log-norm
    perturbed_log_norms: np.ndarray = field(repr=False)  # (horizon, s)


def execute_plan(plan):
    """Simulate the perturbed system and verify the closed-form identity.

    Propagates x_bar(n+1) = A(n) R(n) x_bar(n), A(n) of the system of the
    plan's FSS, from x_bar(1) = x_i(1) for every member in one pass that
    keeps only the log-norms, and compares them with the exact closed form
    log||x_bar_i(k)|| = log||x_i(k)|| + sum_{j<k} s_i(j).  The
    maximum relative deviation between the two is the module's primary
    oracle.  A perturbed solution that collapses (or an A(n) R(n) that is
    not finite) raises PreconditionError naming the step.
    """
    fss = plan.fss
    s = fss.dimension
    horizon = len(plan.gamma_flags)
    eye = np.eye(s)
    r_norm_sup = 0.0

    def perturbed_block(start, stop):
        # each R(n) is formed once, here, and ||R(n) - I|| taken from it
        nonlocal r_norm_sup
        r_mats = perturbation_at(plan, np.arange(start, stop))
        r_norm_sup = max(r_norm_sup, float(spectral_norm(r_mats - eye).max()))
        return fss.seq.matrices(start, stop) @ r_mats

    perturbed = CoefficientSequence(s, perturbed_block)
    initial = np.column_stack([traj.value_at(1) for traj in fss.trajectories])
    try:
        sim_logs = np.concatenate(
            [logs for _, _, logs in _propagation_blocks(perturbed, initial, horizon)]
        )
    except PropagationError as exc:
        raise PreconditionError(f"perturbed {exc}") from exc

    base_logs = np.column_stack([traj.log_norms[:horizon] for traj in fss.trajectories])
    schedule = plan.eta + plan.mu[None, :] * plan.gamma_flags[: horizon - 1]  # s_i(n)
    cum = np.vstack([np.zeros(s), np.cumsum(schedule, axis=0)])
    closed_logs = base_logs + cum
    agreement = float(
        np.max(np.abs(sim_logs - closed_logs) / np.maximum(1.0, np.abs(closed_logs)))
    )

    ks = np.arange(1, horizon + 1)
    perturbed_exponents = limsup_estimate(ks, sim_logs / ks[:, None])[0]
    base_exponents = limsup_estimate(ks, base_logs / ks[:, None])[0]
    return PerturbationOutcome(
        base_exponents,
        perturbed_exponents,
        perturbed_exponents - base_exponents,
        r_norm_sup,
        plan.norm_budget,
        agreement,
        sim_logs,
    )


# --- experiments -----------------------------------------------------------


@dataclass(frozen=True)
class InstabilityRow:
    epsilon: float
    shifts: np.ndarray
    clamped_to_delta: bool
    r_norm_sup: float
    r_within_epsilon: bool
    perturbed_spectrum: np.ndarray
    distance_to_base: float
    outside_alpha: bool
    success: bool


@dataclass(frozen=True)
class InstabilityResult:
    alpha: float
    delta: float
    beta: float
    base_spectrum: np.ndarray
    fss_exponents: np.ndarray
    witness: np.ndarray | None
    rows: list  # one InstabilityRow per epsilon


def instability_experiment(fss, epsilon_grid, trials=16, seed=0):
    """Drive spectrum jumps in the system of a splitted non-normal FSS.

    Preconditions: the FSS is splitted and not normal.  For each epsilon,
    distinct shifts within min(epsilon/beta, delta) are applied; a SUCCESS
    row means the perturbed spectrum estimate stays outside the
    alpha-neighborhood of the unperturbed spectrum estimate while
    ||R - I|| stays below epsilon, where alpha is half the largest gap
    between the FSS exponents and that estimate.  That perturbed
    estimate, a row's ``perturbed_spectrum``, is the sorted member
    exponents of the perturbed FSS, not a QR spectrum of the perturbed
    system.
    """
    epsilon_grid = _check_real("epsilon_grid", epsilon_grid, 0.0, shape=(-1,))
    calibration = calibrate(fss)
    verdict = incompressibility_test(fss, trials=trials, seed=seed)
    if verdict.is_normal:
        raise PreconditionError(
            "instability experiment needs a non-normal FSS; no violation found"
        )

    delta = calibration.constants.delta
    s = fss.dimension
    base_spectrum = spectrum_estimate(fss.seq, fss.horizon)
    fss_exponents = np.sort([v.lambda_hat for v in calibration.verdicts])
    gap = float(np.max(np.abs(fss_exponents - base_spectrum.exponents)))
    if gap <= 0.0:
        raise PreconditionError(
            "FSS exponents coincide with the spectrum estimate; cannot "
            "choose disjoint neighborhoods"
        )
    alpha = gap / 2.0

    beta = calibration.constants.beta
    rows = []
    for eps in epsilon_grid:
        eps = float(eps)
        # shifts of size eps / beta keep ||R - I|| below eps itself
        budget = min(eps / beta, delta)
        xi = np.linspace(-budget, budget, s)
        outcome = execute_plan(build_plan(fss, xi, calibration))
        perturbed = np.sort(outcome.perturbed_exponents)
        distance = float(np.max(np.abs(perturbed - base_spectrum.exponents)))
        within_budget = outcome.r_norm_sup < eps
        rows.append(InstabilityRow(eps, xi, eps / beta > delta, outcome.r_norm_sup,
                                   within_budget, perturbed, distance, distance > alpha,
                                   distance > alpha and within_budget))
    return InstabilityResult(alpha, delta, beta, base_spectrum.exponents, fss_exponents,
                             verdict.witness, rows)


@dataclass(frozen=True)
class OpennessResult:
    gamma: float  # min(eta, epsilon / beta, delta): the assignable neighborhood
    eta: float | None  # a third of the smallest exponent gap; None at s = 1, with no gap
    beta: float
    delta: float
    targets: np.ndarray
    base_exponents: np.ndarray
    achieved_exponents: np.ndarray
    assignment_error: float
    r_norm_sup: float
    epsilon: float
    within_epsilon: bool
    pairwise_distinct: bool
    agreement_residual: float


def openness_experiment(fss, target_spectrum, epsilon):
    """Assign a nearby target spectrum to ``fss.seq`` by a small perturbation.

    Requires a splitted FSS with pairwise distinct exponent estimates.
    The target must lie within gamma = min(eta, epsilon/beta, delta) of
    the estimated exponents, where eta is a third of the smallest gap.
    """
    s = fss.dimension
    target = _check_real("target exponents", target_spectrum, shape=(s,))
    epsilon = _check_real("epsilon", epsilon, 0.0)

    calibration = calibrate(fss)
    lams = np.array([v.lambda_hat for v in calibration.verdicts])
    smallest_gap = float(np.diff(np.sort(lams)).min(initial=math.inf))  # inf for s = 1
    if smallest_gap <= DISTINCT_EXPONENT_GAP:
        raise PreconditionError("openness experiment needs pairwise distinct exponent estimates")
    eta = smallest_gap / 3.0

    beta = calibration.constants.beta
    delta = calibration.constants.delta
    gamma_open = min(eta, epsilon / beta, delta)
    xi = target - lams
    worst = float(np.abs(xi).max())
    if worst >= gamma_open:
        raise PreconditionError(
            f"target spectrum outside the assignable neighborhood: "
            f"max|xi| = {worst:.6g} >= gamma = {gamma_open:.6g}"
        )

    outcome = execute_plan(build_plan(fss, xi, calibration))
    achieved = outcome.perturbed_exponents
    return OpennessResult(
        gamma_open, eta if s > 1 else None, beta, delta, target, lams, achieved,
        float(np.abs(achieved - target).max()), outcome.r_norm_sup, epsilon,
        outcome.r_norm_sup < epsilon,
        bool(np.diff(np.sort(achieved)).min(initial=math.inf) > 0.0),
        outcome.agreement_residual,
    )

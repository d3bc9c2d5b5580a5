"""Constructive synthesis of small multiplicative perturbations that
shift each Lyapunov exponent of a splitted FSS by a prescribed amount.

The construction follows the angle-density machinery: from a common angle
threshold gamma and a measured density floor rho it derives the constants

    L1 = r * sin(gamma) / s,   delta1 in (0, ln(L1 + 1)),   L = L1 / delta1,
    delta = delta1 * rho / 3,  beta = L * s * (1 + 2/rho) / sin(gamma),

solves for the per-solution boosts mu_i, and builds R(n) as a combination
of oblique projections onto the FSS directions so that each x_i(n) is an
eigenvector of R(n) with eigenvalue exp(s_i(n)).  The resulting perturbed
solutions admit the closed form exp(sum_{j<k} s_i(j)) * x_i(k), which
serves as the module's internal oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketError,
    BudgetError,
    InvalidInputError,
    PreconditionError,
    SingularMatrixError,
)
from .linalg import project_out, spectral_norm
from .spectrum import (
    REALIZE_TOL,
    TAIL_FRACTION,
    ExponentProfile,
    incompressibility_test,
    limsup_estimate,
    spectrum_estimate,
)
from .splitness import GAMMA_GRID, RHO_THRESHOLD, broken_away_scan, splitness_report
from .system import CoefficientSequence

MU_VALUE_TOL = 1e-9
MU_BRACKET_TOL = 1e-6
MU_MAX_ITER = 80


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


def synthesis_constants(gamma, rho, s, r=0.5, delta1=None):
    """Evaluate the synthesis constants for given angle threshold and
    density floor.  Default delta1 is the midpoint-in-log ln(L1+1)/2."""
    if not 0.0 < gamma <= math.pi / 2:
        raise InvalidInputError(f"gamma must be in (0, pi/2], got {gamma}")
    if not 0.0 < rho <= 1.0:
        raise InvalidInputError(f"rho must be in (0, 1], got {rho}")
    if s < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {s}")
    if not 0.0 < r < 1.0:
        raise InvalidInputError(f"r must be in (0, 1), got {r}")
    l1 = r * math.sin(gamma) / s
    cap = math.log(l1 + 1.0)
    if delta1 is None:
        delta1 = cap / 2.0
    if not 0.0 < delta1 < cap:
        raise InvalidInputError(f"delta1 must be in (0, {cap}), got {delta1}")
    lipschitz = l1 / delta1
    delta = delta1 * rho / 3.0
    beta = lipschitz * s * (1.0 + 2.0 / rho) / math.sin(gamma)
    return SynthesisConstants(
        float(gamma), float(rho), int(s), float(r), l1, delta1, lipschitz, delta, beta
    )


# --- exponent-boost solver ---------------------------------------------


def lambda_mu(fss, i, mu, gamma, sigma=1, tail_fraction=TAIL_FRACTION):
    """Tail-max estimate of limsup_k (f_i(k) + mu * g_i(k))."""
    if mu < 0.0:
        raise InvalidInputError("mu must be >= 0")
    from .splitness import gamma_statistics

    profile = fss.profile(i, sigma)
    stats = gamma_statistics(fss, i, gamma, sigma)
    boosted = ExponentProfile(sigma, profile.ks, profile.values + mu * stats.densities)
    lam, _ = limsup_estimate(boosted, tail_fraction, REALIZE_TOL)
    return lam


def solve_mu(fss, i, zeta, rho_hat, gamma, sigma=1, tail_fraction=TAIL_FRACTION):
    """Solve lambda_mu(mu) = lambda_hat + zeta by bisection on [0, zeta/rho_hat].

    The bracket is the one guaranteed by the density floor; failure of the
    upper end indicates inconsistent estimators and is reported as such.
    """
    if zeta < 0.0:
        raise InvalidInputError("zeta must be >= 0")
    if zeta == 0.0:
        return 0.0
    lam0 = lambda_mu(fss, i, 0.0, gamma, sigma, tail_fraction)
    target = lam0 + zeta
    hi = zeta / rho_hat
    f_hi = lambda_mu(fss, i, hi, gamma, sigma, tail_fraction)
    if f_hi < target - MU_BRACKET_TOL:
        raise BracketError(
            f"estimator inconsistency for solution {i}: Lambda({hi:.6g}) = "
            f"{f_hi:.6g} < target {target:.6g} (lambda_hat={lam0:.6g}, "
            f"zeta={zeta:.6g}, rho_hat={rho_hat:.6g})"
        )
    lo = 0.0
    for _ in range(MU_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = lambda_mu(fss, i, mid, gamma, sigma, tail_fraction)
        if abs(val - target) <= MU_VALUE_TOL:
            return mid
        if val < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- plan construction --------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    verdicts: list
    gamma: float
    rho_hat: float
    constants: SynthesisConstants


def calibrate(
    fss,
    r=0.5,
    delta1=None,
    gamma_grid=GAMMA_GRID,
    tail_fraction=TAIL_FRACTION,
    realize_tol=REALIZE_TOL,
    rho_threshold=RHO_THRESHOLD,
):
    """Run per-solution broken-away scans and derive the synthesis constants.

    Uses sigma = 1 throughout, the common gamma is the minimum over the
    per-solution certificates (enlarging every index set), and rho is the
    minimum of the measured density floors.
    """
    verdicts = [
        broken_away_scan(fss, i, gamma_grid, 1, tail_fraction, realize_tol, rho_threshold)
        for i in range(fss.dimension)
    ]
    bad = [v for v in verdicts if v.status != "yes"]
    if bad:
        raise PreconditionError(
            "FSS is not splitted at this horizon: solutions "
            + ", ".join(f"{v.solution_index} ({v.status})" for v in bad)
        )
    gamma = min(v.gamma for v in verdicts)
    rho_hat = max(rho_threshold, min(v.rho_hat for v in verdicts))
    constants = synthesis_constants(gamma, rho_hat, fss.dimension, r, delta1)
    return Calibration(verdicts, gamma, rho_hat, constants)


@dataclass(frozen=True)
class PerturbationPlan:
    target_shifts: np.ndarray  # xi_i
    eta: float
    zeta: np.ndarray
    mu: np.ndarray
    gamma: float
    gamma_flags: np.ndarray  # (horizon, s): n in Gamma_i
    schedule: np.ndarray  # (horizon, s): s_i(n)
    epsilon: float  # max |xi_i|
    constants: SynthesisConstants
    calibration: Calibration
    horizon: int

    def schedule_at(self, n):
        return self.schedule[n - 1]

    @property
    def norm_budget(self):
        return self.constants.beta * self.epsilon


def build_plan(
    fss,
    xi_shifts,
    r=0.5,
    delta1=None,
    gamma_grid=GAMMA_GRID,
    tail_fraction=TAIL_FRACTION,
    realize_tol=REALIZE_TOL,
    rho_threshold=RHO_THRESHOLD,
    calibration=None,
):
    """Build a perturbation plan shifting exponent i by xi_shifts[i].

    Every |xi_i| must fit within the budget delta of the synthesis
    constants.  Synthesis always uses sigma = 1.
    """
    xi = np.asarray(xi_shifts, dtype=float)
    s = fss.dimension
    if xi.shape != (s,):
        raise InvalidInputError(f"expected {s} shifts, got shape {xi.shape}")
    if calibration is None:
        calibration = calibrate(
            fss, r, delta1, gamma_grid, tail_fraction, realize_tol, rho_threshold
        )
    constants = calibration.constants
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
        [
            solve_mu(fss, i, float(zeta[i]), calibration.rho_hat, calibration.gamma,
                     1, tail_fraction)
            for i in range(s)
        ]
    )

    horizon = fss.horizon
    angles = fss.angle_profile()
    if len(fss.indices) != horizon:
        raise InvalidInputError("plan construction needs an FSS stored at every step")
    flags = angles >= calibration.gamma  # (horizon, s)
    schedule = eta + mu[None, :] * flags

    worst = np.abs(schedule).max()
    if worst > constants.delta1 + 1e-12:
        raise BracketError(
            f"schedule magnitude {worst:.6g} exceeds delta1 = {constants.delta1:.6g}"
        )

    return PerturbationPlan(
        xi, eta, zeta, mu, calibration.gamma, flags, schedule,
        float(np.abs(xi).max()), constants, calibration, horizon,
    )


# --- the perturbation matrices ------------------------------------------

_ACTIVE_MU_TOL = 0.0  # mu_i == 0 contributes nothing even on Gamma_i
_PROJECTION_DENOM_MIN = 1e-30  # w0 . d at or below this: direction collapsed
PLAN_BLOCK = 1024  # steps per batch of R(n) in execute_plan; bounds its memory


def perturbation_at(plan, fss, n):
    """The matrix R(n) = sum_i P_n^i exp(s_i(n)), or the (k, s, s) stack
    of them for an array of k steps.

    Evaluated as exp(eta) * (I + sum over active i of (exp(mu_i) - 1) P_n^i),
    where only solutions with n in Gamma_i (hence a well-separated angle)
    contribute a projection.  P_n^i = d (w0 / (w0 . d)) is the oblique
    projection onto direction d = x_i(n) along the span of the others,
    with w0 the residual of d against that span; it stays well
    conditioned while that angle is bounded away from zero, however
    degenerate the rest of the basis is.
    """
    steps = np.asarray(n, dtype=np.int64)
    ns = np.atleast_1d(steps)
    s = fss.dimension
    dirs = fss.direction_stack(ns)  # KeyError for a step the FSS did not store
    active = plan.gamma_flags[ns - 1] & (plan.mu > _ACTIVE_MU_TOL)  # (k, s)
    result = np.repeat(np.eye(s)[None], len(ns), axis=0)
    for i in np.flatnonzero(active.any(axis=0)):
        rows = np.flatnonzero(active[:, i])
        d = dirs[rows, :, i]
        _, w0, _ = project_out(d, np.delete(dirs[rows], i, axis=2))
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
        covector = w0 / denom[:, None]
        result[rows] += (math.exp(plan.mu[i]) - 1.0) * (d[:, :, None] * covector[:, None, :])
    result *= math.exp(plan.eta)
    return result[0] if steps.ndim == 0 else result


def plan_r_sequence(plan, fss):
    """The synthesized perturbation as a coefficient-style sequence."""
    return CoefficientSequence.from_function(
        fss.dimension,
        lambda n: perturbation_at(plan, fss, n),
        "dense-formula",
        "synthesized multiplicative perturbation",
    )


# --- plan execution -------------------------------------------------------


@dataclass(frozen=True)
class PerturbationOutcome:
    target_shifts: np.ndarray
    base_exponents: np.ndarray
    perturbed_exponents: np.ndarray
    achieved_shifts: np.ndarray
    r_norm_sup: float
    norm_budget: float  # beta * epsilon
    r_cap: float  # the constant r; the proof guarantees ||R - I|| < r
    agreement_residual: float  # closed form vs simulation, relative log-norm
    horizon: int
    perturbed_log_norms: np.ndarray  # (horizon, s)


def execute_plan(seq, fss, plan, tail_fraction=TAIL_FRACTION):
    """Simulate the perturbed system and verify the closed-form identity.

    Propagates x_bar(n+1) = A(n) R(n) x_bar(n) from x_bar(1) = x_i(1) for
    every FSS member, while evaluating the exact closed form
    log||x_bar_i(k)|| = log||x_i(k)|| + sum_{j<k} s_i(j).  The maximum
    relative deviation between the two is the module's primary oracle.
    """
    s = fss.dimension
    horizon = plan.horizon
    eye = np.eye(s)

    dirs = np.column_stack([traj.value_at(1) for traj in fss.trajectories])
    log_norms = np.log(np.linalg.norm(dirs, axis=0))
    dirs = dirs / np.exp(log_norms)

    sim_logs = np.empty((horizon, s))
    sim_logs[0] = log_norms
    r_norm_sup = 0.0
    for start in range(1, horizon, PLAN_BLOCK):
        ns = np.arange(start, min(start + PLAN_BLOCK, horizon))
        r_mats = perturbation_at(plan, fss, ns)
        r_norm_sup = max(r_norm_sup, float(spectral_norm(r_mats - eye).max()))
        steps = np.stack([seq.matrix_at(n) for n in ns]) @ r_mats
        norms = np.empty((len(ns), s))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for k, step in enumerate(steps):
                dirs = step @ dirs
                norms[k] = np.sqrt((dirs * dirs).sum(axis=0))  # column norms
                dirs = dirs / norms[k]
        bad = np.any((norms == 0.0) | ~np.isfinite(norms), axis=1)
        if bad.any():
            raise PreconditionError(
                f"perturbed propagation collapsed at n={ns[np.argmax(bad)] + 1}"
            )
        logs = np.cumsum(np.vstack([log_norms, np.log(norms)]), axis=0)
        sim_logs[ns] = logs[1:]
        log_norms = logs[-1]

    base_logs = np.column_stack([traj.log_norms[:horizon] for traj in fss.trajectories])
    cum = np.vstack([np.zeros(s), np.cumsum(plan.schedule[: horizon - 1], axis=0)])
    closed_logs = base_logs + cum
    agreement = float(
        np.max(np.abs(sim_logs - closed_logs) / np.maximum(1.0, np.abs(closed_logs)))
    )

    ks = np.arange(1, horizon + 1)
    perturbed_exponents = np.empty(s)
    for i in range(s):
        profile = ExponentProfile(1, ks, sim_logs[:, i] / ks)
        lam, _ = limsup_estimate(profile, tail_fraction, REALIZE_TOL)
        perturbed_exponents[i] = lam

    base_exponents = np.array([v.lambda_hat for v in plan.calibration.verdicts])
    return PerturbationOutcome(
        plan.target_shifts,
        base_exponents,
        perturbed_exponents,
        perturbed_exponents - base_exponents,
        r_norm_sup,
        plan.norm_budget,
        plan.constants.r,
        agreement,
        horizon,
        sim_logs,
    )


# --- experiments -----------------------------------------------------------


def instability_experiment(
    seq,
    fss,
    epsilon_grid,
    alpha=None,
    r=0.5,
    delta1=None,
    gamma_grid=GAMMA_GRID,
    tail_fraction=TAIL_FRACTION,
    trials=16,
    seed=0,
):
    """Drive spectrum jumps from a splitted non-normal FSS.

    Preconditions: the FSS is splitted and not normal.  For each epsilon,
    distinct shifts within min(epsilon/beta, delta) are applied; a SUCCESS
    row means the perturbed spectrum estimate stays outside the
    alpha-neighborhood of the unperturbed spectrum estimate while
    ||R - I|| stays below epsilon.
    """
    report = splitness_report(fss, gamma_grid, 1, tail_fraction)
    if report.splitted is not True:
        raise PreconditionError("instability experiment needs a splitted FSS")
    verdict = incompressibility_test(fss, trials=trials, seed=seed, tail_fraction=tail_fraction)
    if verdict.is_normal:
        raise PreconditionError(
            "instability experiment needs a non-normal FSS; no violation found"
        )

    calibration = calibrate(fss, r, delta1, gamma_grid, tail_fraction)
    delta = calibration.constants.delta
    s = fss.dimension
    base_spectrum = spectrum_estimate(seq, fss.horizon, tail_fraction=tail_fraction)
    fss_exponents = np.sort([v.lambda_hat for v in calibration.verdicts])
    if alpha is None:
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
        # shifts of size eps / beta keep ||R - I|| below eps itself
        budget = min(float(eps) / beta, delta)
        clamped = float(eps) / beta > delta
        xi = np.linspace(-budget, budget, s) if s > 1 else np.array([budget])
        plan = build_plan(fss, xi, r, delta1, gamma_grid, tail_fraction,
                          calibration=calibration)
        outcome = execute_plan(seq, fss, plan, tail_fraction)
        perturbed = np.sort(outcome.perturbed_exponents)
        distance = float(np.max(np.abs(perturbed - base_spectrum.exponents)))
        within_budget = outcome.r_norm_sup < float(eps)
        rows.append(
            {
                "epsilon": float(eps),
                "shifts": xi.tolist(),
                "clamped_to_delta": clamped,
                "r_norm_sup": outcome.r_norm_sup,
                "r_within_epsilon": within_budget,
                "perturbed_spectrum": perturbed.tolist(),
                "distance_to_base": distance,
                "outside_alpha": distance > alpha,
                "success": distance > alpha and within_budget,
            }
        )
    return {
        "alpha": float(alpha),
        "delta": delta,
        "beta": calibration.constants.beta,
        "base_spectrum": base_spectrum.exponents.tolist(),
        "fss_exponents": fss_exponents.tolist(),
        "witness": None if verdict.witness is None else verdict.witness.tolist(),
        "rows": rows,
    }


def openness_experiment(
    seq,
    fss,
    target_spectrum,
    epsilon,
    r=0.5,
    delta1=None,
    gamma_grid=GAMMA_GRID,
    tail_fraction=TAIL_FRACTION,
    min_gap=1e-6,
):
    """Assign a nearby target spectrum through a small perturbation.

    Requires a splitted FSS with pairwise distinct exponent estimates.
    The target must lie within gamma = min(eta, epsilon/beta, delta) of
    the estimated exponents, where eta is a third of the smallest gap.
    """
    target = np.asarray(target_spectrum, dtype=float)
    s = fss.dimension
    if target.shape != (s,):
        raise InvalidInputError(f"expected {s} target exponents, got {target.shape}")

    calibration = calibrate(fss, r, delta1, gamma_grid, tail_fraction)
    lams = np.array([v.lambda_hat for v in calibration.verdicts])
    if s > 1:
        gaps = np.abs(np.subtract.outer(lams, lams))[~np.eye(s, dtype=bool)]
        if gaps.min() <= min_gap:
            raise PreconditionError(
                "openness experiment needs pairwise distinct exponent estimates"
            )
        eta = float(np.min(np.diff(np.sort(lams)))) / 3.0
    else:
        eta = math.inf

    beta = calibration.constants.beta
    delta = calibration.constants.delta
    gamma_open = min(eta, float(epsilon) / beta, delta)
    xi = target - lams
    worst = float(np.abs(xi).max())
    if worst >= gamma_open:
        raise PreconditionError(
            f"target spectrum outside the assignable neighborhood: "
            f"max|xi| = {worst:.6g} >= gamma = {gamma_open:.6g}"
        )

    plan = build_plan(fss, xi, r, delta1, gamma_grid, tail_fraction,
                      calibration=calibration)
    outcome = execute_plan(seq, fss, plan, tail_fraction)
    achieved = outcome.perturbed_exponents
    return {
        "gamma": gamma_open,
        "eta": eta,
        "beta": beta,
        "delta": delta,
        "targets": target.tolist(),
        "base_exponents": lams.tolist(),
        "achieved_exponents": achieved.tolist(),
        "assignment_error": float(np.abs(achieved - target).max()),
        "r_norm_sup": outcome.r_norm_sup,
        "epsilon": float(epsilon),
        "within_epsilon": outcome.r_norm_sup < float(epsilon),
        "pairwise_distinct": bool(
            s == 1 or np.min(np.abs(np.diff(np.sort(achieved)))) > 0.0
        ),
        "agreement_residual": outcome.agreement_residual,
    }

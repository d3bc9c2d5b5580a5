"""Angle statistics of fundamental solution systems and the
broken-away / splitted verdicts at finite horizon.

For an FSS {x_1, ..., x_s}, phi_i(n) is the angle between x_i(n) and the
span of the remaining solutions.  A solution is judged broken away when
the density of steps with phi_i >= gamma stays above a threshold along
the realizing indices of its exponent estimate.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, PreconditionError, SingularMatrixError
from .linalg import SINGULAR_RTOL, angle_to_subspace, cosine_to_subspace
from .spectrum import (
    REALIZE_TOL,
    TAIL_FRACTION,
    ExponentProfile,
    limsup_estimate,
)
from .system import CoefficientSequence, propagate

GAMMA_GRID = tuple(math.pi / 2 * 2.0 ** (-j) for j in range(8))
RHO_THRESHOLD = 0.05


class FSSRecord:
    """s independent trajectories of one system plus their angle profile."""

    def __init__(self, seq, trajectories, initial_vectors):
        self.seq = seq
        self.trajectories = list(trajectories)
        self.initial_vectors = np.asarray(initial_vectors, dtype=float)
        s = len(self.trajectories)
        if s != seq.dimension:
            raise InvalidInputError(
                f"an FSS of a {seq.dimension}-dimensional system needs "
                f"{seq.dimension} solutions, got {s}"
            )
        sv = np.linalg.svd(self.initial_vectors, compute_uv=False)
        if sv[-1] <= SINGULAR_RTOL * sv[0]:
            raise InvalidInputError("initial vectors are not linearly independent")
        base = self.trajectories[0].indices
        for traj in self.trajectories[1:]:
            if not np.array_equal(traj.indices, base):
                raise InvalidInputError("trajectories must share stored step indices")
        self._angles = None
        self._cosines = None

    @classmethod
    def from_initial_vectors(cls, seq, vectors, horizon, store_every=1):
        vectors = [np.asarray(v, dtype=float) for v in vectors]
        trajectories = [propagate(seq, v, horizon, store_every) for v in vectors]
        return cls(seq, trajectories, np.array(vectors))

    @property
    def dimension(self):
        return self.seq.dimension

    @property
    def horizon(self):
        return self.trajectories[0].horizon

    @property
    def indices(self):
        return self.trajectories[0].indices

    def direction_stack(self, ns=None):
        """Unit directions with one column per solution, shape (steps, s, s),
        at every stored step or at the steps ``ns`` (KeyError if not stored)."""
        pos = slice(None) if ns is None else self.trajectories[0].positions(ns)
        return np.stack([traj.directions[pos] for traj in self.trajectories], axis=2)

    def _member_profile(self, to_others, collapsed_value):
        """to_others(x_i, the others' columns) for every member over all
        stored steps, one stacked call per member.  A step where some
        member's complement basis collapsed warns once and gets
        ``collapsed_value`` for that member."""
        dirs = self.direction_stack()
        values = np.column_stack(
            [to_others(dirs[:, :, i], np.delete(dirs, i, axis=2)) for i in range(self.dimension)]
        )
        collapsed = np.isnan(values)
        for n in self.indices[collapsed.any(axis=1)]:
            warnings.warn(f"angle basis numerically collapsed at n={n}", RuntimeWarning)
        values[collapsed] = collapsed_value
        return values

    def angle_profile(self):
        """phi_i(n) for every stored n, shape (steps, s); scale-free."""
        if self._angles is not None:
            return self._angles
        s = self.dimension
        steps = len(self.indices)
        if s == 1:
            self._angles = np.full((steps, 1), math.pi / 2)
            return self._angles
        if s == 2:
            # angle of each direction to the other one's line, folded to
            # [0, pi/2]; arcsin of the residual is accurate near 0
            dirs = self.direction_stack()
            dots = np.einsum("ki,ki->k", dirs[:, :, 0], dirs[:, :, 1])
            resid = dirs[:, :, 0] - dots[:, None] * dirs[:, :, 1]
            sines = np.clip(np.linalg.norm(resid, axis=1), 0.0, 1.0)
            phi = np.arcsin(sines)
            self._angles = np.column_stack([phi, phi])
        else:
            self._angles = self._member_profile(angle_to_subspace, 0.0)
        return self._angles

    def cos_angle_profile(self):
        """cos phi_i(n) computed directly from the directions.

        More accurate than cos(angle_profile()) when phi_i is close to
        pi/2, where the arcsin route amplifies rounding in the cosine.
        """
        if self._cosines is not None:
            return self._cosines
        s = self.dimension
        steps = len(self.indices)
        if s == 1:
            self._cosines = np.zeros((steps, 1))
            return self._cosines
        if s == 2:
            dirs = self.direction_stack()
            dots = np.abs(np.einsum("ki,ki->k", dirs[:, :, 0], dirs[:, :, 1]))
            cosines = np.column_stack([dots, dots])
        else:
            cosines = self._member_profile(cosine_to_subspace, 1.0)
        self._cosines = np.clip(cosines, 0.0, 1.0)
        return self._cosines

    def profile(self, i, sigma=1):
        """Exponent profile f_i(k; sigma) for solution i."""
        traj = self.trajectories[i]
        kmax = traj.horizon // sigma
        ns = sigma * np.arange(1, kmax + 1)
        pos = np.searchsorted(traj.indices, ns)
        if not np.array_equal(traj.indices[pos], ns):
            raise InvalidInputError("FSS is not stored at every multiple of sigma")
        return ExponentProfile(sigma, np.arange(1, kmax + 1), traj.log_norms[pos] / ns)


def angle_profile(fss):
    return fss.angle_profile()


@dataclass(frozen=True)
class GammaStatistics:
    gamma: float
    sigma: int
    member_flags: np.ndarray  # flags[j-1]: phi_i(j*sigma) >= gamma
    counts: np.ndarray  # N(k; sigma), nondecreasing
    densities: np.ndarray  # g(k; sigma) = N(k)/k, in [0, 1]


def gamma_statistics(fss, i, gamma, sigma=1, k_max=None):
    """Membership flags, counts and densities of the gamma angle set."""
    sigma = int(sigma)
    angles = fss.angle_profile()[:, i]
    indices = fss.indices
    limit = fss.horizon // sigma
    if k_max is None:
        k_max = limit
    if k_max > limit:
        raise InvalidInputError(f"horizon covers only k <= {limit}, requested {k_max}")
    ns = sigma * np.arange(1, k_max + 1)
    pos = np.searchsorted(indices, ns)
    flags = angles[pos] >= gamma
    counts = np.cumsum(flags)
    densities = counts / np.arange(1, k_max + 1)
    return GammaStatistics(float(gamma), sigma, flags, counts, densities)


@dataclass(frozen=True)
class BrokenAwayVerdict:
    solution_index: int
    sigma: int
    gamma: float | None
    realizing_ks: np.ndarray | None
    rho_hat: float | None
    lambda_hat: float | None
    status: str  # "yes" | "no" | "inconclusive"
    horizon: int

    @property
    def is_broken_away(self):
        return self.status == "yes"


def broken_away_scan(
    fss,
    i,
    gamma_grid=GAMMA_GRID,
    sigma=1,
    tail_fraction=TAIL_FRACTION,
    realize_tol=REALIZE_TOL,
    rho_threshold=RHO_THRESHOLD,
):
    """Scan the gamma grid for the best broken-away certificate.

    The density g is evaluated along the realizing indices of the
    exponent estimate; rho_hat is the minimum density over those indices
    (a conservative stand-in for the limit).  The verdict keeps the gamma
    with the largest rho_hat, preferring larger gamma on ties.
    """
    sigma = int(sigma)
    profile = fss.profile(i, sigma)
    lam, realizing = limsup_estimate(profile, tail_fraction, realize_tol)
    if len(realizing) == 0:
        return BrokenAwayVerdict(
            i, sigma, None, None, None, float(lam), "inconclusive", fss.horizon
        )
    ks = realizing.indices
    best_gamma, best_rho = None, -1.0
    for gamma in sorted(gamma_grid, reverse=True):
        stats = gamma_statistics(fss, i, gamma, sigma)
        rho = float(stats.densities[ks - 1].min())
        if rho > best_rho + 1e-12:
            best_gamma, best_rho = float(gamma), rho
    status = "yes" if best_rho >= rho_threshold else "no"
    return BrokenAwayVerdict(
        i, sigma, best_gamma, ks, best_rho, float(lam), status, fss.horizon
    )


@dataclass(frozen=True)
class SplitnessReport:
    verdicts: list
    splitted: bool | None  # None when some verdict is inconclusive
    sigma: int
    horizon: int


def splitness_report(
    fss,
    gamma_grid=GAMMA_GRID,
    sigma=1,
    tail_fraction=TAIL_FRACTION,
    realize_tol=REALIZE_TOL,
    rho_threshold=RHO_THRESHOLD,
):
    """Per-solution broken-away verdicts plus the overall splitted flag."""
    verdicts = [
        broken_away_scan(fss, i, gamma_grid, sigma, tail_fraction, realize_tol, rho_threshold)
        for i in range(fss.dimension)
    ]
    statuses = {v.status for v in verdicts}
    if "no" in statuses:
        splitted = False
    elif "inconclusive" in statuses:
        splitted = None
    else:
        splitted = True
    return SplitnessReport(verdicts, splitted, sigma, fss.horizon)


def sigma_invariance_check(fss, i, sigma0, sigma1, gamma_grid=GAMMA_GRID, **kwargs):
    """Broken-away verdicts for the same solution at two samplings."""
    v0 = broken_away_scan(fss, i, gamma_grid, sigma0, **kwargs)
    v1 = broken_away_scan(fss, i, gamma_grid, sigma1, **kwargs)
    return v0, v1


class LyapunovTransformation:
    """A bounded invertible coordinate change y = L(n) x."""

    def __init__(self, matrix_fn, dimension, description="L(n)"):
        self._matrix_fn = matrix_fn
        self.dimension = int(dimension)
        self.description = description

    @classmethod
    def constant(cls, matrix):
        m = np.array(matrix, dtype=float)
        return cls(lambda n: m, m.shape[0], "constant L")

    def matrix_at(self, n):
        m = np.asarray(self._matrix_fn(int(n)), dtype=float)
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] <= SINGULAR_RTOL * max(sv[0], 1.0):
            raise SingularMatrixError(
                f"L({n}) is singular to tolerance", smallest_singular_value=float(sv[-1])
            )
        return m

    def bounds(self, horizon):
        """(sup ||L(n)||, sup ||L(n)^-1||) over n <= horizon."""
        sup_l, sup_linv = 0.0, 0.0
        for n in range(1, int(horizon) + 1):
            sv = np.linalg.svd(self.matrix_at(n), compute_uv=False)
            sup_l = max(sup_l, float(sv[0]))
            sup_linv = max(sup_linv, float(1.0 / sv[-1]))
        return sup_l, sup_linv


def apply_lyapunov_transformation(seq, fss, transform):
    """Transformed system B(n) = L(n+1) A(n) L(n)^-1 and FSS y_i = L(n) x_i.

    Returns (transformed sequence, transformed FSSRecord).
    """
    if transform.dimension != seq.dimension:
        raise InvalidInputError("transformation dimension mismatch")

    def matrix_fn(n):
        ln1 = transform.matrix_at(n + 1)
        ln = transform.matrix_at(n)
        return ln1 @ seq.matrix_at(n) @ np.linalg.inv(ln)

    new_seq = CoefficientSequence.from_function(
        seq.dimension, matrix_fn, "dense-formula", f"L-conjugated ({seq.description})"
    )

    from .system import TrajectoryLog  # local import to avoid cycle at module load

    new_trajs = []
    for traj in fss.trajectories:
        dirs = np.empty_like(traj.directions)
        logn = np.empty_like(traj.log_norms)
        for k, n in enumerate(traj.indices):
            y = transform.matrix_at(int(n)) @ traj.directions[k]
            ny = np.linalg.norm(y)
            if ny == 0.0:
                raise PreconditionError(f"transformation collapsed a direction at n={n}")
            dirs[k] = y / ny
            logn[k] = traj.log_norms[k] + math.log(ny)
        new_trajs.append(TrajectoryLog(traj.indices.copy(), dirs, logn))

    new_initials = np.array(
        [transform.matrix_at(1) @ v for v in fss.initial_vectors]
    )
    return new_seq, FSSRecord(new_seq, new_trajs, new_initials)

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

from .errors import InvalidInputError, NotLyapunovSequenceError
from .linalg import SINGULAR_RTOL, angle_to_subspace, cosine_to_subspace
from .spectrum import _sigma_steps, exponent_profile, limsup_estimate
from .system import CoefficientSequence, TrajectoryLog, _singular_values, propagate

GAMMA_GRID = tuple(math.pi / 2 * 2.0 ** (-j) for j in range(8))
RHO_THRESHOLD = 0.05


class FSSRecord:
    """s independent trajectories of one system plus their angle profile."""

    def __init__(self, seq, trajectories, initial_vectors):
        self.seq = seq
        self.trajectories = list(trajectories)
        self.initial_vectors = _initial_basis(seq, initial_vectors)
        s = len(self.trajectories)
        if s != seq.dimension:
            raise InvalidInputError(
                f"an FSS of a {seq.dimension}-dimensional system needs "
                f"{seq.dimension} solutions, got {s}"
            )
        if len({traj.horizon for traj in self.trajectories}) != 1:
            raise InvalidInputError("trajectories must share one horizon")
        self._angles = None
        self._cosines = None

    @classmethod
    def from_initial_vectors(cls, seq, vectors, horizon):
        """The FSS propagated from ``vectors``, one initial vector per row;
        they are checked before the propagation."""
        vectors = _initial_basis(seq, vectors)
        return cls(seq, propagate(seq, vectors.T, horizon), vectors)

    @property
    def dimension(self):
        return self.seq.dimension

    @property
    def horizon(self):
        return self.trajectories[0].horizon

    def direction_stack(self, ns=None):
        """Unit directions with one column per solution, shape (steps, s, s),
        at every step or at the steps ``ns`` (KeyError outside 1..horizon)."""
        pos = slice(None) if ns is None else self.trajectories[0].positions(ns)
        return np.stack([traj.directions[pos] for traj in self.trajectories], axis=2)

    def _member_profile(self, to_others, collapsed_value):
        """to_others(x_i, the others' columns) for every member over all
        steps, one stacked call per member.  A member whose complement
        basis collapsed at a step gets ``collapsed_value`` there, and a
        profile with such steps warns once, with their count and the first."""
        dirs = self.direction_stack()
        values = np.column_stack(
            [to_others(dirs[:, :, i], np.delete(dirs, i, axis=2)) for i in range(self.dimension)]
        )
        collapsed = np.isnan(values)
        steps = np.flatnonzero(collapsed.any(axis=1)) + 1
        if len(steps):
            warnings.warn(f"angle basis numerically collapsed at {len(steps)} steps "
                          f"from n={steps[0]}", RuntimeWarning)
        values[collapsed] = collapsed_value
        return values

    def angle_profile(self):
        """phi_i(n) for every n, row n - 1, shape (horizon, s); scale-free."""
        if self._angles is None and self.dimension == 2:
            # angle of each direction to the other one's line, folded to
            # [0, pi/2]; arcsin of the residual is accurate near 0
            dirs = self.direction_stack()
            dots = np.einsum("ki,ki->k", dirs[:, :, 0], dirs[:, :, 1])
            resid = dirs[:, :, 0] - dots[:, None] * dirs[:, :, 1]
            sines = np.clip(np.linalg.norm(resid, axis=1), 0.0, 1.0)
            phi = np.arcsin(sines)
            self._angles = np.column_stack([phi, phi])
        elif self._angles is None:
            self._angles = self._member_profile(angle_to_subspace, 0.0)
        return self._angles

    def cos_angle_profile(self):
        """cos phi_i(n) computed directly from the directions: at s = 2 the
        |d_1 . d_2| of ``angle_profile``'s closed form, else by
        ``cosine_to_subspace``.

        More accurate than cos(angle_profile()) when phi_i is close to
        pi/2, where the arcsin route amplifies rounding in the cosine.
        """
        if self._cosines is None and self.dimension == 2:
            dirs = self.direction_stack()
            cos = np.clip(np.abs(np.einsum("ki,ki->k", dirs[:, :, 0], dirs[:, :, 1])), 0.0, 1.0)
            self._cosines = np.column_stack([cos, cos])
        elif self._cosines is None:
            self._cosines = np.clip(self._member_profile(cosine_to_subspace, 1.0), 0.0, 1.0)
        return self._cosines


def _initial_basis(seq, vectors):
    """``vectors`` as an (s, s) float array of s finite, linearly
    independent rows; InvalidInputError otherwise."""
    vectors = np.array(vectors, dtype=float)
    s = seq.dimension
    if vectors.shape != (s, s) or not np.isfinite(vectors).all():
        raise InvalidInputError(
            f"an FSS of a {s}-dimensional system needs {s} finite initial vectors "
            f"of length {s}, got shape {vectors.shape}"
        )
    sv = np.linalg.svd(vectors, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise InvalidInputError("initial vectors are not linearly independent")
    return vectors


def _check_gamma(*grid):
    """InvalidInputError unless ``grid`` holds gammas, each in (0, pi/2]."""
    if not grid or not all(0.0 < gamma <= math.pi / 2 for gamma in grid):
        raise InvalidInputError(
            f"gamma must be in (0, pi/2], got {', '.join(map(str, grid)) or 'none'}")


def gamma_statistics(fss, i, gamma, sigma=1):
    """The gamma angle set of solution i: the arrays (flags, densities), with
    flags[k-1] = phi_i(k*sigma) >= gamma and densities[k-1] = g(k; sigma) =
    N(k)/k in [0, 1], N(k) the count of flags up to k."""
    _check_gamma(gamma)
    return _gamma_set(_member_angles(fss, i, sigma), gamma)


def _member_angles(fss, i, sigma):
    """phi_i(k * sigma) for every k * sigma within the horizon; a bad sigma
    is refused before the angles are computed."""
    ns = _sigma_steps(fss.trajectories[0], sigma)
    return fss.angle_profile()[ns - 1, i]


def _gamma_set(angles, gamma):
    """Flags phi >= gamma along ``angles`` and the densities N(k) / k of
    their running counts N(k)."""
    flags = angles >= gamma
    return flags, np.cumsum(flags) / np.arange(1, len(flags) + 1)


@dataclass(frozen=True)
class BrokenAwayVerdict:
    solution_index: int
    gamma: float | None
    realizing_ks: np.ndarray | None
    rho_hat: float | None
    lambda_hat: float | None
    status: str  # "yes" | "no" | "inconclusive"


def broken_away_scan(fss, i, gamma_grid=GAMMA_GRID, sigma=1):
    """Scan the gamma grid for the best broken-away certificate.

    The density g is evaluated along the realizing indices of the
    exponent estimate; rho_hat is the minimum density over those indices
    (a conservative stand-in for the limit).  The verdict keeps the gamma
    with the largest rho_hat, preferring larger gamma on ties, and is
    "yes" when that rho_hat reaches RHO_THRESHOLD.
    """
    _check_gamma(*gamma_grid)
    lam, ks = limsup_estimate(*exponent_profile(fss.trajectories[i], sigma))
    if len(ks) == 0:
        return BrokenAwayVerdict(i, None, None, None, lam, "inconclusive")
    angles = _member_angles(fss, i, sigma)
    best_gamma, best_rho = None, -1.0
    for gamma in sorted(gamma_grid, reverse=True):
        rho = float(_gamma_set(angles, gamma)[1][ks - 1].min())
        if rho > best_rho + 1e-12:
            best_gamma, best_rho = float(gamma), rho
    status = "yes" if best_rho >= RHO_THRESHOLD else "no"
    return BrokenAwayVerdict(i, best_gamma, ks, best_rho, lam, status)


@dataclass(frozen=True)
class SplitnessReport:
    verdicts: list
    splitted: bool | None  # None when some verdict is inconclusive


def splitness_report(fss, gamma_grid=GAMMA_GRID, sigma=1):
    """Per-solution broken-away verdicts plus the overall splitted flag."""
    verdicts = [broken_away_scan(fss, i, gamma_grid, sigma) for i in range(fss.dimension)]
    statuses = {v.status for v in verdicts}
    if "no" in statuses:
        splitted = False
    elif "inconclusive" in statuses:
        splitted = None
    else:
        splitted = True
    return SplitnessReport(verdicts, splitted)


def apply_lyapunov_transformation(seq, fss, transform):
    """Transformed system B(n) = L(n+1) A(n) L(n)^-1 and FSS y_i = L(n) x_i
    under the coordinate change L(n), a CoefficientSequence.

    L is checked up to the step after the horizon, and each block of B(n)
    checks the L(n) it reads; a singular L(n) raises NotLyapunovSequenceError
    naming n.  Returns (transformed sequence, transformed FSSRecord).
    """
    if transform.dimension != seq.dimension:
        raise InvalidInputError("transformation dimension mismatch")
    ls = transform.matrices(1, fss.horizon + 2)  # L(1), ..., L(H + 1)
    _check_lyapunov(ls, 1)

    def block_fn(start, stop):
        ls = transform.matrices(start, stop + 1)
        _check_lyapunov(ls, start)
        return ls[1:] @ seq.matrices(start, stop) @ np.linalg.inv(ls[:-1])

    new_seq = CoefficientSequence(seq.dimension, block_fn)
    ys = ls[:-1] @ fss.direction_stack()  # (horizon, s, members)
    norms = np.linalg.norm(ys, axis=1)
    new_trajs = [
        TrajectoryLog(ys[:, :, i] / norms[:, i, None], traj.log_norms + np.log(norms[:, i]))
        for i, traj in enumerate(fss.trajectories)
    ]
    return new_seq, FSSRecord(new_seq, new_trajs, fss.initial_vectors @ ls[0].T)


def _check_lyapunov(ls, start):
    """NotLyapunovSequenceError naming the first L(n) of the block L(start), ...
    that is singular to tolerance, if there is one."""
    singular = _singular_values(ls, start)[1]
    if singular is not None:
        raise NotLyapunovSequenceError(
            f"L({singular}) is singular to tolerance; not a Lyapunov transformation",
            index=singular,
        )

"""Angle statistics of fundamental solution systems and the
broken-away / splitted verdicts at finite horizon.

For an FSS {x_1, ..., x_s}, phi_i(n) is the angle between x_i(n) and the
span of the remaining solutions.  A solution is judged broken away when
the density of steps with phi_i >= gamma stays above a threshold along
the realizing indices of its exponent estimate.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NotLyapunovSequenceError
from .linalg import _check_integer, _check_real, _singular_values
from .linalg import angle_to_subspace, cosine_to_subspace
from .spectrum import _sigma_steps, exponent_profile, limsup_estimate
from .system import CoefficientSequence, TrajectoryLog, _unit_columns, propagate

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

    def _member(self, i):
        """``i`` as an int in 0, ..., s - 1, the index of a member; else InvalidInputError."""
        i = _check_integer("i", i, 0)
        if i >= self.dimension:
            raise InvalidInputError(f"i must be a member index below {self.dimension}, got {i!r}")
        return i

    def _member_profile(self, to_others, collapsed_value):
        """to_others(x_i, the others' columns) for every member over all
        steps, one stacked call per member on its own direction rows.  A
        member whose complement basis collapsed at a step gets
        ``collapsed_value`` there, and a profile with such steps warns once,
        with their count and the first."""
        dirs = [traj.directions for traj in self.trajectories]
        values = np.empty((self.horizon, self.dimension))
        for i, d in enumerate(dirs):
            others = dirs[:i] + dirs[i + 1:]  # none at s = 1: an empty basis
            values[:, i] = to_others(
                d, np.stack(others, axis=2) if others else np.empty((*d.shape, 0)))
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
            d1, d2 = (traj.directions for traj in self.trajectories)
            dots = np.einsum("ki,ki->k", d1, d2)
            resid = d1 - dots[:, None] * d2
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
            d1, d2 = (traj.directions for traj in self.trajectories)
            cos = np.clip(np.abs(np.einsum("ki,ki->k", d1, d2)), 0.0, 1.0)
            self._cosines = np.column_stack([cos, cos])
        elif self._cosines is None:
            self._cosines = np.clip(self._member_profile(cosine_to_subspace, 1.0), 0.0, 1.0)
        return self._cosines


def _initial_basis(seq, vectors):
    """``vectors`` as a new (s, s) float array of s linearly independent rows,
    real numbers by the real-number rule; InvalidInputError otherwise."""
    vectors = _check_real("initial vectors", vectors, shape=(seq.dimension, seq.dimension)).copy()
    if _singular_values(vectors[None])[1] is not None:
        raise InvalidInputError("initial vectors are not linearly independent")
    return vectors


def _check_gamma(name, gamma, shape=()):
    """``gamma``, one angle or (shape (-1,)) a grid of them, by the real-number rule at
    (0, pi/2]."""
    return _check_real(name, gamma, 0.0, math.pi / 2, shape)


def gamma_statistics(fss, i, gamma, sigma=1):
    """The gamma angle set of solution i: the arrays (flags, densities), with
    flags[k-1] = phi_i(k*sigma) >= gamma and densities[k-1] = g(k; sigma) =
    N(k)/k in [0, 1], N(k) the count of flags up to k."""
    gamma = _check_gamma("gamma", gamma)
    return _gamma_set(_member_angles(fss, i, sigma), gamma)


def _member_angles(fss, i, sigma):
    """phi_i(k * sigma) for every k * sigma within the horizon; a bad member
    or sigma is refused before the angles are computed."""
    i = fss._member(i)
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
    gamma: float
    realizing_ks: np.ndarray = field(repr=False)
    rho_hat: float
    lambda_hat: float
    status: str  # "yes" | "no"


def broken_away_scan(fss, i, gamma_grid=GAMMA_GRID, sigma=1):
    """Scan the gamma grid for the best broken-away certificate.

    The density g is evaluated along the realizing indices of the
    exponent estimate; rho_hat is the minimum density over those indices
    (a conservative stand-in for the limit).  The verdict keeps the gamma
    with the largest rho_hat, preferring larger gamma on ties, and is
    "yes" when that rho_hat reaches RHO_THRESHOLD, else "no".
    """
    gamma_grid = _check_gamma("gamma_grid", gamma_grid, (-1,))
    i = fss._member(i)
    lam, ks = limsup_estimate(*exponent_profile(fss.trajectories[i], sigma))
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
    splitted: bool  # every solution is broken away


def splitness_report(fss, gamma_grid=GAMMA_GRID, sigma=1):
    """Per-solution broken-away verdicts plus the overall splitted flag."""
    verdicts = [broken_away_scan(fss, i, gamma_grid, sigma) for i in range(fss.dimension)]
    return SplitnessReport(verdicts, all(v.status == "yes" for v in verdicts))


def apply_lyapunov_transformation(fss, transform):
    """The FSS y_i = L(n) x_i of B(n) = L(n+1) A(n) L(n)^-1, A(n) the system
    of ``fss``, under the coordinate change L(n), a CoefficientSequence.

    L is checked up to the step after the horizon, and each block of B(n)
    checks the L(n) it reads; a singular L(n) raises NotLyapunovSequenceError
    naming n.  The returned FSSRecord's ``seq`` is B(n).
    """
    if transform.dimension != fss.dimension:
        raise InvalidInputError("transformation dimension mismatch")
    ls = transform.matrices(1, fss.horizon + 2)  # L(1), ..., L(H + 1)
    _check_lyapunov(ls, 1)

    def block_fn(start, stop):
        ls = transform.matrices(start, stop + 1)
        _check_lyapunov(ls, start)
        return ls[1:] @ fss.seq.matrices(start, stop) @ np.linalg.inv(ls[:-1])

    new_seq = CoefficientSequence(fss.dimension, block_fn)
    new_trajs = []
    for traj in fss.trajectories:  # L(n) x_i(n) of step n as column n - 1
        dirs, logs = _unit_columns((ls[:-1] @ traj.directions[:, :, None])[:, :, 0].T)
        new_trajs.append(TrajectoryLog(dirs.T, traj.log_norms + logs))
    return FSSRecord(new_seq, new_trajs, fss.initial_vectors @ ls[0].T)


def _check_lyapunov(ls, start):
    """NotLyapunovSequenceError naming the first L(n) of the block L(start), ...
    that is singular to tolerance, if there is one."""
    singular = _singular_values(ls, start)[1]
    if singular is not None:
        raise NotLyapunovSequenceError(
            f"L({singular}) is singular to tolerance; not a Lyapunov transformation",
            index=singular,
        )

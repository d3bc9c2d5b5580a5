"""Finite-horizon Lyapunov exponent and spectrum estimation.

All limsup constructs are replaced by tail-max estimators: the maximum of
the growth profile f(k) = ln||x(k*sigma)|| / (k*sigma) over the final
TAIL_FRACTION of the horizon, the one window of every estimator.  Indices
attaining that maximum (to tolerance) form the finite-horizon stand-in for
a realizing sequence.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, PropagationError, UnderflowError
from .linalg import _check_integer, _max_abs
from .system import _LN2, _NORMAL_MIN, _chunk_states, _chunks, _propagation_blocks
from .system import propagate  # noqa: F401  (benchmarks/tracer.py rebinds spectrum.propagate)

VOLUME_MAX_DIMENSION = 4  # largest s whose spectrum comes from compound volumes
TAIL_FRACTION = 0.5
REALIZE_TOL = 1e-2
GROUP_TOL = 1e-2
COMBINATION_GAP_TOL = 0.1


@dataclass(frozen=True)
class SpectrumEstimate:
    exponents: np.ndarray  # nondecreasing, length s
    multiplicities: list  # (value, count) pairs, values increasing
    realizing_indices: list = field(repr=False)  # per exponent slot, checkpoint n's


def exponent_profile(traj, sigma=1):
    """Growth profile f(k; sigma) = ln||x(k*sigma)|| / (k*sigma) of a
    TrajectoryLog: the arrays (ks, values) with ks = 1, 2, ..."""
    ns = _sigma_steps(traj, sigma)
    return np.arange(1, len(ns) + 1), traj.log_norms[ns - 1] / ns


def _sigma_steps(traj, sigma):
    """The steps k*sigma to the horizon of ``traj``; sigma is an integer >= 1."""
    sigma = _check_integer("sigma", sigma, 1)
    kmax = traj.horizon // sigma
    if kmax < 1:
        raise InvalidInputError("trajectory does not cover one sigma step")
    return sigma * np.arange(1, kmax + 1)


def limsup_estimate(ks, values):
    """Tail-max estimate of each column of ``values`` (1-d, or (K, m) with
    rows at the increasing indices ``ks``) over the tail window of the ks,
    and the ks of the window within REALIZE_TOL of it.

    Returns (lambda_hat, realizing ks) for 1-d values and, for (K, m)
    values, the (m,) tail-maxes and a list of m realizing arrays.
    """
    if len(ks) == 0:
        raise InvalidInputError("empty profile")
    start = np.searchsorted(ks, _tail_start(ks[-1]))
    if start == len(ks):  # ks that end below 1
        raise InvalidInputError("empty tail window")
    window_ks, window = ks[start:], values[start:]
    top = window.max(axis=0)
    realizing = window >= top - REALIZE_TOL
    if np.ndim(values) == 1:
        return float(top), window_ks[realizing]
    return top, [window_ks[column] for column in realizing.T]


def _tail_start(last):
    """First index of the tail window, the final TAIL_FRACTION of a profile
    that ends at ``last``: the one window of every tail-max estimate."""
    return max(1, int(math.ceil(last * (1.0 - TAIL_FRACTION))))


def spectrum_estimate(seq, horizon, checkpoint_every=None):
    """Lyapunov spectrum estimate by the discrete QR method.

    With X(n) = A(n-1) ... A(1) = Q(n) R(n), column j of the estimate at
    checkpoint n is ln r_jj(n) / n.  Each exponent is the tail-max over
    checkpoints; equal exponents are grouped at resolution GROUP_TOL.

    For s <= VOLUME_MAX_DIMENSION the column logs come from volumes:
    r_11 ... r_jj is the j-volume of the first j columns of X(n), the
    log-norm of e_1 carried under the j-th compound system (all j in one
    pass over A(n)), so ln r_jj is the difference of consecutive volume logs.  Larger s,
    and a system with some A(n) conditioned past about 1e308 (where a
    minor would underflow), propagates an orthonormal basis instead,
    re-orthonormalizing every step (the compounds grow as C(s, s/2), so
    volumes lose from s = 5 on).
    """
    horizon = _check_integer("horizon", horizon, 2)
    if checkpoint_every is None:
        checkpoint_every = max(1, horizon // 1000)
    checkpoint_every = _check_integer("checkpoint_every", checkpoint_every, 1)

    cp_ns, cp_logs = _checkpoint_logs(seq, horizon, checkpoint_every)
    per_column, realizing = limsup_estimate(cp_ns, cp_logs / cp_ns[:, None])
    order = np.argsort(per_column, kind="stable")
    exponents = per_column[order]
    realizing = [realizing[j] for j in order]

    groups = []
    for lam in exponents:
        if groups and lam - groups[-1][0] <= GROUP_TOL:
            value, count = groups[-1]
            groups[-1] = (value, count + 1)
        else:
            groups.append((float(lam), 1))

    return SpectrumEstimate(exponents, groups, realizing)


def _checkpoints(steps, horizon, checkpoint_every):
    """Mask of the checkpoint ``steps``: step 1, every ``checkpoint_every``-th
    step after it, and the horizon."""
    return ((steps - 1) % checkpoint_every == 0) | (steps == horizon)


def _checkpoint_logs(seq, horizon, checkpoint_every):
    """Checkpoint steps n = 1 + k * checkpoint_every (and the horizon) and
    the column logs ln r_jj(n) there, (num checkpoints, s)."""
    if seq.dimension <= VOLUME_MAX_DIMENSION:
        try:
            return _volume_logs(seq, horizon, checkpoint_every)
        except UnderflowError:
            pass  # some A(n) is conditioned past the double range
    return _qr_logs(seq, horizon, checkpoint_every)


def _volume_logs(seq, horizon, checkpoint_every):
    """Checkpoint steps and column logs from the j-volumes of X(n), in one
    pass that splits each chunk of A(n) exactly into 2**e(n) U(n) and carries
    e_1 through every compound C_j(U(n)), j = 1, ..., s (by ``_chunk_states``,
    exactly in log form where C_j(U(n)) is diagonal, as the 1 x 1 C_s(U(n))
    = det U(n) always is).  The minors of U(n) stay normal; since C_j(U(n))
    = 2**(-j e(n)) C_j(A(n)), every column log is short by
    ln 2 * (e(1) + ... + e(n-1)), a sum kept exactly in integers.
    """
    s = seq.dimension
    states = [(np.eye(math.comb(s, j))[:, :1], 0.0, None) for j in range(1, s + 1)]
    e_sum = 0
    cp_ns, cp_logs = [], []

    def evaluate(start, stop):
        unit, exponents = _unit_part(seq.matrices(start, stop), start)
        return exponents, [_compound(unit, j, start) for j in range(1, s + 1)]

    for first, (chunk_exps, compounds) in _chunks(evaluate, 1, horizon):
        passes = [_chunk_states(c, first, state) for c, state in zip(compounds, states)]
        steps = np.arange(first + 1, first + len(chunk_exps) + 1)  # x(n+1) follows A(n)
        reached = [first] * s  # the last step each pass has carried e_1 to
        logs = [[] for _ in passes]
        while min(reached) < steps[-1]:
            j = reached.index(min(reached))  # furthest behind, so collapses raise in step order
            block_steps, _, block_logs, states[j] = next(passes[j])
            reached[j] = block_steps[-1]
            logs[j].append(block_logs[:, 0])
        kept = _checkpoints(steps, horizon, checkpoint_every)
        e_sums = e_sum + np.cumsum(chunk_exps)
        e_sum = e_sums[-1]
        volumes = np.column_stack([np.concatenate(pass_logs)[kept] for pass_logs in logs])
        cp_ns.append(steps[kept])
        cp_logs.append(np.diff(volumes, axis=1, prepend=0.0) + _LN2 * e_sums[kept, None])
    return np.concatenate(cp_ns), np.concatenate(cp_logs)


def _unit_part(mats, start):
    """Split a block A(start), ... exactly into A(n) = 2**e(n) U(n), with
    max |U(n)| in [1, 2) (a zero matrix keeps e(n) = 0).  Returns U and the
    integers e(n).  A nonzero entry of A(n) that falls below the normal range
    in U(n), or to zero (A(n) conditioned past about 1e308), raises
    UnderflowError.
    """
    top = _max_abs(mats.reshape(len(mats), -1))
    exponents = np.where(top > 0.0, np.frexp(top)[1] - 1, 0)
    unit = np.ldexp(mats, -exponents[:, None, None])
    _raise_on_underflow(mats != 0.0, np.abs(unit) < _NORMAL_MIN, start, "an entry of")
    return unit, exponents


def _compound(mats, j, start):
    """C_j(A(n)) for a block A(start), ...: the j x j minors of A(n), rows
    and columns indexed by the j-subsets of {1, ..., s} in lexicographic order.

    By Cauchy-Binet, C_j(A(n) A(m)) = C_j(A(n)) C_j(A(m)), so e_1 carried
    under C_j has the j-volume of the first j columns of A(n-1) ... A(1).
    j = 1 is the block itself.  A nonzero minor below the normal range raises
    UnderflowError; a minor of a ``_unit_part`` block cannot overflow, and
    underflows only where A(n) is conditioned past about 1e308.
    """
    if j == 1:
        return mats
    subsets = np.array(list(itertools.combinations(range(mats.shape[1]), j)))
    sign, logdet = np.empty((2, len(mats), len(subsets), len(subsets)))
    for r, rows in enumerate(subsets):  # one row subset at a time: a (k, C, j, j) copy
        sign[:, r], logdet[:, r] = np.linalg.slogdet(mats[:, rows[:, None], subsets[:, None, :]])
    _raise_on_underflow(sign != 0.0, logdet < math.log(_NORMAL_MIN), start, "a minor of")
    return sign * np.exp(logdet)


def _raise_on_underflow(nonzero, tiny, start, what):
    """UnderflowError naming the first step whose block entries are flagged
    both nonzero and below the normal range."""
    lost = (nonzero & tiny).reshape(len(nonzero), -1).any(axis=1)
    if lost.any():
        n = start + int(np.argmax(lost))
        raise UnderflowError(f"{what} A(n) underflows the double range at n={n}")


def _qr_logs(seq, horizon, checkpoint_every):
    """Checkpoint steps and column logs by per-step QR of a propagated
    orthonormal basis."""
    s = seq.dimension
    basis = np.eye(s)
    logs = np.zeros(s)
    cp_ns, cp_logs = [], []
    for start, block in _chunks(seq.matrices, 1, horizon):
        for n, a in enumerate(block, start):
            basis = a @ basis
            q, r = np.linalg.qr(basis)
            diag = np.diag(r).copy()
            sign = np.where(diag >= 0.0, 1.0, -1.0)
            q = q * sign
            diag = np.abs(diag)
            if np.any(diag == 0.0) or not np.all(np.isfinite(diag)):
                raise PropagationError(f"basis collapsed at n={n + 1}")
            logs += np.log(diag)
            basis = q
            if _checkpoints(n + 1, horizon, checkpoint_every):
                cp_ns.append(n + 1)
                cp_logs.append(logs.copy())
    return np.asarray(cp_ns), np.asarray(cp_logs)


# --- incompressibility / normality ------------------------------------


@dataclass(frozen=True)
class IncompressibilityVerdict:
    status: str  # "NORMAL-UP-TO-HORIZON" or "NOT-NORMAL"
    witness: np.ndarray | None
    witness_exponent: float | None
    support_exponent: float | None
    member_exponents: np.ndarray

    @property
    def is_normal(self):
        return self.status == "NORMAL-UP-TO-HORIZON"


def _sign_patterns(s):
    """All nonzero coefficient patterns over {-1, 0, 1}^s with the first
    nonzero entry positive (sign duplicates removed)."""
    for raw in itertools.product((0, 1, -1), repeat=s):
        if any(raw) and next(v for v in raw if v) > 0:
            yield np.array(raw, dtype=float)


def incompressibility_test(fss, trials=64, seed=0):
    """Test an FSS for incompressibility (equivalently, normality).

    Each candidate coefficient vector c defines a combined solution, which
    is propagated directly from its combined initial vector (avoiding
    cancellation in stored logs) to the FSS horizon.  A violation is a
    combination whose estimated exponent falls more than
    COMBINATION_GAP_TOL below the largest exponent among its supported
    members.  For dimension <= 4 all deterministic sign patterns are
    checked before random unit-sphere draws.  ``trials`` and ``seed`` are
    integers >= 0.

    All candidates are propagated in one pass, which keeps only a running
    tail-max per candidate; the witness is the first violating candidate
    in that order.  A tail-max only grows, so a candidate is dropped from
    the pass at the end of the block (of ``_propagation_blocks``) where it
    reaches its bound, and the pass stops, NORMAL, when none is left.  A
    candidate whose propagation collapses raises unless it was dropped
    before, even when an earlier candidate is a witness.
    """
    _check_integer("trials", trials, 0)
    _check_integer("seed", seed, 0)
    trajectories = fss.trajectories
    s = len(trajectories)
    horizon = fss.horizon

    member_exps = np.array([limsup_estimate(*exponent_profile(traj))[0] for traj in trajectories])

    candidates = list(_sign_patterns(s)) if s <= 4 else []
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        c = rng.normal(size=s)
        norm = np.linalg.norm(c)
        if norm == 0.0:
            continue
        candidates.append(c / norm)

    initials = fss.initial_vectors.T  # exact: exp(log-norm) * direction is an ulp off
    live = [c for c in candidates if (initials @ c).any()]  # a zero combination is skipped
    support = np.array([member_exps[np.abs(c) > 0.0].max() for c in live])
    tail_max = np.full(len(live), -np.inf)
    carried = np.arange(len(live))  # the candidates still below their bounds
    if live:
        window_start = _tail_start(horizon)
        cols = np.column_stack([initials @ c for c in live])
        blocks = _propagation_blocks(fss.seq, cols, horizon, window_start)
        keep = None
        while carried.size:
            try:
                steps, _, log_norms = blocks.send(keep)
            except StopIteration:
                break
            window = steps >= window_start
            if window.any():
                values = log_norms[window] / steps[window, None]
                tail_max[carried] = np.maximum(tail_max[carried], values.max(axis=0))
            keep = tail_max[carried] < support[carried] - COMBINATION_GAP_TOL
            carried = carried[keep]
    if carried.size:  # the first candidate that stayed below its bound to the horizon
        j = carried[0]
        return IncompressibilityVerdict("NOT-NORMAL", live[j].copy(), float(tail_max[j]),
                                        float(support[j]), member_exps)
    return IncompressibilityVerdict("NORMAL-UP-TO-HORIZON", None, None, None, member_exps)

import itertools
import math

import numpy as np
import pytest

from ltvlab import (
    CoefficientSequence,
    InvalidInputError,
    PropagationError,
    exponent_profile,
    incompressibility_test,
    limsup_estimate,
    propagate,
    spectrum_estimate,
)
from ltvlab.errors import UnderflowError
from ltvlab.presets import (
    SIN_LOG_SPEC,
    geometric_diag,
    sin_log_system,
    sin_log_witness_fss,
    standard_basis_fss,
)
from ltvlab.spectrum import (
    REALIZE_TOL,
    TAIL_FRACTION,
    VOLUME_MAX_DIMENSION,
    _qr_logs,
    _tail_start,
    _volume_logs,
)
from ltvlab.splitness import FSSRecord
from ltvlab.system import BLOCK_STEPS, CHUNK_STEPS, _propagation_blocks, parse_generator_spec


def test_exponent_profile_constant_growth():
    seq = geometric_diag([1.0, 3.0])
    traj = propagate(seq, [0.0, 1.0], 1000)
    ks, values = exponent_profile(traj)
    # f(k) = (k-1) ln 3 / k -> ln 3
    assert values[-1] == pytest.approx(999 * math.log(3) / 1000)
    lam, realizing = limsup_estimate(ks, values)
    assert lam == pytest.approx(math.log(3), abs=2e-3)
    assert len(realizing) > 0
    assert realizing[-1] == 1000


def test_exponent_profile_sigma_subsampling():
    seq = geometric_diag([2.0, 1.0])
    traj = propagate(seq, [1.0, 0.0], 100)
    _, values1 = exponent_profile(traj, 1)
    ks5, values5 = exponent_profile(traj, 5)
    assert len(ks5) == 20
    assert values5[3] == pytest.approx(values1[19])


def test_limsup_estimate_tail_rules():
    seq = geometric_diag([2.0])
    traj = propagate(seq, [1.0], 200)
    profile = exponent_profile(traj)
    lam_half, _ = limsup_estimate(*profile)
    assert lam_half == pytest.approx(math.log(2), abs=1e-2)


def test_limsup_estimate_refuses_an_empty_profile_or_a_bad_fraction():
    ks, values = exponent_profile(propagate(geometric_diag([2.0]), [1.0], 50))
    with pytest.raises(InvalidInputError, match="empty profile"):
        limsup_estimate(ks[:0], values[:0])
    with pytest.raises(InvalidInputError, match="empty tail window"):
        limsup_estimate(ks - ks[-1], values)


def test_limsup_estimate_takes_each_column_of_a_stack():
    seq = geometric_diag([1.0, 2.0])
    trajectories = [propagate(seq, x0, 300) for x0 in ([1.0, 0.0], [1.0, 1.0])]
    ks = exponent_profile(trajectories[0])[0]
    stack = np.column_stack([exponent_profile(traj)[1] for traj in trajectories])
    lams, realizing = limsup_estimate(ks, stack)
    for j, traj in enumerate(trajectories):
        lam, ks_j = limsup_estimate(*exponent_profile(traj))
        assert lams[j] == lam and np.array_equal(realizing[j], ks_j)


def test_spectrum_estimate_diag_1_2():
    est = spectrum_estimate(geometric_diag([1.0, 2.0]), 10_000)
    assert np.abs(est.exponents - [0.0, math.log(2)]).max() < 1e-3
    assert [count for _, count in est.multiplicities] == [1, 1]


def test_spectrum_estimate_refuses_a_non_integer_checkpoint_step():
    # (n - 1) % 2.5 == 0 would checkpoint at n = 1, 6, 11, 16
    for every in (2.5, 2.0, 0, math.nan):
        with pytest.raises(InvalidInputError, match="checkpoint_every"):
            spectrum_estimate(geometric_diag([1.0, 2.0]), 20, checkpoint_every=every)


def test_spectrum_estimate_multiplicity_grouping():
    est = spectrum_estimate(geometric_diag([2.0, 2.0, 0.5]), 5000)
    assert [count for _, count in est.multiplicities] == [1, 2]
    assert est.multiplicities[1][0] == pytest.approx(math.log(2), abs=1e-3)


def test_spectrum_estimate_rotation_invariant():
    # conjugating a constant diagonal by a rotation must not change the
    # spectrum estimate beyond tolerance
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    a = rot @ np.diag([1.0, 2.0]) @ rot.T
    est = spectrum_estimate(CoefficientSequence.constant(a), 5000)
    assert np.abs(est.exponents - [0.0, math.log(2)]).max() < 2e-3


def test_spectrum_estimate_no_overflow_large_growth():
    est = spectrum_estimate(geometric_diag([math.e**2, math.e**-2]), 20_000)
    assert np.abs(est.exponents - [-2.0, 2.0]).max() < 1e-3


def test_incompressibility_normal_fss():
    seq = geometric_diag([1.0, 2.0])
    fss = standard_basis_fss(seq, 2000)
    verdict = incompressibility_test(fss, seed=0)
    assert verdict.is_normal
    assert verdict.witness is None
    assert np.abs(verdict.member_exponents - [0.0, math.log(2)]).max() < 5e-3


def test_incompressibility_detects_cancellation():
    # x1 = (1, 1)-solution and x2 = (0, 1)-solution of diag(1, 2) both grow
    # like 2^n, but x1 - x2 stays bounded
    seq = geometric_diag([1.0, 2.0])
    fss = FSSRecord.from_initial_vectors(seq, [[1.0, 1.0], [0.0, 1.0]], 2000)
    verdict = incompressibility_test(fss, seed=0)
    assert not verdict.is_normal
    assert verdict.status == "NOT-NORMAL"
    w = verdict.witness / np.abs(verdict.witness).max()
    assert np.allclose(np.abs(w), [1.0, 1.0])
    assert verdict.witness_exponent < verdict.support_exponent - 0.1


def test_incompressibility_sin_log_witness():
    fss = sin_log_witness_fss(10_000)
    verdict = incompressibility_test(fss, seed=0)
    assert verdict.status == "NOT-NORMAL"
    assert np.allclose(verdict.witness, [1.0, -1.0])
    assert verdict.witness_exponent <= 1.1


@pytest.mark.parametrize("system, horizon, scale", [
    ("diag12", 2000, 3.0), ("diag12", 2000, 0.1), ("diag12", 2000, 1e-100),
    ("diag12", 2000, 1e-200), ("diag12", 2000, 1e200),
    ("sin-log", 10_000, 3.0), ("sin-log", 10_000, 10.0)])
def test_a_scaled_cancelling_fss_is_not_normal(system, horizon, scale):
    # the pass starts from the rows as given: (3, 3) - (0, 3) is 3 e_1 exactly, while
    # x_1(1) rebuilt as exp(log-norm) * direction is an ulp off and keeps a part of the
    # fast member that takes over; at 1e-200 the norm of a combination underflows to 0
    seq = geometric_diag([1.0, 2.0]) if system == "diag12" else sin_log_system()
    fss = FSSRecord.from_initial_vectors(seq, scale * np.array([[1.0, 1.0], [0.0, 1.0]]), horizon)
    verdict = incompressibility_test(fss, seed=0)
    assert verdict.status == "NOT-NORMAL"
    assert np.array_equal(verdict.witness, [1.0, -1.0])


def test_the_sin_log_standard_basis_is_normal_at_3e4():
    # a diagonal system's standard basis is normal at every horizon, since
    # |c_1 x_1 e_1 + c_2 x_2 e_2| >= max |c_i x_i|; the (1, 1) combination
    # needs its x_1 part, which falls to about e^-12,000 of x_2 near
    # n = 5,650 and dominates again from n = 12,391
    verdict = incompressibility_test(standard_basis_fss(sin_log_system(), 30_000))
    assert verdict.status == "NORMAL-UP-TO-HORIZON"
    assert verdict.witness is None


def test_incompressibility_deterministic_given_seed():
    fss = sin_log_witness_fss(3000)
    v1 = incompressibility_test(fss, seed=123)
    v2 = incompressibility_test(fss, seed=123)
    assert v1.status == v2.status
    assert np.array_equal(v1.witness, v2.witness)


# --- incompressibility_test against a per-candidate reference ---------------


def per_candidate_incompressibility(fss, trials=64, seed=0, gap_tol=0.1):
    """One ``propagate`` per candidate, stopping at the first violation:
    (status, witness, witness exponent, support exponent)."""
    s = fss.dimension
    horizon = fss.horizon
    member_exps = np.array(
        [limsup_estimate(*exponent_profile(traj))[0] for traj in fss.trajectories]
    )
    candidates = [np.array(c, dtype=float) for c in itertools.product((0, 1, -1), repeat=s)
                  if any(c) and next(v for v in c if v) > 0] if s <= 4 else []
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        c = rng.normal(size=s)
        candidates.append(c / np.linalg.norm(c))
    initials = fss.initial_vectors.T
    for c in candidates:
        lam, _ = limsup_estimate(*exponent_profile(propagate(fss.seq, initials @ c, horizon)))
        support_max = member_exps[np.abs(c) > 0.0].max()
        if lam < support_max - gap_tol:
            return "NOT-NORMAL", c, lam, support_max
    return "NORMAL-UP-TO-HORIZON", None, None, None


def triangular_3d(horizon, seed=3):
    """Seeded upper-triangular A(n) with diagonal growth rates -0.3, 0.2, 0.7."""
    rng = np.random.default_rng(seed)
    mats = np.zeros((horizon, 3, 3))
    growth = [-0.3, 0.2, 0.7] + 0.2 * rng.uniform(-1, 1, (horizon, 3))
    mats[:, [0, 1, 2], [0, 1, 2]] = np.exp(growth)
    mats[:, [0, 0, 1], [1, 2, 2]] = rng.uniform(-0.5, 0.5, (horizon, 3))
    return CoefficientSequence.from_matrices(mats)


INCOMPRESSIBILITY_CASES = {
    "sin-log-1e4": (lambda: sin_log_witness_fss(10_000), 0),
    "sin-log-1e4-seed-123": (lambda: sin_log_witness_fss(10_000), 123),
    "sin-log-3000-seed-123": (lambda: sin_log_witness_fss(3000), 123),
    "diag-1-2-normal": (lambda: standard_basis_fss(geometric_diag([1.0, 2.0]), 2000), 0),
    "diag-1-2-cancellation": (
        lambda: FSSRecord.from_initial_vectors(
            geometric_diag([1.0, 2.0]), [[1.0, 1.0], [0.0, 1.0]], 2000
        ),
        0,
    ),
    "triangular-3d": (lambda: standard_basis_fss(triangular_3d(1000), 1000), 5),
    "triangular-3d-skewed": (
        lambda: FSSRecord.from_initial_vectors(
            triangular_3d(1000), [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]], 1000
        ),
        5,
    ),
    # x_1 - x_4 = e_1 cancels the fast part of x_1 = e_1 + e_4: a sign pattern finds it
    "diag-1-2-3-4-cancellation": (lambda: cancelling_fss(4, 3000), 0),
    # dense A(n), so the scan: every candidate reaches its bound in the window
    "rotated-diag-1-2-normal": (lambda: standard_basis_fss(rotated_diag_1_2(), 2000), 0),
    # upper-triangular, so the scan, and e_1 stays exact: of the members
    # (1, 1) and (0, 1), only the witness (1, -1), which is e_1 with exponent
    # 0, stays below its bound to the horizon, carried alone
    "triangular-2d-cancellation": (
        lambda: FSSRecord.from_initial_vectors(
            CoefficientSequence.constant([[1.0, 1.0], [0.0, 2.0]]), [[1.0, 1.0], [0.0, 1.0]], 2000
        ),
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(INCOMPRESSIBILITY_CASES))
def test_incompressibility_matches_the_per_candidate_reference(name):
    make_fss, seed = INCOMPRESSIBILITY_CASES[name]
    fss = make_fss()
    status, witness, lam, support_max = per_candidate_incompressibility(fss, seed=seed)
    verdict = incompressibility_test(fss, seed=seed)
    assert verdict.status == status
    if witness is None:
        assert verdict.witness is None and verdict.witness_exponent is None
    else:
        assert np.array_equal(verdict.witness, witness)
        assert abs(verdict.witness_exponent - lam) <= 1e-12
        assert verdict.support_exponent == support_max


def cancelling_fss(s, horizon):
    """The FSS e_1 + e_s, e_2, ..., e_s of diag(1, ..., s): x_1 - x_s = e_1 has
    exponent 0 against the members' ln s, a sign pattern (1, 0, ..., 0, -1)."""
    rows = np.eye(s)
    rows[0, -1] = 1.0
    return FSSRecord.from_initial_vectors(geometric_diag(np.arange(1.0, s + 1)), rows, horizon)


@pytest.mark.parametrize("s", [4, pytest.param(5, marks=pytest.mark.xfail(
    strict=True, reason="ROADMAP item 15: at s >= 5 only random draws are tried; none cancels"))])
@pytest.mark.parametrize("trials", [0, 64])
def test_sign_patterns_find_a_cancelling_combination(s, trials):
    verdict = incompressibility_test(cancelling_fss(s, 3000), trials=trials)
    assert verdict.member_exponents == pytest.approx(np.log([s, *range(2, s + 1)]), abs=1e-3)
    assert verdict.status == "NOT-NORMAL"
    assert np.array_equal(verdict.witness, [1.0] + [0.0] * (s - 2) + [-1.0])


def recording(seq):
    """``seq`` with every step it is asked for appended to a list."""
    requested = []

    def block_fn(start, stop):
        requested.extend(range(start, stop))
        return seq.matrices(start, stop)

    return CoefficientSequence(seq.dimension, block_fn), requested


def test_a_normal_pass_stops_when_every_candidate_reaches_its_bound():
    # every candidate of diag(1,2)'s standard basis reaches its bound in the
    # first segment of the window [1e4, 2e4], so A(n) is read to the end of
    # that segment's chunk, n = 12,288, and no further
    horizon = 20_000
    fss = standard_basis_fss(geometric_diag([1.0, 2.0]), horizon)
    seq, requested = recording(fss.seq)
    verdict = incompressibility_test(FSSRecord(seq, fss.trajectories, fss.initial_vectors))
    assert verdict.status == per_candidate_incompressibility(fss)[0] == "NORMAL-UP-TO-HORIZON"
    assert np.array_equal(verdict.member_exponents, incompressibility_test(fss).member_exponents)
    assert requested == list(range(1, max(requested) + 1))
    assert max(requested) == 3 * CHUNK_STEPS < horizon - 1


def chunk_mix():
    """diag(0.5, 3) but for the dense A(n) of the second CHUNK_STEPS chunk:
    a diagonal, a dense and a diagonal chunk, and a short diagonal tail."""
    def block_fn(start, stop):
        ns = np.arange(start, stop)
        mats = np.zeros((len(ns), 2, 2))
        mats[:, 0, 0], mats[:, 1, 1] = 0.5 * np.cos(ns), 3.0 + np.sin(ns)
        dense = (ns > CHUNK_STEPS) & (ns <= 2 * CHUNK_STEPS)
        mats[dense, 0, 1] = 0.25
        return mats

    return CoefficientSequence(2, block_fn)


def concatenated(blocks):
    """The steps, directions and log-norms of ``_propagation_blocks``, all blocks in one."""
    return [np.concatenate(parts) for parts in zip(*blocks)]


@pytest.mark.parametrize("system", ["sin-log", "chunk-mix"])
def test_a_fold_reads_the_bytes_of_a_full_pass_from_its_first_step(system):
    # a diagonal segment that ends before read_from yields its last step
    # alone, the same bytes as there in a full pass; every segment from
    # read_from on is the full pass's
    seq = parse_generator_spec(SIN_LOG_SPEC) if system == "sin-log" else chunk_mix()
    horizon = 3 * CHUNK_STEPS + 1000
    cols = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -2.0]])
    full_steps, full_dirs, full_logs = concatenated(_propagation_blocks(seq, cols, horizon))
    assert np.array_equal(full_steps, np.arange(1, horizon + 1))
    for read_from in (1, _tail_start(horizon), CHUNK_STEPS + 1000,
                      2 * CHUNK_STEPS + 1000):
        want = [np.array([1])]
        for lo in range(1, horizon, BLOCK_STEPS):  # the segment A(lo), ..., A(end - 1)
            end = min(lo + BLOCK_STEPS, horizon)
            diagonal = seq.matrix_at(end - 1)[0, 1] == 0.0
            want.append(np.arange(end, end + 1) if diagonal and end < read_from
                        else np.arange(lo + 1, end + 1))
        steps, dirs, logs = concatenated(_propagation_blocks(seq, cols, horizon, read_from))
        assert np.array_equal(steps, np.concatenate(want))
        assert np.array_equal(dirs, full_dirs[steps - 1])
        assert np.array_equal(logs, full_logs[steps - 1])


def test_a_keep_mask_drops_columns_from_the_next_block_on():
    seq = chunk_mix()
    horizon = 3 * CHUNK_STEPS + 1000
    cols = np.array([[1.0, 0.0, 1.0, 2.0, -1.0], [0.0, 1.0, -2.0, 1.0, 3.0]])
    full_steps, full_dirs, full_logs = concatenated(_propagation_blocks(seq, cols, horizon))
    blocks = _propagation_blocks(seq, cols, horizon)
    # drop after the block that ends the first chunk, one inside the dense
    # chunk and one inside the diagonal chunk after it
    drops = [CHUNK_STEPS + 1, CHUNK_STEPS + 1000, 2 * CHUNK_STEPS + 2000]
    kept, keep, read = np.arange(5), None, []
    while True:
        try:
            steps, dirs, logs = blocks.send(keep)
        except StopIteration:
            break
        read.append(steps)
        assert np.array_equal(dirs, full_dirs[steps - 1][:, :, kept])
        assert np.array_equal(logs, full_logs[steps - 1][:, kept])
        keep = np.ones(len(kept), dtype=bool)
        if drops and steps[-1] >= drops[0]:
            drops.pop(0)
            keep[1] = False
        kept = kept[keep]
    assert np.array_equal(np.concatenate(read), full_steps)
    assert not drops and list(kept) == [0, 4]


def zero_at(step):
    """diag(2, 1) but for a zero first entry at n = ``step``: a column on e_1
    collapses at step + 1."""
    def block_fn(start, stop):
        mats = np.repeat(np.diag([2.0, 1.0])[None], stop - start, axis=0)
        mats[np.arange(start, stop) == step, 0, 0] = 0.0
        return mats

    return CoefficientSequence(2, block_fn)


def test_a_candidate_collapsed_before_the_window_raises_at_its_step():
    # members (1, 1) and (1, -1) keep their e_2 part; the candidate (1, 1)
    # starts on e_1 and collapses at n = 301, inside a segment that ends
    # before the window at 1000 and is carried as its last step alone
    fss = FSSRecord.from_initial_vectors(zero_at(300), [[1.0, 1.0], [1.0, -1.0]], 2000)
    with pytest.raises(PropagationError, match=r"^propagation collapsed at n=301 \(max"):
        incompressibility_test(fss)


def test_a_candidate_dropped_before_its_collapse_does_not_raise():
    # the candidate (1, 1) reaches its bound ln 2 - 0.1 in the window's first
    # segment, so its collapse at n = 1901 is never met; (1, -1) is e_2, the witness
    fss = FSSRecord.from_initial_vectors(zero_at(1900), [[1.0, 1.0], [1.0, -1.0]], 2000)
    with pytest.raises(PropagationError, match="n=1901"):
        per_candidate_incompressibility(fss)
    verdict = incompressibility_test(fss)
    assert verdict.status == "NOT-NORMAL" and list(verdict.witness) == [1.0, -1.0]


# --- spectrum_estimate against a per-step QR reference ---------------------


def per_step_qr_spectrum(seq, horizon, checkpoint_every):
    """Discrete QR one np.linalg.qr per step: checkpoint n's, the values
    ln r_jj(n) / n there, and the tail-max exponents with their realizing
    n's in increasing order."""
    basis, logs = np.eye(seq.dimension), np.zeros(seq.dimension)
    ns, values = [], []
    for n in range(1, horizon):
        q, r = np.linalg.qr(seq.matrix_at(n) @ basis)
        sign = np.where(np.diag(r) >= 0.0, 1.0, -1.0)
        basis = q * sign
        logs += np.log(np.abs(np.diag(r)))
        if n % checkpoint_every == 0 or n + 1 == horizon:
            ns.append(n + 1)
            values.append(logs / (n + 1))
    ns, values = np.array(ns), np.array(values)
    window = ns >= max(2, math.ceil(horizon * (1.0 - TAIL_FRACTION)))
    per_column = values[window].max(axis=0)
    order = np.argsort(per_column, kind="stable")
    realizing = [ns[window][values[window][:, j] >= per_column[j] - REALIZE_TOL] for j in order]
    return ns, values, per_column[order], realizing


def rotated_diag_1_2():
    rotation = np.linalg.qr([[2.0, 1.0], [-1.0, 1.0]])[0]
    return CoefficientSequence.constant(rotation @ np.diag([1.0, 2.0]) @ rotation.T)


def random_dense(s, count=3000):
    rng = np.random.default_rng(s)
    return CoefficientSequence.from_matrices(np.eye(s) + 0.5 * rng.normal(size=(count, s, s)))


REFERENCE_SYSTEMS = {
    **{f"dense-{s}d": (lambda s=s: random_dense(s)) for s in range(1, 6)},
    "rotated-diag-1-2": rotated_diag_1_2,
    "sin-log": lambda: parse_generator_spec(SIN_LOG_SPEC),
}


@pytest.mark.parametrize("checkpoint_every", [1, 7, None])
@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_spectrum_estimate_matches_per_step_qr(name, checkpoint_every):
    seq = REFERENCE_SYSTEMS[name]()
    horizon = 3000  # default checkpoint_every is 3
    every = checkpoint_every or horizon // 1000
    ns, values, exponents, realizing = per_step_qr_spectrum(seq, horizon, every)
    path = _volume_logs if seq.dimension <= VOLUME_MAX_DIMENSION else _qr_logs
    cp_ns, cp_logs = path(seq, horizon, every)
    assert np.array_equal(cp_ns, ns)
    assert np.abs(cp_logs / cp_ns[:, None] - values).max() <= 1e-12
    est = spectrum_estimate(seq, horizon, checkpoint_every=checkpoint_every)
    assert np.abs(est.exponents - exponents).max() <= 1e-12
    assert all(np.array_equal(a, b) for a, b in zip(est.realizing_indices, realizing, strict=True))


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_propagation_blocks_give_the_log_norms_of_propagate(name):
    seq = REFERENCE_SYSTEMS[name]()
    s, horizon = seq.dimension, 3000
    cols = np.column_stack([np.eye(s), np.random.default_rng(s).normal(size=s)])
    blocks = list(_propagation_blocks(seq, cols, horizon))
    steps = np.concatenate([b[0] for b in blocks])
    assert np.array_equal(steps, np.arange(1, horizon + 1))
    logs = np.concatenate([b[2] for b in blocks])
    dirs = np.concatenate([b[1] for b in blocks])
    for j, traj in enumerate(propagate(seq, cols, horizon)):
        assert np.array_equal(logs[:, j], traj.log_norms)
        assert np.array_equal(dirs[:, :, j], traj.directions)


def test_spectrum_estimate_reads_each_coefficient_once():
    # the volume pass takes every compound from one read of a block of A(n)
    requested = []

    def counting_block_fn(start, stop):
        requested.extend(range(start, stop))
        return np.broadcast_to(np.triu(np.ones((3, 3))) + np.eye(3), (stop - start, 3, 3))

    spectrum_estimate(CoefficientSequence(3, counting_block_fn), 1000)
    assert requested == list(range(1, 1000))


@pytest.fixture
def no_qr_loop(monkeypatch):
    """Make the per-step QR loop fail the test if it runs."""

    def per_step_qr(*args):
        raise AssertionError("per-step QR loop ran")

    monkeypatch.setattr("ltvlab.spectrum._qr_logs", per_step_qr)


def test_spectrum_estimate_runs_the_per_step_qr_only_from_five_dimensions(no_qr_loop):
    for s in (1, 2, 3, 4):
        spectrum_estimate(random_dense(s, 200), 200)
    with pytest.raises(AssertionError, match="per-step QR loop ran"):
        spectrum_estimate(random_dense(5, 200), 200)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])  # the volume path and the per-step QR path
def test_spectrum_estimate_names_the_step_after_a_singular_matrix(s, request):
    if s <= VOLUME_MAX_DIMENSION:  # the volume path names the step itself, without a rerun
        request.getfixturevalue("no_qr_loop")
    # A(300) is singular; the kernel of the second misses e_1, so only the
    # s-volume, e_1 carried under C_s(U(n)) = det U(n), sees it (at s = 1 the only pass)
    for diagonal in ([0.0] + [1.0] * (s - 1), [1.0] * (s - 1) + [0.0]):
        mats = np.repeat(np.eye(s)[None], 400, axis=0)
        mats[299] = np.diag(diagonal)
        with pytest.raises(PropagationError, match="n=301"):
            spectrum_estimate(CoefficientSequence.from_matrices(mats), 400)


@pytest.mark.parametrize("values", [[1e160, 1e160], [1e-162, 7e-162], [1e-200, 1.0]])
def test_spectrum_estimate_takes_volumes_past_the_double_range(values, request):
    # det A(n) = 1e320 overflows and 7e-324 is subnormal; minors of the
    # power-of-two-scaled A(n) are normal, so the per-step QR loop never runs
    seq = geometric_diag(values)
    _, _, exponents, realizing = per_step_qr_spectrum(seq, 100, 1)
    request.getfixturevalue("no_qr_loop")
    est = spectrum_estimate(seq, 100, checkpoint_every=1)
    assert est.exponents == pytest.approx(exponents, rel=1e-14)
    assert all(np.array_equal(a, b) for a, b in zip(est.realizing_indices, realizing, strict=True))


@pytest.mark.parametrize("values", [[1e200, 1e-120], [1e-200, 1e-200, 1.0]])
def test_spectrum_estimate_runs_the_qr_loop_where_a_minor_underflows(values):
    # A(n) conditioned past 1e308: an entry or a minor of the scaled A(n)
    # falls below the normal range, and the per-step QR loop takes over
    seq = geometric_diag(values)
    with pytest.raises(UnderflowError):
        _volume_logs(seq, 100, 1)
    _, _, exponents, _ = per_step_qr_spectrum(seq, 100, 1)
    est = spectrum_estimate(seq, 100, checkpoint_every=1)
    assert est.exponents == pytest.approx(exponents, rel=1e-14)

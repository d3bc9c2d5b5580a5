import math
import warnings

import numpy as np
import pytest

from ltvlab import (
    InvalidInputError,
    SingularMatrixError,
    angle_to_subspace,
    cosine_to_subspace,
    oblique_projections,
    spectral_norm,
)
from ltvlab.linalg import SINGULAR_RTOL, _top_eigenvalue_2x2, project_out


def test_spectral_norm_known_values():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm([[1.0, -1.0], [0.0, 0.0]]) == pytest.approx(math.sqrt(2))
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        spectral_norm([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        spectral_norm([[np.nan, 0.0], [0.0, 1.0]])


def test_angle_to_subspace_basics():
    # e3 against the xy-plane
    assert angle_to_subspace([0.0, 0.0, 1.0], np.eye(3)[:, :2]) == pytest.approx(
        math.pi / 2
    )
    # vector inside the subspace
    assert angle_to_subspace([1.0, 1.0, 0.0], np.eye(3)[:, :2]) == pytest.approx(0.0)
    # 45 degrees to a line
    assert angle_to_subspace([1.0, 1.0], [[1.0], [0.0]]) == pytest.approx(math.pi / 4)


def test_angle_to_subspace_rank_deficient():
    with pytest.raises(InvalidInputError):
        angle_to_subspace([1.0, 0.0, 0.0], [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])


def test_angle_to_subspace_accurate_near_zero():
    eps = 1e-9
    phi = angle_to_subspace([1.0, eps], [[1.0], [0.0]])
    assert phi == pytest.approx(eps, rel=1e-6)


def test_cosine_to_subspace_accurate_near_right_angle():
    eps = 1e-9
    c = cosine_to_subspace([eps, 1.0], [[1.0], [0.0]])
    assert c == pytest.approx(eps, rel=1e-6)


def test_angle_and_cosine_consistent():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        k = int(rng.integers(1, dim))
        p = rng.normal(size=dim)
        basis = rng.normal(size=(dim, k))
        phi = angle_to_subspace(p, basis)
        c = cosine_to_subspace(p, basis)
        assert math.cos(phi) == pytest.approx(c, abs=1e-9)


def test_oblique_projections_identity_partition():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = int(rng.integers(2, 6))
        cols = rng.normal(size=(s, s))
        if abs(np.linalg.det(cols)) < 1e-6:
            continue
        ps = oblique_projections(list(cols.T))
        total = sum(ps)
        assert np.abs(total - np.eye(s)).max() < 1e-8
        for i in range(s):
            for j in range(s):
                expected = ps[i] if i == j else np.zeros((s, s))
                assert np.abs(ps[i] @ ps[j] - expected).max() < 1e-7
            # maps its own column to itself
            assert np.abs(ps[i] @ cols.T[i] - cols.T[i]).max() < 1e-7


def test_oblique_projection_norm_is_reciprocal_angle_sine():
    # ||P^i|| = 1 / sin(angle between column i and the span of the others)
    rng = np.random.default_rng(11)
    for _ in range(500):
        s = int(rng.integers(2, 6))
        cols = rng.normal(size=(s, s))
        try:
            ps = oblique_projections(list(cols.T))
        except SingularMatrixError:
            continue
        for i in range(s):
            others = np.delete(cols.T, i, axis=0).T
            phi = angle_to_subspace(cols.T[i], others)
            if phi < 1e-8:
                continue
            assert spectral_norm(ps[i]) == pytest.approx(1.0 / math.sin(phi), rel=1e-9)


def test_oblique_projections_singular_basis():
    with pytest.raises(SingularMatrixError):
        oblique_projections([[1.0, 0.0], [1.0, 1e-15]])


def test_angle_contraction_under_invertible_maps():
    # angle(Xp; XV) >= (2/pi) * angle(p; V) * kappa(X)^(1-s)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 500:
        s = int(rng.integers(2, 6))
        x = rng.normal(size=(s, s))
        kappa = np.linalg.cond(x)
        if kappa >= 1.0 / SINGULAR_RTOL:  # singular to tolerance
            continue
        p = rng.normal(size=s)
        k = int(rng.integers(1, s))
        basis = rng.normal(size=(s, k))
        try:
            before = angle_to_subspace(p, basis)
            after = angle_to_subspace(x @ p, x @ basis)
        except InvalidInputError:
            continue
        bound = (2.0 / math.pi) * before * kappa ** (1 - s)
        assert after >= bound - 1e-12
        checked += 1


def test_stacked_angle_and_cosine_match_scalar_calls():
    rng = np.random.default_rng(5)
    for dim in (3, 4, 5):
        for k in range(1, dim):
            p = rng.normal(size=(40, dim))
            basis = rng.normal(size=(40, dim, k))
            deficient = np.zeros(40, dtype=bool)
            if k > 1:
                deficient[::7] = True
                basis[deficient, :, -1] = 2.0 * basis[deficient, :, 0]
            phis = angle_to_subspace(p, basis)
            cosines = cosine_to_subspace(p, basis)
            assert phis.shape == cosines.shape == (40,)
            assert np.array_equal(np.isnan(phis), deficient)
            assert np.array_equal(np.isnan(cosines), deficient)
            for j in np.flatnonzero(~deficient):
                assert abs(phis[j] - angle_to_subspace(p[j], basis[j])) <= 1e-14
                assert abs(cosines[j] - cosine_to_subspace(p[j], basis[j])) <= 1e-14
            for j in np.flatnonzero(deficient):
                with pytest.raises(InvalidInputError):
                    angle_to_subspace(p[j], basis[j])


def test_one_column_cosine_matches_the_projection_form():
    # at k = 1 the cosine is |Q^T p| / |p| of project_out, scalar and
    # stacked alike, at scales from 2**-400 to 2**400 and with zero columns
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 5):
        p = rng.normal(size=(600, dim)) * 2.0 ** rng.integers(-400, 400, size=(600, 1))
        basis = rng.normal(size=(600, dim, 1)) * 2.0 ** rng.integers(-400, 400, size=(600, 1, 1))
        basis[::50] = 0.0
        coef, _, full_rank = project_out(p, basis)
        expected = np.clip(np.abs(coef[:, 0]) / np.linalg.norm(p, axis=-1), 0.0, 1.0)
        cosines = cosine_to_subspace(p, basis)
        assert np.array_equal(np.isnan(cosines), ~full_rank)
        assert not full_rank[::50].any() and full_rank.sum() > 250
        assert np.abs(cosines - expected)[full_rank].max() <= 1e-15
        for j in range(0, 600, 37):
            if full_rank[j]:
                assert cosine_to_subspace(p[j], basis[j]) == cosines[j]


def test_stacked_angle_keeps_accuracy_at_both_ends():
    eps = 1e-9
    p = np.array([[1.0, 0.0, eps], [eps, 0.0, 1.0]])
    basis = np.repeat(np.eye(3)[None, :, :2], 2, axis=0)
    phis = angle_to_subspace(p, basis)
    cosines = cosine_to_subspace(p, basis)
    assert phis[0] == pytest.approx(eps, rel=1e-6)
    assert cosines[1] == pytest.approx(eps, rel=1e-6)


def test_stacked_angle_rejects_mismatched_or_bad_input():
    with pytest.raises(InvalidInputError):
        angle_to_subspace(np.ones((4, 3)), np.ones((5, 3, 2)))
    with pytest.raises(InvalidInputError):
        angle_to_subspace(np.zeros((2, 3)), np.ones((2, 3, 1)))
    with pytest.raises(InvalidInputError):
        cosine_to_subspace(np.ones((2, 3)), np.full((2, 3, 1), np.inf))


def test_spectral_norm_of_a_stack():
    rng = np.random.default_rng(9)
    stack = rng.normal(size=(4, 3, 2, 3))
    norms = spectral_norm(stack)
    assert norms.shape == (4, 3)
    for idx in np.ndindex(4, 3):
        assert norms[idx] == spectral_norm(stack[idx])
    with pytest.raises(InvalidInputError):
        spectral_norm(np.full((2, 2, 2), np.nan))


def test_spectral_norm_of_a_matrix_with_no_rows_or_columns_is_zero():
    assert spectral_norm(np.zeros((3, 0))) == 0.0
    assert spectral_norm(np.zeros((0, 3))) == 0.0
    assert np.array_equal(spectral_norm(np.zeros((2, 3, 0))), np.zeros(2))
    assert np.array_equal(spectral_norm(np.zeros((4, 0, 0, 2))), np.zeros((4, 0)))
    assert spectral_norm(np.zeros((0, 2, 2))).shape == (0,)


def _first_form_spectral_norm(m):
    """spectral_norm with its maxima and Gram product in their first form:
    the reference for its bits."""
    stack = m[None] if m.ndim == 2 else m
    _, exps = np.frexp(np.abs(stack).max(axis=(-2, -1), initial=0.0))
    unit = np.ldexp(stack, -exps[..., None, None])
    if unit.shape[-2] < unit.shape[-1]:
        unit = np.swapaxes(unit, -1, -2)
    gram = np.swapaxes(unit, -1, -2) @ unit
    top = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    norms = np.ldexp(top, exps)
    return float(norms[0]) if m.ndim == 2 else norms


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 3), (3, 2), (1, 1)])
def test_spectral_norm_keeps_the_bits_of_its_first_form(shape):
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    stack = rng.normal(size=(2000,) + shape) * 2.0 ** rng.integers(-300, 301, size=(2000, 1, 1))
    stack[::7] = 0.0
    stack[3::11] = -0.0
    stack[5::13, 0] = -0.0
    norms = spectral_norm(stack)
    assert np.array_equal(norms, _first_form_spectral_norm(stack))
    for m in stack[:40]:
        assert spectral_norm(m) == _first_form_spectral_norm(m)
    four_d = stack[:60].reshape((3, 20) + shape)
    assert np.array_equal(spectral_norm(four_d), _first_form_spectral_norm(four_d))


def _eigvalsh_top(gram):
    return np.linalg.eigvalsh(gram)[..., -1]


def _gram_stack(a, b, c):
    """(k, 2, 2) symmetric matrices [[a, b], [b, c]]."""
    a, b, c = np.broadcast_arrays(a, b, c)
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


def test_a_2x2_spectral_norm_gives_the_bits_of_eigvalsh():
    """The 2 x 2 Gram matrices take LAPACK's own steps, with no warning.

    This pins reference LAPACK (dsyevd, DSTERF, DLAE2), which numpy's
    OpenBLAS wheels ship; a numpy built on another LAPACK may round the
    top eigenvalue otherwise."""
    rng = np.random.default_rng(22)
    eps = 2.0**-53
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # random stacks of every shape whose Gram matrix is 2 x 2, and their
        # entries scaled by 2**-300 and 2**300
        for shape in [(2, 2), (2, 3), (3, 2), (2, 7)]:
            stack = rng.normal(size=(20_000,) + shape)
            stack[::9, :, 1] = stack[::9, :, 0] * 3.0  # rank one
            stack[1::9] = 0.0
            stack[2::9, :, 0] = 0.0
            for scale in (1.0, 2.0**-300, 2.0**300):
                assert np.array_equal(spectral_norm(stack * scale),
                                      _first_form_spectral_norm(stack * scale))
            for m in stack[:30]:  # a single matrix against its stack entry
                assert spectral_norm(m) == spectral_norm(m[None])[0] == _first_form_spectral_norm(m)
        # Gram matrices as spectral_norm forms them: a zero off-diagonal,
        # a = c, and off-diagonals within a few ulps of each DSTERF split
        # threshold, |b| <= sqrt|a| sqrt|c| eps and b**2 <= eps**2 |a c|
        a = rng.uniform(0.25, 2.0, size=500)
        c = np.concatenate([rng.uniform(0.25, 2.0, size=250), a[250:]])
        ulps = 1.0 + 2.0**-52 * np.arange(-6, 7)[:, None]
        for b in (0.0 * a, np.sqrt(a) * np.sqrt(c) * eps * ulps, np.sqrt(eps * eps * a * c) * ulps,
                  rng.uniform(-1.0, 1.0, size=500) * np.sqrt(a * c), np.sqrt(a * c)):
            gram = _gram_stack(a, b, c).reshape(-1, 2, 2)
            assert np.array_equal(_top_eigenvalue_2x2(gram), _eigvalsh_top(gram))
        gram = _gram_stack(np.zeros(3), np.zeros(3), np.zeros(3))
        assert np.array_equal(_top_eigenvalue_2x2(gram), np.zeros(3))
        assert np.array_equal(spectral_norm(np.zeros((4, 2, 2))), np.zeros(4))


def _qr_project_out(p, basis):
    """project_out by one batched Householder QR: the reference form."""
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    scale = np.maximum(diag.max(axis=-1, initial=0.0), 1.0)
    full_rank = diag.min(axis=-1, initial=np.inf) > SINGULAR_RTOL * scale
    coef = (np.swapaxes(q, -1, -2) @ p[..., None])[..., 0]
    return coef, p - (q @ coef[..., None])[..., 0], full_rank


def _assert_matches_qr(p, basis, tol):
    coef, w0, full_rank = project_out(p, basis)
    ref_coef, ref_w0, ref_full_rank = _qr_project_out(p, basis)
    assert coef.shape == ref_coef.shape and w0.shape == ref_w0.shape
    assert np.array_equal(full_rank, ref_full_rank)
    assert np.abs(w0 - ref_w0).max(initial=0.0) <= tol
    coef_norms = np.linalg.norm(coef, axis=-1) - np.linalg.norm(ref_coef, axis=-1)
    assert np.abs(coef_norms).max(initial=0.0) <= tol


@pytest.mark.parametrize("count", [1, 256, 10_000])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_project_out_matches_the_qr_form(s, count):
    rng = np.random.default_rng(100 * s + count)
    p = rng.normal(size=(count, s))
    basis = rng.normal(size=(count, s, s - 1))
    _assert_matches_qr(p, basis, 1e-13)
    _assert_matches_qr(p[0], basis[0], 1e-13)  # a single vector and basis
    if s == 1:  # no columns: nothing to project out
        coef, w0, full_rank = project_out(p, basis)
        assert coef.shape == (count, 0) and np.array_equal(w0, p) and full_rank.all()


@pytest.mark.parametrize("s", [3, 4, 5])
def test_project_out_near_parallel_and_rank_deficient_bases(s):
    # the last column leans on the first by delta: full rank to tolerance
    # down to about 1e-12, and the span itself moves by about eps / delta
    rng = np.random.default_rng(s)
    for delta in (1e-3, 1e-6, 1e-9, 1e-13, 1e-15, 0.0):
        p = rng.normal(size=(256, s))
        basis = rng.normal(size=(256, s, s - 1))
        basis[..., -1] = basis[..., 0] + delta * rng.normal(size=(256, s))
        coef, w0, full_rank = project_out(p, basis)
        _, ref_w0, ref_full_rank = _qr_project_out(p, basis)
        assert np.array_equal(full_rank, ref_full_rank)
        assert full_rank.all() == (delta >= 1e-9) and full_rank.any() == (delta >= 1e-9)
        assert np.isfinite(coef).all() and np.isfinite(w0).all()
        if delta > 0.0:
            assert np.abs(w0 - ref_w0).max() <= 100 * np.finfo(float).eps / delta
    zero_column = np.zeros((4, s, s - 1))
    zero_column[:, :, 1:] = rng.normal(size=(4, s, s - 2))
    coef, w0, full_rank = project_out(rng.normal(size=(4, s)), zero_column)
    assert not full_rank.any() and np.isfinite(coef).all() and np.isfinite(w0).all()


@pytest.mark.parametrize("power", [600, -600])
def test_project_out_scale_free_in_the_basis(power):
    rng = np.random.default_rng(abs(power))
    p = rng.normal(size=(256, 3))
    basis = rng.normal(size=(256, 3, 2))
    scaled = basis * 2.0**power
    _assert_matches_qr(p, scaled, 1e-13)
    _, w0, _ = project_out(p, basis)
    _, scaled_w0, full_rank = project_out(p, scaled)
    assert np.abs(scaled_w0 - w0).max() <= 1e-13
    # the rank rule is in the caller's units: columns of norm 2**-600
    # fall below SINGULAR_RTOL, as they do for the QR form
    assert full_rank.all() == (power > 0)
    if power > 0:
        assert np.abs(angle_to_subspace(p, scaled) - angle_to_subspace(p, basis)).max() <= 1e-13


@pytest.mark.parametrize("shape", [(256, 2, 2), (256, 3, 3), (50, 2, 5), (50, 5, 2), (3, 3)])
@pytest.mark.parametrize("size", [1.0, 1e200, 1e-200])
def test_spectral_norm_matches_the_svd(shape, size):
    rng = np.random.default_rng(len(shape) + shape[-1])
    for m in (rng.normal(size=shape) * size,
              rng.normal(size=shape[:-1] + (1,)) * rng.normal(size=shape[:-2] + (1, shape[-1])) * size):
        svd = np.linalg.svd(m, compute_uv=False)[..., 0]  # random, then rank 1
        assert np.all(np.abs(spectral_norm(m) - svd) <= 1e-14 * svd)
    assert np.array_equal(spectral_norm(np.zeros(shape)), np.zeros(shape[:-2]))

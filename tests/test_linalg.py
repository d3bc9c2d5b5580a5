import math

import numpy as np
import pytest

from ltvlab import (
    InvalidInputError,
    SingularMatrixError,
    angle_between,
    angle_to_subspace,
    condition_number,
    cosine_to_subspace,
    oblique_projections,
    spectral_norm,
)


def test_spectral_norm_known_values():
    assert spectral_norm(np.eye(3)) == pytest.approx(1.0)
    assert spectral_norm([[1.0, -1.0], [0.0, 0.0]]) == pytest.approx(math.sqrt(2))
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)


def test_spectral_norm_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        spectral_norm([1.0, 2.0])
    with pytest.raises(InvalidInputError):
        spectral_norm([[np.nan, 0.0], [0.0, 1.0]])


def test_condition_number_diag():
    assert condition_number(np.diag([2.0, 8.0])) == pytest.approx(4.0)
    assert condition_number(np.eye(4)) == pytest.approx(1.0)


def test_condition_number_singular():
    with pytest.raises(SingularMatrixError) as info:
        condition_number([[1.0, 1.0], [1.0, 1.0]])
    assert info.value.smallest_singular_value is not None


def test_angle_between_axes():
    assert angle_between([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.pi / 2)
    assert angle_between([1.0, 0.0], [1.0, 1.0]) == pytest.approx(math.pi / 4)
    assert angle_between([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(math.pi)
    with pytest.raises(InvalidInputError):
        angle_between([0.0, 0.0], [1.0, 0.0])


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
        try:
            kappa = condition_number(x)
        except SingularMatrixError:
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

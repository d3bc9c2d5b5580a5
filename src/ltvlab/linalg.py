"""Dense small-matrix primitives: spectral norms, condition numbers,
angles to subspaces, and oblique projections onto a basis of directions.

All functions are pure and operate on plain numpy arrays.
"""

import numpy as np

from .errors import InvalidInputError, SingularMatrixError

# A matrix counts as singular when its smallest singular value falls below
# this fraction of the largest one.
SINGULAR_RTOL = 1e-12


def _as_matrix(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def _as_vector(v, name="vector"):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError(f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return v


def spectral_norm(m):
    """Largest singular value of ``m``, or of each matrix in an (..., r, c) stack."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise InvalidInputError(f"expected a matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def condition_number(m):
    """Spectral condition number ||m|| * ||m^-1||.

    Raises SingularMatrixError when the matrix is singular to tolerance.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError("condition number requires a square matrix")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise SingularMatrixError(
            f"matrix singular to tolerance (sigma_min={sv[-1]:.3e})",
            smallest_singular_value=float(sv[-1]),
        )
    return float(sv[0] / sv[-1])


def angle_between(p, q):
    """Angle between two nonzero vectors, in [0, pi]."""
    p = _as_vector(p, "p")
    q = _as_vector(q, "q")
    np_ = np.linalg.norm(p)
    nq = np.linalg.norm(q)
    if np_ == 0.0 or nq == 0.0:
        raise InvalidInputError("angle_between requires nonzero vectors")
    # rounding can push the cosine out of [-1, 1] by ~1e-16
    c = np.clip(np.dot(p, q) / (np_ * nq), -1.0, 1.0)
    return float(np.arccos(c))


def project_out(p, basis):
    """Split stacked vectors against the spans of stacked bases.

    ``p`` is (..., m) and ``basis`` is (..., m, k) with matching leading
    shapes.  One batched QR gives, per entry, the coefficients ``Q^T p``
    of the orthogonal projection onto the span, the residual
    ``w0 = p - Q Q^T p`` and a flag that is False where the basis is rank
    deficient to tolerance.  ``||Q^T p||`` is accurate near a right angle
    and ``||w0||`` near zero; ``w0 / (w0 . p)`` is the covector of the
    oblique projection onto ``p`` along the span.
    """
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    scale = np.maximum(diag.max(axis=-1, initial=0.0), 1.0)
    full_rank = diag.min(axis=-1, initial=np.inf) > SINGULAR_RTOL * scale
    coef = (np.swapaxes(q, -1, -2) @ p[..., None])[..., 0]
    w0 = p - (q @ coef[..., None])[..., 0]
    return coef, w0, full_rank


def _subspace_inputs(p, basis, name):
    """Validated (p, basis, stacked) for the angle functions.

    A 1-d ``p`` takes ``basis`` as a vector, an (m, k) array of columns
    or a sequence of k vectors; a stacked (..., m) ``p`` takes an
    (..., m, k) stack of column bases.
    """
    p = np.asarray(p, dtype=float)
    b = np.asarray(basis, dtype=float)
    if p.ndim == 0:
        raise InvalidInputError(f"p must be at least 1-d, got shape {p.shape}")
    stacked = p.ndim > 1
    if not stacked:
        if b.ndim == 1:
            b = b[:, None]
        elif b.shape[0] != p.shape[0]:
            b = b.T  # sequence of vectors -> columns
    if b.shape[:-2] != p.shape[:-1] or b.shape[-2] != p.shape[-1]:
        raise InvalidInputError(
            f"basis of shape {b.shape} does not match vectors of shape {p.shape}"
        )
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("p has non-finite entries")
    if not np.all(np.isfinite(b)):
        raise InvalidInputError("basis has non-finite entries")
    norm_p = np.linalg.norm(p, axis=-1)
    if np.any(norm_p == 0.0):
        raise InvalidInputError(f"{name} requires a nonzero vector")
    return p, b, norm_p, stacked


def _per_entry(values, full_rank, stacked):
    """Scalar result, or the stack with NaN where the basis is rank deficient."""
    if stacked:
        return np.where(full_rank, values, np.nan)
    if not full_rank:
        raise InvalidInputError("basis is rank deficient to tolerance")
    return float(values)


def angle_to_subspace(p, basis):
    """Angle between a nonzero vector and the span of ``basis``, in [0, pi/2].

    Computed as arcsin of the normalized residual distance, which is
    accurate near 0.  ``basis`` is a sequence of vectors or an (s, k)
    array of columns; it must have full column rank.  Stacked input
    (``p`` of shape (..., s), ``basis`` of shape (..., s, k)) gives an
    array of angles with NaN where a basis is rank deficient.
    """
    p, b, norm_p, stacked = _subspace_inputs(p, basis, "angle_to_subspace")
    _, w0, full_rank = project_out(p, b)
    sines = np.clip(np.linalg.norm(w0, axis=-1) / norm_p, 0.0, 1.0)
    return _per_entry(np.arcsin(sines), full_rank, stacked)


def cosine_to_subspace(p, basis):
    """Cosine of the angle between ``p`` and the span of ``basis``.

    Computed as the norm of the orthogonal projection coefficient, which
    is accurate near pi/2 where the arcsin route loses digits.  Takes the
    same scalar and stacked forms as ``angle_to_subspace``.
    """
    p, b, norm_p, stacked = _subspace_inputs(p, basis, "cosine_to_subspace")
    coef, _, full_rank = project_out(p, b)
    cosines = np.clip(np.linalg.norm(coef, axis=-1) / norm_p, 0.0, 1.0)
    return _per_entry(cosines, full_rank, stacked)


def oblique_projections(columns):
    """Projections P^i = X E_i X^{-1} for the matrix X of given columns.

    Each P^i maps column i to itself and annihilates the others.  They sum
    to the identity and are mutually annihilating.  Raises
    SingularMatrixError for a near-singular X.
    """
    x = np.column_stack([_as_vector(c, "column") for c in columns])
    s = x.shape[0]
    if x.shape != (s, s):
        raise InvalidInputError(f"need {s} columns of dimension {s}, got shape {x.shape}")
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise SingularMatrixError(
            f"column matrix singular to tolerance (sigma_min={sv[-1]:.3e})",
            smallest_singular_value=float(sv[-1]),
        )
    xinv = np.linalg.solve(x, np.eye(s))
    return [np.outer(x[:, i], xinv[i, :]) for i in range(s)]

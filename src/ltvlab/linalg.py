"""Dense small-matrix primitives: spectral norms, angles to subspaces,
and oblique projections onto a basis of directions.

All functions are pure and operate on plain numpy arrays.
"""

import math

import numpy as np

from .errors import InvalidInputError, SingularMatrixError

# A matrix counts as singular when its smallest singular value falls below
# this fraction of the largest one.
SINGULAR_RTOL = 1e-12
_EPS = 2.0**-53  # LAPACK's unit roundoff, DLAMCH('E')


def spectral_norm(m):
    """Largest singular value of ``m``, or of each matrix in an (..., r, c) stack.

    Each matrix is scaled by the power of two of its largest entry (exact,
    so no square overflows or underflows), and the norm is the square root
    of the top eigenvalue of the smaller Gram matrix, M^T M or M M^T: by
    ``_top_eigenvalue_2x2`` for a 2 x 2 one, and by ``eigvalsh`` otherwise.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise InvalidInputError(f"expected a matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    if m.size == 0:  # no rows or no columns: the zero map, or an empty stack
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    stack = m.reshape(-1, *m.shape[-2:])  # one route, so a matrix equals its stack entry
    _, exps = np.frexp(_max_abs(stack.reshape(len(stack), -1)))
    unit = np.ldexp(stack, -exps[:, None, None])
    if unit.shape[-2] < unit.shape[-1]:
        unit = np.swapaxes(unit, -1, -2)
    gram = np.ascontiguousarray(np.swapaxes(unit, -1, -2)) @ unit
    eig = _top_eigenvalue_2x2(gram) if gram.shape[-1] == 2 else np.linalg.eigvalsh(gram)[..., -1]
    norms = np.ldexp(np.sqrt(np.maximum(eig, 0.0)), exps)
    return float(norms[0]) if m.ndim == 2 else norms.reshape(m.shape[:-2])


def _top_eigenvalue_2x2(gram):
    """``eigvalsh(gram)[:, -1]`` of ``spectral_norm``'s (k, 2, 2) Gram stack, bit
    for bit, by LAPACK's own steps (LAPACK Users' Guide, 3rd ed., 1999): dsyevd
    neither scales nor reduces such a matrix, and DSTERF keeps (a, c) where b
    passes a split test, else takes DLAE2's roots of a, sqrt(b**2), c."""
    a, b, c = gram[:, 0, 0], gram[:, 1, 0], gram[:, 1, 1]  # dsyevd reads the lower triangle
    with np.errstate(all="ignore"):  # np.where also evaluates the branches it drops
        b2 = b * b
        split = (np.abs(b) <= np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * _EPS) | (
            b2 <= _EPS * _EPS * np.abs(a * c))
        rte = np.sqrt(b2)
        adf, ab = np.abs(a - c), np.abs(rte + rte)
        rt = np.where(adf > ab, adf * np.sqrt(1.0 + (ab / adf) ** 2),
                      np.where(adf < ab, ab * np.sqrt(1.0 + (adf / ab) ** 2), ab * np.sqrt(2.0)))
        rt1 = 0.5 * ((a + c) + rt)  # a + c > 0 where b does not split
        first = np.abs(a) > np.abs(c)
        rt2 = (np.where(first, a, c) / rt1) * np.where(first, c, a) - (rte / rt1) * rte
    return np.where(split, np.maximum(a, c), np.maximum(rt1, rt2))


def _max_abs(stack):
    """np.abs(stack).max(axis=1) of a (k, n, ...) stack, bit for bit, taken
    over a contiguous copy with axis 1 in front: numpy then compares whole
    rows of k at once, not one short run per entry of the stack.  The copy
    comes from ``swapaxes``, a C call; ``np.moveaxis`` gives the same layout
    but costs microseconds of Python per call, and this runs once per scan
    round, once per block and once per ``spectral_norm`` call."""
    lead = stack.swapaxes(0, 1).copy()
    return np.abs(lead, out=lead).max(axis=0)


def project_out(p, basis):
    """Split stacked vectors against the spans of stacked bases.

    ``p`` is (..., m) and ``basis`` is (..., m, k) with matching leading
    shapes.  Classical Gram-Schmidt applied twice per column ("twice is
    enough") orthonormalizes the k columns one at a time, each step one
    vector operation over the whole stack.  Each column is first scaled
    by the power of two of its largest entry (exact), so no square
    overflows or underflows; a column with no component left gets a zero
    q.  It returns, per entry, the coefficients ``Q^T p`` of the
    orthogonal projection onto the span, the residual
    ``w0 = p - Q Q^T p`` and a flag that is False where the basis is rank
    deficient to tolerance: where the smallest r_jj, the norm of column
    j's component orthogonal to the earlier columns, is at most
    SINGULAR_RTOL * max(largest r_jj, 1).  ``||Q^T p||`` is accurate near
    a right angle and ``||w0||`` near zero; ``w0 / (w0 . p)`` is the
    covector of the oblique projection onto ``p`` along the span.
    """
    lead, (m, k) = basis.shape[:-2], basis.shape[-2:]
    # column j of every basis as rows of the stack: cols[j, i] is entry i of
    # all of them, so each step below is a whole-row operation
    cols = basis.reshape(math.prod(lead), m, k).transpose(2, 1, 0).copy()  # (k, m, N)
    qs = []
    diag = np.empty((k, cols.shape[-1]))
    for j in range(k):
        _, exps = np.frexp(np.abs(cols[j]).max(axis=0))
        v = np.ldexp(cols[j], -exps)
        for _ in range(2):
            coef = [(q * v).sum(axis=0) for q in qs]
            for c, q in zip(coef, qs):
                v = v - c * q
        norm = np.sqrt((v * v).sum(axis=0))
        diag[j] = np.ldexp(norm, exps)
        qs.append(v / np.where(norm > 0.0, norm, np.inf))
    scale = np.maximum(diag.max(axis=0, initial=0.0), 1.0)
    full_rank = diag.min(axis=0, initial=np.inf) > SINGULAR_RTOL * scale
    w0 = p.reshape(-1, m).T.copy()  # (m, N)
    coef = np.empty_like(diag)
    for j, q in enumerate(qs):
        coef[j] = (q * w0).sum(axis=0)
    for c, q in zip(coef, qs):
        w0 -= c * q
    return coef.T.reshape(lead + (k,)), w0.T.reshape(lead + (m,)), full_rank.reshape(lead)


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

    Computed as the norm of ``project_out``'s projection coefficients
    ``Q^T p`` over |p|, which is accurate near pi/2 where the arcsin
    route loses digits, at every basis width k.  Takes the same scalar
    and stacked forms as ``angle_to_subspace``.
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
    x = np.array(columns, dtype=float).T  # column i is columns[i], so a 2-d column is refused
    s = x.shape[0]
    if x.shape != (s, s):
        raise InvalidInputError(f"need {s} columns of dimension {s}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("columns have non-finite entries")
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise SingularMatrixError(
            f"column matrix singular to tolerance (sigma_min={sv[-1]:.3e})",
            smallest_singular_value=float(sv[-1]),
        )
    xinv = np.linalg.solve(x, np.eye(s))
    return [np.outer(x[:, i], xinv[i, :]) for i in range(s)]

"""Coefficient sequences A(n), log-scaled propagation, transition matrices,
and conversion between additive and multiplicative perturbations.

A coefficient sequence generates square matrices for n = 1, 2, ...  All
growth bookkeeping is kept in log scale so that entries like 2**n never
overflow: a solution is stored as a unit direction plus an accumulated
log-norm, and a transition matrix as a unit-norm matrix plus a log factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissiblePerturbationError,
    InvalidInputError,
    NotLyapunovSequenceError,
    ParseError,
    PropagationError,
)
from .expressions import parse_expression
from .linalg import SINGULAR_RTOL, spectral_norm

UNIT_NORM_TOL = 1e-12


class CoefficientSequence:
    """Generator of the coefficient matrices A(n), n >= 1.

    Immutable after construction.  ``kind`` is one of 'constant',
    'diagonal-formula', 'dense-formula', 'file-backed', or
    'product-with-perturbation'.
    """

    def __init__(self, dimension, kind, matrix_fn, description=""):
        self.dimension = int(dimension)
        self.kind = kind
        self._matrix_fn = matrix_fn
        self.description = description
        self._bound = None
        self._bound_horizon = 0

    # --- constructors -------------------------------------------------

    @classmethod
    def constant(cls, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("constant coefficient must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("constant coefficient has non-finite entries")
        m.setflags(write=False)
        return cls(m.shape[0], "constant", lambda n: m, f"constant {m.shape[0]}x{m.shape[0]}")

    @classmethod
    def identity(cls, dimension):
        return cls.constant(np.eye(int(dimension)))

    @classmethod
    def diagonal_formulas(cls, expressions):
        exprs = [e if callable(e) else parse_expression(e) for e in expressions]
        s = len(exprs)

        def matrix_fn(n):
            return np.diag([e(n) for e in exprs])

        return cls(s, "diagonal-formula", matrix_fn, "diagonal formulas")

    @classmethod
    def dense_formulas(cls, rows):
        exprs = [[e if callable(e) else parse_expression(e) for e in row] for row in rows]
        s = len(exprs)
        if any(len(row) != s for row in exprs):
            raise InvalidInputError("dense formula table must be square")

        def matrix_fn(n):
            return np.array([[e(n) for e in row] for row in exprs])

        return cls(s, "dense-formula", matrix_fn, "dense formulas")

    @classmethod
    def from_matrices(cls, matrices):
        """File-backed style sequence over a finite list of matrices (n=1..count)."""
        mats = [np.array(m, dtype=float) for m in matrices]
        if not mats:
            raise InvalidInputError("empty matrix sequence")
        s = mats[0].shape[0]
        for m in mats:
            if m.shape != (s, s):
                raise InvalidInputError("matrix sequence has inconsistent dimensions")

        count = len(mats)

        def matrix_fn(n):
            if n > count:
                raise IndexError(f"matrix sequence exhausted at n={n} (count={count})")
            return mats[n - 1]

        seq = cls(s, "file-backed", matrix_fn, f"file-backed ({count} records)")
        seq.count = count
        return seq

    @classmethod
    def product(cls, seq, rseq):
        """Sequence n -> A(n) R(n) (a multiplicatively perturbed system)."""
        if seq.dimension != rseq.dimension:
            raise InvalidInputError(
                f"dimension mismatch: {seq.dimension} vs {rseq.dimension}"
            )

        def matrix_fn(n):
            return seq.matrix_at(n) @ rseq.matrix_at(n)

        return cls(
            seq.dimension,
            "product-with-perturbation",
            matrix_fn,
            f"({seq.description}) * perturbation",
        )

    @classmethod
    def from_function(cls, dimension, fn, kind="dense-formula", description="callable"):
        return cls(dimension, kind, fn, description)

    # --- access -------------------------------------------------------

    def matrix_at(self, n):
        """Coefficient matrix A(n).  Deterministic; n >= 1."""
        if n < 1:
            raise InvalidInputError(f"index must be >= 1, got {n}")
        try:
            m = np.asarray(self._matrix_fn(int(n)), dtype=float)
        except IndexError:
            raise
        except (ValueError, OverflowError) as exc:
            raise PropagationError(f"coefficient evaluation failed at n={n}: {exc}") from exc
        if m.shape != (self.dimension, self.dimension):
            raise InvalidInputError(
                f"coefficient at n={n} has shape {m.shape}, expected "
                f"({self.dimension}, {self.dimension})"
            )
        return m

    def lyapunov_bound(self, horizon):
        """max over n <= horizon of max(||A(n)||, ||A(n)^-1||); always >= 1.

        The true bound runs over all n; this one is horizon-stamped and
        cached for the largest horizon scanned so far.
        """
        horizon = int(horizon)
        if horizon < 1:
            raise InvalidInputError("horizon must be >= 1")
        if self._bound is not None and horizon <= self._bound_horizon:
            return self._bound
        start = self._bound_horizon + 1
        bound = self._bound if self._bound is not None else 1.0
        for n in range(start, horizon + 1):
            m = self.matrix_at(n)
            sv = np.linalg.svd(m, compute_uv=False)
            if sv[-1] <= SINGULAR_RTOL * max(sv[0], 1.0):
                raise NotLyapunovSequenceError(
                    f"A({n}) is singular to tolerance; not a Lyapunov sequence", index=n
                )
            bound = max(bound, float(sv[0]), float(1.0 / sv[-1]))
        self._bound = bound
        self._bound_horizon = horizon
        return bound


def lyapunov_bound_estimate(seq, horizon):
    return seq.lyapunov_bound(horizon)


# --- generator spec parsing ------------------------------------------


def _parse_shorthand(text):
    stripped = text.strip()
    if stripped.startswith("identity"):
        parts = stripped.split()
        if len(parts) != 2 or not parts[1].isdigit():
            raise ParseError(f"bad identity shorthand: {stripped!r}", 1, 1)
        return CoefficientSequence.identity(int(parts[1]))
    if stripped.startswith("diag(") and stripped.endswith(")"):
        body = stripped[len("diag(") : -1]
        try:
            values = [float(v) for v in body.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad diag shorthand: {stripped!r}", 1, 1) from exc
        return CoefficientSequence.constant(np.diag(values))
    return None


def parse_generator_spec(text):
    """Parse a system spec into a CoefficientSequence.

    Accepts either a one-line shorthand (``identity 3``, ``diag(1,2)``) or
    a block format::

        dimension: 2
        kind: diagonal            # constant | diagonal | dense | file
        entries:
          exp(n*sin(ln(n)) - (n+1)*sin(ln(n+1)))
          exp(2*((n+1)*sin(ln(n+1)) - n*sin(ln(n))))

    For kind ``constant`` the entries are s*s numbers (row-major); for
    ``diagonal`` s expressions; for ``dense`` s*s expressions (row-major,
    one per line or comma-separated); for ``file`` a single ``path:`` field.
    """
    shorthand = _parse_shorthand(text)
    if shorthand is not None:
        return shorthand

    fields = {}
    entries = []
    in_entries = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_entries and (raw.startswith((" ", "\t"))):
            entries.append((lineno, line.strip()))
            continue
        in_entries = False
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line.strip()!r}", lineno, 1)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "entries":
            in_entries = True
            if value:
                entries.append((lineno, value))
        else:
            fields[key] = (lineno, value)

    if "dimension" not in fields:
        raise ParseError("missing 'dimension' field", 1, 1)
    lineno, dim_text = fields["dimension"]
    try:
        s = int(dim_text)
    except ValueError as exc:
        raise ParseError(f"bad dimension {dim_text!r}", lineno, 1) from exc
    if s < 1:
        raise ParseError(f"dimension must be >= 1, got {s}", lineno, 1)

    kind = fields.get("kind", (1, "dense"))[1].lower()

    if kind == "file":
        if "path" not in fields:
            raise ParseError("kind 'file' requires a 'path' field", 1, 1)
        seq = read_matrix_sequence(fields["path"][1])
        if seq.dimension != s:
            raise ParseError(
                f"file dimension {seq.dimension} does not match declared {s}",
                fields["path"][0],
                1,
            )
        return seq

    flat = []
    for lineno, chunk in entries:
        for piece in chunk.split(";"):
            piece = piece.strip()
            if piece:
                flat.append((lineno, piece))

    if kind == "constant":
        values = []
        for lineno, piece in flat:
            for tok in piece.replace(",", " ").split():
                try:
                    values.append(float(tok))
                except ValueError as exc:
                    raise ParseError(f"bad number {tok!r}", lineno, 1) from exc
        if len(values) == s:  # allow a plain diagonal
            return CoefficientSequence.constant(np.diag(values))
        if len(values) != s * s:
            raise ParseError(
                f"constant kind needs {s * s} (or {s} diagonal) numbers, got {len(values)}",
                1,
                1,
            )
        return CoefficientSequence.constant(np.array(values).reshape(s, s))

    if kind == "diagonal":
        if len(flat) != s:
            raise ParseError(f"diagonal kind needs {s} entries, got {len(flat)}", 1, 1)
        return CoefficientSequence.diagonal_formulas([p for _, p in flat])

    if kind == "dense":
        if len(flat) != s * s:
            raise ParseError(f"dense kind needs {s * s} entries, got {len(flat)}", 1, 1)
        rows = [[flat[i * s + j][1] for j in range(s)] for i in range(s)]
        return CoefficientSequence.dense_formulas(rows)

    raise ParseError(f"unknown kind {kind!r}", 1, 1)


# --- matrix sequence files --------------------------------------------


def read_matrix_sequence(path):
    """Read a matrix sequence file: header 's count', then count s*s blocks.

    Records are indexed from n=1; other origins are not supported.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ParseError(f"matrix sequence file {path!r} is too short", 1, 1)
    try:
        s, count = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ParseError(f"bad header in {path!r}", 1, 1) from exc
    values = tokens[2:]
    if len(values) != count * s * s:
        raise ParseError(
            f"{path!r}: expected {count * s * s} values, found {len(values)}", 1, 1
        )
    try:
        data = np.array([float(v) for v in values]).reshape(count, s, s)
    except ValueError as exc:
        raise ParseError(f"{path!r}: {exc}", 1, 1) from exc
    finite = np.isfinite(data).all(axis=(1, 2))
    if not finite.all():
        record = int(np.argmin(finite)) + 1
        raise ParseError(f"{path!r}: record {record} has a non-finite value", 1, 1)
    return CoefficientSequence.from_matrices(list(data))


def write_matrix_sequence(path, matrices):
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    s = matrices[0].shape[0]
    with open(path, "w") as fh:
        fh.write(f"{s} {len(matrices)}\n")
        for m in matrices:
            for row in m:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# --- log-scaled propagation -------------------------------------------


class TrajectoryLog:
    """A solution stored as (index, unit direction, accumulated log-norm).

    The actual solution value at a stored index n is
    exp(log_norm) * direction.  Directions are renormalized every
    propagation step, so log-norm magnitudes up to ~1e7 are safe.
    """

    def __init__(self, indices, directions, log_norms):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.directions = np.asarray(directions, dtype=float)
        self.log_norms = np.asarray(log_norms, dtype=float)
        self.dimension = self.directions.shape[1]

    def __len__(self):
        return len(self.indices)

    @property
    def horizon(self):
        return int(self.indices[-1])

    def positions(self, ns):
        """Storage positions of the steps ``ns``; KeyError for a step not stored."""
        ns = np.asarray(ns)
        pos = np.searchsorted(self.indices, ns)
        stored = self.indices[np.minimum(pos, len(self.indices) - 1)] == ns
        if not np.all(stored):
            missing = np.ravel(ns)[np.argmin(np.ravel(stored))]
            raise KeyError(f"step n={missing} is not stored in this trajectory")
        return pos

    def direction_at(self, n):
        return self.directions[self.positions(n)]

    def log_norm_at(self, n):
        return float(self.log_norms[self.positions(n)])

    def value_at(self, n):
        i = self.positions(n)
        return math.exp(self.log_norms[i]) * self.directions[i]


def propagate(seq, x0, horizon, store_every=1):
    """Propagate x(n+1) = A(n) x(n) from x(1) = x0 in log-scaled form.

    Stores step 1, every ``store_every``-th step after it, and the final
    step.  Returns a TrajectoryLog.
    """
    x0 = np.asarray(x0, dtype=float)
    norm0 = np.linalg.norm(x0)
    if norm0 == 0.0 or not np.all(np.isfinite(x0)):
        raise InvalidInputError("initial vector must be nonzero and finite")
    horizon = int(horizon)
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")

    d = x0 / norm0
    log_norm = math.log(norm0)
    indices, directions, log_norms = [1], [d.copy()], [log_norm]
    for n in range(1, horizon):
        y = seq.matrix_at(n) @ d
        ny = np.linalg.norm(y)
        if ny == 0.0 or not np.isfinite(ny):
            raise PropagationError(f"propagation collapsed at n={n + 1} (norm={ny})")
        d = y / ny
        log_norm += math.log(ny)
        m = n + 1
        if (m - 1) % store_every == 0 or m == horizon:
            indices.append(m)
            directions.append(d.copy())
            log_norms.append(log_norm)
    return TrajectoryLog(indices, directions, log_norms)


@dataclass(frozen=True)
class ScaledMatrix:
    """A matrix represented as exp(log_scale) * unit with ||unit|| = 1."""

    unit: np.ndarray
    log_scale: float

    def to_dense(self):
        return math.exp(self.log_scale) * self.unit

    @property
    def log_spectral_norm(self):
        return self.log_scale  # ||unit|| == 1 by construction

    def singular_value_logs(self):
        sv = np.linalg.svd(self.unit, compute_uv=False)
        return self.log_scale + np.log(sv)


def _scaled(m):
    nm = spectral_norm(m)
    if nm == 0.0:
        raise PropagationError("zero matrix cannot be log-scaled")
    return m / nm, math.log(nm)


def transition(seq, n, m):
    """Transition matrix X_A(n, m) as a ScaledMatrix.

    X_A(n, m) = A(n-1) ... A(m) for n > m (descending index order),
    the identity for n = m, and the inverse of X_A(m, n) for n < m.
    """
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise InvalidInputError("indices must be >= 1")
    if n == m:
        return ScaledMatrix(np.eye(seq.dimension), 0.0)
    if n > m:
        unit = np.eye(seq.dimension)
        log_scale = 0.0
        for k in range(m, n):
            unit = seq.matrix_at(k) @ unit
            unit, extra = _scaled(unit)
            log_scale += extra
        return ScaledMatrix(unit, log_scale)
    fwd = transition(seq, m, n)
    sv = np.linalg.svd(fwd.unit, compute_uv=False)
    if sv[-1] <= SINGULAR_RTOL * sv[0]:
        raise NotLyapunovSequenceError(
            f"transition({m},{n}) is singular to tolerance", index=n
        )
    inv = np.linalg.solve(fwd.unit, np.eye(seq.dimension))
    unit, extra = _scaled(inv)
    return ScaledMatrix(unit, extra - fwd.log_scale)


# --- perturbation conversions ------------------------------------------


def additive_to_multiplicative(seq, q_seq, check_horizon=0):
    """R(n) = I + A(n)^-1 Q(n), so that A(n) + Q(n) = A(n) R(n).

    When ``check_horizon`` > 0, verifies A(n) + Q(n) is nonsingular on
    that range.
    """
    if seq.dimension != q_seq.dimension:
        raise InvalidInputError("dimension mismatch between system and perturbation")
    s = seq.dimension

    def matrix_fn(n):
        a = seq.matrix_at(n)
        return np.eye(s) + np.linalg.solve(a, q_seq.matrix_at(n))

    r_seq = CoefficientSequence.from_function(s, matrix_fn, "dense-formula", "I + A^-1 Q")
    for n in range(1, int(check_horizon) + 1):
        perturbed = seq.matrix_at(n) + q_seq.matrix_at(n)
        sv = np.linalg.svd(perturbed, compute_uv=False)
        if sv[-1] <= SINGULAR_RTOL * max(sv[0], 1.0):
            raise InadmissiblePerturbationError(
                f"A({n}) + Q({n}) is singular to tolerance"
            )
    return r_seq


def multiplicative_to_additive(seq, r_seq, check_horizon=0):
    """Q(n) = A(n) R(n) - A(n)."""
    if seq.dimension != r_seq.dimension:
        raise InvalidInputError("dimension mismatch between system and perturbation")
    s = seq.dimension

    def matrix_fn(n):
        a = seq.matrix_at(n)
        return a @ r_seq.matrix_at(n) - a

    q_seq = CoefficientSequence.from_function(s, matrix_fn, "dense-formula", "A R - A")
    for n in range(1, int(check_horizon) + 1):
        r = r_seq.matrix_at(n)
        sv = np.linalg.svd(r, compute_uv=False)
        if sv[-1] <= SINGULAR_RTOL * max(sv[0], 1.0):
            raise InadmissiblePerturbationError(f"R({n}) is singular to tolerance")
    return q_seq


def perturbed_sequence(seq, r_seq):
    """The multiplicatively perturbed system x(n+1) = A(n) R(n) x(n)."""
    return CoefficientSequence.product(seq, r_seq)

"""Coefficient sequences A(n), log-scaled propagation, transition matrices,
and conversion of additive perturbations to multiplicative ones.

A coefficient sequence generates square matrices for n = 1, 2, ...  All
growth bookkeeping is kept in log scale so that entries like 2**n never
overflow: a solution is stored as a unit direction plus an accumulated
log-norm, and a transition matrix as a unit-norm matrix plus a log factor.
"""

import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissiblePerturbationError,
    InvalidInputError,
    LtvLabError,
    NotLyapunovSequenceError,
    ParseError,
    PropagationError,
    UnderflowError,
)
from .expressions import _NUMBER, parse_expression
from .linalg import SINGULAR_RTOL, _max_abs, spectral_norm

BLOCK_STEPS = 256  # steps per scan segment: the running products of one batch of steps
CHUNK_STEPS = 16 * BLOCK_STEPS  # steps of A(n) evaluated at once, scanned in segments
_TINY = 1e-280  # a scaled column or product below this has lost its digits
_LN2 = math.log(2.0)
_NORMAL_MIN = np.finfo(float).tiny  # below this a double keeps fewer than 53 bits
_DECIMAL = re.compile(rf"[+-]?(?:{_NUMBER.pattern})", re.ASCII)  # a spec or matrix-file number
_DIGITS = re.compile("[0-9]+")  # a count: identity N, dimension, a matrix-file header


class CoefficientSequence:
    """Generator of the coefficient matrices A(n), n >= 1.

    Immutable after construction.  ``block_fn(start, stop)`` returns the
    matrices for n = start, ..., stop - 1 stacked as (stop - start, s, s).
    """

    def __init__(self, dimension, block_fn):
        self.dimension = int(dimension)
        self._block_fn = block_fn

    # --- constructors -------------------------------------------------

    @classmethod
    def constant(cls, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("constant coefficient must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("constant coefficient has non-finite entries")
        m.setflags(write=False)
        return cls(m.shape[0], lambda start, stop: np.broadcast_to(m, (stop - start, *m.shape)))

    @classmethod
    def diagonal_formulas(cls, expressions):
        """Diagonal A(n) from s formulas, the dense table with "0" off the
        diagonal; a callable entry must accept an array of n."""
        exprs = list(expressions)
        return cls.dense_formulas([[e if i == j else "0" for j in range(len(exprs))]
                                   for i, e in enumerate(exprs)])

    @classmethod
    def dense_formulas(cls, rows):
        """Dense A(n) from an s x s table of formulas; a callable entry must
        accept an array of n."""
        exprs = [[e if callable(e) else parse_expression(e) for e in row] for row in rows]
        s = len(exprs)
        if any(len(row) != s for row in exprs):
            raise InvalidInputError("dense formula table must be square")

        def block_fn(start, stop):
            ns = np.arange(start, stop)
            out = np.empty((len(ns), s, s))
            for i, row in enumerate(exprs):
                for j, e in enumerate(row):
                    out[:, i, j] = e(ns)
            return out

        return cls(s, block_fn)

    @classmethod
    def from_matrices(cls, matrices):
        """File-backed style sequence over a finite list of matrices or a
        (count, s, s) array (n=1..count).  Keeps its own read-only copy."""
        if not isinstance(matrices, np.ndarray):
            matrices = list(matrices)  # a generator would become a 0-d object array
        try:
            data = np.asarray(matrices)
            if np.iscomplexobj(data):
                raise TypeError("complex entries")
            data = np.array(data, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged, non-numeric or complex
            raise InvalidInputError(f"matrix sequence is not a real (count, s, s) array: {exc}") from exc
        if data.size == 0:
            raise InvalidInputError("empty matrix sequence")
        if data.ndim != 3 or data.shape[1] != data.shape[2]:
            raise InvalidInputError("matrix sequence has inconsistent dimensions")
        s = data.shape[1]
        data.setflags(write=False)
        count = len(data)

        def block_fn(start, stop):
            if stop - 1 > count:
                n = max(start, count + 1)
                raise IndexError(f"matrix sequence exhausted at n={n} (count={count})")
            return data[start - 1 : stop - 1]

        seq = cls(s, block_fn)
        seq.count = count
        return seq

    @classmethod
    def product(cls, seq, rseq):
        """Sequence n -> A(n) R(n) (a multiplicatively perturbed system)."""
        if seq.dimension != rseq.dimension:
            raise InvalidInputError(
                f"dimension mismatch: {seq.dimension} vs {rseq.dimension}"
            )
        return cls(
            seq.dimension,
            lambda start, stop: seq.matrices(start, stop) @ rseq.matrices(start, stop),
        )

    @classmethod
    def from_function(cls, dimension, fn):
        """Sequence from a callable ``fn(n)`` giving one matrix per step."""
        s = int(dimension)

        def block_fn(start, stop):
            out = np.empty((stop - start, s, s))
            for k, n in enumerate(range(start, stop)):
                try:
                    m = np.asarray(fn(n), dtype=float)
                except InvalidInputError:
                    raise
                except (ValueError, ArithmeticError) as exc:
                    raise PropagationError(
                        f"coefficient evaluation failed at n={n}: {exc}"
                    ) from exc
                if m.shape != (s, s):
                    raise InvalidInputError(
                        f"coefficient at n={n} has shape {m.shape}, expected ({s}, {s})"
                    )
                out[k] = m
            return out

        return cls(s, block_fn)

    # --- access -------------------------------------------------------

    def matrices(self, start, stop):
        """The coefficient matrices A(start), ..., A(stop - 1) as a
        (stop - start, s, s) array.  Deterministic; 1 <= start <= stop.

        Raises PropagationError naming the first step whose matrix cannot
        be evaluated or is not finite, and IndexError when a file-backed
        sequence runs out of records.
        """
        start, stop = int(start), int(stop)
        if start < 1 or stop < start:
            raise InvalidInputError(f"steps must satisfy 1 <= start <= stop, got {start}, {stop}")
        try:
            mats = np.asarray(self._block_fn(start, stop), dtype=float)
        except LtvLabError:  # the package's own errors keep their type
            raise
        except (ValueError, ArithmeticError) as exc:
            raise PropagationError(
                f"coefficient evaluation failed on steps {start}..{stop - 1}: {exc}"
            ) from exc
        s = self.dimension
        if mats.shape != (stop - start, s, s):
            raise InvalidInputError(
                f"coefficients for steps {start}..{stop - 1} have shape {mats.shape}, "
                f"expected ({stop - start}, {s}, {s})"
            )
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            n = start + int(np.argmin(finite))
            raise PropagationError(f"coefficient A(n) is not finite at n={n}")
        return mats

    def matrix_at(self, n):
        """Coefficient matrix A(n).  Deterministic; n >= 1."""
        n = int(n)
        if n < 1:
            raise InvalidInputError(f"index must be >= 1, got {n}")
        return self.matrices(n, n + 1)[0]

    def lyapunov_bound(self, horizon):
        """max over n <= horizon of max(||A(n)||, ||A(n)^-1||); always >= 1.

        The true bound runs over all n; this one is horizon-stamped.
        """
        horizon = int(horizon)
        if horizon < 1:
            raise InvalidInputError("horizon must be >= 1")
        bound = 1.0
        for start, mats in _chunks(self.matrices, 1, horizon + 1):
            sv, singular = _singular_values(mats, start)
            if singular is not None:
                raise NotLyapunovSequenceError(
                    f"A({singular}) is singular to tolerance; not a Lyapunov sequence",
                    index=singular,
                )
            bound = max(bound, float(sv[:, 0].max()), float((1.0 / sv[:, -1]).max()))
        return bound


def _singular_values(mats, start):
    """Singular values (k, s) of a block of matrices for steps start, ...,
    and the first of those steps whose matrix is singular to tolerance
    (None when there is none)."""
    sv = np.linalg.svd(mats, compute_uv=False)
    singular = sv[:, -1] <= SINGULAR_RTOL * np.maximum(sv[:, 0], 1.0)
    return sv, (start + int(np.argmax(singular)) if singular.any() else None)


# --- generator spec parsing ------------------------------------------


def _parse_shorthand(text):
    stripped = text.strip()
    if stripped.startswith("identity"):
        parts = stripped.split()
        if len(parts) != 2 or not _DIGITS.fullmatch(parts[1]) or int(parts[1]) < 1:
            raise ParseError(f"bad identity shorthand: {stripped!r}", 1, 1)
        try:  # np.eye and constant's copy each ask for an N x N array
            return CoefficientSequence.constant(np.eye(int(parts[1])))
        except (MemoryError, ValueError):  # numpy refuses a request it cannot hold at once
            raise ParseError(f"{stripped!r} is too large to hold in memory", 1, 1) from None
    if stripped.startswith("diag(") and stripped.endswith(")"):
        body = stripped[len("diag(") : -1]
        entries = [_number(v.strip(), 1, 1) for v in body.split(",")]
        return CoefficientSequence.constant(np.diag(entries))
    return None


def _number(text, lineno, column):
    """The finite signed decimal ``text`` at ``column`` of spec line ``lineno``."""
    value = float(text) if _DECIMAL.fullmatch(text) else math.nan
    if not math.isfinite(value):
        raise ParseError(f"bad number {text!r}", lineno, column)
    return value


def _formula(lineno, column, text):
    """The formula ``text``, which follows ``column`` characters on spec
    line ``lineno``; a ParseError in it points into the spec."""
    try:
        return parse_expression(text)
    except ParseError as exc:
        raise ParseError(exc.reason, lineno, column + exc.column) from None


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
    one per line or separated by ``;``); for ``file`` a single ``path:`` field.
    """
    shorthand = _parse_shorthand(text)
    if shorthand is not None:
        return shorthand

    fields = {}
    entries = []  # (line, column where the chunk starts, chunk)
    in_entries = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_entries and (raw.startswith((" ", "\t"))):
            entries.append((lineno, 0, line))
            continue
        in_entries = False
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line.strip()!r}", lineno, 1)
        key, _, value = line.partition(":")
        if key.strip().lower() == "entries":
            in_entries = True
            entries.append((lineno, len(key) + 1, value))
        else:
            fields[key.strip().lower()] = (lineno, value.strip())

    if "dimension" not in fields:
        raise ParseError("missing 'dimension' field", 1, 1)
    lineno, dim_text = fields["dimension"]
    if not _DIGITS.fullmatch(dim_text):
        raise ParseError(f"bad dimension {dim_text!r}", lineno, 1)
    s = int(dim_text)
    if s < 1:
        raise ParseError(f"dimension must be >= 1, got {s}", lineno, 1)

    kind_line, kind = fields.get("kind", (1, "dense"))
    kind = kind.lower()
    entries_line = entries[0][0] if entries else kind_line  # count errors point here

    if kind == "file":
        if "path" not in fields:
            raise ParseError("kind 'file' requires a 'path' field", kind_line, 1)
        seq = read_matrix_sequence(fields["path"][1])
        if seq.dimension != s:
            raise ParseError(
                f"file dimension {seq.dimension} does not match declared {s}",
                fields["path"][0],
                1,
            )
        return seq

    flat = []  # (line, column before the piece, piece)
    for lineno, column, chunk in entries:
        for piece in chunk.split(";"):
            if piece.strip():
                flat.append((lineno, column + len(piece) - len(piece.lstrip()), piece.strip()))
            column += len(piece) + 1

    if kind == "constant":
        values = [_number(tok.group(), lineno, column + tok.start() + 1)
                  for lineno, column, piece in flat for tok in re.finditer(r"[^\s,]+", piece)]
        if len(values) == s:  # allow a plain diagonal
            return CoefficientSequence.constant(np.diag(values))
        if len(values) != s * s:
            raise ParseError(
                f"constant kind needs {s * s} (or {s} diagonal) numbers, got {len(values)}",
                entries_line,
                1,
            )
        return CoefficientSequence.constant(np.array(values).reshape(s, s))

    if kind == "diagonal":
        if len(flat) != s:
            raise ParseError(f"diagonal kind needs {s} entries, got {len(flat)}", entries_line, 1)
        return CoefficientSequence.diagonal_formulas([_formula(*entry) for entry in flat])

    if kind == "dense":
        if len(flat) != s * s:
            raise ParseError(f"dense kind needs {s * s} entries, got {len(flat)}", entries_line, 1)
        exprs = [_formula(*entry) for entry in flat]
        return CoefficientSequence.dense_formulas([exprs[i * s : (i + 1) * s] for i in range(s)])

    raise ParseError(f"unknown kind {kind!r}", kind_line, 1)


# --- matrix sequence files --------------------------------------------


def read_matrix_sequence(path):
    """Read a matrix sequence file: header 's count', then count s*s blocks
    of signed ASCII decimals separated by whitespace.

    Records are indexed from n=1; other origins are not supported.
    """
    with open(path) as fh:
        head = fh.read().split(None, 2)
    if len(head) < 2:
        raise ParseError(f"matrix sequence file {path!r} is too short", 1, 1)
    if not all(map(_DIGITS.fullmatch, head[:2])) or min(map(int, head[:2])) < 1:
        raise ParseError(f"bad header in {path!r}: needs positive 's count'", 1, 1)
    s, count = int(head[0]), int(head[1])
    rest = head[2] if len(head) > 2 else ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy < 2 warns and stops at an unreadable value
        try:
            values = np.fromstring(rest, sep=" ")
        except (ValueError, Warning):
            bad = next((tok for tok in rest.split() if not _DECIMAL.fullmatch(tok)), None)
            if bad is not None:
                raise ParseError(f"{path!r}: bad number {bad!r}", 1, 1) from None
            sep = re.search(r"[^\S \t\n\r\f\v]", rest)  # whitespace numpy does not split at
            raise ParseError(f"{path!r}: values are not whitespace-separated"
                             + (f" (found {sep.group()!r})" if sep else ""), 1, 1) from None
    if values.size != count * s * s:
        raise ParseError(f"{path!r}: expected {count * s * s} values, found {values.size}", 1, 1)
    data = values.reshape(count, s, s)
    finite = np.isfinite(data).all(axis=(1, 2))
    if not finite.all():
        record = int(np.argmin(finite)) + 1
        raise ParseError(f"{path!r}: record {record} has a non-finite value", 1, 1)
    return CoefficientSequence.from_matrices(data)


def write_matrix_sequence(path, matrices):
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    if not matrices:
        raise InvalidInputError("empty matrix sequence")
    s = matrices[0].shape[0]
    with open(path, "w") as fh:
        fh.write(f"{s} {len(matrices)}\n")
        for m in matrices:
            for row in m:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


# --- log-scaled propagation -------------------------------------------


class TrajectoryLog:
    """A solution stored as a unit direction and an accumulated log-norm
    at every step n = 1, ..., horizon, step n in row n - 1.

    The actual solution value at step n is exp(log_norm) * direction.
    Directions are renormalized every propagation step, so log-norm
    magnitudes up to ~1e7 are safe.
    """

    def __init__(self, directions, log_norms):
        self.directions = np.asarray(directions, dtype=float)
        self.log_norms = np.asarray(log_norms, dtype=float)
        if self.directions.ndim != 2 or self.log_norms.ndim != 1 or (
                len(self.directions) != len(self.log_norms)):
            raise InvalidInputError(
                f"a trajectory needs (horizon, s) directions and (horizon,) log-norms, "
                f"got {self.directions.shape} and {self.log_norms.shape}")

    @property
    def horizon(self):
        return len(self.log_norms)

    def positions(self, ns):
        """Rows of the steps ``ns``; KeyError for a step outside 1, ..., horizon."""
        ns = np.asarray(ns)
        outside = (ns < 1) | (ns > self.horizon)
        if np.any(outside):
            missing = np.ravel(ns)[np.argmax(np.ravel(outside))]
            raise KeyError(f"step n={missing} is outside this trajectory's steps 1..{self.horizon}")
        return ns - 1

    def direction_at(self, n):
        return self.directions[self.positions(n)]

    def value_at(self, n):
        i = self.positions(n)
        return math.exp(self.log_norms[i]) * self.directions[i]


def propagate(seq, x0, horizon):
    """Propagate x(n+1) = A(n) x(n) from x(1) = x0 in log-scaled form.

    ``x0`` is one vector, which gives one TrajectoryLog, or an (s, m)
    array of m initial columns, which gives a list of m TrajectoryLogs
    from one pass over the coefficients.  Every step 1, ..., horizon is
    stored.

    A(n) is evaluated CHUNK_STEPS steps at a time, and the steps are taken
    a segment of BLOCK_STEPS at a time: the running products A(j)...A(start)
    of a segment, each scaled by a power of two and all full segments of a
    chunk scanned in one batched call, are applied to the columns at once.
    A segment where a column or a product loses its digits to underflow is
    taken in halves; a single step that maps a column to zero raises
    PropagationError, and one that maps it below the normal double range
    raises UnderflowError.  A chunk whose A(n) are all diagonal, with
    entries normal or zero, is taken exactly in log form instead.
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    cols = x0[:, None] if single else x0
    if cols.ndim != 2 or cols.shape[0] != seq.dimension or cols.shape[1] == 0:
        raise InvalidInputError(
            f"initial vectors must have shape ({seq.dimension},) or ({seq.dimension}, m), "
            f"got {x0.shape}"
        )
    horizon = int(horizon)
    if horizon < 1:
        raise InvalidInputError("horizon must be >= 1")

    m = cols.shape[1]
    directions = np.empty((m, horizon, seq.dimension))
    log_norms = np.empty((m, horizon))
    for steps, dirs, logs in _propagation_blocks(seq, cols, horizon):
        rows = slice(steps[0] - 1, steps[-1])  # a block's steps are contiguous
        directions[:, rows] = dirs.transpose(2, 0, 1)
        log_norms[:, rows] = logs.T
    logs = [TrajectoryLog(directions[j], log_norms[j]) for j in range(m)]
    return logs[0] if single else logs


def _propagation_blocks(seq, cols, horizon, read_from=1):
    """The propagation of the (s, m) columns ``cols`` from step 1 to
    ``horizon`` (>= 1), one block at a time; only the last state is carried
    from a block to the next.

    Yields (steps, dirs, log_norms): the steps of a block, and the unit
    directions (k, s, m) and accumulated log-norms (k, m) of the columns
    there.  The first block is step 1 alone; each later one is a segment
    of up to BLOCK_STEPS steps, but a segment of a diagonal chunk that ends
    before step ``read_from`` yields its last step alone.  After a block the
    caller may send a boolean keep-mask over its columns: the columns it
    clears are dropped from the carried state, and later blocks hold only
    the kept ones.  ``propagate`` stores every block and sends no mask; a
    caller that reads only log-norms folds over them one block at a time.
    A zero or non-finite column raises InvalidInputError, and a collapse of
    a carried column raises as in ``propagate``.
    """
    d, log_norm = _unit_columns(cols)
    if not np.all(np.isfinite(log_norm)):
        raise InvalidInputError("initial vector must be nonzero and finite")
    keep = yield np.array([1]), d[None], log_norm[None]
    state = d, log_norm, None
    for start, mats in _chunks(seq.matrices, 1, horizon):
        chunk = _chunk_states(mats, start, _kept(state, keep), read_from)
        keep = None
        for _ in range(0, len(mats), BLOCK_STEPS):  # one block per segment
            steps, dirs, logs, state = chunk.send(keep)
            keep = yield steps, dirs, logs
        chunk.close()  # free its arrays before the next chunk is evaluated


def _kept(state, keep):
    """The state (d, log_norm, exact) of the columns ``keep`` flags, all of
    them when ``keep`` is None; the arrays stay C-ordered (a boolean index
    on the last axis would give F-ordered ones, which slow every later step)."""
    if keep is None:
        return state
    d, log_norm, exact = state
    exact = exact and tuple(a.compress(keep, axis=1) for a in exact)
    return d.compress(keep, axis=1), log_norm.compress(keep), exact


def _chunk_states(mats, n0, state, read_from=1):
    """The columns of ``state`` carried through the chunk ``mats`` = A(n0),
    ..., a BLOCK_STEPS segment at a time: yields (steps, dirs, log_norms) of
    each segment as ``_propagation_blocks`` does, and the state after it;
    a keep-mask sent after a segment applies to the state carried on.

    A state is (d, log_norm, exact): unit columns, their log-norms, and,
    after a diagonal chunk, exact = (signs, logs) of every component of the
    columns, each (s, m, 1) (None after a scan).  A chunk whose A(n) are
    all diagonal with entries normal or zero extends those logs by running
    sums of ln |a_ii| over each segment, so no part of a column is lost
    below the resolution of its direction, and a column emptied by a zero
    entry raises PropagationError; a segment that ends before step
    ``read_from`` forms its last step alone.  Any other chunk takes the
    scaled-product scan.
    """
    d, log_norm, exact = state
    diagonal = np.diagonal(mats, axis1=1, axis2=2)
    if np.count_nonzero(mats) != np.count_nonzero(diagonal) or not np.all(
            (diagonal == 0.0) | (np.abs(diagonal) >= _NORMAL_MIN)):
        for n, segment, scan in _segment_scans(mats, n0):
            dirs, growth = _block_states(segment, d, n, scan)
            logs = log_norm + growth
            steps = np.arange(n + 1, n + len(segment) + 1)  # x(n+1) follows A(n)
            state = dirs[-1], logs[-1], None
            keep = yield steps, dirs, logs, state
            d, log_norm, _ = _kept(state, keep)
        return
    with np.errstate(divide="ignore"):
        ln_a = np.log(np.abs(diagonal))
        sign, ln_x = exact or (np.sign(d)[..., None], (np.log(np.abs(d)) + log_norm)[..., None])
    for lo in range(0, len(mats), BLOCK_STEPS):  # (s, m, k) blocks: every sweep runs along k
        sums = np.cumsum(ln_a[lo : lo + BLOCK_STEPS], axis=0).T[:, None]  # (s, 1, k)
        end = n0 + lo + sums.shape[-1]  # the segment's last step
        y = ln_x + (sums[..., -1:] if end < read_from else sums)  # (s, m, k), or its last step
        top = y.max(axis=0)
        if np.isneginf(top[:, -1]).any():  # a collapsed column stays at -inf to the segment end
            n = n0 + lo + int(np.argmax(np.isneginf((ln_x + sums).max(axis=0)).any(axis=0)))
            raise PropagationError(f"propagation collapsed at n={n + 1} (max |x|=0.0)")
        k = y.shape[-1]
        signs = np.cumprod(np.sign(diagonal[lo : lo + BLOCK_STEPS]), axis=0)[-k:].T[:, None]
        exact = sign * signs[..., -1:], y[..., -1:].copy()
        y -= top  # in place, so that many columns hold one (s, m, k) array
        np.exp(y, out=y)
        norms = np.sqrt((y * y).sum(axis=0))  # the squares added in order, whatever m is
        y *= sign
        y *= signs
        y /= norms
        logs = np.log(norms, out=norms)
        logs += top
        state = y[..., -1].copy(), logs[:, -1], exact  # a strided d takes another BLAS path
        keep = yield np.arange(end - k + 1, end + 1), y.transpose(2, 0, 1), logs.T, state
        _, _, (sign, ln_x) = _kept(state, keep)


def _chunks(evaluate, first, stop):
    """(start, evaluate(start, end)) over steps first, ..., stop - 1,
    CHUNK_STEPS at a time; a chunk whose evaluation raises is walked again
    BLOCK_STEPS at a time, so the faults of its earlier segments come first."""
    for start in range(first, stop, CHUNK_STEPS):
        end = min(start + CHUNK_STEPS, stop)
        try:
            yield start, evaluate(start, end)
        except Exception:  # from evaluate, met again at its own segment; close() is no Exception
            for seg in range(start, end, BLOCK_STEPS):
                yield seg, evaluate(seg, min(seg + BLOCK_STEPS, end))


def _segment_scans(mats, n0):
    """(first step, segment, its running products) for each BLOCK_STEPS
    segment of the chunk ``mats`` = A(n0), ...; the full segments are
    scanned in one batched call, and a short tail segment alone."""
    full = len(mats) - len(mats) % BLOCK_STEPS
    scans = full and _running_products(mats[:full].reshape(-1, BLOCK_STEPS, *mats.shape[1:]))
    for lo in range(0, len(mats), BLOCK_STEPS):
        segment = mats[lo : lo + BLOCK_STEPS]
        scan = [a[lo // BLOCK_STEPS] for a in scans] if lo < full else _running_products(segment)
        yield n0 + lo, segment, scan


def _unit_columns(y):
    """Unit columns of y and their log-norms.  Each column is scaled by a
    power of two before its norm is taken, so no entry size overflows."""
    with np.errstate(divide="ignore", invalid="ignore"):
        _, exps = np.frexp(np.abs(y).max(axis=0))
        y = np.ldexp(y, -exps)
        norms = np.sqrt((y * y).sum(axis=0))
        return y / norms, exps * _LN2 + np.log(norms)


def _running_products(mats):
    """Prefix products P_j = A_j ... A_1 of a (..., k, s, s) stack along
    axis -3, each leading index an independent segment, in log2(k) batched
    matmuls (Hillis-Steele scan).  Each P_j is stored scaled by 2**-e_j to
    max-abs in [0.5, 1).  Returns (P, e, lost), where lost_j flags a
    product whose scaled entries cancelled below _TINY."""
    k, s = mats.shape[-3:-1]
    with np.errstate(all="ignore"):
        _, exps = np.frexp(_max_abs(mats.reshape(-1, s * s)).reshape(mats.shape[:-2]))
        prods = np.ldexp(mats, -exps[..., None, None])
        lost = np.zeros(exps.shape, dtype=bool)
        offset = 1
        while offset < k:
            raw = prods[..., offset:, :, :] @ prods[..., :-offset, :, :]
            top = _max_abs(raw.reshape(-1, s * s)).reshape(raw.shape[:-2])
            _, shift = np.frexp(top)
            np.ldexp(raw, -shift[..., None, None], out=prods[..., offset:, :, :])
            exps[..., offset:] += exps[..., :-offset] + shift
            lost[..., offset:] |= lost[..., :-offset] | ~(top >= _TINY)
            offset *= 2
    return prods, exps, lost


def _block_states(mats, d, n0, scan=None):
    """Unit directions (k, s, m) and log-growth (k, m) of the columns ``d``
    after each step of the block ``mats`` = A(n0), ..., A(n0 + k - 1).

    ``scan`` is ``_running_products(mats)`` when the caller holds it.  A
    block that is halved passes its first half the first half of its own
    scan: prefix j of a Hillis-Steele scan reads only steps <= j, so that
    slice equals a fresh scan of the half bit for bit, and only the second
    half is scanned anew."""
    prods, exps, lost = _running_products(mats) if scan is None else scan
    y = prods @ d
    with np.errstate(all="ignore"):
        top = _max_abs(y)  # (k, m)
        if len(mats) > 1:
            if (lost | ~(top >= _TINY).all(axis=1)).any():
                del y, top  # free this block's states before the halves make theirs
                half = len(mats) // 2
                dirs1, growth1 = _block_states(
                    mats[:half], d, n0, (prods[:half], exps[:half], lost[:half])
                )
                dirs2, growth2 = _block_states(mats[half:], dirs1[-1], n0 + half)
                return np.concatenate([dirs1, dirs2]), np.concatenate(
                    [growth1, growth2 + growth1[-1]]
                )
        elif not (top >= _NORMAL_MIN).all():
            error = UnderflowError if (top > 0.0).all() else PropagationError
            raise error(f"propagation collapsed at n={n0 + 1} (max |x|={float(top.min())})")
        # scale each column by a power of two so its sum of squares cannot underflow;
        # in place, so that a block of many columns holds one (k, s, m) array
        shift = np.frexp(top)[1]
        np.ldexp(y, -shift[:, None, :], out=y)
        norms = np.sqrt(np.einsum("ksm,ksm->km", y, y))
        y /= norms[:, None, :]
        growth = np.log(norms, out=norms)
        growth += (exps[:, None] + shift) * _LN2
        return y, growth


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


def _scaled(m):
    nm = spectral_norm(m)
    if nm == 0.0:
        raise PropagationError("zero matrix cannot be log-scaled")
    return m / nm, math.log(nm)


def transition(seq, n, m):
    """Transition matrix X_A(n, m) as a ScaledMatrix.

    X_A(n, m) = A(n-1) ... A(m) for n > m (descending index order),
    the identity for n = m, and the inverse of X_A(m, n) for n < m.

    The product is taken a block of BLOCK_STEPS matrices at a time by
    running products scaled by powers of two; a product that cancels to
    zero or below the double range raises PropagationError.
    """
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise InvalidInputError("indices must be >= 1")
    if n >= m:
        prod, exp2 = np.eye(seq.dimension), 0
        for start in range(m, n, BLOCK_STEPS):
            mats = seq.matrices(start, min(start + BLOCK_STEPS, n))
            prods, exps, lost = _running_products(np.concatenate([prod[None], mats]))
            if lost[-1]:
                raise PropagationError(
                    f"transition X({start + int(np.argmax(lost))}, {m}) is zero or underflows"
                )
            prod, exp2 = prods[-1], exp2 + int(exps[-1])
        unit, extra = _scaled(prod)
        return ScaledMatrix(unit, extra + exp2 * _LN2)
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

    def block_fn(start, stop):
        return np.eye(s) + np.linalg.solve(seq.matrices(start, stop), q_seq.matrices(start, stop))

    r_seq = CoefficientSequence(s, block_fn)
    _check_nonsingular(
        lambda start, stop: seq.matrices(start, stop) + q_seq.matrices(start, stop),
        check_horizon,
        "A({n}) + Q({n})",
    )
    return r_seq


def _check_nonsingular(block_fn, horizon, name):
    """InadmissiblePerturbationError at the first n <= horizon where the
    matrix block_fn gives is singular to tolerance."""
    for start, mats in _chunks(block_fn, 1, int(horizon) + 1):
        _, singular = _singular_values(mats, start)
        if singular is not None:
            raise InadmissiblePerturbationError(
                f"{name.format(n=singular)} is singular to tolerance"
            )

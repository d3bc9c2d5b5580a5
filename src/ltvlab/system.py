"""Coefficient sequences A(n), log-scaled propagation, transition matrices,
and conversion of additive perturbations to multiplicative ones.

A coefficient sequence generates square matrices for n = 1, 2, ...  All
growth bookkeeping is kept in log scale so that entries like 2**n never
overflow: a solution is stored as a unit direction plus an accumulated
log-norm, and a transition matrix as a unit-norm matrix plus a log factor.
"""

import io
import math
import os
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
from .linalg import _check_integer, _check_real, _max_abs, _singular_values, spectral_norm

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
        self.dimension = _check_integer("dimension", dimension, 1)
        self._block_fn = block_fn

    # --- constructors -------------------------------------------------

    @classmethod
    def constant(cls, matrix):
        m = _check_real("constant coefficient", matrix, shape=None).copy()  # frozen below
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError("constant coefficient must be a square matrix")
        m.setflags(write=False)
        return cls(m.shape[0], lambda start, stop: np.broadcast_to(m, (stop - start, *m.shape)))

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
        (count, s, s) array (n=1..count).  Keeps its own read-only copy;
        refuses what ``_matrix_array`` refuses."""
        data = _matrix_array(matrices)
        data.setflags(write=False)
        count, s = data.shape[:2]

        def block_fn(start, stop):
            if stop - 1 > count:
                n = max(start, count + 1)
                raise IndexError(f"matrix sequence exhausted at n={n} (count={count})")
            return data[start - 1 : stop - 1]

        seq = cls(s, block_fn)
        seq.count = count
        return seq

    # --- access -------------------------------------------------------

    def matrices(self, start, stop):
        """The coefficient matrices A(start), ..., A(stop - 1) as a
        (stop - start, s, s) array.  Deterministic; 1 <= start <= stop.

        Raises PropagationError naming the first step whose matrix cannot
        be evaluated or is not finite, and IndexError when a file-backed
        sequence runs out of records.
        """
        start, stop = _check_integer("start", start, 1), _check_integer("stop", stop, start)
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
        bad = _first_non_finite(mats)
        if bad is not None:
            raise PropagationError(f"coefficient A(n) is not finite at n={start + bad}")
        return mats

    def matrix_at(self, n):
        """Coefficient matrix A(n).  Deterministic; n >= 1."""
        n = _check_integer("n", n, 1)
        return self.matrices(n, n + 1)[0]

    def lyapunov_bound(self, horizon):
        """max over n <= horizon of max(||A(n)||, ||A(n)^-1||); always >= 1.

        The true bound runs over all n; this one is horizon-stamped.
        """
        horizon = _check_integer("horizon", horizon, 1)
        bound = 1.0
        for start, mats in _chunks(self.matrices, 1, horizon + 1):
            sv, singular = _singular_values(mats, start)
            if singular is not None:
                raise NotLyapunovSequenceError(
                    f"A({singular}) is singular to tolerance; not a Lyapunov sequence",
                    index=singular,
                )
            bound = max(bound, float(sv[:, 0].max()), 1.0 / float(sv[:, -1].min()))
        return bound


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
        exprs = [_formula(*entry) for entry in flat]  # "0" off the diagonal keeps exact zeros
        return CoefficientSequence.dense_formulas(
            [[e if i == j else "0" for j in range(s)] for i, e in enumerate(exprs)])

    if kind == "dense":
        if len(flat) != s * s:
            raise ParseError(f"dense kind needs {s * s} entries, got {len(flat)}", entries_line, 1)
        exprs = [_formula(*entry) for entry in flat]
        return CoefficientSequence.dense_formulas([exprs[i * s : (i + 1) * s] for i in range(s)])

    raise ParseError(f"unknown kind {kind!r}", kind_line, 1)


# --- matrix sequence files --------------------------------------------


_last_parsed = (None, None)  # (length, hash()) of the last matrix file's bytes, its sequence


def read_matrix_sequence(path):
    """Read a matrix sequence file: header 's count', then count s*s blocks
    of signed ASCII decimals separated by whitespace.

    Records are indexed from n=1; other origins are not supported.  The
    process keeps the sequence of the last file parsed, keyed by the length
    and ``hash()`` of its bytes (64-bit SipHash under a per-process key), and
    returns it again for the same bytes; a refused file is not kept.  A
    message names the path as ``os.fspath`` gives it, a ``Path`` as its str.
    """
    global _last_parsed
    path = os.fspath(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    key = len(raw), hash(raw)
    if key == _last_parsed[0]:
        return _last_parsed[1]
    head = io.TextIOWrapper(io.BytesIO(raw)).read().split(None, 2)  # decoded as open(path)
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
    bad = _first_non_finite(data)
    if bad is not None:
        raise ParseError(f"{path!r}: record {bad + 1} has a non-finite value", 1, 1)
    _last_parsed = key, CoefficientSequence.from_matrices(data)
    return _last_parsed[1]


def write_matrix_sequence(path, matrices):
    """Write ``matrices``, as ``from_matrices`` takes them, in the format that
    ``read_matrix_sequence`` reads back bit for bit; what the reader would
    refuse is refused first, by an InvalidInputError naming the record."""
    path = os.fspath(path)
    data = _matrix_array(matrices)
    bad = _first_non_finite(data)
    if bad is not None:
        raise InvalidInputError(f"{path!r}: record {bad + 1} has a non-finite value")
    with open(path, "w") as fh:
        fh.write(f"{data.shape[1]} {len(data)}\n")
        for m in data:
            for row in m:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def _matrix_array(matrices):
    """``matrices``, an iterable of matrices or a (count, s, s) array, as a new
    (count, s, s) float array.  InvalidInputError names the first record that
    is not an s x s matrix of real numbers, s the row count of record 1."""
    records = np.atleast_1d(matrices) if isinstance(matrices, np.ndarray) else list(matrices)
    rows = None
    # the records of a 3-d array share one shape and dtype, so record 1 speaks for all
    for n, record in enumerate(records[:1] if getattr(records, "ndim", 0) == 3 else records, 1):
        try:
            m = np.asarray(record)
        except ValueError:  # ragged rows
            m = np.empty(())
        if n == 1:
            rows = len(m) if m.ndim else None
        if m.shape != (rows, rows) or m.dtype.kind not in "iuf":
            size = f"{rows} x {rows}" if n > 1 else "square"
            raise InvalidInputError(f"matrix sequence record {n} is not a real {size} matrix")
    if not rows:
        raise InvalidInputError("empty matrix sequence")
    return np.array(records, dtype=float)


def _first_non_finite(mats):
    """Index of the first matrix of a (k, s, s) stack with a non-finite entry, or None.
    One pass over the whole stack clears it; the per-matrix scan only names the step."""
    if np.isfinite(mats).all():
        return None
    return int(np.argmin(np.isfinite(mats).all(axis=(1, 2))))


# --- log-scaled propagation -------------------------------------------


class TrajectoryLog:
    """A solution stored as a unit direction and an accumulated log-norm
    at every step n = 1, ..., horizon, step n in row n - 1.

    The actual solution value at step n is exp(log_norm) * direction.
    Directions are renormalized every propagation step, so log-norm
    magnitudes up to ~1e7 are safe.  A non-finite entry is refused, naming its step.
    """

    def __init__(self, directions, log_norms):
        self.directions = np.asarray(directions, dtype=float)
        self.log_norms = np.asarray(log_norms, dtype=float)
        if self.directions.ndim != 2 or self.log_norms.ndim != 1 or (
                len(self.directions) != len(self.log_norms)):
            raise InvalidInputError(
                f"a trajectory needs (horizon, s) directions and (horizon,) log-norms, "
                f"got {self.directions.shape} and {self.log_norms.shape}")
        bad = ~(np.isfinite(self.directions).all(axis=1) & np.isfinite(self.log_norms))
        if bad.any():
            raise InvalidInputError(f"trajectory step n={np.argmax(bad) + 1} is not finite")

    @property
    def horizon(self):
        return len(self.log_norms)

    def positions(self, ns):
        """Rows of the steps ``ns``, an integer or an array of them.

        InvalidInputError for a step that is not an integer, a bool or a
        whole float included (it is refused, not truncated); KeyError for a
        step outside 1, ..., horizon.
        """
        ns = np.asarray(ns)
        if ns.size == 0:
            ns = ns.astype(np.int64)
        elif ns.dtype.kind not in "iu":
            bad = [v for v in np.ravel(ns).tolist()
                   if isinstance(v, bool) or not isinstance(v, int)]
            raise InvalidInputError(  # ints alone make an object array past 64 bits
                f"step n={bad[0]!r} is not an integer" if bad
                else f"steps must be an integer array, got dtype {ns.dtype}")
        outside = (ns < 1) | (ns > self.horizon)
        if np.any(outside):
            missing = np.ravel(ns)[np.argmax(np.ravel(outside))]
            raise KeyError(f"step n={missing} is outside this trajectory's steps 1..{self.horizon}")
        return ns - 1

    def direction_at(self, n):
        return self.directions[self.positions(n)]

    def value_at(self, n):
        """x(n), or the (k, s) rows x(n) of an array of k steps; PropagationError
        naming the first step where the norm of x is past the double range."""
        i = self.positions(n)
        exps = [_exp_times(v, 1.0, f"x(n={k + 1})") for k, v in zip(i.flat, self.log_norms[i].flat)]
        return np.reshape(exps, (*np.shape(i), 1)) * self.directions[i]


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
    taken in halves; a single step takes a column's image under the
    column's own power of two where A(n) scaled by its largest entry would
    round it below the normal range (a segment whose first step does so
    goes on a step at a time), and raises PropagationError where the image
    is zero and UnderflowError where it is subnormal.  A chunk whose
    A(n) are all diagonal, with entries normal or zero, is taken exactly in
    log form instead, in blocks of whole segments (see ``_chunk_states``).
    """
    x0 = _check_real("initial vectors", x0, shape=None)
    single = x0.ndim == 1
    cols = x0[:, None] if single else x0
    if cols.ndim != 2 or cols.shape[0] != seq.dimension or cols.shape[1] == 0:
        raise InvalidInputError(
            f"initial vectors must have shape ({seq.dimension},) or ({seq.dimension}, m), "
            f"got {x0.shape}"
        )
    horizon = _check_integer("horizon", horizon, 1)

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
    of up to BLOCK_STEPS steps, or on a diagonal chunk the blocks of
    ``_chunk_states``: whole segments, where one that ends before step
    ``read_from`` gives its last step alone.  After a block the caller may
    send a boolean keep-mask over its columns: the columns it clears are
    dropped from the carried state, and later blocks hold only the kept
    ones.  ``propagate`` stores every block and sends no mask; a caller
    that reads only log-norms folds over them one block at a time.  A zero
    or non-finite column raises InvalidInputError, and a collapse of a
    carried column raises as in ``propagate``.
    """
    d, log_norm = _unit_columns(cols)
    if not np.all(np.isfinite(log_norm)):
        raise InvalidInputError("initial vector must be nonzero and finite")
    keep = yield np.array([1]), d[None], log_norm[None]
    state = d, log_norm, None
    for start, mats in _chunks(seq.matrices, 1, horizon):
        chunk = _chunk_states(mats, start, _kept(state, keep), read_from)
        keep = None  # the mask sent after a block goes on to the chunk
        for steps, dirs, logs, state in iter(lambda: chunk.send(keep), None):
            keep = yield steps, dirs, logs


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
    ...: yields (steps, dirs, log_norms) of each block as
    ``_propagation_blocks`` does, and the state after it; a keep-mask sent
    after a block applies to the state carried on.

    A state is (d, log_norm, exact): unit columns, their log-norms, and,
    after a diagonal chunk, exact = (signs, logs) of every component of the
    columns, each (s, m, 1) (None after a scan).  A chunk whose A(n) are
    all diagonal with entries normal or zero extends those logs by running
    sums of ln |a_ii| that restart at every BLOCK_STEPS segment, so no part
    of a column is lost below the resolution of its direction.  Its blocks
    are whole segments up to the chunk, holding at most s * CHUNK_STEPS
    column-steps (a segment that ends before step ``read_from`` holds its
    last step alone), and a block ends before a segment where a column is
    emptied by a zero entry, which then raises PropagationError alone.
    Any other chunk takes the scaled-product scan, a segment per block.
    """
    d, log_norm, exact = state
    k, s = mats.shape[:2]
    diagonal = np.ascontiguousarray(np.diagonal(mats, axis1=1, axis2=2).T)  # (s, k)
    size = np.abs(diagonal)
    # row-major, the entries after each a_ii up to the next one are those off the diagonal
    off_diagonal = mats.reshape(k, -1)[:, 1:].reshape(k, s - 1, s + 1)[:, :, :s]
    if off_diagonal.any() or ((size > 0.0) & (size < _NORMAL_MIN)).any():
        for n, segment, scan in _segment_scans(mats, n0):
            dirs, growth = _block_states(segment, d, n, scan)
            logs = log_norm + growth
            steps = np.arange(n + 1, n + len(segment) + 1)  # x(n+1) follows A(n)
            state = dirs[-1], logs[-1], None
            keep = yield steps, dirs, logs, state
            d, log_norm, _ = _kept(state, keep)
        return
    ends = np.append(np.arange(BLOCK_STEPS, k, BLOCK_STEPS), k) - 1  # each segment's last position
    ln_a = np.zeros((s, len(ends) * BLOCK_STEPS))  # whole segments; every sweep runs along k
    with np.errstate(divide="ignore"):
        np.log(size, out=ln_a[:, :k])
        sign, ln_x = exact or (np.sign(d)[..., None], (np.log(np.abs(d)) + log_norm)[..., None])
    # the running sums of ln |a_ii| restart at every segment
    sums = np.cumsum(ln_a.reshape(s, -1, BLOCK_STEPS), axis=2).reshape(s, -1)
    skip = int(np.searchsorted(n0 + ends, read_from - 1))  # segments that end before read_from
    read = np.concatenate([ends[:skip], np.arange(skip * BLOCK_STEPS, k)])  # their last steps alone
    bounds = np.searchsorted(read, np.append(np.arange(0, k, BLOCK_STEPS), k))  # segments in read
    read_sums = np.take(sums, read, axis=1)[:, None]
    # the sign products carry across segments, for a product of signs is exact
    read_signs = np.take(np.cumprod(np.sign(diagonal), axis=1), read, axis=1)[:, None]
    first = 0
    while first < len(ends):  # a block: whole segments, at most s * CHUNK_STEPS column-steps
        m = ln_x.shape[1]
        stop = first + max(1, int(np.searchsorted(bounds[first + 1 :] - bounds[first],
                                                  s * CHUNK_STEPS // m, side="right")))
        # the logs at the segment starts, each the last one plus its segment's sum, (s, m, 1 + g)
        end_sums = np.take(sums, ends[first:stop], axis=1)[:, None]
        starts = np.cumsum(np.concatenate(
            [ln_x, np.broadcast_to(end_sums, (s, m, stop - first))], axis=2), axis=2)
        dead = np.isneginf(starts[..., 1:].max(axis=0)).any(axis=0)  # a column collapsed
        stop = first + int(np.argmax(dead)) if dead.any() else stop  # the block ends before it
        if stop == first:  # the segment raises alone: a collapsed column stays at -inf
            column = ln_x + sums[:, None, first * BLOCK_STEPS : ends[first] + 1]
            n = n0 + first * BLOCK_STEPS + np.argmax(np.isneginf(column.max(axis=0)).any(axis=0))
            raise PropagationError(f"propagation collapsed at n={n + 1} (max |x|=0.0)")
        at = slice(bounds[first], bounds[stop])
        y = np.repeat(starts[..., : stop - first], np.diff(bounds[first : stop + 1]), axis=2)
        y += read_sums[..., at]  # (s, m, k)
        top = y.max(axis=0)
        exact = sign * read_signs[..., at.stop - 1, None], starts[..., stop - first, None]
        y -= top  # in place, so that many columns hold one (s, m, k) array
        np.exp(y, out=y)
        norms = np.sqrt((y * y).sum(axis=0))  # the squares added in order, whatever m is
        y *= sign
        y *= read_signs[..., at]
        y /= norms
        logs = np.log(norms, out=norms)
        logs += top
        state = y[..., -1].copy(), logs[:, -1], exact  # a strided d takes another BLAS path
        keep = yield n0 + read[at] + 1, y.transpose(2, 0, 1), logs.T, state
        _, _, (_, ln_x) = _kept(state, keep)
        sign = sign if keep is None else sign.compress(keep, axis=1)  # at the chunk's start
        first = stop


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
    scale = exps[:, None]  # (k, 1): the power of two each image is taken under
    with np.errstate(all="ignore"):
        top = _max_abs(y)  # (k, m)
        if len(mats) > 1 and not (top[0] >= _NORMAL_MIN).all():
            # the first step takes the single-step image below, and an A(n) that
            # spans past the double range spans it again: no scan, a step at a time
            steps = [_block_states(mats[:1], d, n0, (prods[:1], exps[:1], lost[:1]))]
            scans = _running_products(mats[1:, None])  # the later steps' one-step scans
            for j in range(1, len(mats)):
                scan = [a[j - 1] for a in scans]
                steps.append(_block_states(mats[j : j + 1], steps[-1][0][-1], n0 + j, scan))
            dirs, growth = zip(*steps)
            return np.concatenate(dirs), np.cumsum(np.concatenate(growth), axis=0)
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
            # A(n) scaled by its largest entry can round an image to zero that
            # is normal: take each column's image under its own power of two
            terms = mats[0][:, :, None] * d  # (s, s, m) products a_ij d_j, none overflows
            scale = np.frexp(np.abs(terms).max(axis=(0, 1)))[1][None]  # (1, m)
            y = np.ldexp(terms, -scale).sum(axis=1)[None]
            image = np.ldexp(_max_abs(y), scale)
            if not (image >= _NORMAL_MIN).all():
                error = UnderflowError if (image > 0.0).all() else PropagationError
                raise error(f"propagation collapsed at n={n0 + 1} (max |x|={float(image.min())})")
            top = _max_abs(y)
        # scale each column by a power of two so its sum of squares cannot underflow;
        # in place, so that a block of many columns holds one (k, s, m) array
        shift = np.frexp(top)[1]
        np.ldexp(y, -shift[:, None, :], out=y)
        norms = np.sqrt(np.einsum("ksm,ksm->km", y, y))
        y /= norms[:, None, :]
        growth = np.log(norms, out=norms)
        growth += (scale + shift) * _LN2
        return y, growth


@dataclass(frozen=True)
class ScaledMatrix:
    """A matrix represented as exp(log_scale) * unit with ||unit|| = 1."""

    unit: np.ndarray
    log_scale: float

    def to_dense(self):
        """The matrix itself; PropagationError where its norm is past the double range."""
        return _exp_times(self.log_scale, self.unit, "a transition matrix")

    @property
    def log_spectral_norm(self):
        return self.log_scale  # ||unit|| == 1 by construction


def _exp_times(log_scale, unit, what):
    """exp(log_scale) * unit, the value of a log-scaled ``what``."""
    try:
        return math.exp(log_scale) * unit
    except OverflowError:
        raise PropagationError(
            f"{what} overflows the double range: its norm is exp({float(log_scale):.6g})") from None


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
    n, m = _check_integer("n", n, 1), _check_integer("m", m, 1)
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
    if _singular_values(fwd.unit[None])[1] is not None:
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

    def sums(start, stop):
        return seq.matrices(start, stop) + q_seq.matrices(start, stop)

    for start, mats in _chunks(sums, 1, _check_integer("check_horizon", check_horizon, 0) + 1):
        singular = _singular_values(mats, start)[1]
        if singular is not None:
            raise InadmissiblePerturbationError(
                f"A({singular}) + Q({singular}) is singular to tolerance")
    return CoefficientSequence(s, block_fn)

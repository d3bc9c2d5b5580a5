"""Ready-made systems used throughout the test suite and CLI scenarios."""

import numpy as np

from .splitness import FSSRecord
from .linalg import _check_integer
from .system import CoefficientSequence, parse_generator_spec

SIN_LOG_SPEC = """\
dimension: 2
kind: diagonal
entries:
  exp(n*sin(ln(n)) - (n+1)*sin(ln(n+1)))
  exp(2*((n+1)*sin(ln(n+1)) - n*sin(ln(n))))
"""


def sin_log_system():
    """Diagonal 2-d system whose solution growth oscillates on the
    sin(ln n) scale; its exponent estimates converge only along sparse
    realizing indices."""
    return parse_generator_spec(SIN_LOG_SPEC)


def sin_log_witness_fss(horizon, seq=None):
    """The non-normal FSS {(1,1)-solution, (0,1)-solution} of the
    sin-log system, both with top exponent growth."""
    if seq is None:
        seq = sin_log_system()
    return FSSRecord.from_initial_vectors(seq, [[1.0, 1.0], [0.0, 1.0]], horizon)


def geometric_diag(values):
    """Constant diagonal system x(n+1) = diag(values) x(n)."""
    return CoefficientSequence.constant(np.diag(values))


def standard_basis_fss(seq, horizon):
    """FSS started from the standard basis vectors."""
    return FSSRecord.from_initial_vectors(seq, list(np.eye(seq.dimension)), horizon)


def sin_log_extrema(max_n):
    """Largest and smallest sin(ln n) over n = 1, ..., max_n and where
    they occur."""
    max_n = _check_integer("max_n", max_n, 1)
    ns = np.arange(1, max_n + 1, dtype=float)
    values = np.sin(np.log(ns))
    i_max = int(np.argmax(values))
    i_min = int(np.argmin(values))
    return {
        "max_n": max_n,
        "max_value": float(values[i_max]),
        "argmax": i_max + 1,
        "min_value": float(values[i_min]),
        "argmin": i_min + 1,
    }

"""Coordinate invariance of what ltvlab reports.

A Lyapunov transformation L(n), bounded with a bounded inverse, leaves the
exponents, the spectrum and normality of a system unchanged; an orthogonal
L(n) also leaves every angle, and so the splitted verdict, unchanged
(Adrianova, 1995).  Each row builds B(n) = L(n+1) A(n) L(n)^-1 with
``apply_lyapunov_transformation``, propagates a fresh FSS from L(1) v_i in
the new coordinates, and compares what the library reports there with what
it reports in the old ones.

Exponents agree within C * (ln(1/u) + ln kappa(L)) / (H/2), the resolution
rounding leaves to a column that must first outgrow an error of u, magnified
by up to the condition number kappa(L), along a faster direction within the
tail window.  C = 1.5 is fit from the checks that agree: their largest move
is 0.0078 = 1.06 ln(1/u) / (H/2), the lower end of diag(1,2)'s spectrum under
rot(0.7 sin ln n); under the one L that is not orthogonal, diag(1, 10) Q with
kappa = 10, the one check that agrees moves 0.00024 = 0.031 (ln(1/u) + ln 10)
/ (H/2).  Such an L keeps exponents but not angles, so it runs the exponent
checks alone.  Verdicts agree exactly.  A check that ROADMAP.md's items 1
(resolution) and 15 (the CLV FSS) record as failing today is a strict xfail,
so the change that resolves it has to flip the mark.
"""

import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ltvlab import (
    CoefficientSequence,
    FSSRecord,
    apply_lyapunov_transformation,
    incompressibility_test,
    read_matrix_sequence,
    spectrum_estimate,
    splitness_report,
    write_matrix_sequence,
)
from ltvlab.presets import geometric_diag, sin_log_witness_fss, standard_basis_fss

HORIZON = 10_000
C = 1.5
LN_INV_U = 53 * math.log(2.0)  # ln(1/u)


def tri3_standard():
    """A seeded upper-triangular system like the tri3 benchmark's, diagonal
    exp(lambda + 0.2 u) with lambda = (-0.3, 0.2, 0.7), u ~ U(-1, 1), strict
    upper entries ~ U(-0.5, 0.5), read back from a matrix file."""
    rng = np.random.default_rng(3)
    mats = np.triu(rng.uniform(-0.5, 0.5, size=(HORIZON, 3, 3)), 1)
    mats[:, range(3), range(3)] = np.exp([-0.3, 0.2, 0.7] + 0.2 * rng.uniform(-1, 1, (HORIZON, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tri3.seq"
        write_matrix_sequence(path, mats)
        return standard_basis_fss(read_matrix_sequence(path), HORIZON)


SYSTEMS = {
    "diag12-standard": lambda: standard_basis_fss(geometric_diag([1.0, 2.0]), HORIZON),
    "sinlog-witness": lambda: sin_log_witness_fss(HORIZON),
    "diag123-standard": lambda: standard_basis_fss(geometric_diag([1.0, 2.0, 3.0]), HORIZON),
    "tri3-standard": tri3_standard,
}
TRANSFORMS = {
    "Q": lambda: CoefficientSequence.constant([[0.8, -0.6], [0.6, 0.8]]),
    "rot-sin-ln": lambda: CoefficientSequence.dense_formulas(
        [["cos(0.7*sin(ln(n)))", "-sin(0.7*sin(ln(n)))"],
         ["sin(0.7*sin(ln(n)))", "cos(0.7*sin(ln(n)))"]]),
    "Q-embedded": lambda: CoefficientSequence.constant(  # Q on the first two coordinates
        [[0.8, -0.6, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
    "diag-1-10-Q": lambda: CoefficientSequence.constant(  # diag(1, 10) Q
        [[0.8, -0.6], [6.0, 8.0]]),
}
KAPPA = {"diag-1-10-Q": 10.0}  # the condition number of each L that is not orthogonal
TRANSFORMS_OF = {  # the transforms of each system's dimension
    "diag12-standard": ("Q", "rot-sin-ln", "diag-1-10-Q"),
    "sinlog-witness": ("Q", "rot-sin-ln", "diag-1-10-Q"),
    "diag123-standard": ("Q-embedded",),
    "tri3-standard": ("Q-embedded",),
}
CHECKS = ("spectrum", "members", "normal", "splitted")
EXPONENT_CHECKS = ("spectrum", "members")

ROUNDED_A = pytest.mark.xfail(
    strict=True, reason="item 1: the rounding of the stored A(n) decides the reading")
SLOW_START = pytest.mark.xfail(
    strict=True, reason="items 1 and 15: a member starts in a slow direction that forward "
                        "propagation cannot hold")
# the checks that fail today, with their cause: the witness spectrum moves
# from (-0.213, 1.576) to (-0.694, 1.672), and a slow member picks up the
# fast exponent (the slowest of diag(1,2,3) reads 0.689, of tri3 0.197 for -0.300)
FAILING = {
    "diag12-standard": ({"members", "splitted"}, SLOW_START),
    "sinlog-witness": (set(CHECKS), ROUNDED_A),
    "diag123-standard": ({"members", "splitted"}, SLOW_START),
    "tri3-standard": ({"members", "splitted"}, SLOW_START),
}


@functools.cache
def reported(system, transform=None):
    """The spectrum, the member exponents and the normal and splitted
    verdicts of an FSS of ``system``, or of a fresh FSS in the coordinates
    of ``transform``."""
    fss = SYSTEMS[system]()
    if transform is not None:
        ls = TRANSFORMS[transform]()
        mapped = apply_lyapunov_transformation(fss, ls)
        fss = FSSRecord.from_initial_vectors(mapped.seq, mapped.initial_vectors, HORIZON)
    verdict = incompressibility_test(fss)
    return {"spectrum": spectrum_estimate(fss.seq, HORIZON).exponents,
            "members": verdict.member_exponents, "normal": verdict.is_normal,
            "splitted": splitness_report(fss).splitted}


@pytest.mark.parametrize("system, transform, check", [
    pytest.param(system, transform, check,
                 marks=[FAILING[system][1]] if check in FAILING[system][0] else [])
    for system in SYSTEMS for transform in TRANSFORMS_OF[system]
    for check in (EXPONENT_CHECKS if transform in KAPPA else CHECKS)])
def test_a_coordinate_change_keeps_what_is_reported(system, transform, check):
    before, after = reported(system)[check], reported(system, transform)[check]
    if check in EXPONENT_CHECKS:
        tol = C * (LN_INV_U + math.log(KAPPA.get(transform, 1.0))) / (HORIZON / 2)
        assert np.abs(after - before).max() <= tol
    else:
        assert after == before

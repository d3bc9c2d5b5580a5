"""Coordinate invariance of what ltvlab reports.

A Lyapunov transformation L(n), bounded with a bounded inverse, leaves the
exponents, the spectrum and normality of a system unchanged; an orthogonal
L(n) also leaves every angle, and so the splitted verdict, unchanged
(Adrianova, 1995).  Each row builds B(n) = L(n+1) A(n) L(n)^-1 with
``apply_lyapunov_transformation``, propagates a fresh FSS from L(1) v_i in
the new coordinates, and compares what the library reports there with what
it reports in the old ones.

Exponents agree within C * ln(1/u) / (H/2), the resolution rounding leaves
to a column that must first outgrow an error of u along a faster direction
within the tail window.  C = 1.5 is fit from the checks that agree: their
largest move is 0.0078 = 1.06 ln(1/u) / (H/2), the lower end of diag(1,2)'s
spectrum under rot(0.7 sin ln n).  Verdicts agree exactly.  A check that
ROADMAP.md's item 1 (resolution) records as failing today is a strict xfail,
so the change that resolves it has to flip the mark.
"""

import functools
import math

import numpy as np
import pytest

from ltvlab import (
    CoefficientSequence,
    FSSRecord,
    apply_lyapunov_transformation,
    incompressibility_test,
    spectrum_estimate,
    splitness_report,
)
from ltvlab.presets import geometric_diag, sin_log_witness_fss, standard_basis_fss

HORIZON = 10_000
C = 1.5
EXPONENT_TOL = C * 53 * math.log(2.0) / (HORIZON / 2)  # ln(1/u) = 53 ln 2

SYSTEMS = {
    "diag12-standard": lambda: standard_basis_fss(geometric_diag([1.0, 2.0]), HORIZON),
    "sinlog-witness": lambda: sin_log_witness_fss(HORIZON),
}
TRANSFORMS = {
    "Q": lambda: CoefficientSequence.constant([[0.8, -0.6], [0.6, 0.8]]),
    "rot-sin-ln": lambda: CoefficientSequence.dense_formulas(
        [["cos(0.7*sin(ln(n)))", "-sin(0.7*sin(ln(n)))"],
         ["sin(0.7*sin(ln(n)))", "cos(0.7*sin(ln(n)))"]]),
}
CHECKS = ("spectrum", "members", "normal", "splitted")

# the checks that fail today: a slow member picks up the fast exponent, and
# the witness spectrum moves from (-0.213, 1.576) to (-0.694, 1.672)
FAILING = {
    "diag12-standard": {"members", "splitted"},
    "sinlog-witness": set(CHECKS),
}
UNRESOLVED = pytest.mark.xfail(strict=True, reason="item 1: not resolved in double precision")


@functools.cache
def reported(system, transform=None):
    """The spectrum, the member exponents and the normal and splitted
    verdicts of an FSS of ``system``, or of a fresh FSS in the coordinates
    of ``transform``."""
    fss = SYSTEMS[system]()
    if transform is not None:
        ls = TRANSFORMS[transform]()
        seq, _ = apply_lyapunov_transformation(fss.seq, fss, ls)
        fss = FSSRecord.from_initial_vectors(seq, fss.initial_vectors @ ls.matrix_at(1).T, HORIZON)
    verdict = incompressibility_test(fss)
    return {"spectrum": spectrum_estimate(fss.seq, HORIZON).exponents,
            "members": verdict.member_exponents, "normal": verdict.is_normal,
            "splitted": splitness_report(fss).splitted}


@pytest.mark.parametrize("system, transform, check", [
    pytest.param(system, transform, check, marks=[UNRESOLVED] if check in FAILING[system] else [])
    for system in SYSTEMS for transform in TRANSFORMS for check in CHECKS])
def test_a_coordinate_change_keeps_what_is_reported(system, transform, check):
    before, after = reported(system)[check], reported(system, transform)[check]
    if check in ("spectrum", "members"):
        assert np.abs(after - before).max() <= EXPONENT_TOL
    else:
        assert after == before

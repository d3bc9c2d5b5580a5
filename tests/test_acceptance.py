"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on success).  The scenarios cover the two reference systems: the constant
diag(1,2) system and the sin(ln n)-driven diagonal system.
"""

import math
import time

import numpy as np
import pytest

import ltvlab as lt
from ltvlab.linalg import SINGULAR_RTOL
from ltvlab.presets import (
    geometric_diag,
    sin_log_extrema,
    sin_log_system,
    sin_log_witness_fss,
    standard_basis_fss,
)

HORIZON = 10_000


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}  criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def diag12():
    return geometric_diag([1.0, 2.0])


@pytest.fixture(scope="module")
def diag12_fss(diag12):
    return standard_basis_fss(diag12, HORIZON)


@pytest.fixture(scope="module")
def sin_log():
    return sin_log_system()


@pytest.fixture(scope="module")
def sin_log_fss(sin_log):
    return sin_log_witness_fss(HORIZON, sin_log)


def test_criterion_1_constant_diag_spectrum(diag12):
    start = time.perf_counter()
    est = lt.spectrum_estimate(diag12, HORIZON)
    elapsed = time.perf_counter() - start
    err = float(np.abs(est.exponents - [0.0, math.log(2)]).max())
    report(
        1,
        "diag(1,2) spectrum (0, ln 2) within 1e-3",
        err < 1e-3 and elapsed < 1.0,
        f"err={err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_sin_log_angle_closed_form(sin_log_fss):
    start = time.perf_counter()
    computed = sin_log_fss.cos_angle_profile()[:, 0]
    elapsed = time.perf_counter() - start
    ns = np.arange(1, sin_log_fss.horizon + 1).astype(float)
    with np.errstate(over="ignore"):
        expected = (1.0 + np.exp(-6.0 * ns * np.sin(np.log(ns)))) ** -0.5
    err = float(np.abs(computed - expected).max())
    report(
        2,
        "sin-log system cos phi_1(n) closed form to 1e-9, n <= 1e4",
        err <= 1e-9 and elapsed < 5.0,
        f"err={err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_sin_log_density_at_realizing_index(sin_log_fss):
    gamma = math.acos(0.9)
    n1 = math.floor(math.e ** (2.5 * math.pi)) + 1
    assert n1 == 2576
    _, densities = lt.gamma_statistics(sin_log_fss, 0, gamma, sigma=1)
    g1 = float(densities[n1 - 1])
    f1 = float(lt.exponent_profile(sin_log_fss.trajectories[0], 1)[1][n1 - 1])
    asymptotic = (1 - math.e**-math.pi) / math.e ** (math.pi / 2)
    print(f"asymptotic density lower bound: {asymptotic:.4f}")
    report(
        3,
        "sin-log density g_1(2576) >= 0.19 and f_1(2576) >= 2 - 1e-2",
        g1 >= 0.19 and f1 >= 2 - 1e-2,
        f"g1={g1:.4f}, f1={f1:.6f}, bound={asymptotic:.4f}",
    )


def test_criterion_4_sin_log_non_normality(sin_log_fss):
    verdict = lt.incompressibility_test(sin_log_fss, seed=0)
    witness_ok = verdict.witness is not None and np.allclose(
        np.abs(verdict.witness) / np.abs(verdict.witness).max(), [1.0, 1.0]
    )
    report(
        4,
        "sin-log FSS NOT-NORMAL with witness (1,-1), combined exponent <= 1.1",
        verdict.status == "NOT-NORMAL"
        and witness_ok
        and verdict.witness_exponent <= 1.1,
        f"witness={verdict.witness}, exponent={verdict.witness_exponent:.4f}",
    )


def test_criterion_5_prescribed_shift_constant_diag(diag12_fss):
    start = time.perf_counter()
    plan = lt.build_plan(diag12_fss, [0.01, -0.01])
    outcome = lt.execute_plan(plan)
    elapsed = time.perf_counter() - start
    targets = np.array([0.01, math.log(2) - 0.01])
    exp_err = float(np.abs(outcome.perturbed_exponents - targets).max())
    r_err = abs(outcome.r_norm_sup - (math.exp(0.01) - 1))
    beta_ok = abs(plan.constants.beta - 13.444) < 1e-3
    report(
        5,
        "shifts (0.01,-0.01) on diag(1,2) hit (0.01, ln2-0.01) within 1e-3",
        exp_err < 1e-3
        and r_err < 1e-6
        and outcome.r_norm_sup <= outcome.norm_budget
        and beta_ok
        and elapsed < 2.0,
        f"exp_err={exp_err:.2e}, ||R-I||={outcome.r_norm_sup:.6f}, "
        f"beta={plan.constants.beta:.3f}, {elapsed:.2f}s",
    )


def test_criterion_6_closed_form_oracle(diag12_fss, sin_log_fss):
    plan_a = lt.build_plan(diag12_fss, [0.01, -0.01])
    out_a = lt.execute_plan(plan_a)

    cal = lt.calibrate(sin_log_fss)
    d = cal.constants.delta
    plan_b = lt.build_plan(sin_log_fss, [-d / 2, d / 2], calibration=cal)
    out_b = lt.execute_plan(plan_b)

    worst = max(out_a.agreement_residual, out_b.agreement_residual)
    report(
        6,
        "closed-form perturbed solutions match simulation to relative 1e-9",
        worst <= 1e-9,
        f"residuals {out_a.agreement_residual:.2e}, {out_b.agreement_residual:.2e}",
    )


def test_criterion_7_property_suites():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()

    # angle contraction under invertible maps
    l1_ok = 0
    while l1_ok < 500:
        s = int(rng.integers(2, 6))
        x = rng.normal(size=(s, s))
        kappa = np.linalg.cond(x)
        if kappa >= 1.0 / SINGULAR_RTOL:  # singular to tolerance
            continue
        p = rng.normal(size=s)
        basis = rng.normal(size=(s, int(rng.integers(1, s))))
        try:
            before = lt.angle_to_subspace(p, basis)
            after = lt.angle_to_subspace(x @ p, x @ basis)
        except lt.InvalidInputError:
            continue
        assert after >= (2 / math.pi) * before * kappa ** (1 - s) - 1e-12
        l1_ok += 1

    # projection norm identity ||P^i|| = 1/sin(angle)
    l3_ok = 0
    while l3_ok < 500:
        s = int(rng.integers(2, 6))
        cols = rng.normal(size=(s, s))
        try:
            ps = lt.oblique_projections(list(cols.T))
        except lt.SingularMatrixError:
            continue
        i = int(rng.integers(0, s))
        others = np.delete(cols.T, i, axis=0).T
        phi = lt.angle_to_subspace(cols.T[i], others)
        if phi < 1e-6:
            continue
        norm = lt.spectral_norm(ps[i])
        assert abs(norm - 1.0 / math.sin(phi)) <= 1e-9 * norm
        l3_ok += 1

    # transition norm bound ||X(n, m)|| <= a^|n-m|
    ots_ok = 0
    while ots_ok < 500:
        s = int(rng.integers(2, 6))
        count = int(rng.integers(2, 12))
        mats = [np.eye(s) + 0.3 * rng.normal(size=(s, s)) for _ in range(count)]
        try:
            seq = lt.CoefficientSequence.from_matrices(mats)
            a = seq.lyapunov_bound(count)
        except lt.NotLyapunovSequenceError:
            continue
        n = int(rng.integers(1, count + 1))
        m = int(rng.integers(1, count + 1))
        if max(n, m) > count + 1:
            continue
        x = lt.transition(seq, n, m)
        cap = abs(n - m) * math.log(a)
        assert x.log_spectral_norm <= cap + 1e-9 * max(1.0, abs(cap))
        ots_ok += 1

    # additive <-> multiplicative ball inclusions scaled by the bound a
    for _ in range(200):
        s = int(rng.integers(2, 5))
        a_mat = np.eye(s) + 0.4 * rng.normal(size=(s, s))
        sv = np.linalg.svd(a_mat, compute_uv=False)
        if sv[-1] < 1e-3:
            continue
        a = max(sv[0], 1.0 / sv[-1], 1.0)
        delta = 10.0 ** rng.uniform(-4, -1)
        q = rng.normal(size=(s, s))
        q *= delta / np.linalg.norm(q, 2)
        assert np.linalg.norm(np.linalg.solve(a_mat, q), 2) <= a * delta + 1e-12
        assert np.linalg.norm(a_mat @ (np.eye(s) + q) - a_mat, 2) <= a * delta + 1e-12

    elapsed = time.perf_counter() - start
    report(
        7,
        "property suites (angle contraction, projection norm, transition "
        "bound, perturbation inclusions)",
        elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_8_sampling_invariance(diag12_fss, sin_log_fss):
    agree = True
    details = []
    for fss, label, solutions in (
        (sin_log_fss, "sin-log", [0]),
        (diag12_fss, "diag(1,2)", [0, 1]),
    ):
        for i in solutions:
            statuses = {
                lt.broken_away_scan(fss, i, sigma=sig).status for sig in (1, 3, 5)
            }
            agree = agree and len(statuses) == 1
            details.append(f"{label} x{i + 1}: {sorted(statuses)}")
    report(
        8,
        "broken-away verdicts agree across sigma in {1, 3, 5}",
        agree,
        "; ".join(details),
    )


def test_criterion_9_sin_log_extrema_scan():
    start = time.perf_counter()
    small = sin_log_extrema(10_000)
    large = sin_log_extrema(100_000)
    elapsed = time.perf_counter() - start
    report(
        9,
        "sin(ln n) scan: max >= 1 - 1e-7 (n <= 1e4), min <= -0.9999 (n <= 1e5)",
        small["max_value"] >= 1 - 1e-7
        and large["min_value"] <= -0.9999
        and elapsed < 1.0,
        f"max={small['max_value']:.9f} at n={small['argmax']}, "
        f"min={large['min_value']:.9f} at n={large['argmin']}, {elapsed:.2f}s",
    )

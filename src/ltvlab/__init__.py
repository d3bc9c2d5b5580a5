"""Numerical laboratory for Lyapunov spectra of discrete linear
time-varying systems: exponent estimation, angle-density (splitness)
analysis, and constructive synthesis of small multiplicative
perturbations with prescribed spectrum shifts."""

from .errors import (
    BracketError,
    BudgetError,
    InadmissiblePerturbationError,
    InvalidInputError,
    LtvLabError,
    NotLyapunovSequenceError,
    ParseError,
    PreconditionError,
    PropagationError,
    SingularMatrixError,
)
from .expressions import Expression, parse_expression
from .linalg import (
    angle_to_subspace,
    cosine_to_subspace,
    oblique_projections,
    spectral_norm,
)
from .perturb import (
    PerturbationOutcome,
    PerturbationPlan,
    SynthesisConstants,
    build_plan,
    calibrate,
    execute_plan,
    instability_experiment,
    lambda_mu,
    openness_experiment,
    perturbation_at,
    solve_mu,
    synthesis_constants,
)
from .spectrum import (
    IncompressibilityVerdict,
    SpectrumEstimate,
    exponent_profile,
    incompressibility_test,
    limsup_estimate,
    spectrum_estimate,
)
from .splitness import (
    BrokenAwayVerdict,
    FSSRecord,
    SplitnessReport,
    apply_lyapunov_transformation,
    broken_away_scan,
    gamma_statistics,
    splitness_report,
)
from .system import (
    CoefficientSequence,
    ScaledMatrix,
    TrajectoryLog,
    additive_to_multiplicative,
    parse_generator_spec,
    propagate,
    read_matrix_sequence,
    transition,
    write_matrix_sequence,
)

__version__ = "0.1.0"

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of ``import ltvlab``: its exports plus the submodules it imports
PUBLIC_NAMES = [
    "BracketError", "BrokenAwayVerdict", "BudgetError", "CoefficientSequence", "Expression",
    "FSSRecord", "InadmissiblePerturbationError",
    "IncompressibilityVerdict", "InvalidInputError", "LtvLabError", "NotLyapunovSequenceError",
    "ParseError", "PerturbationOutcome", "PerturbationPlan", "PreconditionError",
    "PropagationError", "ScaledMatrix", "SingularMatrixError", "SpectrumEstimate",
    "SplitnessReport", "SynthesisConstants", "TrajectoryLog", "additive_to_multiplicative",
    "angle_to_subspace", "apply_lyapunov_transformation", "broken_away_scan",
    "build_plan", "calibrate", "cosine_to_subspace", "errors",
    "execute_plan", "exponent_profile", "expressions", "gamma_statistics",
    "incompressibility_test", "instability_experiment", "lambda_mu", "limsup_estimate",
    "linalg", "oblique_projections", "openness_experiment",
    "parse_expression", "parse_generator_spec", "perturb", "perturbation_at",
    "propagate", "read_matrix_sequence", "solve_mu", "spectral_norm",
    "spectrum", "spectrum_estimate", "splitness", "splitness_report", "synthesis_constants",
    "system", "transition", "write_matrix_sequence",
]


def test_public_names_are_pinned():
    # a fresh interpreter, so that submodules other tests import do not count
    code = "import json, ltvlab; print(json.dumps([n for n in dir(ltvlab) if n[0] != '_']))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert sorted(json.loads(out)) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 57

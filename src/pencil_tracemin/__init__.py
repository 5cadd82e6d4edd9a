"""Trace minimization over two Hermitian matrix pairs.

Decides when inf trace(Ahat X^H A X) over {X : Bhat X^H B X = I} is finite,
evaluates the closed form from typed finite eigenvalues, builds minimizers,
and certifies divergence with explicit feasible families.
"""

__version__ = "0.1.0"

from .matcore import (
    HermitianMatrix,
    Inertia,
    MatrixPair,
    ProblemInstance,
    ToleranceSet,
    inertia,
    load_pair,
    load_problem,
    pair_from_arrays,
    problem_from_arrays,
    random_congruence,
    validate_hermitian,
)
from .definiteness import DefinitenessReport, analysis_definiteness
from .spectral import PairAnalysis, analyze_pair
from .hyperbolic import sample_feasible, sample_j_unitary
from .genpairs import BlockSpec, GroundTruth, assemble, block
from .tracemin import (
    ExcludedCase,
    FeasibleSampler,
    InfimumResult,
    PropernessReport,
    check_excluded,
    feasibility_residual,
    infimum,
    minimizer,
)
from .witness import (
    CertificationReport,
    WitnessFamily,
    build_witness,
    certify_unbounded,
    evaluate_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]

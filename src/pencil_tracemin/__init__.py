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
from .definiteness import (
    DefinitenessReport,
    analysis_definiteness,
    definiteness_from_spectrum,
    definiteness_interval,
    lambda_min_shift,
)
from .spectral import (
    ClusteredFrame,
    PairAnalysis,
    TypedEigenvalue,
    TypedSpectrum,
    analyze_pair,
    deflate_common_nullspace,
    eigh,
    typed_spectrum,
)
from .hyperbolic import (
    SignatureJ,
    polar_from_W,
    sample_feasible,
    sample_j_unitary,
)
from .genpairs import BlockSpec, GroundTruth, assemble, block
from .tracemin import (
    ExcludedCase,
    FeasibleSampler,
    InfimumResult,
    PropernessReport,
    check_excluded,
    fan_min_product,
    feasibility_residual,
    infimum,
    equal_inertia_value,
    minimizer,
    pad_problem,
    properness,
)
from .witness import (
    CertificationReport,
    WitnessFamily,
    build_witness,
    certify_unbounded,
    evaluate_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]

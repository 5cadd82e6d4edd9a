"""Finiteness verdict and closed-form evaluation of the constrained trace infimum.

For Hermitian A, B (order n) and Ahat, Bhat (order nhat <= n), decide whether

    inf trace(Ahat X^H A X)   subject to   Bhat X^H B X = I

is finite, evaluate it from the typed finite eigenvalues of (A, B) and
(Ahat, Bhat) when it is, construct a minimizer when both pairs are
congruent-diagonalizable, and diagnose the divergence mechanism otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .definiteness import DefinitenessReport, definiteness_from_spectrum
from .errors import (
    InertiaViolationError,
    LengthMismatchError,
    NotAttainableError,
    NotDiagonalizableError,
)
from .hyperbolic import SignatureJ, sample_feasible
from .matcore import (
    DEFAULT_TOLS,
    Inertia,
    MatrixPair,
    ProblemInstance,
    ToleranceSet,
    check_inertias,
    inertia,
    pair_from_arrays,
)
from .spectral import (
    INF_COUPLED,
    INF_MINUS,
    INF_MIXED,
    INF_NONE,
    INF_PLUS,
    NEGATIVE,
    POSITIVE,
    PairAnalysis,
    TypedSpectrum,
    analyze_pair,
)

# Verdicts
FINITE = "Finite"
NEG_INFINITE = "NegInfinite"
EXCLUDED_CONSTANT = "ExcludedConstant"

# Sign cases
PSD_PAIRS = "PSD_pairs"
NSD_PAIRS = "NSD_pairs"

# NegInfinite reasons
NOT_SEMIDEFINITE = "NotSemidefinitePair"
MIXED_SIGNS = "MixedSigns"
IMPROPER = "Improper"
COUPLED_INFINITE = "CoupledInfiniteStructure"
COMPLEX_EIGENVALUES = "ComplexEigenvalues"

# Attainability
ATTAINABLE_YES = "Yes"
ATTAINABLE_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ExcludedCase:
    which: str  # "AhatZero" | "AEqualsMuB" | "AhatEqualsMuhatBhat"
    constant: float
    mu: float | None = None


@dataclass(frozen=True)
class PropernessReport:
    is_proper: bool
    case_label: str  # "i" | "ii" | "iii" | "iv" | "improper"
    d_plus: int
    d_minus: int


@dataclass(frozen=True)
class Term:
    """One product lambda_hat * lambda of the closed-form value.

    ``hat_index``/``big_index`` locate the eigenvalues inside the ascending
    typed lists of the two pairs, of type ``eig_type``, on either branch.
    """

    eig_type: str  # "positive" | "negative"
    lam_hat: float
    lam: float
    hat_index: int
    big_index: int

    @property
    def product(self) -> float:
        return self.lam_hat * self.lam


@dataclass(frozen=True)
class InfimumResult:
    """Verdict and value of the infimum, with the analyses of both pairs it was read from."""

    verdict: str
    value: float | None = None
    sign_case: str | None = None
    reason: str | None = None
    reason_detail: str | None = None
    terms: tuple = ()
    attainable: str | None = None
    excluded: ExcludedCase | None = None
    properness: PropernessReport | None = None
    spectrum: TypedSpectrum | None = None
    hat_spectrum: TypedSpectrum | None = None
    definiteness: DefinitenessReport | None = None
    hat_definiteness: DefinitenessReport | None = None
    # The analyses the verdict was read from; frames for minimizer and witness.
    analysis: PairAnalysis | None = field(default=None, compare=False, repr=False)
    hat_analysis: PairAnalysis | None = field(default=None, compare=False, repr=False)

    @property
    def is_finite(self) -> bool:
        return self.verdict == FINITE


def check_excluded(problem: ProblemInstance, tols: ToleranceSet | None = None):
    """Detect the constant-objective cases; returns ExcludedCase or None.

    Ahat = 0 gives 0; A = mu*B makes the objective identically
    mu*trace(Ahat Bhat^{-1}); Ahat = muhat*Bhat with n = nhat gives
    muhat*trace(B^{-1} A).
    """
    tols = tols or problem.tolerances
    A, B = problem.pair.A.entries, problem.pair.B.entries
    Ah, Bh = problem.hat_pair.A.entries, problem.hat_pair.B.entries

    # Frobenius norms, as in MatrixPair.scale: no eigensolve.
    if np.linalg.norm(Ah) <= tols.rank_tol * (1.0 + np.linalg.norm(Bh)):
        return ExcludedCase("AhatZero", 0.0)

    mu = _proportional(A, B)
    if mu is not None:
        const = mu * float(np.real(np.trace(Ah @ np.linalg.inv(Bh))))
        return ExcludedCase("AEqualsMuB", const, mu)
    muh = _proportional(Ah, Bh) if problem.n == problem.nhat else None
    if muh is not None:
        const = muh * float(np.real(np.trace(np.linalg.solve(B, A))))
        return ExcludedCase("AhatEqualsMuhatBhat", const, muh)
    return None


def _proportional(M: np.ndarray, N: np.ndarray) -> float | None:
    """The least-squares mu with M = mu*N, if it holds to 1e-9 relative to |M|_F."""
    denom = np.linalg.norm(N) ** 2
    if denom == 0:
        return None
    mu = float(np.real(np.trace(N.conj().T @ M)) / denom)
    return mu if np.linalg.norm(M - mu * N) <= 1e-9 * max(np.linalg.norm(M), 1e-300) else None


def properness(
    inertia_B: Inertia,
    hat_spectrum: TypedSpectrum,
    inertia_Bhat: Inertia,
    tols: ToleranceSet = DEFAULT_TOLS,
) -> PropernessReport:
    """Properness of the triplet (B, Ahat, Bhat) for a PSD hat pair."""
    if inertia_Bhat.n_plus > inertia_B.n_plus or inertia_Bhat.n_minus > inertia_B.n_minus:
        raise InertiaViolationError("inertia of Bhat exceeds inertia of B")
    return _properness(
        hat_spectrum.pos_values,
        hat_spectrum.neg_values,
        inertia_Bhat.n_plus < inertia_B.n_plus,
        inertia_Bhat.n_minus < inertia_B.n_minus,
        tols,
    )


def _properness(upper, lower, pad_upper, pad_lower, tols) -> PropernessReport:
    """Properness of a semidefinite hat pair zero-padded to the inertia of B.

    ``upper``/``lower`` are the hat values that bound the shift from above and
    below (positive/negative type for a PSD pair, swapped for NSD); a padded
    side gains a zero.  Proper iff the padded lists still admit a shift,
    max(lower + [0 if pad_lower]) <= min(upper + [0 if pad_upper]).  That
    max(lower) <= min(upper) is the semidefiniteness the caller established
    with its own tolerance, so only a padded zero is tested here.
    d_plus (d_minus) counts the upper (lower) values beyond zero.
    """
    zero = tols.type_tol * (1.0 + np.max(np.abs(np.concatenate([upper, lower])), initial=0.0))
    hi = np.min(upper, initial=np.inf)
    lo = np.max(lower, initial=-np.inf)
    if (pad_lower and hi < -zero) or (pad_upper and lo > zero):
        return PropernessReport(False, "improper", 0, 0)
    if pad_upper and pad_lower:
        return PropernessReport(True, "iv", 0, 0)
    if pad_upper:
        return PropernessReport(True, "iii", int(np.sum(upper < -zero)), 0)
    if pad_lower:
        return PropernessReport(True, "ii", 0, int(np.sum(lower > zero)))
    return PropernessReport(True, "i", 0, 0)


def pad_problem(problem: ProblemInstance) -> ProblemInstance:
    """Pad the hat pair to the rank of B: Ahat -> diag(Ahat, 0),
    Bhat -> diag(Bhat, I_{c+}, -I_{c-}) with c_pm the inertia surpluses.

    The padded problem has the same infimum as the original.
    """
    tols = problem.tolerances
    ib = inertia(problem.pair.B, tols.rank_tol)
    ibh = inertia(problem.hat_pair.B, tols.rank_tol)
    if ibh.n_zero > 0 or ibh.n_plus > ib.n_plus or ibh.n_minus > ib.n_minus:
        raise InertiaViolationError("padding requires nonsingular Bhat within inertia of B")
    cp, cm = ib.n_plus - ibh.n_plus, ib.n_minus - ibh.n_minus
    if cp == 0 and cm == 0:
        return problem
    nh = problem.nhat
    m = nh + cp + cm
    Ah = np.zeros((m, m), dtype=complex)
    Bh = np.zeros((m, m), dtype=complex)
    Ah[:nh, :nh] = problem.hat_pair.A.entries
    Bh[:nh, :nh] = problem.hat_pair.B.entries
    jc = np.concatenate([np.ones(cp), -np.ones(cm)])
    Bh[nh:, nh:] = np.diag(jc)
    return ProblemInstance(
        pair=problem.pair,
        hat_pair=pair_from_arrays(Ah, Bh, herm_tol=np.inf),
        tolerances=tols,
    )


def fan_min_product(lambda0, lambda1) -> float:
    """min over unitary alignments of sum lambda0_i * lambda1_{perm(i)}:
    descending first list against ascending second list."""
    l0 = np.asarray(lambda0, dtype=float)
    l1 = np.asarray(lambda1, dtype=float)
    if l0.shape != l1.shape or l0.ndim != 1:
        raise LengthMismatchError("lists must be 1-d and of equal length")
    return float(np.sort(l0)[::-1] @ np.sort(l1))


def _formula_terms(big: TypedSpectrum, hat: TypedSpectrum):
    """The closed-form products, type by type (Fan 1949; Kovac-Striko & Veselic 1995).

    The hat values, zero-padded to the length of the big list, pair in
    descending order with the big values in ascending order; a padded zero
    gives no term.  Indices refer to the ascending typed lists of each pair.
    """
    terms = []
    for eig_type, bv, hv in (
        (POSITIVE, big.pos_values, hat.pos_values),
        (NEGATIVE, big.neg_values, hat.neg_values),
    ):
        padded = np.concatenate([hv, np.zeros(max(len(bv) - len(hv), 0))])
        for bi, hi in enumerate(np.argsort(padded, kind="stable")[::-1]):
            if hi < len(hv):
                terms.append(Term(eig_type, float(hv[hi]), float(bv[bi]), int(hi), bi))
    return tuple(terms)


def _analyses(problem: ProblemInstance, tols: ToleranceSet):
    """Analyses of both pairs; EmptyFeasibleSetError unless the constraint can be met.

    Directions deflated from the hat pair lie in N(Bhat), so they count as
    zeros of its inertia.
    """
    big, hat = analyze_pair(problem.pair, tols), analyze_pair(problem.hat_pair, tols)
    check_inertias(big.b_inertia, hat.b_inertia)
    return big, hat


def infimum(problem: ProblemInstance, tols: ToleranceSet | None = None) -> InfimumResult:
    """Full pipeline: excluded cases, deflation, structure gates, properness, value.

    Raises EmptyFeasibleSetError when the constraint set is empty.
    """
    tols = tols or problem.tolerances
    big, hat = _analyses(problem, tols)
    base = dict(analysis=big, hat_analysis=hat)

    exc = check_excluded(problem, tols)
    if exc is not None:
        return InfimumResult(verdict=EXCLUDED_CONSTANT, value=exc.constant, excluded=exc, **base)

    spec_big, spec_hat = big.spectrum, hat.spectrum
    base.update(spectrum=spec_big, hat_spectrum=spec_hat)

    # Chained infinite structure forces divergence for any nonzero Ahat.
    if spec_big.infinite_definite_sign == INF_COUPLED:
        return InfimumResult(
            verdict=NEG_INFINITE, reason=COUPLED_INFINITE, **base
        )
    # Genuine complex eigenvalues on either side force divergence.
    if spec_big.has_complex or spec_hat.has_complex:
        return InfimumResult(
            verdict=NEG_INFINITE, reason=COMPLEX_EIGENVALUES, **base
        )

    # Feasibility leaves B a nonzero range, so the finite part exists.
    inf_sign = spec_big.infinite_definite_sign
    infinite = big.split.has_infinite
    rep_fin = definiteness_from_spectrum(big.split.finite_pair, spec_big, tols)
    rep_hat = definiteness_from_spectrum(hat.split.finite_pair, spec_hat, tols)
    base.update(definiteness=rep_fin, hat_definiteness=rep_hat)

    # Semidefiniteness of the full pair = finite part plus a definite nullspace
    # block of the matching orientation; a singular B additionally pins the
    # hat shift to zero (the hat matrix itself must be semidefinite).
    slack = rep_hat.tolerance
    big_psd = rep_fin.is_psd_pair and inf_sign in (INF_NONE, INF_PLUS)
    big_nsd = rep_fin.is_nsd_pair and inf_sign in (INF_NONE, INF_MINUS)
    psd_ok = big_psd and rep_hat.is_psd_pair and (
        not infinite or rep_hat.psd_contains(0.0, slack)
    )
    nsd_ok = big_nsd and rep_hat.is_nsd_pair and (
        not infinite or rep_hat.nsd_contains(0.0, slack)
    )

    if not psd_ok and not nsd_ok:
        fin_semi = rep_fin.is_psd_pair or rep_fin.is_nsd_pair
        hat_semi = rep_hat.is_psd_pair or rep_hat.is_nsd_pair
        if not fin_semi or not hat_semi:
            reason, detail = NOT_SEMIDEFINITE, None
        elif infinite:
            detail = (
                "infinite-mixed" if inf_sign == INF_MIXED else "infinite-orientation"
            )
            reason = MIXED_SIGNS
        else:
            reason, detail = MIXED_SIGNS, None
        return InfimumResult(
            verdict=NEG_INFINITE, reason=reason, reason_detail=detail, **base
        )

    # Negating all four matrices swaps the types and keeps every value, so
    # only properness depends on the branch: the NSD hat shift is bounded
    # from above by its negative-type values.
    ib, ibh = big.b_inertia, hat.b_inertia
    pos = (spec_hat.pos_values, ibh.n_plus < ib.n_plus)
    neg = (spec_hat.neg_values, ibh.n_minus < ib.n_minus)
    sign_case = PSD_PAIRS if psd_ok else NSD_PAIRS
    (upper, pad_upper), (lower, pad_lower) = (pos, neg) if psd_ok else (neg, pos)
    prop = _properness(upper, lower, pad_upper, pad_lower, tols)
    if not prop.is_proper:
        return InfimumResult(
            verdict=NEG_INFINITE, reason=IMPROPER, properness=prop,
            sign_case=sign_case, **base
        )

    terms = _formula_terms(spec_big, spec_hat)
    value = float(sum(t.product for t in terms))
    attainable = (
        ATTAINABLE_YES
        if not (
            spec_big.has_jordan
            or spec_hat.has_jordan
            or spec_big.isotropic_defect
            or spec_hat.isotropic_defect
        )
        else ATTAINABLE_UNKNOWN
    )
    return InfimumResult(
        verdict=FINITE,
        value=value,
        sign_case=sign_case,
        terms=terms,
        attainable=attainable,
        properness=prop,
        **base,
    )


def equal_inertia_value(big: TypedSpectrum, hat: TypedSpectrum) -> float:
    """Equal-inertia closed form: descending hat values against ascending values."""
    return fan_min_product(hat.pos_values, big.pos_values) + fan_min_product(
        hat.neg_values, big.neg_values
    )


def minimizer(problem: ProblemInstance, tols: ToleranceSet | None = None):
    """Construct an optimal X for a finite, attainable instance.

    Returns (X_opt, achieved).  Raises NotAttainableError when attainability
    is not established (Jordan pairs, chained structure, non-real spectrum,
    or a NegInfinite verdict).
    """
    return _minimizer_from(problem, infimum(problem, tols or problem.tolerances))


def _minimizer_from(problem: ProblemInstance, result: InfimumResult):
    """``minimizer`` read off the ``infimum`` result of ``problem``."""
    if result.verdict == NEG_INFINITE:
        raise NotAttainableError(f"infimum is -infinity ({result.reason})")
    big, hat = result.analysis, result.hat_analysis
    if result.verdict == EXCLUDED_CONSTANT:
        X = _feasible_point(big, hat)
        return X, _objective(problem, X)
    if result.attainable != ATTAINABLE_YES:
        raise NotAttainableError("attainability unknown for this instance")

    try:
        f_big, f_hat = big.frame, hat.frame
    except NotDiagonalizableError as exc:
        raise NotAttainableError(str(exc)) from exc

    Xt = np.zeros((f_big.n, f_hat.n), dtype=complex)
    # Frame direction lists sorted ascending by eigenvalue, as the typed
    # lists that the term indices refer to.
    dirs = {POSITIVE: (f_big.plus_dirs, f_hat.plus_dirs),
            NEGATIVE: (f_big.minus_dirs, f_hat.minus_dirs)}
    for t in result.terms:
        big_dirs, hat_dirs = dirs[t.eig_type]
        Xt[big_dirs[t.big_index], hat_dirs[t.hat_index]] = 1.0

    X = big.deflation.keep @ (f_big.T @ Xt @ f_hat.T.conj().T)
    return X, _objective(problem, X)


def _per_matrix(values: np.ndarray):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def _objective(problem: ProblemInstance, X: np.ndarray):
    """trace(Ahat X^H A X); an array of traces for a (K, n, nhat) stack of X."""
    A = problem.pair.A.entries
    Ah = problem.hat_pair.A.entries
    Xh = X.conj().swapaxes(-1, -2)
    return _per_matrix(np.real(np.trace(Ah @ Xh @ A @ X, axis1=-2, axis2=-1)))


def feasibility_residual(problem: ProblemInstance, X: np.ndarray):
    """||Bhat X^H B X - I||_2; an array of residuals for a stack of X."""
    B = problem.pair.B.entries
    Bh = problem.hat_pair.B.entries
    G = Bh @ X.conj().swapaxes(-1, -2) @ B @ X - np.eye(problem.nhat)
    return _per_matrix(np.linalg.norm(G, 2, axis=(-2, -1)))


def _feasible_point(big: PairAnalysis, hat: PairAnalysis) -> np.ndarray:
    cols = big.paired_columns(hat)
    return big.deflation.keep @ big.b_frame[:, cols] @ hat.b_frame.conj().T


class FeasibleSampler:
    """Draw random feasible points; the congruence frames are built once.

    A sequence of K Generators gives a (K, n, nhat) stack, slice k as ``rng[k]`` alone."""

    def __init__(self, problem: ProblemInstance, tols: ToleranceSet | None = None):
        big, hat = _analyses(problem, tols or problem.tolerances)
        ib, ibh = big.b_inertia, hat.b_inertia
        self.problem = problem
        self.left = big.deflation.keep @ big.b_frame[:, : ib.rank]
        self.right = hat.b_frame.conj().T
        self.sig = SignatureJ(ib.n_plus, ib.n_minus)
        self.sig_hat = SignatureJ(ibh.n_plus, ibh.n_minus)

    def sample(self, spread: float, rng) -> np.ndarray:
        Xs = sample_feasible(self.sig, self.sig_hat, spread, rng)
        return self.left @ Xs @ self.right


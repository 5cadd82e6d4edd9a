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
    typed lists of the branch spectra (mirrored lists for the NSD branch).
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
    """Properness of the triplet (B, Ahat, Bhat) for a PSD hat pair.

    Callers handle the NSD branch by mirroring all inputs first.
    Counting ranges run over the nhat-side eigenvalue lists (the pair has no
    further eigenvalues to index).
    """
    if inertia_Bhat.n_plus > inertia_B.n_plus or inertia_Bhat.n_minus > inertia_B.n_minus:
        raise InertiaViolationError("inertia of Bhat exceeds inertia of B")

    pos = hat_spectrum.pos_values
    neg = hat_spectrum.neg_values
    zero = tols.type_tol * (
        1.0 + max(np.max(np.abs(pos)) if pos.size else 0.0,
                  np.max(np.abs(neg)) if neg.size else 0.0)
    )
    eq_plus = inertia_Bhat.n_plus == inertia_B.n_plus
    eq_minus = inertia_Bhat.n_minus == inertia_B.n_minus
    min_pos = pos[0] if pos.size else None  # lambda_1^{+up}
    max_neg = neg[-1] if neg.size else None  # lambda_1^{-down}

    if eq_plus and eq_minus:
        return PropernessReport(True, "i", 0, 0)
    if eq_plus and not eq_minus:
        if min_pos is None or min_pos >= -zero:
            d_minus = int(np.sum(neg > zero))
            return PropernessReport(True, "ii", 0, d_minus)
        return PropernessReport(False, "improper", 0, 0)
    if not eq_plus and eq_minus:
        if max_neg is None or max_neg <= zero:
            d_plus = int(np.sum(pos < -zero))
            return PropernessReport(True, "iii", d_plus, 0)
        return PropernessReport(False, "improper", 0, 0)
    # both strictly smaller: need the hat matrix itself semidefinite (shift 0)
    ok_pos = min_pos is None or min_pos >= -zero
    ok_neg = max_neg is None or max_neg <= zero
    if ok_pos and ok_neg:
        return PropernessReport(True, "iv", 0, 0)
    return PropernessReport(False, "improper", 0, 0)


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


def _formula_terms(big: TypedSpectrum, hat: TypedSpectrum, prop: PropernessReport):
    """Pair typed eigenvalues per the closed form and record index pairing."""
    terms = []
    bp = big.pos_values
    bn = big.neg_values
    hp = hat.pos_values
    hn = hat.neg_values
    mp, mn = len(hp), len(hn)
    dp, dm = prop.d_plus, prop.d_minus

    for i in range(mp - dp):
        hi = mp - 1 - i  # descending hat positive-type
        terms.append(Term("positive", float(hp[hi]), float(bp[i]), hi, i))
    for i in range(dp):
        bi = len(bp) - 1 - i  # descending big positive-type
        terms.append(Term("positive", float(hp[i]), float(bp[bi]), i, bi))
    for j in range(dm):
        hj = mn - 1 - j  # descending hat negative-type (positive entries first)
        terms.append(Term("negative", float(hn[hj]), float(bn[j]), hj, j))
    for j in range(mn - dm):
        bj = len(bn) - 1 - j
        terms.append(Term("negative", float(hn[j]), float(bn[bj]), j, bj))
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

    ib, ibh = big.b_inertia, hat.b_inertia
    if psd_ok:
        sign_case = PSD_PAIRS
        sb, sh = spec_big, spec_hat
        ib_b = Inertia(ib.n_plus, 0, ib.n_minus)
        ib_h = ibh
    else:
        sign_case = NSD_PAIRS
        sb, sh = spec_big.mirrored(), spec_hat.mirrored()
        ib_b = Inertia(ib.n_minus, 0, ib.n_plus)
        ib_h = Inertia(ibh.n_minus, 0, ibh.n_plus)

    prop = properness(ib_b, sh, ib_h, tols)
    if not prop.is_proper:
        return InfimumResult(
            verdict=NEG_INFINITE, reason=IMPROPER, properness=prop,
            sign_case=sign_case, **base
        )

    terms = _formula_terms(sb, sh, prop)
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
    # Frame direction lists sorted ascending by eigenvalue, matching the
    # index convention of the recorded terms (mirrored lists swap the roles).
    dirs = {True: (f_big.plus_dirs, f_hat.plus_dirs), False: (f_big.minus_dirs, f_hat.minus_dirs)}
    mirror = result.sign_case == NSD_PAIRS
    for t in result.terms:
        big_dirs, hat_dirs = dirs[(t.eig_type == "positive") != mirror]
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


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

from .definiteness import _definiteness_from_spectrum, _with_infinite_sign
from .errors import NotAttainableError, TypeCountError
from .hyperbolic import sample_feasible
from .matcore import ProblemInstance, check_inertias, paired_columns
from .spectral import (
    INF_MIXED,
    NEGATIVE,
    POSITIVE,
    PairAnalysis,
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
    # The analyses the verdict was read from; minimizer and witness read
    # their typed directions and B-frames.
    analysis: PairAnalysis | None = field(default=None, compare=False, repr=False)
    hat_analysis: PairAnalysis | None = field(default=None, compare=False, repr=False)


def check_excluded(problem: ProblemInstance):
    """Detect the constant-objective cases; returns ExcludedCase or None.

    Ahat = 0 gives 0; A = mu*B makes the objective identically
    mu*trace(Ahat Bhat^{-1}); Ahat = muhat*Bhat with n = nhat gives
    muhat*trace(B^{-1} A).
    """
    tols = problem.tolerances
    A, B = problem.pair.A.entries, problem.pair.B.entries
    Ah, Bh = problem.hat_pair.A.entries, problem.hat_pair.B.entries

    # Frobenius norms, as in MatrixPair.scale: no eigensolve.  Relative to
    # Bhat, since scaling Ahat and Bhat together leaves the infimum unchanged.
    if np.linalg.norm(Ah) <= tols.rank_tol * np.linalg.norm(Bh):
        return ExcludedCase("AhatZero", 0.0)

    mu = _proportional(A, B, tols.rank_tol)
    if mu is not None:
        const = mu * float(np.real(np.trace(Ah @ np.linalg.inv(Bh))))
        return ExcludedCase("AEqualsMuB", const, mu)
    muh = _proportional(Ah, Bh, tols.rank_tol) if problem.n == problem.nhat else None
    if muh is not None:
        const = muh * float(np.real(np.trace(np.linalg.solve(B, A))))
        return ExcludedCase("AhatEqualsMuhatBhat", const, muh)
    return None


def _proportional(M: np.ndarray, N: np.ndarray, tol: float) -> float | None:
    """The least-squares mu with M = mu*N, if it holds to ``tol`` relative to |M|_F."""
    denom = np.linalg.norm(N) ** 2
    if denom == 0:
        return None
    mu = float(np.real(np.trace(N.conj().T @ M)) / denom)
    return mu if np.linalg.norm(M - mu * N) <= tol * max(np.linalg.norm(M), 1e-300) else None


def _properness(pos, neg, pad_plus, pad_minus, tols) -> PropernessReport:
    """Properness of a PSD hat pair zero-padded to the inertia of B.

    ``pos``/``neg`` are its typed values (an NSD pair passes them negated),
    which bound the shift from above/below; padding a side of B
    (``pad_plus``/``pad_minus``) adds a zero to that list.  Proper iff the
    padded lists still admit a shift, max(neg + [0 if pad_minus]) <=
    min(pos + [0 if pad_plus]).  That max(neg) <= min(pos) is the
    semidefiniteness the caller established with its own tolerance, so only a
    padded zero is tested here.  d_plus (d_minus) counts the values beyond
    the zero padded on the positive (negative) side of B, case "iii" ("ii").
    """
    zero = tols.type_tol * (1.0 + np.max(np.abs(np.concatenate([pos, neg])), initial=0.0))
    hi = np.min(pos, initial=np.inf)
    lo = np.max(neg, initial=-np.inf)
    if (pad_minus and hi < -zero) or (pad_plus and lo > zero):
        return PropernessReport(False, "improper", 0, 0)
    if pad_plus and pad_minus:
        return PropernessReport(True, "iv", 0, 0)
    if pad_plus:
        return PropernessReport(True, "iii", int(np.sum(pos < -zero)), 0)
    if pad_minus:
        return PropernessReport(True, "ii", 0, int(np.sum(neg > zero)))
    return PropernessReport(True, "i", 0, 0)


def _formula_terms(big: PairAnalysis, hat: PairAnalysis):
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
        padded = np.concatenate([hv, np.zeros(len(bv) - len(hv))])
        for bi, hi in enumerate(np.argsort(padded, kind="stable")[::-1]):
            if hi < len(hv):
                terms.append(Term(eig_type, float(hv[hi]), float(bv[bi]), int(hi), bi))
    return tuple(terms)


def _check_type_counts(analysis: PairAnalysis) -> None:
    """TypeCountError unless a real spectrum has one typed value per sign of its J."""
    n_pos, n_neg, ib = len(analysis.pos), len(analysis.neg), analysis.b_inertia
    if (n_pos, n_neg) != (ib.n_plus, ib.n_minus):
        raise TypeCountError(f"{n_pos}/{n_neg} typed values, B inertia {ib}")


def _analyses(problem: ProblemInstance):
    """Analyses of both pairs; EmptyFeasibleSetError unless the constraint can be met.

    Directions deflated from the hat pair lie in N(Bhat), so they count as
    zeros of its inertia.
    """
    tols = problem.tolerances
    big, hat = analyze_pair(problem.pair, tols), analyze_pair(problem.hat_pair, tols)
    check_inertias(big.b_inertia, hat.b_inertia)
    return big, hat


def infimum(problem: ProblemInstance) -> InfimumResult:
    """Full pipeline: pair analyses, excluded cases, structure gates, properness, value.

    Every gate reads ``problem.tolerances``.  Raises EmptyFeasibleSetError
    when the constraint set is empty.
    """
    tols = problem.tolerances
    big, hat = _analyses(problem)
    base = dict(analysis=big, hat_analysis=hat)

    exc = check_excluded(problem)
    if exc is not None:
        return InfimumResult(verdict=EXCLUDED_CONSTANT, value=exc.constant, excluded=exc, **base)

    # Chained infinite structure forces divergence for any nonzero Ahat.
    if big.coupled:
        return InfimumResult(
            verdict=NEG_INFINITE, reason=COUPLED_INFINITE, **base
        )
    # Genuine complex eigenvalues on either side force divergence.
    if big.has_complex or hat.has_complex:
        return InfimumResult(
            verdict=NEG_INFINITE, reason=COMPLEX_EIGENVALUES, **base
        )

    # Feasibility leaves B a nonzero range, so the finite part exists.
    infinite = big.has_infinite
    rep_fin, rep_hat = _definiteness_from_spectrum(big), _definiteness_from_spectrum(hat)
    rep_big = _with_infinite_sign(big, rep_fin)

    # A side needs both pairs semidefinite on it; a singular B additionally
    # pins the hat shift to zero (the hat matrix itself must be semidefinite).
    slack = rep_hat.tolerance

    def side_ok(big_holds, hat_itv):
        return big_holds and hat_itv is not None and (
            not infinite or hat_itv[0] - slack <= 0.0 <= hat_itv[1] + slack
        )

    psd_ok = side_ok(rep_big.is_psd_pair, rep_hat.psd_interval)
    nsd_ok = side_ok(rep_big.is_nsd_pair, rep_hat.nsd_interval)

    if not psd_ok and not nsd_ok:
        fin_semi = rep_fin.is_psd_pair or rep_fin.is_nsd_pair
        hat_semi = rep_hat.is_psd_pair or rep_hat.is_nsd_pair
        if not fin_semi or not hat_semi:
            reason, detail = NOT_SEMIDEFINITE, None
        elif infinite:
            detail = (
                "infinite-mixed" if big.infinite_sign == INF_MIXED else "infinite-orientation"
            )
            reason = MIXED_SIGNS
        else:
            reason, detail = MIXED_SIGNS, None
        return InfimumResult(
            verdict=NEG_INFINITE, reason=reason, reason_detail=detail, **base
        )

    # A - t*B <= 0 iff (-A) - (-t)*B >= 0, and (-A, B) has the negated
    # values with the same types: so the NSD branch is the PSD rule on
    # negated values, and both name the case and counts by B's side.
    ib, ibh = big.b_inertia, hat.b_inertia
    sign_case, s = (PSD_PAIRS, 1.0) if psd_ok else (NSD_PAIRS, -1.0)
    prop = _properness(
        s * hat.pos_values, s * hat.neg_values,
        ibh.n_plus < ib.n_plus, ibh.n_minus < ib.n_minus, tols,
    )
    if not prop.is_proper:
        return InfimumResult(
            verdict=NEG_INFINITE, reason=IMPROPER, properness=prop,
            sign_case=sign_case, **base
        )

    _check_type_counts(big)
    _check_type_counts(hat)
    terms = _formula_terms(big, hat)
    value = float(sum(t.product for t in terms))
    exact = not any(a.has_jordan or a.isotropic_defect for a in (big, hat))
    attainable = ATTAINABLE_YES if exact else ATTAINABLE_UNKNOWN
    return InfimumResult(
        verdict=FINITE,
        value=value,
        sign_case=sign_case,
        terms=terms,
        attainable=attainable,
        properness=prop,
        **base,
    )


def minimizer(problem: ProblemInstance):
    """Construct an optimal X for a finite, attainable instance.

    Returns (X_opt, achieved).  Raises NotAttainableError when attainability
    is not established (Jordan pairs, chained structure, non-real spectrum,
    or a NegInfinite verdict).
    """
    return _minimizer_from(problem, infimum(problem))


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

    # X = L R^H maps each term's hat direction (a column of R) onto its big
    # direction (of L); term indices refer to the ascending typed lists.
    typed = {POSITIVE: (big.pos, hat.pos), NEGATIVE: (big.neg, hat.neg)}
    L = np.column_stack([typed[t.eig_type][0][t.big_index].direction for t in result.terms])
    R = np.column_stack([typed[t.eig_type][1][t.hat_index].direction for t in result.terms])
    X = L @ R.conj().T
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
    cols = paired_columns(big.b_inertia, hat.b_inertia)
    return big.b_frame[:, cols] @ hat.b_frame.conj().T


class FeasibleSampler:
    """Draw random feasible points; the congruence frames are built once.

    A sample is left @ Xs @ right: ``left`` holds the +1 and -1 columns of
    B's frame, ``right`` is Bhat's frame conjugate-transposed, and Xs is the
    ``sample_feasible`` draw for the inertias ``ib`` of B and ``ibh`` of
    Bhat, whose counts fix J and Jhat.  ``sample`` takes one Generator, or
    a (K, m) array of integer keys in [0, 2**32) for a (K, n, nhat) stack
    whose slice k is the draw of ``numpy.random.default_rng(keys[k])`` alone."""

    def __init__(self, problem: ProblemInstance):
        self._bind(*_analyses(problem))

    @classmethod
    def _from_result(cls, result: InfimumResult):
        """The sampler on the analyses that an ``infimum`` result carries."""
        sampler = cls.__new__(cls)
        sampler._bind(result.analysis, result.hat_analysis)
        return sampler

    def _bind(self, big, hat):
        self.ib, self.ibh = big.b_inertia, hat.b_inertia
        self.left = big.b_frame[:, : self.ib.rank]
        self.right = hat.b_frame.conj().T

    def sample(self, spread: float, rng) -> np.ndarray:
        Xs = sample_feasible(self.ib, self.ibh, spread, rng)
        return self.left @ Xs @ self.right


"""Finiteness verdict and closed-form evaluation of the constrained trace infimum.

For Hermitian A, B (order n) and Ahat, Bhat (order nhat <= n), decide whether

    inf trace(Ahat X^H A X)   subject to   Bhat X^H B X = I

is finite, evaluate it from the typed finite eigenvalues of (A, B) and
(Ahat, Bhat) when it is, construct a minimizer when both pairs are
congruent-diagonalizable, and diagnose the divergence mechanism otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .definiteness import _definiteness_from_spectrum, _with_infinite_sign
from .errors import NotAttainableError, TypeCountError
from .hyperbolic import sample_feasible
from .matcore import HermitianMatrix, ProblemInstance, check_inertias, paired_columns
from .spectral import INF_MIXED, PairAnalysis, analyze_pair

# Types of a typed eigenvalue
POSITIVE = "positive"
NEGATIVE = "negative"

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
    pair, hat = problem.pair, problem.hat_pair

    # Frobenius norms, as in MatrixPair.scale, kept from validation: no
    # eigensolve.  Relative to Bhat, since scaling Ahat and Bhat together
    # leaves the infimum unchanged.
    if hat.A.fro <= tols.rank_tol * hat.B.fro:
        return ExcludedCase("AhatZero", 0.0)

    mu = _proportional(pair.A, pair.B, tols.rank_tol)
    if mu is not None:
        const = mu * float(np.real(np.trace(np.linalg.solve(hat.B.entries, hat.A.entries))))
        return ExcludedCase("AEqualsMuB", const, mu)
    muh = _proportional(hat.A, hat.B, tols.rank_tol) if problem.n == problem.nhat else None
    if muh is not None:
        const = muh * float(np.real(np.trace(np.linalg.solve(pair.B.entries, pair.A.entries))))
        return ExcludedCase("AhatEqualsMuhatBhat", const, muh)
    return None


def _proportional(M: HermitianMatrix, N: HermitianMatrix, tol: float) -> float | None:
    """The least-squares mu with M = mu*N, if it holds to ``tol`` relative to |M|_F.

    Its denominator |N|_F² is summed like its numerator, not squared from the
    rounded |N|_F, so an exactly proportional pair gets its exact ratio."""
    denom = np.vdot(N.entries, N.entries).real
    if denom == 0:
        return None
    mu = float(np.vdot(N.entries, M.entries).real / denom)
    R = M.entries - mu * N.entries
    residual = math.sqrt(np.vdot(R, R).real)
    return mu if residual <= tol * max(M.fro, 1e-300) else None


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
    n_pos, n_neg, ib = len(analysis.pos_values), len(analysis.neg_values), analysis.b_inertia
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


def _checked(problem: ProblemInstance, result: InfimumResult) -> InfimumResult:
    """``result``, an ``infimum`` result a caller passes back in; ValueError
    unless its analyses were read from the pairs of ``problem`` themselves."""
    pairs = [getattr(a, "pair", None) for a in (result.analysis, result.hat_analysis)]
    if pairs[0] is not problem.pair or pairs[1] is not problem.hat_pair:
        raise ValueError("the infimum result was not computed for this problem")
    return result


def minimizer(problem: ProblemInstance, result: InfimumResult | None = None):
    """Construct an optimal X for a finite, attainable instance.

    Returns (X_opt, achieved).  ``result``, the ``infimum`` of ``problem``,
    is read when given, and the pairs are not analysed again.  Raises
    NotAttainableError when attainability is not established (Jordan pairs,
    chained structure, non-real spectrum, or a NegInfinite verdict).
    """
    result = infimum(problem) if result is None else _checked(problem, result)
    if result.verdict == NEG_INFINITE:
        raise NotAttainableError(f"infimum is -infinity ({result.reason})")
    big, hat = result.analysis, result.hat_analysis
    if result.verdict == EXCLUDED_CONSTANT:
        X = _feasible_point(big, hat)
        return X, _objective(problem, X)
    if result.attainable != ATTAINABLE_YES:
        raise NotAttainableError("attainability unknown for this instance")

    # X = L R^H maps each term's hat direction (a column of R) onto its big
    # direction (of L).  Positive terms come first; with no Jordan copy and no
    # isotropic leftover, each index into a typed list is also its column.
    pos = np.array([t.eig_type == POSITIVE for t in result.terms])
    big_at, hat_at = np.array([(t.big_index, t.hat_index) for t in result.terms]).T
    L = np.hstack([big.pos_dirs[:, big_at[pos]], big.neg_dirs[:, big_at[~pos]]])
    R = np.hstack([hat.pos_dirs[:, hat_at[pos]], hat.neg_dirs[:, hat_at[~pos]]])
    X = L @ R.conj().T
    return X, _objective(problem, X)


def _per_matrix(values: np.ndarray):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def _times_fixed(S: np.ndarray, M: np.ndarray) -> np.ndarray:
    """S @ M for a matrix or a (K, r, c) stack S and a fixed (c, d) matrix M.

    A complex stack whose samples have two or more rows is one GEMM on its
    stacked (K*r, c) rows, which gives each sample the bits of its own
    product.  Any other input is S @ M: numpy sends a one-row product to
    gemv, and real dgemm picks its kernel by the matrix shape, so their flat
    form changes bits.
    """
    if S.ndim == 3 and S.shape[1] >= 2 and np.result_type(S, M) == np.complex128:
        K, r, c = S.shape
        return (S.reshape(K * r, c) @ M).reshape(K, r, M.shape[-1])
    return S @ M


def _objective(problem: ProblemInstance, X: np.ndarray):
    """trace(Ahat X^H A X); an array of traces for a (K, n, nhat) stack of X.

    Summed as sum(conj(X) * (A X Ahat)), since trace(X^H M) is the sum of
    conj(X) * M: two products, no third for the trace and no transposed
    copy of X.  The fixed right factor Ahat is one GEMM on the stacked rows
    of complex samples with two or more rows (``_times_fixed``); the left
    factor A stays per sample, since its flat form changes bits.
    """
    A = problem.pair.A.entries
    Ah = problem.hat_pair.A.entries
    return _per_matrix((X.conj() * _times_fixed(A @ X, Ah)).sum(axis=(-2, -1)).real)


def _constraint_gap(problem: ProblemInstance, X: np.ndarray) -> np.ndarray:
    """Bhat X^H B X - I, for one X or each of a stack; B, the fixed right
    factor, is multiplied as in ``_objective``."""
    B = problem.pair.B.entries
    Bh = problem.hat_pair.B.entries
    return _times_fixed(Bh @ X.conj().swapaxes(-1, -2), B) @ X - np.eye(problem.nhat)


def feasibility_residual(problem: ProblemInstance, X: np.ndarray):
    """||Bhat X^H B X - I||_F; an array of residuals for a stack of X.

    The Frobenius norm bounds the 2-norm from above, by at most sqrt(nhat)
    times it.  Each gap is divided by its largest |entry| before its squares
    are summed, so a finite gap gives a finite residual where the plain sum
    of squares would overflow.  A zero gap gives 0.0, and a NaN or inf entry
    a non-finite residual, with no numpy warning.
    """
    G = _constraint_gap(problem, X)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.abs(G).max(axis=(-2, -1))
        unit = np.where(scale > 0, scale, 1.0)
        return _per_matrix(unit * np.linalg.norm(G / unit[..., None, None], axis=(-2, -1)))


def _feasible_point(big: PairAnalysis, hat: PairAnalysis) -> np.ndarray:
    cols = paired_columns(big.b_inertia, hat.b_inertia)
    return big.b_frame[:, cols] @ hat.b_frame.conj().T


class FeasibleSampler:
    """Draw random feasible points; the congruence frames are built once.

    A sample is left @ Xs @ right: ``left`` is B's frame, its +1 and -1
    columns and then its null columns, which span N(B) but for the
    directions deflated as common null vectors of A and B (those move
    neither the trace nor the constraint); ``right`` is Bhat's frame
    conjugate-transposed; and Xs is the ``sample_feasible`` draw for the
    inertias ``ib`` of B and ``ibh`` of Bhat, whose counts fix J and Jhat,
    with one Gaussian row, scaled by the spread, per null column.  The
    frames are read off ``result``, the ``infimum`` of ``problem``, when it
    is given (as in ``minimizer``), and off a fresh analysis of both pairs
    otherwise.  ``sample`` reads one Generator in order; ``size=K`` gives a
    (K, n, nhat) stack equal to K successive single samples.  ``right`` is
    multiplied as in ``_objective``: one GEMM on the stacked rows."""

    def __init__(self, problem: ProblemInstance, result: InfimumResult | None = None):
        if result is None:
            big, hat = _analyses(problem)
        else:
            big, hat = _checked(problem, result).analysis, result.hat_analysis
        self.ib, self.ibh = big.b_inertia, hat.b_inertia
        self.left = big.b_frame
        self.right = hat.b_frame.conj().T

    def sample(self, spread: float, rng, size=None) -> np.ndarray:
        null_dims = self.left.shape[1] - self.ib.rank
        Xs = sample_feasible(self.ib, self.ibh, spread, rng, size, null_dims)
        return _times_fixed(self.left @ Xs, self.right)


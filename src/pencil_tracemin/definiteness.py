"""Semidefiniteness of a Hermitian pair, read off its typed spectrum.

A pair (A, B) is positive (negative) semidefinite when some real shift t
makes A - t*B positive (negative) semidefinite.  For nonsingular B and a real
spectrum the admissible shifts are exactly

    PSD:  [max negative-type eigenvalue, min positive-type eigenvalue]
    NSD:  [max positive-type eigenvalue, min negative-type eigenvalue]

(Kovac-Striko & Veselic, LAA 216, 1995; Liang, Li & Bai, LAA 438, 2013).  A
side with no eigenvalues leaves a half-line: B is definite.  Non-real
eigenvalues exclude both verdicts.  The endpoints may cross by ``psd_tol``
relative to their size.  Each interval the spectrum admits is confirmed by
one evaluation of lam_min(Ã - t*J) on the finite part (Ã, J) of the
``PairAnalysis`` at an interior shift: the side holds iff it is >=
-psd_tol * (1 + |Ã|_F + |J|_F), where |J|_F = sqrt(m) at order m.  With d
the diagonal of H = Ã - t*J and e the Frobenius norm of the rest of H,
Weyl's inequality puts lam_min(H) in [min d - e, min d + e], and
lam_min(H) <= min d; when min d - e or min d decides the test, the
evaluation is the lower end min d - e, with no eigensolve, and otherwise it
is eigvalsh(H)[0].  The shift t*J is diagonal, so e is the norm of the
off-diagonal part of Ã, taken once per pair, and each side screens the
vector d = Re diag(Ã) - t*j; H itself is formed only for an eigvalsh.  On
the pair route Ã is diag(j * value) exactly, read off the typed values, so
e = 0 and the diagonal decides every side there.  A chained pair or B = 0
makes no such evaluation, and its report carries the tolerance psd_tol *
``MatrixPair.scale``.  A Jordan eigenvalue sits in both lists (the two-copy
convention of ``PairAnalysis``), which pins the interval to that value; the
confirming lam_min there decides whether the pair is semidefinite at it,
which the spectrum itself does not say.  A pair's verdict is
``analysis_definiteness(analyze_pair(pair))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import eigvalsh
from .spectral import INF_MINUS, INF_NONE, INF_PLUS, PairAnalysis, _shift


@dataclass(frozen=True)
class DefinitenessReport:
    """PSD/NSD verdicts of a pair, their shift intervals and the confirming evaluations.

    ``psd_shift`` is the shift at which the PSD interval was confirmed and
    ``psd_lam_min`` is lam_min(A - psd_shift*B) there; ``nsd_shift`` and
    ``nsd_lam_min`` = lam_min(nsd_shift*B - A) do the same for the NSD side.
    Both are taken of the finite part, Ã - t*J and t*J - Ã.  Each is the
    Weyl lower bound min d - |offdiag|_F of that matrix when its diagonal d
    decides the side, and its eigvalsh value otherwise.  Either way a side
    holds iff its lam_min >= -``tolerance``, so lam_min + tolerance is the
    verdict's margin.  Both are None when the spectrum already excludes the
    side.
    """

    is_psd_pair: bool
    is_nsd_pair: bool
    psd_interval: tuple | None
    nsd_interval: tuple | None
    psd_shift: float | None = None
    psd_lam_min: float | None = None
    nsd_shift: float | None = None
    nsd_lam_min: float | None = None
    tolerance: float = 0.0


def _confirmed_side(lam_min, lower, upper, tols, tol):
    """Interval [max lower, min upper] of shifts t with lam_min(t) >= 0, confirmed at one shift.

    Endpoints crossed within psd_tol collapse to their midpoint, which is
    then the shift; any other interval is confirmed at ``spectral._shift``
    with margin 1.  Returns (interval or None, confirming shift, lam_min
    there); the shift and lam_min are None when the endpoints are out of
    order.  At least one of ``lower`` and ``upper`` is nonempty: a real
    spectrum of nonzero B has a typed value, so the interval is never the
    whole line.
    """
    lo = float(lower.max(initial=-np.inf))
    hi = float(upper.min(initial=np.inf))
    ends = [abs(x) for x in (lo, hi) if math.isfinite(x)]
    if lo > hi + tols.psd_tol * (1.0 + max(ends, default=0.0)):
        return None, None, None
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    shift = lo if lo == hi else _shift(lo, hi, 1.0)
    f = lam_min(shift)
    return ((lo, hi) if f >= -tol else None), shift, f


def _lam_min(d: np.ndarray, e: float, shifted, tol: float) -> float:
    """lam_min(H) for the test lam_min(H) >= -tol, read off the diagonal when it decides.

    d = Re diag(H) and e = |H - diag(d)|_F; ``shifted()`` forms H.  Weyl's
    inequality puts lam_min(H) in [min d - e, min d + e], and lam_min(H) <=
    min d, the Rayleigh quotient of a unit vector.  When min d - e >= -tol
    the test holds, and when min d < -tol it fails; either way the lower end
    min d - e is returned, with no eigensolve and H never formed.  Otherwise
    this is eigvalsh(H)[0].  A shift t*J moves only the diagonal of H, so
    the caller takes e once per pair, not once per shift.
    """
    low = float(d.min())
    if low - e >= -tol or low < -tol:
        return low - e
    return float(eigvalsh(shifted())[0])


def _definiteness_from_spectrum(analysis: PairAnalysis) -> DefinitenessReport:
    """PSD/NSD verdicts of the finite part (Ã, J) of a non-chained analysed pair
    with nonzero B, from its typed spectrum; tolerance and lam_min are in the
    finite part's coordinates, the tolerance psd_tol * (1 + |Ã|_F + |J|_F).

    Makes at most two eigenvalue solves, one per side that the spectrum
    admits and the diagonal of its shifted Ã leaves undecided
    (``_lam_min``).  On the pair route Ã is exactly diagonal, e = 0, so the
    diagonal decides.  The off-diagonal norm e is the same at every shift
    and for both sides, and is taken once.
    """
    A, j, tols = analysis.A_fin, analysis.j, analysis.tols
    # |J|_F = sqrt(m): each entry of j is +1 or -1.
    tol = tols.psd_tol * (1.0 + float(np.linalg.norm(A) + math.sqrt(len(j))))
    if analysis.has_complex:
        return DefinitenessReport(False, False, None, None, tolerance=tol)
    a = A.diagonal().real
    off = A.copy()
    off.flat[:: len(off) + 1] = 0.0
    e = float(np.linalg.norm(off))
    pos, neg = analysis.pos_values, analysis.neg_values
    psd_itv, psd_t, psd_f = _confirmed_side(
        lambda t: _lam_min(a - t * j, e, lambda: A - t * np.diag(j), tol), neg, pos, tols, tol
    )
    # A - t*J <= 0 iff t*J - A >= 0: the NSD side swaps the lists.
    nsd_itv, nsd_t, nsd_f = _confirmed_side(
        lambda t: _lam_min(t * j - a, e, lambda: t * np.diag(j) - A, tol), pos, neg, tols, tol
    )
    return DefinitenessReport(
        is_psd_pair=psd_itv is not None,
        is_nsd_pair=nsd_itv is not None,
        psd_interval=psd_itv,
        nsd_interval=nsd_itv,
        psd_shift=psd_t,
        psd_lam_min=psd_f,
        nsd_shift=nsd_t,
        nsd_lam_min=nsd_f,
        tolerance=tol,
    )


def analysis_definiteness(analysis: PairAnalysis) -> DefinitenessReport:
    """Structure-aware PSD/NSD verdicts of an analysed pair.

    The pair is PSD (NSD) iff its finite part (Ã, J) is, as judged by
    ``_definiteness_from_spectrum``, and A is positive (negative) definite on
    N(B) (``_with_infinite_sign``).  Chained structure on N(B) admits
    neither.  With B = 0 the shift is free: the verdict is the sign of A and
    the interval is the whole line.
    """
    tol = analysis.tols.psd_tol * analysis.pair.scale
    if analysis.coupled:
        return DefinitenessReport(False, False, None, None, tolerance=tol)
    if not len(analysis.j):
        line = (-np.inf, np.inf)
        rep = DefinitenessReport(True, True, line, line, tolerance=tol)
    else:
        rep = _definiteness_from_spectrum(analysis)
    return _with_infinite_sign(analysis, rep)


def _with_infinite_sign(analysis: PairAnalysis, rep: DefinitenessReport):
    """The pair's verdicts from the report ``rep`` on its finite part: a side
    holds iff it holds there and A is definite of that sign on N(B),
    vacuously so for nonsingular B.  ``infimum`` applies it too."""
    sign = analysis.infinite_sign
    psd = rep.is_psd_pair and sign in (INF_NONE, INF_PLUS)
    nsd = rep.is_nsd_pair and sign in (INF_NONE, INF_MINUS)
    return DefinitenessReport(
        is_psd_pair=psd,
        is_nsd_pair=nsd,
        psd_interval=rep.psd_interval if psd else None,
        nsd_interval=rep.nsd_interval if nsd else None,
        psd_shift=rep.psd_shift,
        psd_lam_min=rep.psd_lam_min,
        nsd_shift=rep.nsd_shift,
        nsd_lam_min=rep.nsd_lam_min,
        tolerance=rep.tolerance,
    )


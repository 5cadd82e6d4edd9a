"""Pair analysis: the one place a Hermitian pair (A, B) is analysed.

``analyze_pair(pair, tols)`` builds one flat, frozen :class:`PairAnalysis`
per pair, and records in ``route`` how its pencil was solved.  A definite
pair, where s·A - t·B is positive definite for a sign s and a shift t, with
B nonsingular under the relative zero rule, takes one Cholesky of s·A - t·B
and one Hermitian eigensolve in its own coordinates
(``_definite_spectrum``, route "pair-cholesky"): it has real eigenvalues,
no Jordan block and types without a Gram matrix, and its typed directions
are themselves a B-frame, so B is never decomposed.  Such an s·A - t·B
names a line that leaves the field of values W(A + iB) on one side
(Crawford & Moon, LAA 51, 1983).  The shift is read off the n diagonal
points of W, diag(A) / diag(B); when the Cholesky there fails, every 2x2
principal compression cuts the diagonal interval: its determinant is a
quadratic in t, and since the positive definite cone is convex the shifts
that keep it positive form one subinterval.  One more Cholesky is tried
inside the intersection, found in one vectorized O(n²) pass with no kernel
call (``_compression_cut``).  The solve also gives a lower bound on the
Crawford number, 1 / (|L⁻¹|_F²·sqrt(1 + t²)), which the record keeps.
Every other pair eigendecomposes B once (inertia with the relative zero
rule and the +1/-1/0 B-frame), drops the common nullspace of A and B from
N(B) and splits off the rest of N(B) in place: the record holds the
eigenvalues of A there, the coupling K that eliminates it from the range of
B, and the finite part Ã as an array, posed in B-frame coordinates, (Ã, J)
with J = diag(+1.., -1..).  ``_finite_spectrum`` solves it by one of two
routes into the typed spectrum, arrays for each type (the ascending values,
a Jordan mask and one matrix of the directions the entries own), and a
tuple of 2x2 blocks for the conjugate eigenvalue pairs.  A definite finite
part takes the same Cholesky solve in B-frame coordinates
("frame-cholesky").  Every other one, and a definite one whose guard
finds an eigenvalue at the shift or two eigenvalues that would cluster,
takes one standard eigensolve of J·Ã (the library's only
``numpy.linalg.eig``, route "eig"), as J² = I makes it selfadjoint in
[x, y] = y^H J x, and ``_cluster`` types it.  These directions, with the
null directions of B, form a congruence frame (the canonical form of
Lancaster & Rodman, SIAM Review 47, 2005), each held once, as a column in
the pair's own coordinates.  The canonical form is a direct sum: a Jordan
copy or a chained conjugate group owns no direction and leaves the other
directions in place.  Definiteness, minimizers, feasible points, sampling
and divergence witnesses all read this one record, which is the pair's
typed spectrum.

The analysis is eager: ``analyze_pair`` fills every field before it
returns, so a pair with a finite part of order m always pays the O(m³)
solve (on the ``eig`` route plus the Gram matrix and the clustering), even
where a caller reads only the B-frame (a ``FeasibleSampler`` built from a
problem alone, or an ``infimum`` that returns an excluded constant).  Every
other caller reads the spectrum anyway, and no field is computed twice.

Finite eigenvalues carry a type: the sign of the B-form on their eigenspace,
measured in a B-frame, where B has unit scale: the typed frame on the
pair route, B's eigenvector frame on the others.  On the ``eig``
route, eigenvectors are B-orthogonal unless their eigenvalues are conjugate,
so one Gram matrix G = Z^H J Z of the eigenvectors Z, formed once per
finite part, holds every B-form that typing reads: real eigenvalues closer
than ``type_tol`` relative to the spectrum, or split from one Jordan block
by roundoff, form a cluster C, typed by the inertia of G[C, C], so a
repeated eigenvalue of both types gets one copy of each type; conjugate
pairs are J-normalized from the blocks of G between them.  A J-isotropic
direction signals a Jordan block; its copies pair up within their cluster
and count once with each type (the two-copy convention).  The structure of
A on N(B) is classified separately, with one threshold for "A vanishes
there": ``rank_tol`` times the Frobenius norm of A.  A degenerate
restriction signals chained (non-diagonalizable) infinite structure, which
leaves no finite part: the spectrum of a chained pair is untyped
(``isotropic_defect`` set) and costs no eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import KernelFailureError, NonFiniteError
from .matcore import DEFAULT_TOLS, Inertia, MatrixPair, ToleranceSet, eigen_signs

INF_NONE = "none"
INF_PLUS = "plus"
INF_MINUS = "minus"
INF_MIXED = "mixed"
INF_COUPLED = "coupled"


def _apart(vals, type_tol, floor):
    """The cluster rule on ascending values: whether each two neighbours lie
    apart, their gap above type_tol·max|value| + floor."""
    return vals[1:] - vals[:-1] > type_tol * float(abs(vals).max(initial=0.0)) + floor


def _cluster(w, Z, G, tols, scale):
    """Cluster the real eigenvalues w of J·Ã and type each cluster.

    G = V^H J V for the unit eigenvectors V in B-frame coordinates, B = J =
    diag(j); Z = F V holds them mapped by some F into the coordinates that
    the directions are returned in.
    With ``scale`` the size of the finite part's A, w is real if |Im w| <=
    type_tol * |w| + rank_tol * scale, and two real ones share a cluster
    within type_tol * max|w| + rank_tol * scale.  The copies of a Jordan
    block that roundoff splits further, up to type_tol * scale, are still
    real and share a cluster: their columns of G vanish to sqrt(type_tol).
    Each cluster C is typed by the inertia of G[C, C], a cluster of one by
    its diagonal entry, all at once; its isotropic directions (B-form within
    type_tol of zero) pair up at its value as Jordan copies of both types, and
    an odd one left over takes its B-form's sign; neither owns a direction.
    The Jordan-column test, max|G[:, k]| <= sqrt(type_tol), is taken once per
    column, and both splits read it.
    Returns (typed, complex indices), typed the leading arguments of
    ``_by_type``: clusters ascending, each its directions in eigh order, then
    its copies.
    """
    floor, split_tol = tols.rank_tol * scale, tols.type_tol * scale
    null_col = np.max(np.abs(G), axis=0) <= np.sqrt(tols.type_tol)
    im = np.abs(w.imag)
    real = im <= tols.type_tol * np.abs(w) + floor
    split = np.flatnonzero(~real & (im <= split_tol))
    real[split] = null_col[split]
    cidx = np.flatnonzero(~real)
    ridx = np.flatnonzero(real)
    ridx = ridx[np.argsort(w[ridx].real)]
    vals = w[ridx].real
    apart = _apart(vals, tols.type_tol, floor)
    near = np.flatnonzero(apart & (vals[1:] - vals[:-1] <= split_tol))
    null_col = null_col[ridx]
    apart[near] = ~(null_col[near] & null_col[near + 1])
    # A cluster's entries take its places in vals; a larger one is rewritten from its eigh.
    X, forms = Z[:, ridx], np.real(G.diagonal()[ridx])
    values, jordan = vals.copy(), np.zeros(len(vals), dtype=bool)
    starts = np.flatnonzero(np.concatenate([[True], apart]))
    ends = np.append(starts[1:], len(vals))
    for start, end in zip(starts[ends - starts > 1].tolist(), ends[ends - starts > 1].tolist()):
        GC = G[np.ix_(ridx[start:end], ridx[start:end])]
        g, U = np.linalg.eigh((GC + GC.conj().T) / 2.0)
        iso = np.abs(g) <= tols.type_tol
        order, first = np.argsort(iso, kind="stable"), start + int(np.sum(~iso))
        jordan[first:first + int(np.sum(iso)) // 2 * 2] = True
        values[start:end] = float(np.mean(vals[start:end]))
        forms[start:end] = g[order]
        X[:, start:end] = (X[:, start:end] @ U)[:, order]
    owns = np.abs(forms) > tols.type_tol
    plus = forms >= 0
    plus[jordan] = np.arange(np.sum(jordan)) % 2 == 0  # one copy of each type, positive first
    D = X[:, owns] / np.sqrt(np.abs(forms[owns]))
    T = np.hstack([D[:, plus[owns]], D[:, ~plus[owns]]])
    return (plus, values, jordan, owns, T), cidx


def _shift(lo, hi, margin):
    """A shift inside the interval (lo, hi), or None when it is empty or the
    whole line: its midpoint, or beyond the finite end of a half-line by
    |end| + margin.  The shift rule of both the pencil solve and the
    definiteness confirmation (margin 1)."""
    if not lo < hi:
        return None
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + abs(lo) + margin
    if math.isfinite(hi):
        return hi - abs(hi) - margin
    return None


def _factor(A, B, s, t):
    """(L, t) with s·A - t·B = L L^H, or None when t is None or Cholesky fails."""
    if t is None:
        return None
    try:
        return np.linalg.cholesky(s * A - t * B), t
    except np.linalg.LinAlgError:
        return None


@lru_cache(maxsize=32)
def _upper_pairs(n):
    """(i, k, flat) of the n(n-1)/2 index pairs i < k, flat = i·n + k, read-only."""
    i, k = np.triu_indices(n, 1)
    flat = i * n + k
    for x in (i, k, flat):
        x.setflags(write=False)
    return i, k, flat


def _compression_cut(A, B, s, lo, hi):
    """The diagonal interval (lo, hi) of s·A - t·B cut to the shifts t at
    which every 2x2 principal compression is positive definite, as (lo, hi).

    On (lo, hi) both diagonal entries of the compression on (i, j) are
    positive, so it is positive definite iff its determinant, the quadratic
    c2·t² + c1·t + c0, is.  The shifts that make it positive definite form
    an interval, since the positive definite cone is convex and the
    compression is affine in t, so their part of (lo, hi) is one interval:
    between the roots where c2 < 0; where c2 >= 0 the determinant is <= 0
    on [r1, r2], and (lo, hi) keeps the side of it that it reaches into.
    The roots scale like the ratios a_ii / b_ii, with A and inversely with B.
    """
    # Roots are infinite where c2 = 0 and NaN where the entries overflow.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i, k, flat = _upper_pairs(len(A))
        a, b = np.real(A.diagonal()), np.real(B.diagonal())
        aik, bik = A.take(flat), B.take(flat)
        ai, ak, bi, bk = a.take(i), a.take(k), b.take(i), b.take(k)
        c2 = bi * bk - np.abs(bik) ** 2 + 0.0  # + 0.0 turns -0.0 into +0.0
        c1 = -s * (ai * bk + ak * bi - 2.0 * np.real(aik * np.conj(bik)))
        c0 = ai * ak - np.abs(aik) ** 2
        disc = c1 * c1 - 4.0 * c2 * c0
        # The stable pair of roots; where c2 = 0 one is infinite and the other -c0/c1.
        q = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
        r1, r2 = np.fmin(q / c2, c0 / q), np.fmax(q / c2, c0 / q)
        convex = c2 >= 0
        # With no real root the determinant keeps the sign of c2: everywhere
        # positive (no cut) or nowhere (an empty interval).
        r1 = np.where(disc < 0, np.inf, r1)
        r2 = np.where(disc < 0, np.where(convex, np.inf, -np.inf), r2)
        low = np.where(convex, np.where(r1 <= lo, r2, -np.inf), r1)
        high = np.where(convex, np.where(r2 >= hi, r1, np.inf), r2)
    # A NaN bound, from an overflowing entry, cuts nothing; the Cholesky decides.
    return float(np.fmax.reduce(low, initial=lo)), float(np.fmin.reduce(high, initial=hi))


# Order at and below which ``_tri_inv`` calls the general inverse.
TRI_INV_BASE = 32


def _tri_inv(L):
    """The inverse of a nonsingular lower triangular L, by 2x2 block recursion.

    inv([[L11, 0], [L21, L22]]) = [[L11⁻¹, 0], [-L22⁻¹·L21·L11⁻¹, L22⁻¹]]:
    two half-order inverses and two products, where the general LU inverse
    would factor the whole of L again.  At order ``TRI_INV_BASE`` and below
    the LU inverse is the cheaper.
    """
    n = len(L)
    if n <= TRI_INV_BASE:
        return np.linalg.inv(L)
    h = n // 2
    L11i, L22i = _tri_inv(L[:h, :h]), _tri_inv(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = L11i, L22i
    out[h:, :h] = -L22i @ (L[h:, :h] @ L11i)
    return out


def _pencil_solve(A, B, a_norm):
    """One Cholesky s·A - t·B = L L^H and one eigh L⁻¹ B L⁻ᴴ = Y diag(μ) Y^H.

    Returns (s, t, μ, X) with X = L⁻ᴴ Y, so X^H (s·A - t·B) X = I and
    X^H B X = diag(μ), or None when no shift passes its Cholesky.  For each
    sign s the diagonal of s·A - t·B must be positive, which bounds t by
    the ratios s·a_ii / b_ii: above where b_ii > 0, below where b_ii < 0,
    and needs s·a_ii > 0 where b_ii = 0.  The first Cholesky is tried at a
    shift inside that interval (``_shift``); when it fails, or the interval
    is the whole line, the interval is cut by the 2x2 principal
    compressions (``_compression_cut``) and one more Cholesky is tried at a
    shift inside what is left.  A pair that passes the first Cholesky pays
    nothing for the cut.  ``a_norm`` is |A|_F, which sets the margin of a
    half-line shift.  L⁻¹ is triangular and taken by ``_tri_inv``.
    """
    a, b = A.diagonal().real, B.diagonal().real
    margin = (a_norm or 1.0) / (float(abs(b).max()) or 1.0)
    # A ratio may overflow; the Cholesky at an infinite shift then fails.
    with np.errstate(over="ignore"):
        below, above = b < 0, b > 0
        low, high, free = a[below] / b[below], a[above] / b[above], a[b == 0]
        for s in (1.0, -1.0):
            lo = float((s * low).max(initial=-np.inf))
            hi = float((s * high).min(initial=np.inf))
            if not lo < hi or (s * free <= 0).any():
                continue
            L = _factor(A, B, s, _shift(lo, hi, margin))
            if L is None:
                cut = _compression_cut(A, B, s, lo, hi)
                # An uncut interval would give the shift that just failed.
                L = _factor(A, B, s, _shift(*cut, margin)) if cut != (lo, hi) else None
            if L is not None:
                L, t = L
                Li = _tri_inv(L)
                LiH = Li.conj().T
                mu, Y = np.linalg.eigh(Li @ B @ LiH)
                return s, t, mu, LiH @ Y
    return None


def _typed_fields(s, t, mu, X, tols, F=None):
    """The fields of ``PairAnalysis`` from the typed ones to ``route`` of a
    pencil solve (s, t, μ, X), or None when a guard sends the solve on.

    With λ = s·(t + 1/μ) the guards reject an eigenvalue within
    sqrt(type_tol)·(|λ|_2 + |t|) of s·t, since |λ - s·t| = 1/|μ|, and two
    eigenvalues within the cluster rule's type_tol·max|λ| + rank_tol·|λ|_2.
    Each λ has type sign μ and the direction x / sqrt|μ| for its column x
    of X, mapped by F into the pair's coordinates when F is given, which
    makes the route "frame-cholesky" ("pair-cholesky" without F).  The
    directions are gathered from X once, the +1 columns, then the -1
    columns, each ascending in λ: the ascending order and the stable sort
    by sign are composed into one permutation.  Returns (fields, those
    directions, their signs), the fields those of ``_by_type``.
    """
    # A value may overflow; the first guard then rejects it.
    with np.errstate(over="ignore"):
        lam = s * (t + 1.0 / mu)
        scale = math.sqrt(lam @ lam)
        am = abs(mu)
        # |λ - s·t| = 1/|μ|: the eigenvalue nearest the shift has the largest |μ|.
        if am.max() * math.sqrt(tols.type_tol) * (scale + abs(t)) >= 1.0:
            return None
        order = lam.argsort()
        lam = lam[order]
        if not _apart(lam, tols.type_tol, tols.rank_tol * scale).all():
            return None
    plus = mu[order] > 0
    perm = order[(~plus).argsort(kind="stable")]
    T = X[:, perm] / np.sqrt(am[perm])
    if F is not None:
        T = F @ T
    # No Jordan copy, and every entry owns its direction.
    jordan = np.zeros(len(lam), dtype=bool)
    route = "pair-cholesky" if F is None else "frame-cholesky"
    return _by_type(plus, lam, jordan, ~jordan, T, route=route), T, np.sign(mu[perm])


def _definite_spectrum(A, B, tols, a_norm, b_norm, F=None):
    """Solve a definite pencil (A, B) by one Cholesky and one eigh; a_norm and
    b_norm are |A|_F and |B|_F, which the caller already holds.

    The pencil is definite when s·A - t·B is positive definite for a sign s
    and a shift t; then it has real eigenvalues and no Jordan block, and
    needs neither ``_cluster`` nor a Gram matrix.  Geometrically, the line
    that s·A - t·B > 0 names leaves the field of values W(A + iB) on one
    side (Crawford & Moon, LAA 51, 1983).  The routine runs in two
    coordinate systems: in the pair's own, (A, B) as given, and in
    B-frame coordinates, (Ã, J) with J = diag(j).  ``_pencil_solve`` reads
    the shift off the n diagonal points e_i^H (A + iB) e_i of W: the diagonal
    of s·A - t·B must be positive, and one Cholesky is tried at the
    midpoint of the interval that leaves, or beyond the end of a half-line
    by |end| + |A|_F / max|b_ii| (|Ã|_F in the B-frame).  After a
    congruence the diagonal points are a poor inner picture of W, and
    that Cholesky can fail on a definite pair; then every 2x2 principal
    compression, whose field of values is an ellipse inside W, cuts the
    interval (``_compression_cut``), and one more Cholesky is tried at the
    midpoint of what is left.  The cut is homogeneous in A and in B.  The
    first that succeeds, s·A - t·B = L L^H, solves the pencil: for
    eigh(L⁻¹ B L⁻ᴴ) = (μ, Y), the eigenvalues are λ = s·(t + 1/μ), each of
    type sign μ, with the direction x = L⁻ᴴ y / sqrt|μ| of B-form sign μ.
    These directions are a B-frame X of the pencil, with X^H B X =
    diag(sign μ) and X^H A X = diag(sign μ · λ).

    B must be nonsingular under the zero rule of ``eigen_signs`` (an
    eigenvalue |d| <= rank_tol·max|d| counts as zero).  By Ostrowski's
    theorem each eigenvalue of B = L (L⁻¹ B L⁻ᴴ) L^H is μ_k times a number in
    [σ_min(L)², σ_max(L)²], so every |d| >= min|μ| / |L⁻¹|_F²; the solve is
    kept only when that exceeds rank_tol·|B|_F >= rank_tol·max|d|.  Then
    the signs of μ are B's inertia (Sylvester), with no zeros, as
    ``eigen_signs`` counts it.  In B-frame coordinates B = J of order m is
    nonsingular by construction; there |L⁻¹|_F² = Σ |μ_k|·|x_k|², so the
    certificate fails only for very long directions, Σ |μ_k / min|μ||·|x_k|²
    >= 1 / (rank_tol·sqrt(m)).  The same factor bounds the Crawford number
    γ(A, B) = min over unit z of |z^H (A + iB) z| from below: s·A - t·B is
    sqrt(1 + t²) times cos θ·A + sin θ·B for one angle θ, and its least
    eigenvalue is σ_min(L)² >= 1 / |L⁻¹|_F², so γ >= 1 / (|L⁻¹|_F² ·
    sqrt(1 + t²)), at no cost.

    The guards (``_typed_fields``) are stated in the frame X that the solve
    builds: there the finite part X^H A X = diag(sign μ · λ) has Frobenius
    norm |λ|_2 in whichever coordinates the routine ran, and every B-form
    is exactly ±1.  The solve is sent on when it shows a case that
    ``_cluster`` decides differently or that the Cholesky factor cannot
    resolve: an eigenvalue near s·t (a Jordan pair there passes Cholesky by
    roundoff), or two eigenvalues that the cluster rule would merge (a
    cluster takes the mean of its values).  No direction of X is isotropic,
    so the isotropy test of ``_cluster`` has nothing to find there.  Values
    that overflow fail the first guard.  Every bound scales with A and with
    B, with no ``1 +`` floor, so neither the route nor the types depend on
    how the pair is scaled.

    Returns (fields, directions, signs, γ bound), the first three those of
    ``_typed_fields``, with F mapping the directions into the pair's
    coordinates, or None when no shift passes its Cholesky, B fails the
    certificate or a guard sends the solve on.
    """
    solve = _pencil_solve(A, B, a_norm)
    if solve is None:
        return None
    s, t, mu, X = solve
    li2 = float(np.vdot(X, X).real)  # |L⁻¹|_F², as Y is unitary
    if abs(mu).min() <= tols.rank_tol * b_norm * li2:
        return None
    typed = _typed_fields(s, t, mu, X, tols, F)
    if typed is None:
        return None
    return (*typed, 1.0 / (li2 * float(np.hypot(1.0, t))))


def _by_type(plus, values, jordan, owns, T, complex_values=(), defect=False, blocks=(),
             route=None):
    """The 12 fields of ``PairAnalysis`` from ``pos_values`` to ``route``, the
    typed ones (pos_* before neg_* of each) from entries in one ascending
    order, ``plus`` marking the positive ones; T holds the directions of the
    positive entries that ``owns`` marks, then of the negative ones, so each
    type's are a slice of T.  Every route's fields are assembled here."""
    minus = ~plus
    k = int((plus & owns).sum())
    return (values[plus], values[minus], jordan[plus], jordan[minus],
            T[:, :k], T[:, k:], owns[plus], owns[minus], complex_values, defect, blocks, route)


def _conjugate_blocks(A, w, Z, G, cidx, tols):
    """J-normalized 2x2 frames for the conjugate eigenvalues w[cidx], G = Z^H J Z.

    The cross forms M = G[plus, minus] link the Im > 0 and Im < 0
    eigenvectors of conjugate eigenvalues; entries |M| > type_tol group them.
    Each group is J-normalized through the SVD of its block, M_g = U S V^H:
    x = Z_minus V / sqrt(s) and y = Z_plus U / sqrt(s) have y^H J x = I, so
    the (x +- y) / sqrt(2) are +1 and -1 directions, also for a repeated
    eigenvalue; the conjugate counterpart of the eigh that types a real
    cluster.  A group with unequal sides, or with a singular value
    <= type_tol, is a complex Jordan block (chained) and is skipped.

    Returns [(c_plus, c_minus, alpha, beta), ...] over the groups that
    J-normalize, the directions in the finite part's coordinates.
    """
    if not cidx.size:
        return []
    minus, plus = cidx[w[cidx].imag < 0], cidx[w[cidx].imag > 0]
    M = G[np.ix_(plus, minus)]
    link = np.abs(M) > tols.type_tol
    left, blocks = np.ones(len(minus), dtype=bool), []
    while left.any():
        cols = np.arange(len(minus)) == np.argmax(left)
        while True:  # grow to the connected group of the first column left
            rows = link[:, cols].any(axis=1)
            grown = cols | link[rows].any(axis=0)
            if np.array_equal(grown, cols):
                break
            cols = grown
        left &= ~cols
        rows, cols = np.flatnonzero(rows), np.flatnonzero(cols)
        if len(rows) != len(cols):
            continue
        U, s, Vh = np.linalg.svd(M[np.ix_(rows, cols)])
        if s[-1] <= tols.type_tol:
            continue
        X = Z[:, minus[cols]] @ Vh.conj().T / np.sqrt(s)
        Y = Z[:, plus[rows]] @ U / np.sqrt(s)
        for x, y in zip(X.T, Y.T):
            c1, c2 = (x + y) / np.sqrt(2.0), (x - y) / np.sqrt(2.0)
            alpha = float(np.real(c1.conj() @ (A @ c1)))
            beta = float(np.imag(c2.conj() @ (A @ c1)))
            # With Ã x = conj(λ) J x, Ã y = λ J y (Im λ > 0) and y^H J x = 1,
            # x^H Ã x = y^H Ã y = 0 and y^H Ã x = conj(λ), so c2^H Ã c1 =
            # (λ - conj(λ)) / 2 = i Im λ: beta > 0 exactly, and only
            # roundoff can flip its sign, which the sign of c2 takes back.
            c2, beta = math.copysign(1.0, beta) * c2, abs(beta)
            blocks.append((c1, c2, alpha, beta))
    return blocks


def _finite_spectrum(A, j, F, tols, a_norm):
    """The typed spectrum of the finite part (Ã, J), J = diag(j), of nonzero
    order, with a_norm = |Ã|_F.

    A definite pair is solved by one Cholesky and one Hermitian eigensolve
    (``_definite_spectrum`` in B-frame coordinates).  Any other, or a
    definite one that its guard sends on, by one standard eigensolve of J·Ã,
    as J² = I: J Ã z = λJz iff Ã z = λJz, typed by ``_cluster``.  F maps the finite part's
    coordinates into the pair's, where the directions are returned.
    Returns the 12 fields of ``_by_type``.
    """
    # |J|_F = sqrt(m), as each entry of j is +1 or -1.
    solved = _definite_spectrum(A, np.diag(j), tols, a_norm, math.sqrt(len(j)), F)
    if solved is not None:
        return solved[0]
    # Ã = 0 has every eigenvalue at exactly zero; any positive scale will do.
    scale = a_norm or 1.0
    w, Z = np.linalg.eig(j[:, None] * A)
    G = Z.conj().T @ (j[:, None] * Z)  # every B-form the typing reads
    typed, cidx = _cluster(w, F @ Z, G, tols, scale)
    blocks = _conjugate_blocks(A, w, Z, G, cidx, tols)
    blocks = tuple((F @ c1, F @ c2, alpha, beta) for c1, c2, alpha, beta in blocks)
    _, _, jordan, owns, _ = typed
    complex_values = tuple(complex(z) for z in w[cidx])
    return _by_type(*typed, complex_values, bool(np.any(~owns & ~jordan)), blocks, "eig")


@dataclass(frozen=True, eq=False)
class PairAnalysis:
    """Everything derived from one Hermitian pair, each piece computed once.

    Off the pair route, ``analyze_pair`` decomposes B and splits along
    N(B), less the ``deflated_dims`` directions that A also annihilates.
    The B-frame W = [R, N] has R^H B R = J = diag(j), j = (+1.., -1..), and
    N an orthonormal basis of the rest of N(B); ``R`` and ``N`` are its
    column slices.  A on N(B) has eigenvalues ``d_inf`` (eigenvectors
    ``Q_inf`` in N's coordinates).  When none is within ``null_tol`` of
    zero, the congruence [R + N K, N Q_inf |d_inf|^(-1/2)] block-diagonalizes
    the pair into the finite part (``A_fin`` = Ã = (R + N K)^H A (R + N K),
    J) and +/-1 infinite directions.  Otherwise the structure on N(B) is
    chained: no such elimination exists, and ``K`` and ``A_fin`` are None.

    The typed spectrum is part of the record, as arrays for each type,
    pos_* and neg_*: the ascending ``values`` of the finite part, a
    ``jordan`` mask of the Jordan copies (a Jordan block gives one of each
    type), an ``owns`` mask of the entries that own a direction, and
    ``dirs``, whose columns are those directions in entry order, in
    ``pair``'s coordinates without the deflated directions.  A Jordan copy
    owns none, nor does an odd isotropic direction left over in a cluster,
    which sets ``isotropic_defect``, as does a chained pair, whose spectrum
    is untyped (no entries).  ``complex_values`` are the non-real
    eigenvalues and ``blocks`` the conjugate blocks ((c_plus, c_minus,
    alpha, beta), ...) that J-normalize, beta > 0.  The typed directions,
    the blocks' and ``null_frame()`` make the congruence frame, and nothing
    else holds a copy.

    ``route`` names how the pencil was solved: "pair-cholesky",
    "frame-cholesky" or "eig", and None for a chained pair or B = 0, which
    have no finite part to solve.  ``crawford_bound`` is a lower bound on
    the Crawford number min over unit z of |z^H (A + iB) z| on the pair
    route, read off its Cholesky factor, and None on every other route.  On
    the pair route B is nonsingular and never decomposed: ``b_frame`` holds
    the typed directions themselves, the +1 columns ascending in value, then
    the -1 columns, so ``pos_dirs`` and ``neg_dirs`` are its column slices,
    with ``j`` their signs and ``b_inertia`` the count of each; there is no
    null part (``d_inf`` empty, ``K`` of no rows, so ``finite_frame()`` is
    ``b_frame``); and ``A_fin`` is diag(j · value), which W^H A W equals by
    construction: it is read off the typed values, as a complex diagonal,
    with no product of A.
    """

    tols: ToleranceSet
    pair: MatrixPair
    deflated_dims: int
    b_inertia: Inertia  # of B, deflated directions counted as zeros
    b_frame: np.ndarray  # n x (n - deflated_dims), W^H B W = diag(j, 0..)
    j: np.ndarray
    null_tol: float  # "A vanishes on N(B)": rank_tol * |A|_F
    d_inf: np.ndarray
    Q_inf: np.ndarray
    K: np.ndarray | None
    A_fin: np.ndarray | None
    pos_values: np.ndarray
    neg_values: np.ndarray
    pos_jordan: np.ndarray
    neg_jordan: np.ndarray
    pos_dirs: np.ndarray  # n x (number of entries that own a direction)
    neg_dirs: np.ndarray
    pos_owns: np.ndarray
    neg_owns: np.ndarray
    complex_values: tuple
    isotropic_defect: bool
    blocks: tuple
    route: str | None  # "pair-cholesky", "frame-cholesky", "eig"; None: chained or B = 0
    crawford_bound: float | None  # gamma(A, B) >= this on "pair-cholesky", else None

    @property
    def R(self) -> np.ndarray:
        return self.b_frame[:, : len(self.j)]

    @property
    def N(self) -> np.ndarray:
        return self.b_frame[:, len(self.j):]

    @property
    def coupled(self) -> bool:
        return self.K is None

    @property
    def has_infinite(self) -> bool:
        return len(self.d_inf) > 0

    @property
    def infinite_sign(self) -> str:
        """The classification of A on N(B)."""
        if not self.has_infinite:
            return INF_NONE
        if self.coupled:
            return INF_COUPLED
        if np.all(self.d_inf > 0):
            return INF_PLUS
        if np.all(self.d_inf < 0):
            return INF_MINUS
        return INF_MIXED

    @property
    def has_jordan(self) -> bool:
        return bool(np.any(self.pos_jordan) or np.any(self.neg_jordan))

    @property
    def has_complex(self) -> bool:
        return len(self.complex_values) > 0

    def finite_frame(self) -> np.ndarray:
        """The map from the finite part's coordinates back to the pair's."""
        return self.R + self.N @ self.K

    def null_frame(self) -> np.ndarray:
        return (self.N @ self.Q_inf) / np.sqrt(np.abs(self.d_inf))


def eigh_frame(B: np.ndarray, tols: ToleranceSet = DEFAULT_TOLS):
    """B's frame from one eigendecomposition B = V diag(d) V^H: (R, N, j).

    R = V |d|^(-1/2) on the eigenvalues that are not zero under the rule of
    ``eigen_signs``, the +1 columns before the -1 columns (each ascending in
    d), so R^H B R = diag(j); N holds the unit eigenvectors of the zero ones.
    The columns of R are orthogonal, which those of a typed frame need not be.
    """
    try:
        d, V = np.linalg.eigh(B)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise KernelFailureError(str(exc)) from exc
    signs = eigen_signs(d, tols.rank_tol)
    order = np.concatenate([np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)])
    return V[:, order] / np.sqrt(np.abs(d[order])), V[:, signs == 0], signs[order].astype(float)


def analyze_pair(pair: MatrixPair, tols: ToleranceSet = DEFAULT_TOLS) -> PairAnalysis:
    """The typed spectrum of a pair, solved in its own coordinates when it can
    be, else after decomposing B; see :class:`PairAnalysis`.

    A definite pair with nonsingular B is solved by ``_definite_spectrum`` on
    (A, B) itself, with no decomposition of B.  Any other pair decomposes B
    once, drops the common nullspace of A and B and splits off the rest of
    N(B).  A common null vector of A and B lies in N(B), so with N an
    orthonormal basis of N(B) the common nullspace is N times the null space
    of A N.  N is rotated only when a direction is dropped.  The finite part
    is solved in B-frame coordinates, also when the pair's own Cholesky
    passed and only B failed the nonsingularity certificate.  Raises
    NonFiniteError when the finite part overflows: the entries of Ã grow
    like |A| over the smallest nonzero |eigenvalue| of B.
    """
    A = pair.A.entries
    # "A vanishes on N(B)" relative to A alone: no scale of B or of the pair moves it.
    null_tol = tols.rank_tol * pair.A.fro
    solved = _definite_spectrum(A, pair.B.entries, tols, pair.A.fro, pair.B.fro)
    if solved is not None:
        (pos, neg, *typed), W, j, crawford = solved
        return PairAnalysis(
            tols, pair, 0, Inertia(len(pos), 0, len(neg)), W, j, null_tol, np.zeros(0),
            np.zeros((0, 0)), np.zeros((0, len(j))), np.diag(np.concatenate([pos, -neg]) + 0j),
            pos, neg, *typed, crawford,
        )
    R, N, j = eigh_frame(pair.B.entries, tols)
    deflated = 0
    if N.shape[1]:
        _, s, Vh = np.linalg.svd(A @ N, full_matrices=False)
        live = int(np.sum(s > null_tol))
        deflated = N.shape[1] - live
        if deflated:
            N = N @ Vh[:live].conj().T
    W = np.hstack([R, N])
    K, d_inf, Q_inf, A_fin = np.zeros((0, len(j))), np.zeros(0), np.zeros((0, 0)), None
    # Overflow in forming Ã is reported once, below, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if N.shape[1]:
            A_NN = N.conj().T @ A @ N
            d_inf, Q_inf = np.linalg.eigh((A_NN + A_NN.conj().T) / 2.0)
            chained = np.min(np.abs(d_inf)) <= null_tol
            K = None if chained else -np.linalg.solve(A_NN, N.conj().T @ A @ R)
        if K is not None:
            F = R + N @ K
            M = R.conj().T @ A @ F
            A_fin = (M + M.conj().T) / 2.0
            fin_norm = float(np.linalg.norm(A_fin))
            if not np.isfinite(fin_norm):
                raise NonFiniteError(
                    "the finite part of the pair overflows: A is too large for "
                    "the smallest nonzero eigenvalue of B"
                )
    n_plus = int(np.sum(j > 0))
    b_inertia = Inertia(n_plus, pair.n - len(j), len(j) - n_plus)
    if K is None or not len(j):  # chained, or B = 0: no finite part to solve
        none = np.zeros(0, dtype=bool)
        spectrum = _by_type(none, np.zeros(0), none, none, W[:, :0], defect=K is None)
    else:
        spectrum = _finite_spectrum(A_fin, j, F, tols, fin_norm)
    return PairAnalysis(
        tols, pair, deflated, b_inertia, W, j, null_tol, d_inf, Q_inf, K, A_fin, *spectrum, None
    )

"""Pair analysis: the one place a Hermitian pair (A, B) is analysed.

``analyze_pair(pair, tols)`` builds one flat, frozen :class:`PairAnalysis`
per pair, and records in ``route`` how its pencil was solved.  A definite
pair, where s·A - t·B is positive definite for a sign s and a shift t read
off diag(A) / diag(B), with B nonsingular under the relative zero rule,
takes one Cholesky of s·A - t·B and one Hermitian eigensolve in its own
coordinates (``_definite_spectrum``, route "pair-cholesky"): it has real
eigenvalues, no Jordan block and types without a Gram matrix, and its
typed directions are themselves a B-frame, so B is never decomposed.
Every other pair eigendecomposes B once (inertia with the relative zero
rule and the +1/-1/0 B-frame), drops the common nullspace of A and B from
N(B) and splits off the rest of N(B) in place: the record holds the
eigenvalues of A there, the coupling K that eliminates it from the range
of B, and the finite part Ã as an array, posed in B-frame coordinates,
(Ã, J) with J = diag(+1.., -1..).  ``_finite_spectrum`` solves it by one
of two routes into the typed spectrum, arrays for each type (the ascending
values, their B-forms, a Jordan mask and one matrix of the directions the
entries own), and a tuple of 2x2 blocks for the conjugate eigenvalue
pairs.  A definite finite part takes the same Cholesky solve in B-frame
coordinates ("frame-cholesky").  Every other one, and a definite one
whose guard finds an eigenvalue at the shift or two eigenvalues that
would cluster, takes one standard eigensolve of J·Ã (the library's only
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

from dataclasses import dataclass

import numpy as np

from .errors import KernelFailureError, NonFiniteError
from .matcore import DEFAULT_TOLS, Inertia, MatrixPair, ToleranceSet, eigen_signs

INF_NONE = "none"
INF_PLUS = "plus"
INF_MINUS = "minus"
INF_MIXED = "mixed"
INF_COUPLED = "coupled"


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
    its diagonal entry, all at once; its isotropic directions (|b_form| <=
    type_tol) pair up at its value as Jordan copies of both types, and an odd
    one left over takes its b_form's sign; neither owns a direction.
    Returns (typed, complex indices), typed the arguments of ``_by_type``:
    clusters ascending, each its directions in eigh order, then its copies.
    """
    floor, split_tol = tols.rank_tol * scale, tols.type_tol * scale
    root = np.sqrt(tols.type_tol)
    im = np.abs(w.imag)
    real = im <= tols.type_tol * np.abs(w) + floor
    split = np.flatnonzero(~real & (im <= split_tol))
    if split.size:
        real[split] = np.max(np.abs(G[:, split]), axis=0) <= root
    cidx = np.flatnonzero(~real)
    ridx = np.flatnonzero(real)
    ridx = ridx[np.argsort(w[ridx].real)]
    vals = w[ridx].real
    gaps = np.diff(vals)
    apart = gaps > tols.type_tol * float(np.max(np.abs(vals), initial=0.0)) + floor
    near = np.flatnonzero(apart & (gaps <= split_tol))
    if near.size:
        jordan = np.max(np.abs(G[:, ridx]), axis=0) <= root
        apart[near] = ~(jordan[near] & jordan[near + 1])
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
    forms[jordan] = 0.0
    owns = np.abs(forms) > tols.type_tol
    plus = forms >= 0
    plus[jordan] = np.arange(np.sum(jordan)) % 2 == 0  # one copy of each type, positive first
    D = X[:, owns] / np.sqrt(np.abs(forms[owns]))
    T = np.hstack([D[:, plus[owns]], D[:, ~plus[owns]]])
    return (plus, values, forms, jordan, owns, T), cidx


def _definite_spectrum(A, B, tols):
    """Solve a definite pencil (A, B) by one Cholesky and one eigh, or None.

    The pencil is definite when s·A - t·B is positive definite for a sign s
    and a shift t; then it has real eigenvalues and no Jordan block, and
    needs neither ``_cluster`` nor a Gram matrix.  The routine runs in two
    coordinate systems: in the pair's own, (A, B) as given, and in
    B-frame coordinates, (Ã, J) with J = diag(j).  The diagonal of s·A - t·B
    must be positive, which bounds t by the ratios a_ii / b_ii: above where
    b_ii > 0, below where b_ii < 0, and needs s·a_ii > 0 where b_ii = 0.
    One Cholesky is tried at a shift t inside each nonempty interval with a
    finite end: its midpoint, or beyond the end of a half-line by |end| +
    |A|_F / max|b_ii| (|Ã|_F in the B-frame).  The first that succeeds,
    s·A - t·B = L L^H, solves the pencil: for eigh(L⁻¹ B L⁻ᴴ) = (μ, Y), the
    eigenvalues are λ = s·(t + 1/μ), each of type sign μ, with the direction
    x = L⁻ᴴ y / sqrt|μ| of B-form sign μ.  These directions are a B-frame X
    of the pencil, with X^H B X = diag(sign μ) and X^H A X = diag(sign μ · λ).

    B must be nonsingular under the zero rule of ``eigen_signs`` (an
    eigenvalue |d| <= rank_tol·max|d| counts as zero).  By Ostrowski's
    theorem each eigenvalue of B = L (L⁻¹ B L⁻ᴴ) L^H is μ_k times a number in
    [σ_min(L)², σ_max(L)²], so every |d| >= min|μ| / |L⁻¹|_F²; the solve is
    kept only when that exceeds rank_tol·|B|_F >= rank_tol·max|d|.  Then
    the signs of μ are B's inertia (Sylvester), with no zeros, as
    ``eigen_signs`` counts it.  In B-frame coordinates B = J of order m is
    nonsingular by construction; there |L⁻¹|_F² = Σ |μ_k|·|x_k|², so the
    certificate fails only for very long directions, Σ |μ_k / min|μ||·|x_k|²
    >= 1 / (rank_tol·sqrt(m)).

    The guards are stated in the frame X that the solve builds: there the
    finite part X^H A X = diag(sign μ · λ) has Frobenius norm |λ|_2 in
    whichever coordinates the routine ran, and every B-form is exactly ±1.
    The result is None, and the caller falls back, when B fails the
    certificate above, or when the solve shows a case that ``_cluster``
    decides differently or that the Cholesky factor cannot resolve: an
    eigenvalue within sqrt(type_tol)·(|λ|_2 + |t|) of s·t (a Jordan pair
    there passes Cholesky by roundoff), since |λ - s·t| = 1/|μ|; or two
    eigenvalues within the cluster rule's type_tol·max|λ| + rank_tol·|λ|_2
    (a cluster takes the mean of its values).  No direction of X is
    isotropic, so the isotropy test of ``_cluster`` has nothing to find
    there.  Values that overflow fail the first guard.  Every bound scales
    with A and with B, with no ``1 +`` floor, so neither the route nor the
    types depend on how the pair is scaled.

    Returns (λ, sign μ, X), ascending in λ, the columns of X the directions.
    """
    a, b = np.real(A.diagonal()), np.real(B.diagonal())
    margin = (float(np.linalg.norm(A)) or 1.0) / (float(np.max(np.abs(b))) or 1.0)
    # A ratio or a value may overflow; a bound or a guard then rejects it.
    with np.errstate(over="ignore"):
        for s in (1.0, -1.0):
            lo = float(np.max(s * a[b < 0] / b[b < 0], initial=-np.inf))
            hi = float(np.min(s * a[b > 0] / b[b > 0], initial=np.inf))
            if not lo < hi or np.any(s * a[b == 0] <= 0):
                continue
            if np.isfinite(lo) and np.isfinite(hi):
                t = 0.5 * (lo + hi)
            elif np.isfinite(lo):
                t = lo + abs(lo) + margin
            elif np.isfinite(hi):
                t = hi - abs(hi) - margin
            else:
                continue
            try:
                L = np.linalg.cholesky(s * A - t * B)
            except np.linalg.LinAlgError:
                continue
            Li = np.linalg.inv(L)
            mu, Y = np.linalg.eigh(Li @ B @ Li.conj().T)
            li2 = float(np.sum(np.abs(Li) ** 2))
            if np.min(np.abs(mu)) <= tols.rank_tol * float(np.linalg.norm(B)) * li2:
                return None
            lam = s * (t + 1.0 / mu)
            scale = float(np.linalg.norm(lam))
            # |λ - s·t| = 1/|μ|: the eigenvalue nearest the shift has the largest |μ|.
            if np.max(np.abs(mu)) * np.sqrt(tols.type_tol) * (scale + abs(t)) >= 1.0:
                return None
            order = np.argsort(lam)
            lam, mu = lam[order], mu[order]
            gap = tols.type_tol * float(np.max(np.abs(lam))) + tols.rank_tol * scale
            if np.any(np.diff(lam) <= gap):
                return None
            return lam, np.sign(mu), Li.conj().T @ Y[:, order] / np.sqrt(np.abs(mu))
    return None


def _by_type(plus, values, forms, jordan, owns, T):
    """The typed fields of ``PairAnalysis`` (pos_* before neg_* of each) from
    entries in one ascending order, ``plus`` marking the positive ones; T
    holds the directions of the positive entries that ``owns`` marks, then
    of the negative ones, so each type's are a slice of T."""
    k = int(np.sum(plus & owns))
    return (*(x[side] for x in (values, forms, jordan) for side in (plus, ~plus)),
            T[:, :k], T[:, k:], owns[plus], owns[~plus])


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
            if beta < 0:
                c2, beta = -c2, -beta
            blocks.append((c1, c2, alpha, beta))
    return blocks


def _finite_spectrum(A, j, F, tols):
    """The typed spectrum of the finite part (Ã, J), J = diag(j), of nonzero order.

    A definite pair is solved by one Cholesky and one Hermitian eigensolve
    (``_definite_spectrum`` in B-frame coordinates), each b_form that of the
    unit eigenvector, sign μ / |x|².  Any other, or a definite one that its
    guard sends on, by one standard eigensolve of J·Ã, as J² = I: J Ã z =
    λJz iff Ã z = λJz, typed by ``_cluster``.  F maps the finite part's
    coordinates into the pair's, where the directions are returned.
    Returns the fields of ``PairAnalysis`` from the typed ones to ``route``.
    """
    solved = _definite_spectrum(A, np.diag(j), tols)
    if solved is not None:
        lam, sign, X = solved
        plus, D, none = sign > 0, F @ X, np.zeros(len(lam), dtype=bool)
        forms = sign / np.sum(np.abs(X) ** 2, axis=0)
        typed = _by_type(plus, lam, forms, none, ~none, np.hstack([D[:, plus], D[:, ~plus]]))
        return *typed, (), False, (), "frame-cholesky"
    # Ã = 0 has every eigenvalue at exactly zero; any positive scale will do.
    scale = float(np.linalg.norm(A)) or 1.0
    w, Z = np.linalg.eig(j[:, None] * A)
    G = Z.conj().T @ (j[:, None] * Z)  # every B-form the typing reads
    typed, cidx = _cluster(w, F @ Z, G, tols, scale)
    blocks = _conjugate_blocks(A, w, Z, G, cidx, tols)
    blocks = tuple((F @ c1, F @ c2, alpha, beta) for c1, c2, alpha, beta in blocks)
    _, _, _, jordan, owns, _ = typed
    complex_values = tuple(complex(z) for z in w[cidx])
    return *_by_type(*typed), complex_values, bool(np.any(~owns & ~jordan)), blocks, "eig"


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
    pos_* and neg_*: the ascending ``values`` of the finite part, their
    ``b_forms``, a ``jordan`` mask of the Jordan copies (a Jordan block gives
    one of each type), an ``owns`` mask of the entries that own a direction,
    and ``dirs``, whose columns are those directions in entry order, in
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
    have no finite part to solve.  On the pair route B is nonsingular and
    never decomposed: ``b_frame`` holds the typed directions themselves,
    the +1 columns ascending in value, then the -1 columns, so ``pos_dirs``
    and ``neg_dirs`` are its column slices, with ``j`` their signs and
    ``b_inertia`` the count of each; there is no null part (``d_inf`` empty,
    ``K`` of no rows, so ``finite_frame()`` is ``b_frame``); and ``A_fin`` =
    W^H A W is diag(j · value) up to roundoff.

    No library code reads a b_form.  On the pair route it is the B-form of
    the B-normalized direction, exactly +1 or -1.  On the other routes it is
    the B-form of the unit eigenvector x in B's eigenvector frame: sign μ /
    |x|² on "frame-cholesky"; on "eig" the diagonal entry of G = Z^H J Z for
    a cluster of one, an eigenvalue of G[C, C] for a larger cluster C, and 0
    for a Jordan copy.
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
    pos_b_forms: np.ndarray
    neg_b_forms: np.ndarray
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
    of A N.  N is rotated only when a direction is dropped.  Raises
    NonFiniteError when the finite part overflows: the entries of Ã grow
    like |A| over the smallest nonzero |eigenvalue| of B.
    """
    A = pair.A.entries
    # "A vanishes on N(B)" relative to A alone: no scale of B or of the pair moves it.
    null_tol = tols.rank_tol * float(np.linalg.norm(A))
    solved = _definite_spectrum(A, pair.B.entries, tols)
    if solved is not None:
        lam, sign, X = solved
        plus, none = sign > 0, np.zeros(len(lam), dtype=bool)
        W, j = np.hstack([X[:, plus], X[:, ~plus]]), np.concatenate([sign[plus], sign[~plus]])
        M = W.conj().T @ A @ W
        return PairAnalysis(
            tols, pair, 0, Inertia(int(np.sum(plus)), 0, int(np.sum(~plus))), W, j, null_tol,
            np.zeros(0), np.zeros((0, 0)), np.zeros((0, len(j))), (M + M.conj().T) / 2.0,
            *_by_type(plus, lam, sign, none, ~none, W), (), False, (), "pair-cholesky",
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
            if not np.isfinite(np.linalg.norm(A_fin)):
                raise NonFiniteError(
                    "the finite part of the pair overflows: A is too large for "
                    "the smallest nonzero eigenvalue of B"
                )
    n_plus = int(np.sum(j > 0))
    b_inertia = Inertia(n_plus, pair.n - len(j), len(j) - n_plus)
    if K is None or not len(j):  # chained, or B = 0: no finite part to solve
        none = np.zeros(0, dtype=bool)
        untyped = _by_type(none, np.zeros(0), np.zeros(0), none, none, W[:, :0])
        spectrum = *untyped, (), K is None, (), None
    else:
        spectrum = _finite_spectrum(A_fin, j, F, tols)
    return PairAnalysis(
        tols, pair, deflated, b_inertia, W, j, null_tol, d_inf, Q_inf, K, A_fin, *spectrum
    )

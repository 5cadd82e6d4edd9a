"""Pair analysis: the one place a Hermitian pair (A, B) is analysed.

``analyze_pair(pair, tols)`` builds one flat, frozen :class:`PairAnalysis`
per pair.  It eigendecomposes B once (inertia with the relative zero rule
and the +1/-1/0 B-frame), drops the common nullspace of A and B from N(B)
and splits off the rest of N(B) in place: the record holds the eigenvalues
of A there, the coupling K that eliminates it from the range of B, and the
finite part Ã as an array, always posed in B-frame coordinates, (Ã, J) with
J = diag(+1.., -1..).  As J² = I it is the one matrix J·Ã, selfadjoint in
[x, y] = y^H J x.  One standard eigensolve of J·Ã, in ``_finite_spectrum``
(the library's only ``numpy.linalg.eig``), gives its eigenvectors, clustered
into the typed values ``pos`` and ``neg``, each with the direction it owns,
and a tuple of 2x2 blocks for the conjugate eigenvalue pairs.  These
directions, with the null directions of B, form a congruence frame (the
canonical form of Lancaster & Rodman, SIAM Review 47, 2005), each held
once, as a vector in the pair's own coordinates.  The canonical form is a
direct sum: a Jordan copy or a chained conjugate group owns no direction
and leaves the other directions in place.  Definiteness, minimizers,
feasible points, sampling and divergence witnesses all read this one
record, which is the pair's typed spectrum.

The analysis is eager: ``analyze_pair`` fills every field before it
returns, so a pair with a finite part of order m always pays the O(m³)
eigensolve, plus the Gram matrix and the clustering, even where a caller
reads only the B-frame (a ``FeasibleSampler`` built from a problem alone,
or an ``infimum`` that returns an excluded constant).  Every other caller
reads the spectrum anyway, and no field is computed twice.

Finite eigenvalues carry a type: the sign of the B-form on their eigenspace,
measured in B-frame coordinates, where B has unit scale.  Eigenvectors are
B-orthogonal unless their eigenvalues are conjugate, so one Gram matrix
G = Z^H J Z of the eigenvectors Z, formed once per finite part, holds every
B-form that typing reads: real eigenvalues closer than ``type_tol`` relative
to the spectrum, or split from one Jordan block by roundoff, form a cluster
C, typed by the inertia of G[C, C], so a repeated eigenvalue of both types
gets one copy of each type; conjugate pairs are J-normalized from the
blocks of G between them.  A J-isotropic direction signals a Jordan block;
its copies pair up within their cluster and count once with each type (the
two-copy convention).  The structure of A on N(B) is classified
separately, with one threshold for "A vanishes there": ``rank_tol`` times
the Frobenius norm of A.  A degenerate restriction signals chained
(non-diagonalizable) infinite structure, which leaves no finite part: the
spectrum of a chained pair is untyped (``isotropic_defect`` set) and costs
no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import KernelFailureError, NonFiniteError
from .matcore import DEFAULT_TOLS, Inertia, MatrixPair, ToleranceSet, eigen_signs

POSITIVE = "positive"
NEGATIVE = "negative"

INF_NONE = "none"
INF_PLUS = "plus"
INF_MINUS = "minus"
INF_MIXED = "mixed"
INF_COUPLED = "coupled"


@dataclass(frozen=True)
class TypedEigenvalue:
    value: float
    eig_type: str
    b_form: float
    jordan_pair: bool = False
    # The direction it owns, in the pair's coordinates, of B-form +1 or -1 by
    # type; a Jordan copy or an odd isotropic leftover owns none.
    direction: np.ndarray | None = field(default=None, compare=False, repr=False)


def _cluster(w, Z, G, tols, scale):
    """Cluster the real eigenvalues w of J·Ã and type each cluster.

    G = V^H J V for the unit eigenvectors V in B-frame coordinates, B = J =
    diag(j); Z = F V holds them mapped by some F into the coordinates that
    each entry's direction is returned in.
    With ``scale`` the size of the finite part's A, w is real if |Im w| <=
    type_tol * |w| + rank_tol * scale, and two real ones share a cluster
    within type_tol * max|w| + rank_tol * scale.  The copies of a Jordan
    block that roundoff splits further, up to type_tol * scale, are still
    real and share a cluster: their columns of G vanish to sqrt(type_tol).
    Each cluster C is typed by the inertia of G[C, C]; its isotropic
    directions (|b_form| <= type_tol) pair up at its value as ``jordan_pair``
    copies of both types, and an odd one left over takes its b_form's sign.
    Returns (typed, complex indices): typed is one ascending list of
    TypedEigenvalue, each cluster's directions before its isotropic copies.
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
    if not vals.size:
        return [], cidx
    gaps = np.diff(vals)
    apart = gaps > tols.type_tol * float(np.max(np.abs(vals))) + floor
    near = np.flatnonzero(apart & (gaps <= split_tol))
    if near.size:
        jordan = np.max(np.abs(G[:, ridx]), axis=0) <= root
        apart[near] = ~(jordan[near] & jordan[near + 1])
    Zr, forms = Z[:, ridx], np.real(G.diagonal()[ridx])
    bounds = [0, *(np.flatnonzero(apart) + 1).tolist(), len(vals)]
    typed = []
    for start, end in zip(bounds, bounds[1:]):
        X, g, mu = Zr[:, start:end], forms[start:end], float(vals[start])
        if end - start > 1:
            GC = G[np.ix_(ridx[start:end], ridx[start:end])]
            g, U = np.linalg.eigh((GC + GC.conj().T) / 2.0)
            X, mu = X @ U, float(np.mean(vals[start:end]))
        iso = []
        for i, gi in enumerate(g.tolist()):
            if abs(gi) <= tols.type_tol:
                iso.append(gi)
            else:
                kind = POSITIVE if gi > 0 else NEGATIVE
                typed.append(TypedEigenvalue(mu, kind, gi, direction=X[:, i] / np.sqrt(abs(gi))))
        for kind in (POSITIVE, NEGATIVE) * (len(iso) // 2):
            typed.append(TypedEigenvalue(mu, kind, 0.0, jordan_pair=True))
        if len(iso) % 2:
            typed.append(TypedEigenvalue(mu, POSITIVE if iso[-1] >= 0 else NEGATIVE, iso[-1]))
    return typed, cidx


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

    One standard eigensolve of J·Ã, as J² = I: J Ã z = λz iff Ã z = λJz.  F
    maps the finite part's coordinates into the pair's, where the directions
    are returned.  Returns (pos, neg, complex values, isotropic defect,
    conjugate blocks), the fields of ``PairAnalysis`` of those names.
    """
    w, Z = np.linalg.eig(j[:, None] * A)
    G = Z.conj().T @ (j[:, None] * Z)  # every B-form the typing reads
    # Ã = 0 has every eigenvalue at exactly zero; any positive scale will do.
    typed, cidx = _cluster(w, F @ Z, G, tols, float(np.linalg.norm(A)) or 1.0)
    pos = tuple(e for e in typed if e.eig_type == POSITIVE)
    neg = tuple(e for e in typed if e.eig_type == NEGATIVE)
    defect = any(e.direction is None and not e.jordan_pair for e in typed)
    blocks = _conjugate_blocks(A, w, Z, G, cidx, tols)
    blocks = tuple((F @ c1, F @ c2, alpha, beta) for c1, c2, alpha, beta in blocks)
    return pos, neg, tuple(complex(z) for z in w[cidx]), defect, blocks


@dataclass(frozen=True, eq=False)
class PairAnalysis:
    """Everything derived from one Hermitian pair, each piece computed once.

    ``analyze_pair`` decomposes B and splits along N(B), less the
    ``deflated_dims`` directions that A also annihilates.  The B-frame W =
    [R, N] has R^H B R = J = diag(j), j = (+1.., -1..), and N an orthonormal
    basis of the rest of N(B); ``R`` and ``N`` are its column slices.  A on
    N(B) has eigenvalues ``d_inf`` (eigenvectors ``Q_inf`` in N's
    coordinates).  When none is within ``null_tol`` of zero, the congruence
    [R + N K, N Q_inf |d_inf|^(-1/2)] block-diagonalizes the pair into the
    finite part (``A_fin`` = Ã = (R + N K)^H A (R + N K), J) and +/-1
    infinite directions.  Otherwise the structure on N(B) is chained: no
    such elimination exists, and ``K`` and ``A_fin`` are None.

    The typed spectrum is part of the record: ``pos`` and ``neg`` are the
    ascending typed values of the finite part, ``complex_values`` its
    non-real eigenvalues and ``blocks`` the conjugate blocks
    ((c_plus, c_minus, alpha, beta), ...) that J-normalize, beta > 0.  Each
    typed value is listed once with the direction it owns; those
    directions, the blocks' and ``null_frame()`` make the congruence frame,
    and nothing else holds a copy.  ``isotropic_defect`` is set when an odd
    isotropic direction is left over, and always for a chained pair, whose
    spectrum is untyped and which has no blocks.  ``b_form`` values are in
    B-frame coordinates; directions are in ``pair``'s coordinates, without
    the deflated directions.
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
    pos: tuple
    neg: tuple
    complex_values: tuple
    isotropic_defect: bool
    blocks: tuple

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
    def pos_values(self) -> np.ndarray:
        return np.array([e.value for e in self.pos], dtype=float)

    @property
    def neg_values(self) -> np.ndarray:
        return np.array([e.value for e in self.neg], dtype=float)

    @property
    def has_jordan(self) -> bool:
        return any(e.jordan_pair for e in self.pos + self.neg)

    @property
    def has_complex(self) -> bool:
        return len(self.complex_values) > 0

    def finite_frame(self) -> np.ndarray:
        """The map from the finite part's coordinates back to the pair's."""
        return self.R + self.N @ self.K

    def null_frame(self) -> np.ndarray:
        return (self.N @ self.Q_inf) / np.sqrt(np.abs(self.d_inf))


def analyze_pair(pair: MatrixPair, tols: ToleranceSet = DEFAULT_TOLS) -> PairAnalysis:
    """Decompose B once, drop the common nullspace of A and B and split off
    the rest of N(B); see :class:`PairAnalysis`.

    A common null vector of A and B lies in N(B), so with N an orthonormal
    basis of N(B) the common nullspace is N times the null space of A N.
    N is rotated only when a direction is dropped.  Raises NonFiniteError
    when the finite part overflows: the entries of Ã grow like |A| over the
    smallest nonzero |eigenvalue| of B.
    """
    A = pair.A.entries
    try:
        d, V = np.linalg.eigh(pair.B.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise KernelFailureError(str(exc)) from exc
    signs = eigen_signs(d, tols.rank_tol)
    pos, neg = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
    N = V[:, signs == 0]
    # "A vanishes on N(B)" relative to A alone: no scale of B or of the pair moves it.
    null_tol = tols.rank_tol * float(np.linalg.norm(A))
    deflated = 0
    if N.shape[1]:
        _, s, Vh = np.linalg.svd(A @ N, full_matrices=False)
        live = int(np.sum(s > null_tol))
        deflated = N.shape[1] - live
        if deflated:
            N = N @ Vh[:live].conj().T
    # Unit B-form on the range of B; null directions keep unit length.
    order = np.concatenate([pos, neg])
    W = np.hstack([V[:, order] / np.sqrt(np.abs(d[order])), N])
    j = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
    R, N = W[:, : len(j)], W[:, len(j):]
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
    b_inertia = Inertia(len(pos), pair.n - len(pos) - len(neg), len(neg))
    if K is None or not len(j):  # chained, or B = 0: no finite part to solve
        spectrum = (), (), (), K is None, ()
    else:
        spectrum = _finite_spectrum(A_fin, j, F, tols)
    return PairAnalysis(
        tols, pair, deflated, b_inertia, W, j, null_tol, d_inf, Q_inf, K, A_fin, *spectrum
    )

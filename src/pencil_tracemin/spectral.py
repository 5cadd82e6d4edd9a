"""Pencil spectra with positive/negative typing and congruent diagonalization.

Finite eigenvalues of a Hermitian pair (A, B) carry a type: the sign of
x^H B x on the eigenvector.  A 2x2 Jordan structure at the boundary shift of
a semidefinite pair contributes one positive-type and one negative-type copy
of the same eigenvalue (the two-copy convention).  The structure of A on the
nullspace of B is classified separately; a degenerate restriction signals
chained (non-diagonalizable) infinite structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    IllConditionedError,
    KernelFailureError,
    NotDiagonalizableError,
)
from .matcore import (
    DEFAULT_TOLS,
    HermitianMatrix,
    MatrixPair,
    ToleranceSet,
    eigvalsh,
    inertia,
    pair_from_arrays,
    spectral_norm,
)

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


@dataclass(frozen=True)
class TypedSpectrum:
    pos: tuple
    neg: tuple
    deflated_dims: int = 0
    infinite_definite_sign: str = INF_NONE
    complex_values: tuple = ()
    isotropic_defect: bool = False

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

    def mirrored(self) -> "TypedSpectrum":
        """Spectrum of (-A, -B): same values, types swapped."""
        flip = {INF_PLUS: INF_MINUS, INF_MINUS: INF_PLUS}
        swap = lambda es, t: tuple(
            TypedEigenvalue(e.value, t, -e.b_form, e.jordan_pair) for e in es
        )
        return TypedSpectrum(
            pos=swap(self.neg, POSITIVE),
            neg=swap(self.pos, NEGATIVE),
            deflated_dims=self.deflated_dims,
            infinite_definite_sign=flip.get(
                self.infinite_definite_sign, self.infinite_definite_sign
            ),
            complex_values=self.complex_values,
            isotropic_defect=self.isotropic_defect,
        )


def eigh(H: HermitianMatrix):
    """Eigendecomposition of a Hermitian matrix: ascending values, orthonormal columns."""
    try:
        vals, vecs = np.linalg.eigh(H.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise KernelFailureError(str(exc)) from exc
    return vals, vecs


@dataclass(frozen=True)
class DeflationResult:
    reduced: MatrixPair
    basis: np.ndarray  # spans the removed common nullspace, n x d
    keep: np.ndarray  # n x (n - d); reduced = keep^H (.) keep
    deflated_dims: int


def deflate_common_nullspace(
    pair: MatrixPair, rank_tol: float = DEFAULT_TOLS.rank_tol
) -> DeflationResult:
    """Remove N(A) & N(B); the removed directions never affect the problem."""
    n = pair.n
    stacked = np.vstack([pair.A.entries, pair.B.entries])
    _, svals, Vh = np.linalg.svd(stacked)
    smax = svals[0] if svals.size else 0.0
    if smax == 0.0:
        # Entirely zero pair: keep a single direction so orders stay >= 1.
        keep = np.eye(n, 1, dtype=complex)
        basis = np.eye(n, dtype=complex)[:, 1:]
        red = pair_from_arrays(np.zeros((1, 1)), np.zeros((1, 1)), herm_tol=np.inf)
        return DeflationResult(red, basis, keep, n - 1)
    rank = int(np.sum(svals > rank_tol * smax))
    d = n - rank
    if d == 0:
        eye = np.eye(n, dtype=complex)
        return DeflationResult(pair, eye[:, :0], eye, 0)
    V = Vh.conj().T
    keep, basis = V[:, :rank], V[:, rank:]
    A_r = keep.conj().T @ pair.A.entries @ keep
    B_r = keep.conj().T @ pair.B.entries @ keep
    return DeflationResult(pair_from_arrays(A_r, B_r, herm_tol=np.inf), basis, keep, d)


@dataclass(frozen=True)
class InfiniteSplit:
    """Orthogonal split of a pair along N(B), with the coupling eliminated.

    When A restricted to N(B) is nonsingular the congruence
    T = [R + N K, N Q_inf s] block-diagonalizes the pair into a finite part
    (Schur complement, nonsingular B block) and +/-1 infinite directions.
    A singular restriction means chained structure: no such elimination exists.
    """

    has_infinite: bool
    coupled: bool
    R: np.ndarray | None
    N: np.ndarray | None
    K: np.ndarray | None
    d_inf: np.ndarray | None
    Q_inf: np.ndarray | None
    finite_pair: MatrixPair | None

    @property
    def n0(self) -> int:
        return 0 if self.N is None else self.N.shape[1]

    def finite_frame(self) -> np.ndarray | None:
        if not self.has_infinite:
            return None
        return self.R + self.N @ self.K

    def null_frame(self) -> np.ndarray:
        scale = 1.0 / np.sqrt(np.abs(self.d_inf))
        return self.N @ self.Q_inf @ np.diag(scale)


def split_infinite(pair: MatrixPair, tols: ToleranceSet = DEFAULT_TOLS) -> InfiniteSplit:
    d, V = np.linalg.eigh(pair.B.entries)
    nB = float(np.max(np.abs(d))) if d.size else 0.0
    thr = tols.rank_tol * nB if nB > 0 else np.inf
    null_mask = np.abs(d) <= thr
    if not np.any(null_mask):
        return InfiniteSplit(False, False, None, None, None, None, None, pair)
    N = V[:, null_mask]
    R = V[:, ~null_mask]
    A = pair.A.entries
    A_NN = N.conj().T @ A @ N
    A_NN = (A_NN + A_NN.conj().T) / 2.0
    d_inf, Q_inf = np.linalg.eigh(A_NN)
    nA = spectral_norm(A)
    coupled = bool(np.min(np.abs(d_inf)) <= tols.rank_tol * max(nA, 1.0)) if d_inf.size else False
    if coupled:
        return InfiniteSplit(True, True, R, N, None, d_inf, Q_inf, None)
    if R.shape[1] == 0:
        # B == 0 with nondegenerate A on the whole space: no finite part.
        return InfiniteSplit(True, False, R, N, np.zeros((N.shape[1], 0)), d_inf, Q_inf, None)
    A12 = R.conj().T @ A @ N
    K = -np.linalg.solve(A_NN, A12.conj().T)
    A_fin = R.conj().T @ A @ R + A12 @ K
    B_fin = R.conj().T @ pair.B.entries @ R
    fin = pair_from_arrays(A_fin, B_fin, herm_tol=np.inf)
    return InfiniteSplit(True, False, R, N, K, d_inf, Q_inf, fin)


def _classify_infinite(d_inf: np.ndarray) -> str:
    if np.all(d_inf > 0):
        return INF_PLUS
    if np.all(d_inf < 0):
        return INF_MINUS
    return INF_MIXED


def _typed_finite(pair: MatrixPair, tols: ToleranceSet, nB: float):
    """Type the finite eigenvalues of a pair with nonsingular B of spectral norm nB."""
    A, B = pair.A.entries, pair.B.entries
    w, vr = scipy.linalg.eig(A, B)
    pos, neg, cvals, isotropic = [], [], [], []
    for k in range(len(w)):
        mu = w[k]
        if not np.isfinite(mu.real) or not np.isfinite(mu.imag):
            cvals.append(complex(mu))
            continue
        if abs(mu.imag) > tols.type_tol * (1.0 + abs(mu.real)):
            cvals.append(complex(mu))
            continue
        x = vr[:, k]
        x = x / np.linalg.norm(x)
        b = float(np.real(x.conj() @ (B @ x)))
        if abs(b) <= tols.type_tol * nB:
            isotropic.append((float(mu.real), b))
        elif b > 0:
            pos.append(TypedEigenvalue(float(mu.real), POSITIVE, b))
        else:
            neg.append(TypedEigenvalue(float(mu.real), NEGATIVE, b))

    iso_defect = False
    if isotropic:
        # An isotropic (Jordan) eigenvalue pins every shift t with A - t*B
        # semidefinite to its value, so the isotropic copies pair up, at their
        # common value, iff A - t*B is semidefinite there.
        shift = float(np.mean([v for v, _ in isotropic]))
        f = eigvalsh(A - shift * B)
        tol = tols.psd_tol * pair.scale
        if f[0] >= -tol or f[-1] <= tol:
            for _ in range(len(isotropic) // 2):
                pos.append(TypedEigenvalue(shift, POSITIVE, 0.0, jordan_pair=True))
                neg.append(TypedEigenvalue(shift, NEGATIVE, 0.0, jordan_pair=True))
            isotropic = isotropic[2 * (len(isotropic) // 2):]
        if isotropic:
            iso_defect = True
            for v, b in isotropic:
                if b >= 0:
                    pos.append(TypedEigenvalue(v, POSITIVE, b))
                else:
                    neg.append(TypedEigenvalue(v, NEGATIVE, b))

    pos.sort(key=lambda e: e.value)
    neg.sort(key=lambda e: e.value)
    return tuple(pos), tuple(neg), tuple(cvals), iso_defect


def typed_spectrum(
    pair: MatrixPair, tols: ToleranceSet = DEFAULT_TOLS, deflated_dims: int = 0
) -> TypedSpectrum:
    """Finite eigenvalues with types plus the classification of A on N(B).

    Precondition: the pair carries no common nullspace (deflate first).
    """
    d = np.abs(eigvalsh(pair.B.entries))
    nB = float(np.max(d))
    if np.all(d > tols.rank_tol * nB):  # B nonsingular, with inertia's zero rule
        pos, neg, cvals, iso = _typed_finite(pair, tols, nB)
        return TypedSpectrum(pos, neg, deflated_dims, INF_NONE, cvals, iso)

    sp = split_infinite(pair, tols)
    if sp.coupled:
        pos, neg, cvals, iso = _typed_singular_best_effort(pair, tols)
        return TypedSpectrum(pos, neg, deflated_dims, INF_COUPLED, cvals, iso)
    if sp.finite_pair is None:
        return TypedSpectrum((), (), deflated_dims, _classify_infinite(sp.d_inf))
    # The finite part's B is B on its range, with the same spectral norm.
    pos, neg, cvals, iso = _typed_finite(sp.finite_pair, tols, nB)
    return TypedSpectrum(pos, neg, deflated_dims, _classify_infinite(sp.d_inf), cvals, iso)


def _typed_singular_best_effort(pair: MatrixPair, tols: ToleranceSet):
    """QZ on a pair with chained infinite structure; finite part only, best effort."""
    A, B = pair.A.entries, pair.B.entries
    nB = spectral_norm(B)
    w, _ = scipy.linalg.eig(A, B, homogeneous_eigvals=True)
    alpha, beta = w[0], w[1]
    pos, neg, cvals = [], [], []
    for k in range(len(alpha)):
        if abs(beta[k]) <= tols.rank_tol * (abs(alpha[k]) + abs(beta[k]) + 1e-300):
            continue  # infinite eigenvalue
        mu = alpha[k] / beta[k]
        if abs(mu.imag) > tols.type_tol * (1.0 + abs(mu.real)):
            cvals.append(complex(mu))
            continue
        # Eigenvector via one inverse-power step on (A - mu B).
        val = float(mu.real)
        try:
            x = _pencil_eigvec(A, B, val)
        except np.linalg.LinAlgError:
            continue
        b = float(np.real(x.conj() @ (B @ x)))
        if b > tols.type_tol * nB:
            pos.append(TypedEigenvalue(val, POSITIVE, b))
        elif b < -tols.type_tol * nB:
            neg.append(TypedEigenvalue(val, NEGATIVE, b))
    pos.sort(key=lambda e: e.value)
    neg.sort(key=lambda e: e.value)
    return tuple(pos), tuple(neg), tuple(cvals), True


def _pencil_eigvec(A, B, mu, shift_scale=1e-8):
    n = A.shape[0]
    M = A - mu * B
    rng = np.random.default_rng(0)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    reg = shift_scale * (np.abs(mu) + 1.0)
    for _ in range(3):
        x = np.linalg.solve(M + reg * 1j * np.eye(n), x)
        x /= np.linalg.norm(x)
    return x


@dataclass(frozen=True)
class CongruentDiagonalization:
    """Frames with B = Y^H J Y and A = Y^H Lambda Y, both diagonal right sides.

    ``yinv`` (= Y^{-1}) maps canonical coordinates to original ones:
    yinv^H B yinv = J.  Directions are ordered +1 block, -1 block, 0 block,
    with eigenvalues ascending inside each signed block.
    """

    Y: np.ndarray
    yinv: np.ndarray
    j_diag: np.ndarray  # entries +1 / -1 / 0
    lam_diag: np.ndarray  # matrix diagonal (negative-type dirs carry -eigenvalue)
    res_b: float
    res_a: float
    pos_values: np.ndarray  # pencil eigenvalues, ascending
    neg_values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.j_diag)

    @property
    def n_plus(self) -> int:
        return int(np.sum(self.j_diag > 0))

    @property
    def n_minus(self) -> int:
        return int(np.sum(self.j_diag < 0))

    @property
    def n_zero(self) -> int:
        return int(np.sum(self.j_diag == 0))

    @property
    def pos_dirs(self) -> np.ndarray:
        return np.where(self.j_diag > 0)[0]

    @property
    def neg_dirs(self) -> np.ndarray:
        return np.where(self.j_diag < 0)[0]

    @property
    def zero_dirs(self) -> np.ndarray:
        return np.where(self.j_diag == 0)[0]

    @property
    def J(self) -> np.ndarray:
        return np.diag(self.j_diag.astype(float))

    @property
    def Lambda(self) -> np.ndarray:
        return np.diag(self.lam_diag)


def _diagonalize_nonsingular(pair: MatrixPair, tols: ToleranceSet):
    """Congruent diagonalization core for nonsingular B; returns (T, j, lam, pos, neg)."""
    d, V = np.linalg.eigh(pair.B.entries)
    nB = float(np.max(np.abs(d)))
    if np.min(np.abs(d)) <= tols.rank_tol * nB:
        raise IllConditionedError("B is numerically singular in the nonsingular branch")
    S = V @ np.diag(1.0 / np.sqrt(np.abs(d)))
    j0 = np.sign(d)
    M = S.conj().T @ pair.A.entries @ S
    M = (M + M.conj().T) / 2.0

    w, Z = scipy.linalg.eig(np.diag(j0) @ M)
    wmax = float(np.max(np.abs(w))) if len(w) else 0.0
    if np.any(np.abs(w.imag) > tols.type_tol * (1.0 + np.abs(w.real))):
        raise NotDiagonalizableError("pencil has non-real eigenvalues")
    w = w.real
    order = np.argsort(w)
    w, Z = w[order], Z[:, order]

    ctol = tols.type_tol * (1.0 + wmax)
    clusters = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > ctol:
            clusters.append((start, k))
            start = k

    cols, types, values = [], [], []
    J0 = np.diag(j0)
    for a, b in clusters:
        Zc = Z[:, a:b]
        G = Zc.conj().T @ J0 @ Zc
        G = (G + G.conj().T) / 2.0
        g, U = np.linalg.eigh(G)
        if np.any(np.abs(g) <= tols.type_tol):
            raise NotDiagonalizableError(
                "degenerate B-form on an eigenspace (Jordan structure)"
            )
        scale = 1.0 / np.sqrt(np.abs(g))
        if np.any(scale > 1.0 / tols.rank_tol):
            raise IllConditionedError("eigenvector scaling exceeds the conditioning cap")
        Xc = Zc @ U @ np.diag(scale)
        mu = float(np.mean(w[a:b]))
        for i in range(Xc.shape[1]):
            cols.append(Xc[:, i])
            types.append(1.0 if g[i] > 0 else -1.0)
            values.append(mu)

    types = np.array(types)
    values = np.array(values)
    pos_idx = [i for i in range(len(cols)) if types[i] > 0]
    neg_idx = [i for i in range(len(cols)) if types[i] < 0]
    pos_idx.sort(key=lambda i: values[i])
    neg_idx.sort(key=lambda i: values[i])
    order = pos_idx + neg_idx
    X = np.column_stack([cols[i] for i in order])
    j_diag = np.concatenate([np.ones(len(pos_idx)), -np.ones(len(neg_idx))])
    lam = values[order] * j_diag  # matrix entries: mu on +dirs, -mu on -dirs
    T = S @ X
    return T, j_diag, lam, values[pos_idx], values[neg_idx]


def congruent_diagonalize(
    pair: MatrixPair, tols: ToleranceSet = DEFAULT_TOLS
) -> CongruentDiagonalization:
    """Simultaneously diagonalize a deflated pair by congruence.

    Raises NotDiagonalizableError when the pencil has non-real eigenvalues,
    Jordan structure, or chained infinite structure; IllConditionedError when
    the required column scaling exceeds 1/rank_tol.
    """
    ib = inertia(pair.B, tols.rank_tol)
    if ib.n_zero == 0:
        T, j_diag, lam, posv, negv = _diagonalize_nonsingular(pair, tols)
    else:
        sp = split_infinite(pair, tols)
        if sp.coupled:
            raise NotDiagonalizableError("chained structure on the nullspace of B")
        if sp.finite_pair is not None:
            T_f, j_f, lam_f, posv, negv = _diagonalize_nonsingular(sp.finite_pair, tols)
            T = np.hstack([sp.finite_frame() @ T_f, sp.null_frame()])
            j_diag = np.concatenate([j_f, np.zeros(sp.n0)])
            lam = np.concatenate([lam_f, np.sign(sp.d_inf)])
        else:
            T = sp.null_frame()
            j_diag = np.zeros(sp.n0)
            lam = np.sign(sp.d_inf)
            posv = np.array([])
            negv = np.array([])

    Y = np.linalg.inv(T)
    Bre = Y.conj().T @ np.diag(j_diag.astype(complex)) @ Y - pair.B.entries
    Are = Y.conj().T @ np.diag(lam.astype(complex)) @ Y - pair.A.entries
    res_b = float(np.linalg.norm(Bre, 2))
    res_a = float(np.linalg.norm(Are, 2))
    return CongruentDiagonalization(
        Y=Y,
        yinv=T,
        j_diag=j_diag,
        lam_diag=np.real(lam),
        res_b=res_b,
        res_a=res_a,
        pos_values=np.asarray(posv, dtype=float),
        neg_values=np.asarray(negv, dtype=float),
    )

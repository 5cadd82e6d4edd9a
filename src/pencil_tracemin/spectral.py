"""Pair analysis: the one place a Hermitian pair (A, B) is analysed.

``analyze_pair(pair, tols)`` builds a frozen :class:`PairAnalysis` once per
pair.  It eigendecomposes B (inertia with the relative zero rule, the norm
of B, and the +1/-1/0 B-frame), deflates the common nullspace of A and B and
splits off N(B) when B is singular, solves the eigenproblem of the finite
part once and clusters its eigenvectors into one congruence frame:
real typed directions B-orthonormalized per cluster, 2x2 blocks for
conjugate eigenvalue pairs, and the null directions of B (the canonical
form of Lancaster & Rodman, SIAM Review 47, 2005).  The typed spectrum,
definiteness, minimizers, feasible points, sampling and divergence
witnesses are all read from it; ``typed_spectrum(pair)`` is its spectrum.

Finite eigenvalues carry a type: the sign of the B-form on their eigenspace.
Eigenvalues closer than ``type_tol`` form a cluster, typed by the inertia of
the Gram matrix Z^H B Z of its eigenvectors, so a repeated eigenvalue of
both types gets one copy of each type.  A B-isotropic direction signals a
Jordan block; at the boundary shift of a semidefinite pair its two copies
count once with each type (the two-copy convention).  The structure of A on
N(B) is classified separately; a degenerate restriction signals chained
(non-diagonalizable) infinite structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import KernelFailureError, NotDiagonalizableError
from .matcore import (
    DEFAULT_TOLS,
    HermitianMatrix,
    Inertia,
    MatrixPair,
    ToleranceSet,
    eigvalsh,
    pair_from_arrays,
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
    """Split of a pair along N(B), with the coupling to the range of B eliminated.

    ``R`` holds the B-frame on the range of B (R^H B R = diag(+1.., -1..)),
    ``N`` an orthonormal basis of N(B).  When A restricted to N(B) has no
    eigenvalue within ``null_tol`` of zero, the congruence
    [R + N K, N Q_inf s] block-diagonalizes the pair into a finite part (the
    Schur complement, with B block diag(+1.., -1..)) and +/-1 infinite
    directions.  A singular restriction means chained structure: no such
    elimination exists.  With B nonsingular there is nothing to split and
    the finite part is the pair itself.
    """

    has_infinite: bool
    coupled: bool
    R: np.ndarray | None
    N: np.ndarray | None
    K: np.ndarray | None
    d_inf: np.ndarray | None
    Q_inf: np.ndarray | None
    finite_pair: MatrixPair | None
    null_tol: float = 0.0

    def finite_frame(self) -> np.ndarray | None:
        if not self.has_infinite:
            return None
        return self.R + self.N @ self.K

    def null_frame(self) -> np.ndarray:
        return (self.N @ self.Q_inf) / np.sqrt(np.abs(self.d_inf))


def _split(pair: MatrixPair, W: np.ndarray, j: np.ndarray, tols: ToleranceSet) -> InfiniteSplit:
    """Split ``pair`` along N(B), given its B-frame W whose first columns carry the signs j."""
    rank = len(j)
    if rank == pair.n:
        return InfiniteSplit(False, False, None, None, None, None, None, pair)
    R, N = W[:, :rank], W[:, rank:]
    A = pair.A.entries
    A_NN = N.conj().T @ A @ N
    d_inf, Q_inf = np.linalg.eigh((A_NN + A_NN.conj().T) / 2.0)
    null_tol = tols.rank_tol * max(float(np.linalg.norm(A)), 1.0)
    if np.min(np.abs(d_inf)) <= null_tol:
        return InfiniteSplit(True, True, R, N, None, d_inf, Q_inf, None, null_tol)
    A12 = R.conj().T @ A @ N
    K = -np.linalg.solve(A_NN, A12.conj().T)
    fin = None
    if rank:
        fin = pair_from_arrays(R.conj().T @ A @ R + A12 @ K, np.diag(j), herm_tol=np.inf)
    return InfiniteSplit(True, False, R, N, K, d_inf, Q_inf, fin, null_tol)


def _infinite_sign(sp: InfiniteSplit) -> str:
    """The classification of A on N(B)."""
    if not sp.has_infinite:
        return INF_NONE
    if sp.coupled:
        return INF_COUPLED
    if np.all(sp.d_inf > 0):
        return INF_PLUS
    if np.all(sp.d_inf < 0):
        return INF_MINUS
    return INF_MIXED


@dataclass(frozen=True)
class ClusteredFrame:
    """Congruence frame T (reduced coordinates) with T^H B T = diag(j_diag).

    Directions are ordered: positive-type (ascending), negative-type
    (ascending), conjugate blocks (a +1 and a -1 direction each), null
    directions of B.  T^H A T is block diagonal: lambda on positive-type and
    -lambda on negative-type directions, [[alpha, -i beta], [i beta, -alpha]]
    on a conjugate block, and +/-1 (``null_signs``) on null directions.
    """

    T: np.ndarray
    pos_values: np.ndarray
    neg_values: np.ndarray
    blocks: tuple  # ((dir_plus, dir_minus, alpha, beta), ...), beta > 0
    null_signs: np.ndarray

    @property
    def n(self) -> int:
        return self.T.shape[1]

    @cached_property
    def j_diag(self) -> np.ndarray:
        nb = len(self.blocks)
        return np.concatenate([
            np.ones(len(self.pos_values)), -np.ones(len(self.neg_values)),
            np.tile([1.0, -1.0], nb), np.zeros(len(self.null_signs)),
        ])

    @cached_property
    def real_pos(self) -> tuple:
        """((dir, value), ...) ascending by value."""
        return tuple(enumerate(self.pos_values.tolist()))

    @cached_property
    def real_neg(self) -> tuple:
        p = len(self.pos_values)
        return tuple((p + i, v) for i, v in enumerate(self.neg_values.tolist()))

    @cached_property
    def plus_dirs(self) -> list:
        return [d for d, _ in self.real_pos] + [b[0] for b in self.blocks]

    @cached_property
    def minus_dirs(self) -> list:
        return [d for d, _ in self.real_neg] + [b[1] for b in self.blocks]


def _cluster(B, w, Z, nB, tols):
    """Cluster the real eigenvalues w (eigenvectors Z) and type each cluster.

    Each cluster is typed by the inertia of its Gram matrix Z^H B Z (a 1x1
    Gram is read directly).  Returns (typed, isotropic, complex indices):
    typed holds (value, b_form, B-normalized direction), isotropic holds
    (value, b_form) for directions with |b_form| <= type_tol * nB.
    """
    real = np.isfinite(w) & (np.abs(w.imag) <= tols.type_tol * (1.0 + np.abs(w.real)))
    cidx = np.flatnonzero(~real)
    ridx = np.flatnonzero(real)
    ridx = ridx[np.argsort(w[ridx].real)]
    vals, Zr = w[ridx].real, Z[:, ridx]
    if not vals.size:
        return [], [], cidx
    BZ = B @ Zr
    forms = np.real(np.einsum("ij,ij->j", Zr.conj(), BZ))
    ctol = tols.type_tol * (1.0 + float(np.max(np.abs(vals))))
    bounds = [0, *(np.flatnonzero(np.diff(vals) > ctol) + 1).tolist(), len(vals)]
    typed, isotropic = [], []
    for start, end in zip(bounds, bounds[1:]):
        X = Zr[:, start:end]
        if end - start == 1:
            g, mu = forms[start:end], float(vals[start])
        else:
            G = X.conj().T @ BZ[:, start:end]
            g, U = np.linalg.eigh((G + G.conj().T) / 2.0)
            X, mu = X @ U, float(np.mean(vals[start:end]))
        for i, gi in enumerate(g.tolist()):
            if abs(gi) <= tols.type_tol * nB:
                isotropic.append((mu, gi))
            else:
                typed.append((mu, gi, X[:, i] / np.sqrt(abs(gi))))
    return typed, isotropic, cidx


def _conjugate_blocks(A, B, w, Z, cidx, nB, tols):
    """Pair conjugate eigenvalues into B-normalized 2x2 frames.

    Returns ([(c_plus, c_minus, alpha, beta), ...], error message or None).
    """
    blocks, used = [], set()
    root_half = 1.0 / np.sqrt(2.0)
    for k in cidx:
        if k in used or w[k].imag >= 0:
            continue
        # k carries the Im < 0 eigenvalue; among the conjugate candidates,
        # prefer the partner with the strongest cross form (repeated complex
        # eigenvalues admit many bases of the same eigenspace).
        target = np.conj(w[k])
        cand = [
            l
            for l in cidx
            if l != k and l not in used and w[l].imag > 0
            and abs(w[l] - target) <= tols.type_tol * 100.0 * (1.0 + abs(target))
        ]
        if not cand:
            cand = [l for l in cidx if l != k and l not in used and w[l].imag > 0]
        if not cand:
            return blocks, "unpaired complex eigenvalue"
        forms = [abs(complex(Z[:, l].conj() @ (B @ Z[:, k]))) for l in cand]
        best = cand[int(np.argmax(forms))]
        used.update((k, best))
        x, y = Z[:, k], Z[:, best]
        gamma = complex(y.conj() @ (B @ x))
        if abs(gamma) <= tols.type_tol * nB:
            return blocks, "chained complex structure"
        xp = x / (gamma / abs(gamma) * np.sqrt(abs(gamma)))
        yp = y / np.sqrt(abs(gamma))
        c1, c2 = root_half * (xp + yp), root_half * (xp - yp)
        alpha = float(np.real(c1.conj() @ (A @ c1)))
        beta = float(np.imag(c2.conj() @ (A @ c1)))
        if beta < 0:
            c2, beta = -c2, -beta
        blocks.append((c1, c2, alpha, beta))
    return blocks, None


@dataclass(frozen=True)
class PairAnalysis:
    """Everything derived from one Hermitian pair, each piece computed once.

    The deflation, the eigendecomposition of B and the split along N(B) are
    computed by ``analyze_pair``; the eigenproblem of the finite part, the
    typed spectrum and the clustered frame on first use, so consumers that
    only need the B-frame (feasible points, sampling) never pay for it.
    All frames are in the coordinates of ``deflation.reduced``.
    """

    tols: ToleranceSet
    deflation: DeflationResult
    b_inertia: Inertia  # of B, deflated directions counted as zeros
    b_norm: float  # spectral norm of B
    b_frame: np.ndarray  # W^H B W = diag(+1.., -1.., 0..)
    split: InfiniteSplit

    @cached_property
    def _structure(self):
        """(typed spectrum, clustered frame or None, why there is no frame)."""
        sp, tols = self.split, self.tols
        sign = _infinite_sign(sp)
        dims = self.deflation.deflated_dims
        null_signs = np.sign(sp.d_inf) if sp.has_infinite else np.zeros(0)
        # A chained pair has no finite part to split off: its finite
        # eigenvalues are typed, best effort, on the whole pair, and its
        # isotropic directions are left out.
        fin = self.deflation.reduced if sp.coupled else sp.finite_pair
        if fin is None:  # B = 0 after deflation
            frame = ClusteredFrame(sp.null_frame(), np.zeros(0), np.zeros(0), (), null_signs)
            return TypedSpectrum((), (), dims, sign), frame, None
        A, B = fin.A.entries, fin.B.entries
        nB = self.b_norm if fin is self.deflation.reduced else 1.0
        if sp.coupled:
            (alpha, beta), Z = scipy.linalg.eig(A, B, homogeneous_eigvals=True)
            finite = np.abs(beta) > tols.rank_tol * (np.abs(alpha) + np.abs(beta) + 1e-300)
            w, Z = alpha[finite] / beta[finite], Z[:, finite]
        else:
            w, Z = scipy.linalg.eig(A, B)
        typed, isotropic, cidx = _cluster(B, w, Z, nB, tols)
        plus = [t for t in typed if t[1] > 0]  # ascending, as clusters are
        minus = [t for t in typed if t[1] < 0]

        pos = [TypedEigenvalue(v, POSITIVE, g) for v, g, _ in plus]
        neg = [TypedEigenvalue(v, NEGATIVE, g) for v, g, _ in minus]
        defect = sp.coupled
        if isotropic and not sp.coupled:
            # An isotropic (Jordan) eigenvalue pins every shift t with A - t*B
            # semidefinite to its value, so the isotropic copies pair up, at
            # their common value, iff A - t*B is semidefinite there.
            shift = float(np.mean([v for v, _ in isotropic]))
            f = eigvalsh(A - shift * B)
            tol = tols.psd_tol * fin.scale
            pairs = len(isotropic) // 2 if f[0] >= -tol or f[-1] <= tol else 0
            for _ in range(pairs):
                pos.append(TypedEigenvalue(shift, POSITIVE, 0.0, jordan_pair=True))
                neg.append(TypedEigenvalue(shift, NEGATIVE, 0.0, jordan_pair=True))
            rest = isotropic[2 * pairs:]
            defect = bool(rest)
            pos += [TypedEigenvalue(v, POSITIVE, g) for v, g in rest if g >= 0]
            neg += [TypedEigenvalue(v, NEGATIVE, g) for v, g in rest if g < 0]
        pos.sort(key=lambda e: e.value)
        neg.sort(key=lambda e: e.value)
        cvals = tuple(complex(z) for z in w[cidx])
        spec = TypedSpectrum(tuple(pos), tuple(neg), dims, sign, cvals, defect)

        if sp.coupled:
            return spec, None, "chained structure on the nullspace of B"
        if isotropic:
            return spec, None, "degenerate B-form on an eigenspace (Jordan structure)"
        if not np.all(np.isfinite(w)):
            return spec, None, "infinite eigenvalue in the finite part"
        blocks, error = _conjugate_blocks(A, B, w, Z, cidx, nB, tols)
        if error:
            return spec, None, error
        cols = [x for _, _, x in plus + minus] + [c for b in blocks for c in b[:2]]
        T = np.column_stack(cols) if cols else np.zeros((fin.n, 0), dtype=complex)
        if sp.has_infinite:
            T = np.hstack([sp.finite_frame() @ T, sp.null_frame()])
        base = len(plus) + len(minus)
        frame = ClusteredFrame(
            T=T,
            pos_values=np.array([v for v, _, _ in plus]),
            neg_values=np.array([v for v, _, _ in minus]),
            blocks=tuple(
                (base + 2 * i, base + 2 * i + 1, b[2], b[3]) for i, b in enumerate(blocks)
            ),
            null_signs=null_signs,
        )
        return spec, frame, None

    @property
    def spectrum(self) -> TypedSpectrum:
        return self._structure[0]

    @property
    def frame(self) -> ClusteredFrame:
        """The clustered frame; NotDiagonalizableError when Jordan or chained
        structure (or an unpairable complex eigenvalue) leaves none."""
        _, frame, error = self._structure
        if frame is None:
            raise NotDiagonalizableError(error)
        return frame

    def paired_columns(self, hat: "PairAnalysis") -> np.ndarray:
        """The B-frame columns that receive the hat pair's B-frame directions.

        They are the first hat.n_plus +1 and the first hat.n_minus -1
        columns.  For a frame F ordered like the B-frame, with
        F^H B F = diag(+1.., -1..) on these columns S,
        X = F[:, S] @ hat.b_frame^H satisfies Bhat X^H B X = I.
        """
        hp, hm = hat.b_inertia.n_plus, hat.b_inertia.n_minus
        npl = self.b_inertia.n_plus
        return np.r_[0:hp, npl:npl + hm]


def _zero_threshold(d: np.ndarray, tols: ToleranceSet) -> float:
    """Inertia's relative zero rule for the eigenvalues d of B."""
    nB = float(np.max(np.abs(d)))
    return tols.rank_tol * nB if nB > 0 else np.inf


def analyze_pair(pair: MatrixPair, tols: ToleranceSet = DEFAULT_TOLS) -> PairAnalysis:
    """Decompose B, deflate when B is singular and split off N(B); see :class:`PairAnalysis`.

    A common nullspace of A and B lies in N(B), so a pair with nonsingular B
    is never deflated; B is decomposed again only after a deflation that
    removed directions.
    """
    eye = np.eye(pair.n, dtype=complex)
    defl = DeflationResult(pair, eye[:, :0], eye, 0)
    d, V = eigh(pair.B)
    if np.any(np.abs(d) <= _zero_threshold(d, tols)):
        defl = deflate_common_nullspace(pair, tols.rank_tol)
        if defl.deflated_dims:
            d, V = eigh(defl.reduced.B)
    nB = float(np.max(np.abs(d)))
    thr = _zero_threshold(d, tols)
    pos, neg = np.flatnonzero(d > thr), np.flatnonzero(d < -thr)
    zero = np.flatnonzero(np.abs(d) <= thr)
    order = np.concatenate([pos, neg, zero])
    # Unit B-form on the range of B; null directions keep unit length.
    W = V[:, order] / np.sqrt(np.where(np.abs(d) > thr, np.abs(d), 1.0))[order]
    j = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
    return PairAnalysis(
        tols=tols,
        deflation=defl,
        b_inertia=Inertia(len(pos), len(zero) + defl.deflated_dims, len(neg)),
        b_norm=nB,
        b_frame=W,
        split=_split(defl.reduced, W, j, tols),
    )


def typed_spectrum(pair: MatrixPair, tols: ToleranceSet = DEFAULT_TOLS) -> TypedSpectrum:
    """Finite eigenvalues with types plus the classification of A on N(B)
    (``analyze_pair(pair).spectrum``)."""
    return analyze_pair(pair, tols).spectrum

"""J-unitary matrices: hyperbolic polar form, ChSh factors, feasible sampling.

With J = diag(I_{n+}, -I_{n-}), a matrix X is J-unitary when X^H J X = J.
Every such X factors as a Hermitian hyperbolic polar part, parametrized by an
arbitrary n+ x n- block W, times a block-diagonal unitary; refining the polar
part by an SVD of W yields the ChSh form with a single diagonal stretch.

Sampling works on stacks: given a sequence of K Generators instead of one,
``sample_j_unitary``/``sample_feasible`` return a (K, ...) stack whose slice k
is the matrix ``rng[k]`` alone gives (W, then V+, then V- from one draw), at
one stacked QR per unitary factor and one stacked eigh per square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    InertiaViolationError,
    KernelFailureError,
    NotJUnitaryError,
)
from .matcore import complex_normal, unitary_factor


@dataclass(frozen=True)
class SignatureJ:
    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0 or self.n_plus + self.n_minus < 1:
            raise ValueError("signature must have n_plus + n_minus >= 1")

    @property
    def n(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def diag(self) -> np.ndarray:
        return np.concatenate([np.ones(self.n_plus), -np.ones(self.n_minus)])

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.diag)


@dataclass(frozen=True)
class ChShFactors:
    U_plus: np.ndarray
    U_minus: np.ndarray
    V_plus: np.ndarray
    V_minus: np.ndarray
    sigma: np.ndarray  # descending, length min(n+, n-)

    def assemble(self, J: SignatureJ) -> np.ndarray:
        npl, nmi = J.n_plus, J.n_minus
        k = min(npl, nmi)
        sig_tilde = np.zeros((npl, nmi))
        if npl >= nmi:
            sig_tilde[npl - k :, :] = np.diag(self.sigma)
        else:
            sig_tilde[:, nmi - k :] = np.diag(self.sigma)
        middle = _polar_middle(sig_tilde)
        left = _blockdiag(self.U_plus, self.U_minus)
        right = _blockdiag(self.V_plus, self.V_minus)
        return left @ middle @ right


def _ct(M):
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


def _blockdiag(P, M):
    n1, n2 = P.shape[-1], M.shape[-1]
    out = np.zeros(P.shape[:-2] + (n1 + n2, n1 + n2), dtype=complex)
    out[..., :n1, :n1] = P
    out[..., n1:, n1:] = M
    return out


def _psd_sqrt(M):
    try:
        vals, vecs = np.linalg.eigh((M + _ct(M)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise KernelFailureError(str(exc)) from exc
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ _ct(vecs)


def _polar_middle(W):
    npl, nmi = W.shape[-2:]
    Wh = _ct(W)
    top = _psd_sqrt(np.eye(npl) + W @ Wh)
    bot = _psd_sqrt(np.eye(nmi) + Wh @ W)
    return np.block([[top, W], [Wh, bot]])


def j_residual(X: np.ndarray, J: SignatureJ) -> float:
    return float(np.linalg.norm(X.conj().T @ np.diag(J.diag) @ X - J.matrix, 2))


def polar_from_W(W: np.ndarray, V_plus: np.ndarray, V_minus: np.ndarray) -> np.ndarray:
    """Assemble the J-unitary matrix with polar block W and unitary factors V+-."""
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    return _polar_middle(W) @ _blockdiag(np.asarray(V_plus), np.asarray(V_minus))


def chsh_decompose(X: np.ndarray, J: SignatureJ, tol: float = 1e-8) -> ChShFactors:
    """Factor a J-unitary X into unitaries and a single diagonal stretch.

    The polar factor H = (X X^H)^{1/2} is itself J-unitary with off-diagonal
    block W; the SVD of W supplies the stretch parameters.
    """
    X = np.asarray(X, dtype=complex)
    if j_residual(X, J) > tol:
        raise NotJUnitaryError("X^H J X - J exceeds the requested tolerance")
    npl, nmi = J.n_plus, J.n_minus
    H = _psd_sqrt(X @ X.conj().T)
    V0 = np.linalg.solve(H, X)  # block-diagonal unitary
    W = H[:npl, npl:]
    k = min(npl, nmi)
    if k == 0:
        return ChShFactors(
            np.eye(npl, dtype=complex),
            np.eye(nmi, dtype=complex),
            V0[:npl, :npl],
            V0[npl:, npl:],
            np.zeros(0),
        )

    P, s, Qh = np.linalg.svd(W)  # full SVD: P is n+ x n+, Qh is n- x n-
    s = s[:k]
    if npl >= nmi:
        # U+ = [null-of-W^H basis | P_compact], sigma block sits at the bottom.
        U_plus = np.column_stack([P[:, k:], P[:, :k]])
        U_minus = Qh.conj().T
    else:
        U_plus = P
        U_minus = np.column_stack([Qh.conj().T[:, k:], Qh.conj().T[:, :k]])
    # Re-order so sigma is descending inside its block and factors stay consistent.
    V_plus = U_plus.conj().T @ V0[:npl, :npl]
    V_minus = U_minus.conj().T @ V0[npl:, npl:]
    return ChShFactors(U_plus, U_minus, V_plus, V_minus, np.asarray(s, dtype=float))


def sample_j_unitary(J: SignatureJ, spread: float, rng) -> np.ndarray:
    """Draw a random J-unitary: W with independent entries of scale ``spread``,
    Haar unitary factors.  Deterministic given the generator state; a sequence
    of K Generators gives a (K, n, n) stack, slice k drawn from ``rng[k]``."""
    if spread < 0:
        raise ValueError("spread must be nonnegative")
    npl, nmi = J.n_plus, J.n_minus
    W, Z_plus, Z_minus = complex_normal(rng, (npl, nmi), (npl, npl), (nmi, nmi))
    W = spread * W / np.sqrt(2.0)
    return polar_from_W(W, unitary_factor(Z_plus), unitary_factor(Z_minus))


def sample_feasible(J: SignatureJ, Jhat: SignatureJ, spread: float, rng) -> np.ndarray:
    """Sample X (n x nhat) with X^H J X = Jhat by column selection from a J-unitary;
    a sequence of K Generators gives a (K, n, nhat) stack."""
    if Jhat.n_plus > J.n_plus or Jhat.n_minus > J.n_minus:
        raise InertiaViolationError("hat signature exceeds the ambient signature")
    G = sample_j_unitary(J, spread, rng)
    cols = list(range(Jhat.n_plus)) + list(range(J.n_plus, J.n_plus + Jhat.n_minus))
    return G[..., cols]


def complete_j_basis(X_partial: np.ndarray, J: SignatureJ, tol: float = 1e-8) -> np.ndarray:
    """Extend J-orthonormal columns to a full J-unitary matrix (up to column order).

    Input columns must satisfy u_i^H J u_j = +/- delta_ij within tol; a
    J-neutral column is not extendable and raises DegenerateInputError.
    The completion spans the J-orthogonal complement, normalized to +/-1 forms,
    ordered +1 block first.
    """
    n = J.n
    Jm = J.matrix
    U = np.asarray(X_partial, dtype=complex).reshape(n, -1)
    k = U.shape[1]
    if k:
        G = U.conj().T @ Jm @ U
        if np.any(np.abs(np.abs(np.diagonal(G)) - 1.0) > tol) or np.any(
            np.abs(G - np.diag(np.diagonal(G))) > tol
        ):
            if np.any(np.abs(np.diagonal(G)) < tol):
                raise DegenerateInputError("a column is J-neutral")
            raise DegenerateInputError("columns are not J-orthonormal within tol")
    if k == n:
        return U
    if k == 0:
        return np.eye(n, dtype=complex)
    # Orthogonal complement in the J-inner product = null space of U^H J.
    _, svals, Vh = np.linalg.svd(U.conj().T @ Jm)
    Z = Vh.conj().T[:, k:]
    S = Z.conj().T @ Jm @ Z
    S = (S + S.conj().T) / 2.0
    g, Q = np.linalg.eigh(S)
    if np.any(np.abs(g) < tol):
        raise DegenerateInputError("J-degenerate complement; cannot normalize")
    order = np.argsort(-np.sign(g))  # +1 forms first
    g, Q = g[order], Q[:, order]
    Wc = Z @ Q @ np.diag(1.0 / np.sqrt(np.abs(g)))
    return np.hstack([U, Wc])

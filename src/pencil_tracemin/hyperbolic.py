"""J-unitary matrices: hyperbolic polar form and feasible sampling.

With J = diag(I_{n+}, -I_{n-}), a matrix X is J-unitary when X^H J X = J.
Every such X factors as a Hermitian hyperbolic polar part, parametrized by an
arbitrary n+ x n- block W, times a block-diagonal unitary (Higham,
*J-orthogonal matrices: properties and generation*, SIAM Review 45, 2003).

Sampling works on stacks: given a sequence of K Generators instead of one,
``sample_j_unitary``/``sample_feasible`` return a (K, ...) stack whose slice k
is the matrix ``rng[k]`` alone gives (W, then V+, then V- from one draw), at
one stacked QR per unitary factor and one stacked eigh per square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InertiaViolationError, KernelFailureError
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


def polar_from_W(W: np.ndarray, V_plus: np.ndarray, V_minus: np.ndarray) -> np.ndarray:
    """Assemble the J-unitary matrix with polar block W and unitary factors V+-."""
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    return _polar_middle(W) @ _blockdiag(np.asarray(V_plus), np.asarray(V_minus))


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


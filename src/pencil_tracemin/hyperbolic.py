"""J-unitary matrices: hyperbolic polar form and feasible sampling.

With J = diag(I_{n+}, -I_{n-}), a matrix X is J-unitary when X^H J X = J.
Every such X factors as a Hermitian hyperbolic polar part, parametrized by an
arbitrary n+ x n- block W, times a block-diagonal unitary (Higham,
*J-orthogonal matrices: properties and generation*, SIAM Review 45, 2003).
A signature is given by its counts n+, n-, or by the ``matcore.Inertia`` of
B, whose nonzero counts are the signature of B's frame; the columns of a
J-unitary that ``matcore.paired_columns`` selects are a feasible point.

Sampling reads one Generator in order: ``size=K`` makes
``sample_j_unitary``/``sample_feasible`` return a (K, ...) stack equal to K
successive single draws (each W, then V+, then V-), from one
``standard_normal`` call, one stacked QR per unitary factor and one stacked
eigh per J-unitary (see ``matcore.complex_normal``).  That eigh is taken on
the smaller side: with S = W, or W^H when W has more rows than columns, and
I + S S^H = U diag(c) U^H (c >= 1), the square root on S's side is
U diag(sqrt c) U^H and the other is I + V diag(1/(1 + sqrt c)) V^H with
V = S^H U, which is f(S^H S) = I + S^H h(S S^H) S for f(x) = sqrt(1 + x) and
h(x) = 1/(1 + sqrt(1 + x)): nothing cancels.
"""

from __future__ import annotations

import numpy as np

from .errors import KernelFailureError
from .matcore import Inertia, check_inertias, complex_normal, paired_columns, unitary_factor


def _ct(M):
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


def _blockdiag(P, M):
    n1, n2 = P.shape[-1], M.shape[-1]
    out = np.zeros(P.shape[:-2] + (n1 + n2, n1 + n2), dtype=complex)
    out[..., :n1, :n1] = P
    out[..., n1:, n1:] = M
    return out


def _polar_middle(W, source="W"):
    """The Hermitian polar block [[sqrt(I + W W^H), W], [W^H, sqrt(I + W^H W)]],
    both square roots from one eigh on the smaller side (module docstring).
    ValueError, naming ``source``, when I + S S^H is not finite."""
    Wh = _ct(W)
    flip = W.shape[-2] > W.shape[-1]
    S, Sh = (Wh, W) if flip else (W, Wh)
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.eye(S.shape[-2]) + S @ Sh
    if not np.all(np.isfinite(G)):
        raise ValueError(f"{source} makes I + W W^H overflow")
    try:
        c, U = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise KernelFailureError(str(exc)) from exc
    root = np.sqrt(np.clip(c, 1.0, None))
    near = (U * root[..., None, :]) @ _ct(U)
    V = Sh @ U
    far = np.eye(S.shape[-1]) + (V / (1.0 + root)[..., None, :]) @ _ct(V)
    top, bot = (far, near) if flip else (near, far)
    return np.block([[top, W], [Wh, bot]])


def polar_from_W(W: np.ndarray, V_plus: np.ndarray, V_minus: np.ndarray) -> np.ndarray:
    """Assemble the J-unitary matrix with polar block W and unitary factors V+-."""
    W = np.atleast_2d(np.asarray(W, dtype=complex))
    return _polar_middle(W) @ _blockdiag(np.asarray(V_plus), np.asarray(V_minus))


def sample_j_unitary(n_plus: int, n_minus: int, spread: float, rng, size=None) -> np.ndarray:
    """Draw a random J-unitary, J = diag(I_{n_plus}, -I_{n_minus}): W with
    independent entries of scale ``spread``, Haar unitary factors.
    Deterministic given the generator state; ``size=K`` gives a (K, n, n)
    stack, the K draws that successive calls would make.  ValueError, naming
    the spread, when a draw's I + W W^H is not finite."""
    if n_plus < 0 or n_minus < 0 or n_plus + n_minus < 1:
        raise ValueError(f"signature counts must be >= 0, sum >= 1; got {n_plus}, {n_minus}")
    if not 0 <= spread < np.inf:
        raise ValueError(f"spread must be finite and nonnegative, got {spread}")
    npl, nmi = n_plus, n_minus
    W, Z_plus, Z_minus = complex_normal(rng, (npl, nmi), (npl, npl), (nmi, nmi), size=size)
    with np.errstate(over="ignore"):
        W = spread * W / np.sqrt(2.0)
    middle = _polar_middle(W, f"spread {spread}")
    return middle @ _blockdiag(unitary_factor(Z_plus), unitary_factor(Z_minus))


def sample_feasible(ib: Inertia, ibh: Inertia, spread: float, rng, size=None) -> np.ndarray:
    """Sample X (rank B x nhat) with X^H J X = Jhat, J and Jhat the signatures
    of the inertias ``ib`` of B and ``ibh`` of Bhat, by column selection from
    a J-unitary; ``size=K`` gives a (K, rank B, nhat) stack.  Raises
    EmptyFeasibleSetError where ``check_inertias`` does."""
    check_inertias(ib, ibh)
    G = sample_j_unitary(ib.n_plus, ib.n_minus, spread, rng, size)
    return G[..., paired_columns(ib, ibh)]

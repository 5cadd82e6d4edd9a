"""Shared fixtures and generators for the test suite."""

import numpy as np
import pytest

import pencil_tracemin as pt


def rand_hermitian(rng, n, scale=1.0):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (M + M.conj().T) / 2.0


def spectral_norm(H):
    """Largest absolute eigenvalue of a HermitianMatrix, the scale of some tolerances."""
    return float(np.max(np.abs(np.linalg.eigvalsh(H.entries))))


def golden_hat_matrix():
    """The worked 2x2 example's hat objective: Q^H diag(1, 1/4) Q."""
    sigma = np.sqrt(18.0 - 6.0 * np.sqrt(2.0)) / 6.0
    c = np.sqrt(1.0 - sigma**2)
    Q = np.array([[c, -sigma], [sigma, c]])
    return Q.conj().T @ np.diag([1.0, 0.25]) @ Q


@pytest.fixture
def golden_problem():
    return pt.problem_from_arrays(
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        golden_hat_matrix(),
        np.diag([1.0, -1.0]),
    )


def diag_problem(big_pos, big_neg, hat_pos, hat_neg, scramble=None, cap=6.0):
    """Problem from typed eigenvalue lists in canonical diagonal frames.

    Negative-type directions carry matrix entry -value under J = diag(1, -1).
    ``scramble=(seed_big, seed_hat)`` applies independent congruences.
    """
    A = np.diag(list(big_pos) + [-v for v in big_neg]).astype(complex)
    B = np.diag([1.0] * len(big_pos) + [-1.0] * len(big_neg)).astype(complex)
    Ah = np.diag(list(hat_pos) + [-v for v in hat_neg]).astype(complex)
    Bh = np.diag([1.0] * len(hat_pos) + [-1.0] * len(hat_neg)).astype(complex)
    if scramble is not None:
        pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), scramble[0], cap)
        hat, _ = pt.random_congruence(pt.pair_from_arrays(Ah, Bh), scramble[1], cap)
        return pt.ProblemInstance(pair=pair, hat_pair=hat)
    return pt.problem_from_arrays(A, B, Ah, Bh)


class KernelCalls(list):
    """The names of the kernel calls in order, and in ``inv_orders`` the
    order of the matrix that each ``inv`` inverted."""

    def __init__(self):
        super().__init__()
        self.inv_orders = []

    def clear(self):
        super().clear()
        self.inv_orders.clear()


def count_eigen_kernels(monkeypatch):
    """Record the name of every numpy eigvalsh/eigh/eig/qr/svd/cholesky/inv call from now on.

    numpy's ``svd`` is counted in the module that defines it too, so the SVD
    that ``np.linalg.norm(X, 2)`` runs is counted.  A Cholesky that fails
    (the matrix is not positive definite) is recorded as "cholesky failed".
    Returns a :class:`KernelCalls`, which also keeps the order of each
    matrix that ``inv`` inverted.
    """
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    calls = KernelCalls()
    names = ("eigvalsh", "eigh", "eig", "qr", "svd", "cholesky", "inv")
    for owner, name in [(np.linalg, name) for name in names] + [(impl, "svd")]:
        fn = getattr(owner, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            try:
                out = _fn(*args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append(f"{_name} failed")
                raise
            calls.append(_name)
            if _name == "inv":
                calls.inv_orders.append(np.shape(args[0])[-1])
            return out

        monkeypatch.setattr(owner, name, counted)
    return calls


def pencil_solves(calls):
    """The pencil solves among kernel ``calls``: an ``eig`` of J·Ã, or a
    Cholesky that succeeded, which ``spectral`` follows with one ``eigh``."""
    return calls.count("eig") + calls.count("cholesky")


def k2_pair(lam0):
    """The 2x2 Jordan pair at the boundary shift lam0."""
    A = np.array([[0.0, lam0], [lam0, 1.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    return pt.pair_from_arrays(A, B)

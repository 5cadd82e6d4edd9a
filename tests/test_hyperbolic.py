import numpy as np
import pytest

from pencil_tracemin.errors import InertiaViolationError
from pencil_tracemin.hyperbolic import (
    SignatureJ,
    polar_from_W,
    sample_feasible,
    sample_j_unitary,
)

from conftest import rand_hermitian


def j_residual(X, J):
    """||X^H J X - J||_2: how far X is from J-unitary."""
    return float(np.linalg.norm(X.conj().T @ J.matrix @ X - J.matrix, 2))


def test_polar_identity():
    X = polar_from_W(np.zeros((2, 1)), np.eye(2), np.eye(1))
    np.testing.assert_allclose(X, np.eye(3), atol=1e-14)


def test_polar_1x1_algebraic_identity():
    s = 0.8
    X = polar_from_W(np.array([[s]]), np.eye(1), np.eye(1))
    expected = np.array([[np.sqrt(1 + s * s), s], [s, np.sqrt(1 + s * s)]])
    np.testing.assert_allclose(X, expected, atol=1e-15)
    J = SignatureJ(1, 1)
    # (1 + s^2) - s^2 = 1 exactly.
    assert j_residual(X, J) <= 1e-14


def test_polar_random_residual():
    rng = np.random.default_rng(5)
    from pencil_tracemin.matcore import haar_unitary

    W = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    X = polar_from_W(W, haar_unitary(3, rng), haar_unitary(2, rng))
    assert j_residual(X, SignatureJ(3, 2)) <= 1e-10 * 5


def test_sample_spread_zero_is_block_unitary():
    rng = np.random.default_rng(3)
    J = SignatureJ(2, 2)
    X = sample_j_unitary(J, 0.0, rng)
    assert j_residual(X, J) <= 1e-12
    assert np.linalg.norm(X[:2, 2:], 2) <= 1e-14


def test_sample_deterministic_and_residual():
    J = SignatureJ(3, 2)
    X1 = sample_j_unitary(J, 1.0, np.random.default_rng(42))
    X2 = sample_j_unitary(J, 1.0, np.random.default_rng(42))
    np.testing.assert_array_equal(X1, X2)
    assert j_residual(X1, J) <= 1e-9


def test_group_property():
    rng = np.random.default_rng(21)
    J = SignatureJ(2, 3)
    X = sample_j_unitary(J, 1.5, rng) @ sample_j_unitary(J, 0.5, rng)
    assert j_residual(X, J) <= 1e-8


def test_sample_feasible_full_and_selected():
    rng = np.random.default_rng(7)
    J, Jh = SignatureJ(1, 1), SignatureJ(1, 0)
    X = sample_feasible(J, Jh, 1.0, rng)
    assert X.shape == (2, 1)
    form = X.conj().T @ J.matrix @ X
    np.testing.assert_allclose(form, [[1.0]], atol=1e-9)

    J, Jh = SignatureJ(1, 2), SignatureJ(1, 1)
    X = sample_feasible(J, Jh, 1.0, np.random.default_rng(7))
    G = X.conj().T @ J.matrix @ X
    np.testing.assert_allclose(G, np.diag([1.0, -1.0]), atol=1e-9)


def test_sample_feasible_inertia_violation():
    with pytest.raises(InertiaViolationError):
        sample_feasible(SignatureJ(1, 1), SignatureJ(2, 0), 1.0, np.random.default_rng(0))


def test_trace_sandwich_bounds():
    # For PSD A0, A1 and J-unitary X:
    # sum l_i^dn(A0) l_i^up(A1) smin(X)^2 <= tr(A0 X^H A1 X)
    #                                     <= sum l_i^dn(A0) l_i^dn(A1) smax(X)^2.
    rng = np.random.default_rng(33)
    for _ in range(40):
        npl = int(rng.integers(1, 4))
        nmi = int(rng.integers(1, 4))
        n = npl + nmi
        M0 = rand_hermitian(rng, n)
        M1 = rand_hermitian(rng, n)
        A0 = M0 @ M0.conj().T
        A1 = M1 @ M1.conj().T
        X = sample_j_unitary(SignatureJ(npl, nmi), 1.0, rng)
        tr = float(np.real(np.trace(A0 @ X.conj().T @ A1 @ X)))
        s = np.linalg.svd(X, compute_uv=False)
        l0 = np.sort(np.linalg.eigvalsh(A0))[::-1]
        l1 = np.sort(np.linalg.eigvalsh(A1))
        lower = float(l0 @ l1) * s[-1] ** 2
        upper = float(l0 @ l1[::-1]) * s[0] ** 2
        assert lower - 1e-8 * (1 + abs(lower)) <= tr <= upper + 1e-8 * (1 + abs(upper))


@pytest.mark.parametrize("npl, nmi", [(3, 0), (0, 2), (2, 3), (1, 1)])
def test_stacked_j_unitaries_match_per_generator_draws(npl, nmi):
    J = SignatureJ(npl, nmi)
    stack = sample_j_unitary(J, 1.3, [np.random.default_rng([5, k]) for k in range(6)])
    assert stack.shape == (6, J.n, J.n)
    for k in range(6):
        X = sample_j_unitary(J, 1.3, np.random.default_rng([5, k]))
        assert np.linalg.norm(stack[k] - X) <= 1e-12 * np.linalg.norm(X)
        assert j_residual(stack[k], J) <= 1e-9


def test_stacked_draw_keeps_the_single_generator_stream():
    # One draw per generator reads W (real, then imaginary), then the Gaussians
    # of V+, then those of V-: the order of separate standard_normal calls.
    from pencil_tracemin.matcore import complex_normal, haar_unitary

    rng = np.random.default_rng(44)
    W = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    V_plus = haar_unitary(2, rng)
    V_minus = haar_unitary(3, rng)
    np.testing.assert_allclose(
        sample_j_unitary(SignatureJ(2, 3), 1.0, np.random.default_rng(44)),
        polar_from_W(W / np.sqrt(2.0), V_plus, V_minus),
        rtol=0,
        atol=1e-13,
    )
    (Z,) = complex_normal([np.random.default_rng(44)], (2, 3))
    np.testing.assert_array_equal(Z[0], W)


@pytest.mark.parametrize("kernel", ["qr", "eigh"])
def test_sampler_kernel_failure_is_typed(monkeypatch, kernel):
    from pencil_tracemin.errors import KernelFailureError

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, kernel, failing)
    rngs = [np.random.default_rng([1, k]) for k in range(3)]
    with pytest.raises(KernelFailureError):
        sample_j_unitary(SignatureJ(2, 1), 1.0, rngs)

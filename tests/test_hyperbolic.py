import numpy as np
import pytest

from pencil_tracemin.errors import EmptyFeasibleSetError
from pencil_tracemin.hyperbolic import (
    _polar_middle,
    polar_from_W,
    sample_feasible,
    sample_j_unitary,
)
from pencil_tracemin.matcore import Inertia

from conftest import rand_hermitian
from reference import two_root_polar_middle


def signature(npl, nmi):
    """J = diag(I_npl, -I_nmi)."""
    return np.diag([1.0] * npl + [-1.0] * nmi)


def j_residual(X, npl, nmi):
    """||X^H J X - J||_2: how far X is from J-unitary."""
    J = signature(npl, nmi)
    return float(np.linalg.norm(X.conj().T @ J @ X - J, 2))


def test_polar_identity():
    X = polar_from_W(np.zeros((2, 1)), np.eye(2), np.eye(1))
    np.testing.assert_allclose(X, np.eye(3), atol=1e-14)


def test_polar_1x1_algebraic_identity():
    s = 0.8
    X = polar_from_W(np.array([[s]]), np.eye(1), np.eye(1))
    expected = np.array([[np.sqrt(1 + s * s), s], [s, np.sqrt(1 + s * s)]])
    np.testing.assert_allclose(X, expected, atol=1e-15)
    # (1 + s^2) - s^2 = 1 exactly.
    assert j_residual(X, 1, 1) <= 1e-14


def test_polar_random_residual():
    rng = np.random.default_rng(5)
    from pencil_tracemin.matcore import haar_unitary

    W = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    X = polar_from_W(W, haar_unitary(3, rng), haar_unitary(2, rng))
    assert j_residual(X, 3, 2) <= 1e-10 * 5


@pytest.mark.parametrize("spread", [0.0, 1.0, 2.0, 10.0, 1e3])
@pytest.mark.parametrize("npl, nmi", [(3, 2), (2, 3), (4, 4), (0, 3), (3, 0), (1, 6), (6, 1)])
def test_polar_block_matches_two_root_reference(npl, nmi, spread):
    # Both square roots from one eigh on the smaller side agree with one eigh
    # per side, and the block stays J-unitary, to roundoff in 1 + |W|_2^2.
    rng = np.random.default_rng(npl * 10 + nmi)
    W = spread * (rng.standard_normal((40, npl, nmi)) + 1j * rng.standard_normal((40, npl, nmi)))
    M = _polar_middle(W)
    scale = 1.0 + np.linalg.norm(W, 2, axis=(-2, -1)) ** 2 if npl and nmi else np.ones(40)
    diff = np.linalg.norm(M - two_root_polar_middle(W), 2, axis=(-2, -1))
    assert np.all(diff <= 1e-14 * scale)
    J = signature(npl, nmi)
    resid = np.linalg.norm(M.conj().swapaxes(-1, -2) @ J @ M - J, 2, axis=(-2, -1))
    assert np.all(resid <= 1e-14 * scale**2)


def test_sample_spread_zero_is_block_unitary():
    rng = np.random.default_rng(3)
    X = sample_j_unitary(2, 2, 0.0, rng)
    assert j_residual(X, 2, 2) <= 1e-12
    assert np.linalg.norm(X[:2, 2:], 2) <= 1e-14


def test_sample_deterministic_and_residual():
    X1 = sample_j_unitary(3, 2, 1.0, np.random.default_rng(42))
    X2 = sample_j_unitary(3, 2, 1.0, np.random.default_rng(42))
    np.testing.assert_array_equal(X1, X2)
    assert j_residual(X1, 3, 2) <= 1e-9


def test_group_property():
    rng = np.random.default_rng(21)
    X = sample_j_unitary(2, 3, 1.5, rng) @ sample_j_unitary(2, 3, 0.5, rng)
    assert j_residual(X, 2, 3) <= 1e-8


def test_sample_feasible_full_and_selected():
    rng = np.random.default_rng(7)
    X = sample_feasible(Inertia(1, 0, 1), Inertia(1, 0, 0), 1.0, rng)
    assert X.shape == (2, 1)
    form = X.conj().T @ signature(1, 1) @ X
    np.testing.assert_allclose(form, [[1.0]], atol=1e-9)

    X = sample_feasible(Inertia(1, 0, 2), Inertia(1, 0, 1), 1.0, np.random.default_rng(7))
    G = X.conj().T @ signature(1, 2) @ X
    np.testing.assert_allclose(G, np.diag([1.0, -1.0]), atol=1e-9)


def test_sample_feasible_inertia_violation():
    with pytest.raises(EmptyFeasibleSetError):
        sample_feasible(Inertia(1, 0, 1), Inertia(2, 0, 0), 1.0, np.random.default_rng(0))


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
        X = sample_j_unitary(npl, nmi, 1.0, rng)
        tr = float(np.real(np.trace(A0 @ X.conj().T @ A1 @ X)))
        s = np.linalg.svd(X, compute_uv=False)
        l0 = np.sort(np.linalg.eigvalsh(A0))[::-1]
        l1 = np.sort(np.linalg.eigvalsh(A1))
        lower = float(l0 @ l1) * s[-1] ** 2
        upper = float(l0 @ l1[::-1]) * s[0] ** 2
        assert lower - 1e-8 * (1 + abs(lower)) <= tr <= upper + 1e-8 * (1 + abs(upper))


@pytest.mark.parametrize("npl, nmi", [(3, 0), (0, 2), (2, 3), (1, 1)])
def test_stacked_j_unitaries_match_per_generator_draws(npl, nmi):
    # A stack of 6 is the 6 draws that successive calls on one generator make.
    stack = sample_j_unitary(npl, nmi, 1.3, np.random.default_rng(5), size=6)
    assert stack.shape == (6, npl + nmi, npl + nmi)
    rng = np.random.default_rng(5)
    for k in range(6):
        X = sample_j_unitary(npl, nmi, 1.3, rng)
        assert np.linalg.norm(stack[k] - X) <= 1e-12 * np.linalg.norm(X)
        assert j_residual(stack[k], npl, nmi) <= 1e-9


def test_stacked_draw_keeps_the_single_generator_stream():
    # One draw per generator reads W (real, then imaginary), then the Gaussians
    # of V+, then those of V-: the order of separate standard_normal calls.
    from pencil_tracemin.matcore import complex_normal, haar_unitary

    rng = np.random.default_rng(44)
    W = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    V_plus = haar_unitary(2, rng)
    V_minus = haar_unitary(3, rng)
    np.testing.assert_allclose(
        sample_j_unitary(2, 3, 1.0, np.random.default_rng(44)),
        polar_from_W(W / np.sqrt(2.0), V_plus, V_minus),
        rtol=0,
        atol=1e-13,
    )
    (Z,) = complex_normal(np.random.default_rng(44), (2, 3), size=1)
    np.testing.assert_array_equal(Z[0], W)


@pytest.mark.parametrize("spread", [-1.0, np.nan, np.inf])
def test_spread_must_be_finite_and_nonnegative(spread):
    with pytest.raises(ValueError, match="spread"):
        sample_j_unitary(2, 1, spread, np.random.default_rng(0))


@pytest.mark.parametrize("npl, nmi", [(-1, 2), (2, -1), (0, 0)])
def test_signature_counts_must_be_nonnegative_and_nonempty(npl, nmi):
    with pytest.raises(ValueError, match="signature counts"):
        sample_j_unitary(npl, nmi, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("kernel", ["qr", "eigh"])
def test_sampler_kernel_failure_is_typed(monkeypatch, kernel):
    from pencil_tracemin.errors import KernelFailureError

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, kernel, failing)
    with pytest.raises(KernelFailureError):
        sample_j_unitary(2, 1, 1.0, np.random.default_rng(1), size=3)

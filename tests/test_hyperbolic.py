import re
import warnings

import numpy as np
import pytest

from pencil_tracemin.errors import EmptyFeasibleSetError
from pencil_tracemin.hyperbolic import _haar_factors, sample_feasible, sample_j_unitary
from pencil_tracemin.matcore import Inertia, complex_blocks, paired_columns, standard_normals

from conftest import count_eigen_kernels, rand_hermitian
from reference import cs_j_unitary, householder_haar


def signature(npl, nmi):
    """J = diag(I_npl, -I_nmi)."""
    return np.diag([1.0] * npl + [-1.0] * nmi)


def j_residual(X, npl, nmi):
    """||X^H J X - J||_2: how far X is from J-unitary."""
    J = signature(npl, nmi)
    return float(np.linalg.norm(X.conj().T @ J @ X - J, 2))


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


@pytest.mark.parametrize("npl, nmi", [(6, 1), (5, 5), (1, 6), (12, 3)])
@pytest.mark.parametrize("size", [1, 2, 7, 40])
def test_stacked_draws_equal_single_draws_bit_for_bit(npl, nmi, size):
    # At orders that run the reflector loop several times, a stack of any
    # size is exactly the draws of successive calls.
    stack = sample_j_unitary(npl, nmi, 1.3, np.random.default_rng(6), size=size)
    rng = np.random.default_rng(6)
    for k in range(size):
        np.testing.assert_array_equal(sample_j_unitary(npl, nmi, 1.3, rng), stack[k])


def _named_vectors(z, m):
    """The vectors of lengths m, m-1, ..., 1 that one Haar factor reads from z."""
    starts = np.cumsum([0] + list(range(m, 0, -1)))
    return [z[starts[j] : starts[j + 1]] for j in range(m)]


def test_stacked_draw_keeps_the_single_generator_stream():
    # One draw per generator reads the plane Gaussians g (real, then
    # imaginary), then the Gaussians of P, V+, Q and V-, each one
    # complex_blocks block of one standard_normals array: the order of
    # separate standard_normal calls.  sinh theta_k = spread |g_k| / sqrt(2),
    # since these g_k have E|g_k|^2 = 2, and each factor comes from its own
    # vectors.
    npl, nmi, spread = 2, 3, 1.3
    rng = np.random.default_rng(44)
    lengths = (2, 3, 3, 6, 6)
    z = standard_normals(rng, 2 * sum(lengths))
    starts = 2 * np.cumsum((0,) + lengths[:-1])
    g, zP, zVp, zQ, zVm = (complex_blocks(z, at, 1, m)[0, :, 0] for at, m in zip(starts, lengths))
    P, V_plus = (householder_haar(_named_vectors(z, npl)) for z in (zP, zVp))
    Q, V_minus = (householder_haar(_named_vectors(z, nmi)) for z in (zQ, zVm))
    reference = cs_j_unitary(spread * np.abs(g) / np.sqrt(2.0), P, Q, V_plus, V_minus)
    np.testing.assert_allclose(
        sample_j_unitary(npl, nmi, spread, np.random.default_rng(44)), reference, rtol=0, atol=1e-13
    )
    # The next draw starts where the first one's Gaussians end.
    assert np.array_equal(
        sample_j_unitary(npl, nmi, spread, rng),
        sample_j_unitary(npl, nmi, spread, np.random.default_rng(44), size=2)[1],
    )


@pytest.mark.parametrize("spread", [-1.0, np.nan, np.inf])
def test_spread_must_be_finite_and_nonnegative(spread):
    with pytest.raises(ValueError, match="spread"):
        sample_j_unitary(2, 1, spread, np.random.default_rng(0))


@pytest.mark.parametrize("npl, nmi", [(-1, 2), (2, -1), (0, 0)])
def test_signature_counts_must_be_nonnegative_and_nonempty(npl, nmi):
    with pytest.raises(ValueError, match="signature counts"):
        sample_j_unitary(npl, nmi, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("npl, nmi", [(3, 0), (0, 2), (2, 3), (1, 1), (4, 4)])
def test_draw_makes_no_lapack_call(monkeypatch, npl, nmi):
    # The CS draw is elementwise numpy: there is no kernel left to fail.
    calls = count_eigen_kernels(monkeypatch)
    for size in (None, 5):
        sample_j_unitary(npl, nmi, 1.0, np.random.default_rng(1), size=size)
        sample_feasible(Inertia(npl, 2, nmi), Inertia(min(npl, 1), 0, min(nmi, 1)), 1.0,
                        np.random.default_rng(1), size=size, null_dims=2)
    assert calls == [], calls


SIGNATURES = [(1, 0), (0, 1), (3, 0), (0, 2), (1, 1), (2, 3), (3, 2), (4, 4), (1, 6), (6, 1)]


@pytest.mark.parametrize("spread", [0.0, 1.0, 5.0, 1e3])
@pytest.mark.parametrize("npl, nmi", SIGNATURES)
def test_cs_draw_is_j_unitary(npl, nmi, spread):
    # ||G^H J G - J||_2 <= 1e-12 ||G||_2^2 for every draw of a stack.
    G = sample_j_unitary(npl, nmi, spread, np.random.default_rng(npl * 10 + nmi), size=50)
    J = signature(npl, nmi)
    resid = np.linalg.norm(G.conj().swapaxes(-1, -2) @ J @ G - J, 2, axis=(-2, -1))
    assert np.all(resid <= 1e-12 * np.linalg.norm(G, 2, axis=(-2, -1)) ** 2)


def test_haar_factor_matches_dense_reflectors_and_is_unitary():
    rng = np.random.default_rng(9)
    for m in (1, 2, 3, 5):
        shape = (3, m * (m + 1) // 2, 4)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        U = _haar_factors(x, m)
        for f in range(3):
            for k in range(4):
                ref = householder_haar(_named_vectors(x[f, :, k], m))
                assert np.linalg.norm(U[f, :, :, k] - ref) <= 1e-14 * m
                assert np.linalg.norm(ref.conj().T @ ref - np.eye(m)) <= 1e-14 * m
                # The first column is x_0 / |x_0|.
                x0 = x[f, :m, k]
                assert np.linalg.norm(U[f, :, 0, k] - x0 / np.linalg.norm(x0)) <= 1e-15 * m


def test_haar_factor_trace_moment():
    # For a Haar unitary of any order, E|tr U|^2 = 1.  20 000 draws at
    # order 3 put the mean within 5 standard errors of 1.
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 6, 20000)) + 1j * rng.standard_normal((1, 6, 20000))
    U = _haar_factors(x, 3)[0]
    t2 = np.abs(np.trace(U, axis1=0, axis2=1)) ** 2
    assert abs(t2.mean() - 1.0) <= 5.0 * t2.std() / np.sqrt(t2.size)


def test_one_plane_keeps_the_polar_draws_law():
    # With n+ = n- = 1, |G_12| = sinh theta = spread |g|, g the first complex
    # Gaussian of the draw scaled to E|g|^2 = 1: the law of |W| in a
    # hyperbolic polar draw W = spread z / sqrt(2).  |g|^2 is exponential
    # with mean 1.
    spread, K = 2.5, 20000
    G = sample_j_unitary(1, 1, spread, np.random.default_rng(3), size=K)
    g = complex_blocks(standard_normals(np.random.default_rng(3), 2), 0, 1, 1)[0, 0, 0]
    assert abs(G[0, 0, 1]) == pytest.approx(spread * abs(g) / np.sqrt(2.0), rel=1e-14)
    e = np.sort(np.abs(G[:, 0, 1]) ** 2 / spread**2)
    # Kolmogorov-Smirnov distance to 1 - exp(-x); 1.95 / sqrt(K) is its 0.1 % point.
    cdf = 1.0 - np.exp(-e)
    grid = np.arange(1, K + 1) / K
    assert max(np.max(grid - cdf), np.max(cdf - grid + 1.0 / K)) <= 1.95 / np.sqrt(K)


def test_overflowing_spread_is_a_value_error():
    # cosh theta + sinh theta bounds every entry and partial sum of G: below
    # overflow the draw is finite, with no numpy warning; at overflow the
    # ValueError names the spread.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = sample_j_unitary(2, 2, 1e300, np.random.default_rng(0), size=4)
        assert np.all(np.isfinite(G))
        with pytest.raises(ValueError, match=re.escape("spread 1.7e+308 overflows")):
            sample_j_unitary(2, 2, 1.7e308, np.random.default_rng(0), size=4)
        # With no hyperbolic plane, the null-space rows are what overflows.
        with pytest.raises(ValueError, match=re.escape("spread 1.7e+308 overflows")):
            sample_feasible(Inertia(2, 1, 0), Inertia(1, 0, 0), 1.7e308,
                            np.random.default_rng(0), size=4, null_dims=1)


def test_null_rows_follow_the_j_unitary_in_each_row():
    # sample_feasible's null-space rows are Gaussians scaled by the spread,
    # read after the J-unitary's in the same row: its first rows are the
    # paired columns of the same draw, and a stack equals single draws.
    ib, ibh, spread = Inertia(2, 3, 1), Inertia(1, 0, 1), 1.5
    X = sample_feasible(ib, ibh, spread, np.random.default_rng(4), size=6, null_dims=3)
    assert X.shape == (6, 6, 2)
    rng = np.random.default_rng(4)
    for k in range(6):
        one = sample_feasible(ib, ibh, spread, rng, null_dims=3)
        np.testing.assert_array_equal(one, X[k])
    G = sample_j_unitary(2, 1, spread, np.random.default_rng(4))
    np.testing.assert_array_equal(X[0, :3], G[:, paired_columns(ib, ibh)])
    J = np.diag([1.0, 1.0, -1.0, 0.0, 0.0, 0.0])
    form = X.conj().swapaxes(-1, -2) @ J @ X
    np.testing.assert_allclose(form, np.broadcast_to(np.diag([1.0, -1.0]), form.shape), atol=1e-12)
    assert np.all(np.abs(X[:, 3:]) > 0)


import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import NotDiagonalizableError
from pencil_tracemin.spectral import (
    INF_COUPLED,
    INF_MIXED,
    INF_NONE,
    INF_PLUS,
    deflate_common_nullspace,
    typed_spectrum,
)

from pencil_tracemin.genpairs import BlockSpec, assemble

from conftest import golden_hat_matrix, k2_pair, rand_hermitian


def diagonal_frame(pair):
    """The clustered frame T of a pair with real spectrum, its diagonal Lambda
    (negative-type directions carry -eigenvalue) and the residuals
    ||T^H A T - Lambda||_2, ||T^H B T - J||_2 in the deflated coordinates."""
    a = pt.analyze_pair(pair)
    f = a.frame
    assert not f.blocks
    lam = np.concatenate([f.pos_values, -f.neg_values, f.null_signs])
    red, T = a.deflation.reduced, f.T
    res_a = float(np.linalg.norm(T.conj().T @ red.A.entries @ T - np.diag(lam), 2))
    res_b = float(np.linalg.norm(T.conj().T @ red.B.entries @ T - np.diag(f.j_diag), 2))
    return f, lam, res_a, res_b


def test_eigh_examples():
    vals, _ = pt.eigh(pt.validate_hermitian(np.diag([3.0, 1.0])))
    np.testing.assert_allclose(vals, [1.0, 3.0])
    # F_2: characteristic polynomial t^2 - 1.
    vals, _ = pt.eigh(pt.validate_hermitian([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-15)
    vals, vecs = pt.eigh(pt.validate_hermitian(np.eye(3)))
    np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-14)


def test_eigh_reconstruction():
    rng = np.random.default_rng(7)
    for n in (2, 9, 32):
        H = pt.validate_hermitian(rand_hermitian(rng, n))
        vals, vecs = pt.eigh(H)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.linalg.norm(recon - H.entries, 2) <= 1e-9 * (1 + H.norm())
        res = H.entries @ vecs - vecs * vals
        assert np.linalg.norm(res, 2) <= 1e-10 * (1 + H.norm())


def test_deflate_explicit_kernel():
    pair = pt.pair_from_arrays(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    out = deflate_common_nullspace(pair)
    assert out.deflated_dims == 1
    assert out.reduced.n == 1


def test_deflate_no_kernel():
    pair = pt.pair_from_arrays(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    out = deflate_common_nullspace(pair)
    assert out.deflated_dims == 0
    assert out.reduced is pair


def test_deflate_scrambled():
    pair = pt.pair_from_arrays(np.diag([1.0, 0.0, 0.0]), np.diag([1.0, -1.0, 0.0]))
    scr, _ = pt.random_congruence(pair, 3, 8.0)
    out = deflate_common_nullspace(scr)
    assert out.deflated_dims == 1
    # The removed direction lies in both kernels.
    z = out.basis[:, 0]
    assert np.linalg.norm(scr.A.entries @ z) <= 1e-8
    assert np.linalg.norm(scr.B.entries @ z) <= 1e-8


def test_typed_spectrum_diagonal():
    spec = typed_spectrum(pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0])))
    np.testing.assert_allclose(spec.pos_values, [1.0])
    np.testing.assert_allclose(spec.neg_values, [-2.0])
    assert spec.infinite_definite_sign == INF_NONE
    assert not spec.has_complex


def test_typed_spectrum_jordan_two_copy():
    spec = typed_spectrum(k2_pair(0.3))
    assert len(spec.pos) == 1 and len(spec.neg) == 1
    assert spec.pos[0].jordan_pair and spec.neg[0].jordan_pair
    assert spec.pos[0].value == pytest.approx(0.3, abs=1e-7)
    assert spec.neg[0].value == pytest.approx(0.3, abs=1e-7)


def test_typed_spectrum_golden_hat():
    pair = pt.pair_from_arrays(golden_hat_matrix(), np.diag([1.0, -1.0]))
    spec = typed_spectrum(pair)
    assert spec.pos_values[0] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
    assert spec.neg_values[0] == pytest.approx(-np.sqrt(2) / 4, abs=1e-12)


def test_typed_spectrum_complex_detection():
    pair = pt.pair_from_arrays(
        np.array([[0.0, 1j], [-1j, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    spec = typed_spectrum(pair)
    assert spec.has_complex
    vals = sorted(spec.complex_values, key=lambda z: z.imag)
    assert vals[0] == pytest.approx(-1j, abs=1e-10)
    assert vals[1] == pytest.approx(1j, abs=1e-10)


def test_typed_spectrum_congruence_invariant():
    rng = np.random.default_rng(17)
    base = pt.pair_from_arrays(
        np.diag([0.5, 2.0, -1.0, -3.0]), np.diag([1.0, 1.0, -1.0, -1.0])
    )
    ref = typed_spectrum(base)
    for seed in range(12):
        scr, _ = pt.random_congruence(base, seed, 8.0)
        spec = typed_spectrum(scr)
        np.testing.assert_allclose(spec.pos_values, ref.pos_values, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(spec.neg_values, ref.neg_values, rtol=1e-6, atol=1e-8)


def test_diagonal_psd_criterion_matches_definiteness():
    # For diagonal frames, PSD <=> min positive-type >= max negative-type.
    rng = np.random.default_rng(23)
    for _ in range(25):
        pos = rng.uniform(-2, 2, size=2)
        neg = rng.uniform(-2, 2, size=2)
        pair = pt.pair_from_arrays(
            np.diag(np.concatenate([pos, -neg])), np.diag([1.0, 1.0, -1.0, -1.0])
        )
        rep = pt.definiteness_interval(pair)
        assert rep.is_psd_pair == bool(pos.min() >= neg.max() - 1e-12)
        assert rep.is_nsd_pair == bool(pos.max() <= neg.min() + 1e-12)


def test_split_infinite_classification():
    tols = pt.ToleranceSet()
    # Diagonal infinite block, positive orientation.
    pair = pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))
    assert typed_spectrum(pair).infinite_definite_sign == INF_PLUS
    # Mixed orientation.
    pair = pt.pair_from_arrays(np.diag([1.0, 2.0, -1.0]), np.diag([1.0, 0.0, 0.0]))
    assert typed_spectrum(pair).infinite_definite_sign == INF_MIXED
    # Chained: A restricted to N(B) is singular without a common kernel.
    pair = pt.pair_from_arrays(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.0, 1.0])
    )
    sp = pt.analyze_pair(pair, tols).split
    assert sp.coupled
    assert typed_spectrum(pair).infinite_definite_sign == INF_COUPLED


def test_split_infinite_schur_reduction_invariant():
    # Scrambled T-r(1) + T-inf(1): the split must recover the finite eigenvalue.
    base = pt.pair_from_arrays(np.diag([3.0, 1.0]), np.diag([1.0, 0.0]))
    for seed in range(6):
        scr, _ = pt.random_congruence(base, seed, 6.0)
        spec = typed_spectrum(scr)
        assert spec.infinite_definite_sign == INF_PLUS
        np.testing.assert_allclose(spec.pos_values, [3.0], rtol=1e-8)


def test_congruent_diagonalize_already_canonical():
    pair = pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]))
    f, lam, res_a, res_b = diagonal_frame(pair)
    np.testing.assert_allclose(f.j_diag, [1.0, -1.0])
    np.testing.assert_allclose(lam, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(f.pos_values, [1.0], atol=1e-12)
    np.testing.assert_allclose(f.neg_values, [-2.0], atol=1e-12)
    assert res_a <= 1e-10 and res_b <= 1e-10


def test_congruent_diagonalize_golden_hat():
    pair = pt.pair_from_arrays(golden_hat_matrix(), np.diag([1.0, -1.0]))
    f, lam, res_a, res_b = diagonal_frame(pair)
    np.testing.assert_allclose(f.j_diag, [1.0, -1.0])
    np.testing.assert_allclose(lam, [np.sqrt(2) / 2, np.sqrt(2) / 4], atol=1e-10)
    assert res_b < 1e-10
    assert res_a < 1e-10


def test_congruent_diagonalize_rejects_jordan():
    with pytest.raises(NotDiagonalizableError):
        pt.analyze_pair(k2_pair(0.0)).frame


def test_congruent_diagonalize_scrambled_round_trip():
    rng = np.random.default_rng(31)
    # Matrix entries on negative-type directions carry -eigenvalue:
    # eigenvalues are 0.3, 1.5 (positive type) and -0.7, -2.0 (negative type).
    base = pt.pair_from_arrays(
        np.diag([0.3, 1.5, 0.7, 2.0]), np.diag([1.0, 1.0, -1.0, -1.0])
    )
    for seed in range(8):
        scr, _ = pt.random_congruence(base, seed, 8.0)
        f, _, res_a, res_b = diagonal_frame(scr)
        scale_b = 1 + scr.B.norm()
        scale_a = 1 + scr.A.norm()
        assert res_b <= 1e-8 * scale_b
        assert res_a <= 1e-8 * scale_a
        np.testing.assert_allclose(f.pos_values, [0.3, 1.5], rtol=1e-7)
        np.testing.assert_allclose(f.neg_values, [-2.0, -0.7], rtol=1e-7)


def test_typed_spectrum_counts_match_inertia():
    rng = np.random.default_rng(41)
    for seed in range(10):
        npl = int(rng.integers(1, 4))
        nmi = int(rng.integers(1, 4))
        pos = np.sort(rng.uniform(0.0, 3.0, size=npl))
        neg = np.sort(rng.uniform(-3.0, 0.0, size=nmi)) - 0.5
        A = np.diag(np.concatenate([pos, -neg]))
        B = np.diag([1.0] * npl + [-1.0] * nmi)
        scr, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seed, 8.0)
        spec = typed_spectrum(scr)
        ib = pt.inertia(scr.B)
        assert len(spec.pos) == ib.n_plus
        assert len(spec.neg) == ib.n_minus


def test_clustered_frame_real_conjugate_and_null_directions():
    # One frame holds typed, conjugate-block and B-null directions:
    # T^H B T = diag(j) and T^H A T is the block diagonal the frame records.
    specs = [
        BlockSpec("Tr", p=1, alpha=0.7, eta=1),
        BlockSpec("Tr", p=1, alpha=-1.3, eta=-1),
        BlockSpec("Tc", p=1, alpha=0.4, beta=0.9),
        BlockSpec("Tinf", p=1, eta=-1),
    ]
    for seed in range(6):
        pair, truth = assemble(specs, scramble_seed=seed, conditioning_cap=5.0)
        a = pt.analyze_pair(pair)
        f = a.frame
        assert a.deflation.deflated_dims == 0
        np.testing.assert_allclose(f.pos_values, truth.pos, rtol=1e-8)
        np.testing.assert_allclose(f.neg_values, truth.neg, rtol=1e-8)
        np.testing.assert_allclose(f.null_signs, truth.infinite_signs)
        (dp, dm, alpha, beta), = f.blocks
        z = truth.complex_values[-1]
        assert alpha == pytest.approx(z.real, abs=1e-8)
        assert beta == pytest.approx(abs(z.imag), abs=1e-8)
        want = np.diag(np.concatenate([f.pos_values, -f.neg_values, [alpha, -alpha], f.null_signs]))
        want = want.astype(complex)
        want[dp, dm], want[dm, dp] = -1j * beta, 1j * beta
        T = f.T
        scale = 1 + pair.A.norm() + pair.B.norm()
        assert np.linalg.norm(T.conj().T @ pair.B.entries @ T - np.diag(f.j_diag), 2) <= 1e-8 * scale
        assert np.linalg.norm(T.conj().T @ pair.A.entries @ T - want, 2) <= 1e-8 * scale


def test_views_read_one_analysis():
    # The typed spectrum is the analysis's, and its frame diagonalizes the pair.
    pair, _ = pt.random_congruence(
        pt.pair_from_arrays(np.diag([3.0, 1.0, -2.0]), np.diag([1.0, 0.0, -1.0])), 4, 5.0
    )
    a = pt.analyze_pair(pair)
    assert a.b_inertia.as_tuple() == pt.inertia(pair.B).as_tuple()
    assert typed_spectrum(pair) == a.spectrum
    np.testing.assert_allclose(a.spectrum.pos_values, [3.0], rtol=1e-8)
    np.testing.assert_allclose(a.spectrum.neg_values, [2.0], rtol=1e-8)
    assert a.spectrum.infinite_definite_sign == INF_PLUS
    np.testing.assert_allclose(a.b_frame.conj().T @ pair.B.entries @ a.b_frame,
                               np.diag([1.0, -1.0, 0.0]), atol=1e-10)
    _, _, res_a, res_b = diagonal_frame(pair)
    assert res_a <= 1e-8 and res_b <= 1e-8

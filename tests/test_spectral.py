import itertools
import warnings

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.spectral import (
    INF_COUPLED,
    INF_MIXED,
    INF_NONE,
    INF_PLUS,
    TRI_INV_BASE,
    _by_type,
    _cluster,
    _compression_cut,
    _tri_inv,
    _upper_pairs,
    analyze_pair,
)

from pencil_tracemin.errors import NonFiniteError
from pencil_tracemin.genpairs import BlockSpec, assemble

from conftest import (
    count_eigen_kernels, diag_problem, golden_hat_matrix, k2_pair, rand_hermitian, spectral_norm,
)
from reference import b_frame_spectrum, cluster_entries, crawford_number, deflate_common_nullspace
from test_tracemin import _criterion_7_problems, _equal_inertia_sweep


def block_diag(*blocks):
    """The complex block-diagonal matrix of the given square blocks."""
    blocks = [np.asarray(b, dtype=complex) for b in blocks]
    out = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=complex)
    at = 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def diagonal_frame(pair):
    """The analysis of a pair; the forms Lambda and diag(jd) that its congruence frame T,
    the typed directions (+1, then -1), the blocks and null_frame(), gives A and B (a -1
    direction carries -value); and ||T^H A T - Lambda||_2, ||T^H B T - diag(jd)||_2."""
    a = pt.analyze_pair(pair)
    sign = np.concatenate([np.ones(a.pos_dirs.shape[1]), -np.ones(a.neg_dirs.shape[1])])
    T = np.column_stack([a.pos_dirs, a.neg_dirs] + [c for b in a.blocks for c in b[:2]]
                        + list(a.null_frame().T))
    typed = np.concatenate([a.pos_values[a.pos_owns], -a.neg_values[a.neg_owns]])
    lam = block_diag(np.diag(typed), *(
        [[x, -1j * y], [1j * y, -x]] for *_, x, y in a.blocks), np.diag(np.sign(a.d_inf)))
    jd = np.concatenate([sign, np.tile([1.0, -1.0], len(a.blocks)), np.zeros(len(a.d_inf))])
    res = [float(np.linalg.norm(T.conj().T @ M.entries @ T - F, 2))
           for M, F in ((pair.A, lam), (pair.B, np.diag(jd)))]
    return (a, lam, jd, *res)


def typed_values(a):
    """The typed values of an analysis, with their Jordan and ownership flags,
    as lists that equality compares (directions aside)."""
    typed = (a.pos_values, a.pos_jordan, a.pos_owns, a.neg_values, a.neg_jordan, a.neg_owns)
    return [x.tolist() for x in typed], a.complex_values


def b_frame_of(B):
    """analyze_pair of (I, B) and the residual ||W^H B W - diag(j, 0)||_2 of its B-frame W."""
    a = pt.analyze_pair(pt.pair_from_arrays(np.eye(len(B)), B))
    W = a.b_frame
    jd = np.concatenate([a.j, np.zeros(W.shape[1] - len(a.j))])
    return a, float(np.linalg.norm(W.conj().T @ B @ W - np.diag(jd), 2))


def test_eigh_examples():
    a, res = b_frame_of(np.diag([3.0, 1.0]))
    assert a.b_inertia == pt.Inertia(2, 0, 0) and res <= 1e-15
    # The typed frame of the definite pair (I, B), ascending in its values:
    # e1 / sqrt(3) (value 1/3), then e2 (value 1).
    np.testing.assert_allclose(np.abs(a.b_frame), [[1.0 / np.sqrt(3.0), 0.0], [0.0, 1.0]])
    # F_2: characteristic polynomial t^2 - 1.
    a, res = b_frame_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert a.b_inertia == pt.Inertia(1, 0, 1) and res <= 1e-15
    np.testing.assert_array_equal(a.j, [1.0, -1.0])
    a, res = b_frame_of(np.eye(3))
    assert a.b_inertia == pt.Inertia(3, 0, 0)
    np.testing.assert_allclose(a.b_frame.conj().T @ a.b_frame, np.eye(3), atol=1e-14)
    # A singular B keeps its null direction, with unit length.
    a, res = b_frame_of(np.diag([2.0, 0.0]))
    assert a.b_inertia == pt.Inertia(1, 1, 0) and res <= 1e-15
    np.testing.assert_allclose(np.abs(a.N[:, 0]), [0.0, 1.0])


def test_eigh_reconstruction():
    rng = np.random.default_rng(7)
    for n in (2, 9, 32):
        H = pt.validate_hermitian(rand_hermitian(rng, n))
        a, res = b_frame_of(H.entries)
        vals = np.linalg.eigvalsh(H.entries)
        assert a.b_inertia == pt.Inertia(int(np.sum(vals > 0)), 0, int(np.sum(vals < 0)))
        W_inv = np.linalg.inv(a.b_frame)
        recon = W_inv.conj().T @ np.diag(a.j) @ W_inv
        assert np.linalg.norm(recon - H.entries, 2) <= 1e-9 * (1 + spectral_norm(H))
        assert res <= 1e-10 * np.linalg.norm(a.b_frame, 2) ** 2 * (1 + spectral_norm(H))


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
    spec = analyze_pair(pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0])))
    np.testing.assert_allclose(spec.pos_values, [1.0])
    np.testing.assert_allclose(spec.neg_values, [-2.0])
    assert spec.infinite_sign == INF_NONE
    assert not spec.has_complex


def test_typed_spectrum_jordan_two_copy():
    spec = analyze_pair(k2_pair(0.3))
    assert len(spec.pos_values) == 1 and len(spec.neg_values) == 1
    assert spec.pos_jordan[0] and spec.neg_jordan[0]
    assert spec.pos_values[0] == pytest.approx(0.3, abs=1e-7)
    assert spec.neg_values[0] == pytest.approx(0.3, abs=1e-7)


def test_odd_isotropic_leftover_owns_no_direction():
    # Roundoff splits the Jordan block of order 3 into one real eigenvalue and
    # a conjugate pair; the real one is isotropic, with no partner to pair up
    # with: it keeps its b_form's sign, owns no direction and is no Jordan copy.
    pair, _ = assemble([_tr(3, 0.5, 1)], scramble_seed=0, conditioning_cap=4.0)
    a = analyze_pair(pair)
    assert a.isotropic_defect and not a.has_jordan
    assert len(a.neg_values) == 0
    np.testing.assert_allclose(a.pos_values, [0.5], atol=1e-4)
    assert a.pos_owns.tolist() == [False] and a.pos_jordan.tolist() == [False]
    assert a.pos_dirs.shape == (pair.n, 0)


def test_typed_spectrum_golden_hat():
    pair = pt.pair_from_arrays(golden_hat_matrix(), np.diag([1.0, -1.0]))
    spec = analyze_pair(pair)
    assert spec.pos_values[0] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
    assert spec.neg_values[0] == pytest.approx(-np.sqrt(2) / 4, abs=1e-12)


def test_typed_spectrum_complex_detection():
    pair = pt.pair_from_arrays(
        np.array([[0.0, 1j], [-1j, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    spec = analyze_pair(pair)
    assert spec.has_complex
    vals = sorted(spec.complex_values, key=lambda z: z.imag)
    assert vals[0] == pytest.approx(-1j, abs=1e-10)
    assert vals[1] == pytest.approx(1j, abs=1e-10)


def test_typed_spectrum_congruence_invariant():
    rng = np.random.default_rng(17)
    base = pt.pair_from_arrays(
        np.diag([0.5, 2.0, -1.0, -3.0]), np.diag([1.0, 1.0, -1.0, -1.0])
    )
    ref = analyze_pair(base)
    for seed in range(12):
        scr, _ = pt.random_congruence(base, seed, 8.0)
        a = pt.analyze_pair(scr)
        # The finite part is posed in the B-frame: its B is diag(+-1) exactly.
        np.testing.assert_array_equal(a.j, [1.0, 1.0, -1.0, -1.0])
        np.testing.assert_allclose(a.pos_values, ref.pos_values, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(a.neg_values, ref.neg_values, rtol=1e-6, atol=1e-8)


def test_diagonal_psd_criterion_matches_definiteness():
    # For diagonal frames, PSD <=> min positive-type >= max negative-type.
    rng = np.random.default_rng(23)
    for _ in range(25):
        pos = rng.uniform(-2, 2, size=2)
        neg = rng.uniform(-2, 2, size=2)
        pair = pt.pair_from_arrays(
            np.diag(np.concatenate([pos, -neg])), np.diag([1.0, 1.0, -1.0, -1.0])
        )
        rep = pt.analysis_definiteness(pt.analyze_pair(pair))
        assert rep.is_psd_pair == bool(pos.min() >= neg.max() - 1e-12)
        assert rep.is_nsd_pair == bool(pos.max() <= neg.min() + 1e-12)



@pytest.mark.parametrize("lam0", [0.0, 1e-4, 0.3])
@pytest.mark.parametrize("big", [10.0, 1e6])
def test_jordan_pair_beside_a_large_eigenvalue(lam0, big):
    # eig splits the Jordan block at lam0 by about sqrt(eps) times the
    # pencil's size, into real or conjugate copies; they still count as one
    # real copy of each type, whatever the size of the other eigenvalue.
    A = np.array([[0.0, lam0, 0.0], [lam0, 1.0, 0.0], [0.0, 0.0, big]])
    B = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for seed in range(3):
        pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seed, 4.0)
        spec = analyze_pair(pair)
        assert not spec.has_complex
        np.testing.assert_allclose(spec.pos_values, [lam0, big], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(spec.neg_values, [lam0], rtol=0, atol=1e-9)


def test_jordan_pair_in_a_tiny_spectrum_shares_one_cluster():
    # Jordan block at 0 beside a simple eigenvalue 7.6e-7: roundoff splits
    # the block by up to 1e-8, far beyond type_tol relative to the spectrum,
    # yet its two copies form one cluster at their mean.
    specs = [BlockSpec("Tr", p=2, alpha=0.0, eta=1), BlockSpec("Tr", p=1, alpha=7.6e-7, eta=-1)]
    for seed in range(4):
        pair, _ = assemble(specs, scramble_seed=seed, conditioning_cap=2.5)
        spec = analyze_pair(pair)
        np.testing.assert_allclose(spec.pos_values, [0.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.neg_values, [0.0, 7.6e-7], rtol=1e-8, atol=1e-12)


def _tr(p, alpha, eta):
    return BlockSpec("Tr", p=p, alpha=alpha, eta=eta)


@pytest.mark.parametrize(
    "specs, verdict",
    [
        ([_tr(2, 0.3, 1), _tr(2, 0.3, -1)], ("NegInfinite", "NotSemidefinitePair")),
        ([_tr(2, 0.3, 1), _tr(1, 0.0, 1)], ("NegInfinite", "NotSemidefinitePair")),
        ([_tr(2, 0.3, 1), _tr(1, 0.8, 1), _tr(1, -0.2, -1)], ("Finite", None)),
    ],
    ids=["opposite-blocks", "indefinite", "boundary"],
)
def test_jordan_copies_pair_whatever_the_definiteness(monkeypatch, specs, verdict):
    # The isotropic copies of a Jordan block pair up within their cluster,
    # whether or not the pair is semidefinite there, without an eigenvalue
    # solve of A - t*B; the definiteness gate alone decides the verdict.
    for seed in range(4):
        pair, truth = assemble(specs, scramble_seed=seed, conditioning_cap=2.5)
        calls = count_eigen_kernels(monkeypatch)
        spec = analyze_pair(pair)
        assert calls.count("eigvalsh") == 0, calls
        monkeypatch.undo()
        assert spec.has_jordan and not spec.isotropic_defect
        rep = pt.analysis_definiteness(spec)
        assert (rep.is_psd_pair, rep.is_nsd_pair) == (truth.psd, truth.nsd)
        ib = truth.inertia_B
        hat = pt.pair_from_arrays(
            np.diag([0.5] * ib.n_plus + [0.4] * ib.n_minus),
            np.diag([1.0] * ib.n_plus + [-1.0] * ib.n_minus),
        )
        res = pt.infimum(pt.ProblemInstance(pair=pair, hat_pair=hat))
        assert (res.verdict, res.reason) == verdict


def test_close_eigenvalues_of_a_large_pencil_stay_distinct():
    # 80 eigenvalues in [1, 2], two of them 5e-7 apart.  The cluster gap is
    # relative to the largest eigenvalue, not to the Frobenius norm of the
    # finite part, which grows with sqrt(n) and would merge the two.
    vals = np.linspace(1.0, 2.0, 80)
    vals[1] = vals[0] + 5e-7
    pair, _ = pt.random_congruence(pt.pair_from_arrays(np.diag(vals), np.eye(80)), 0, 2.0)
    spec = analyze_pair(pair)
    assert len(spec.pos_values) == 80
    np.testing.assert_allclose(spec.pos_values[:2], vals[:2], rtol=0, atol=1e-10)


def _solved(monkeypatch, pair):
    """analyze_pair of ``pair``, the kernels it called and its route."""
    calls = count_eigen_kernels(monkeypatch)
    a = analyze_pair(pair)
    monkeypatch.undo()
    return a, calls, a.route


def _definite_pair(pos, neg, seed, cond):
    """The pair of typed values ``pos`` and ``neg`` (a -1 direction carries
    -value) under a congruence Y of condition ``cond``: Y = U diag(s) V, U and
    V Haar unitaries and s log-spaced in [cond^-1/2, cond^1/2]."""
    rng = np.random.default_rng(seed)
    n = len(pos) + len(neg)
    A = np.diag(list(pos) + [-v for v in neg]).astype(complex)
    B = np.diag([1.0] * len(pos) + [-1.0] * len(neg)).astype(complex)
    s = np.logspace(-0.5, 0.5, n) ** np.log10(cond)
    Y = pt.matcore.haar_unitary(n, rng) @ np.diag(s) @ pt.matcore.haar_unitary(n, rng)
    return pt.pair_from_arrays(Y.conj().T @ A @ Y, Y.conj().T @ B @ Y, herm_tol=np.inf)


@pytest.mark.parametrize("pair", [
    k2_pair(0.3),
    k2_pair(1.0),
    *(assemble([_tr(2, 0.3, 1)], scramble_seed=seed, conditioning_cap=2.5)[0] for seed in range(3)),
], ids=["k2(0.3)", "k2(1)", "Tr2-seed0", "Tr2-seed1", "Tr2-seed2"])
def test_jordan_pair_at_the_midpoint_shift_goes_to_eig(monkeypatch, pair):
    # The diagonal of the finite part centres its shift interval on the Jordan
    # value, where A - t*B is singular; Cholesky succeeds there by roundoff, and
    # the eigenvalue at the shift sends the pair on to eig, which pairs the copies.
    a, calls, route = _solved(monkeypatch, pair)
    lam0 = 0.3 if np.allclose(a.pos_values, 0.3, atol=1e-6) else 1.0
    assert "cholesky" in calls and route == "eig", calls
    assert np.concatenate([a.pos_jordan, a.neg_jordan]).tolist() == [True, True]
    np.testing.assert_allclose(np.concatenate([a.pos_values, a.neg_values]), lam0, atol=1e-6)


def test_definite_pair_with_an_eigenvalue_at_the_shift_goes_to_eig(monkeypatch):
    # Definite, but 1e-6 from the midpoint shift 0: inside sqrt(type_tol) *
    # (|Ã|_F + |t|), where the Cholesky factor is too close to singular to trust.
    pair = pt.pair_from_arrays(np.diag([1e-6, 1.0, 1e-6, 1.0]), np.diag([1.0, 1.0, -1.0, -1.0]))
    a, calls, route = _solved(monkeypatch, pair)
    assert "cholesky" in calls and route == "eig", calls
    np.testing.assert_allclose(a.pos_values, [1e-6, 1.0], rtol=1e-12)
    np.testing.assert_allclose(a.neg_values, [-1.0, -1e-6], rtol=1e-12)


def test_definite_pair_with_a_cluster_goes_to_eig(monkeypatch):
    # Two values 1e-9 apart share a cluster, which takes their mean on the eig
    # route; the definite solve would keep them apart, so it sends the pair on.
    pair = _definite_pair([1.0, 1.0 + 1e-9, 2.0], [-1.0], 0, 2.0)
    a, calls, route = _solved(monkeypatch, pair)
    assert "cholesky" in calls and route == "eig", calls
    assert a.pos_values[0] == a.pos_values[1]
    np.testing.assert_allclose(a.pos_values, [1.0, 1.0, 2.0], rtol=1e-8)


def test_definite_pair_under_an_ill_conditioned_congruence_keeps_its_types(monkeypatch):
    # The shift is read off the diagonal of the pair, which a congruence of
    # condition 1e4 makes a poor guide; the 2x2 compressions then cut the
    # shift interval, and no seed takes the eig route.  Either way the types hold.
    pos, neg = [1.0, 1.5, 2.0], [-1.0, -0.5]
    routes = {}
    for seed in range(6):
        pair = _definite_pair(pos, neg, seed, 1e4)
        a, _, routes[seed] = _solved(monkeypatch, pair)
        np.testing.assert_allclose(a.pos_values, pos, rtol=0, atol=1e-7)
        np.testing.assert_allclose(a.neg_values, neg, rtol=0, atol=1e-7)
        for values, owns, dirs, sign in ((a.pos_values, a.pos_owns, a.pos_dirs, 1.0),
                                         (a.neg_values, a.neg_owns, a.neg_dirs, -1.0)):
            assert owns.all() and dirs.shape[1] == len(values)
            for d in dirs.T:
                assert np.real(d.conj() @ pair.B.entries @ d) == pytest.approx(sign, abs=1e-6)
    assert [s for s, r in routes.items() if r != "eig"] == [0, 1, 2, 3, 4, 5], routes


def test_definite_pairs_of_an_ill_conditioned_congruence_take_no_eig(monkeypatch):
    # A congruence of condition 1e4 defeats the diagonal shift; the 2x2
    # compressions cut its interval to a shift that passes, so no eig runs.
    for seed in range(10):
        pair = _definite_pair([1.0, 1.5, 2.0], [-1.0, -0.5], seed, 1e4)
        a, calls, route = _solved(monkeypatch, pair)
        assert route != "eig" and "eig" not in calls, (seed, calls)


def test_compression_cut_keeps_a_definite_shift_and_scales():
    # Every 2x2 compression of a definite s*A - t*B is positive definite, so
    # the cut keeps the definite interval; it scales with A and inversely with B.
    for seed in range(10):
        pair = _definite_pair([1.0, 1.5, 2.0], [-1.0, -0.5], seed, 1e4)
        A, B = pair.A.entries, pair.B.entries
        a, b = np.real(A.diagonal()), np.real(B.diagonal())
        lo = np.max(a[b < 0] / b[b < 0], initial=-np.inf)
        hi = np.min(a[b > 0] / b[b > 0], initial=np.inf)
        cut = _compression_cut(A, B, 1.0, lo, hi)
        # The pencil is definite exactly for -0.5 < t < 1.
        assert lo <= cut[0] <= -0.5 + 1e-9 and 1.0 - 1e-9 <= cut[1] <= hi, (seed, cut)
        scaled = _compression_cut(8.0 * A, 0.25 * B, 1.0, 32.0 * lo, 32.0 * hi)
        np.testing.assert_allclose(scaled, 32.0 * np.array(cut), rtol=1e-12)


def test_compression_cut_indices_are_cached_read_only():
    i, k, flat = _upper_pairs(7)
    assert _upper_pairs(7)[2] is flat
    np.testing.assert_array_equal(np.stack([i, k]), np.triu_indices(7, 1))
    np.testing.assert_array_equal(flat, 7 * i + k)
    for x in (i, k, flat):
        with pytest.raises(ValueError):
            x[0] = 1


@pytest.mark.parametrize(
    "n", sorted({1, 2, 80, TRI_INV_BASE - 1, TRI_INV_BASE, TRI_INV_BASE + 1, 2 * TRI_INV_BASE})
)
def test_triangular_inverse_matches_the_lu_inverse(n):
    # The block recursion inverts a Cholesky factor as the general inverse
    # does, to roundoff, and keeps it lower triangular above the base size.
    rng = np.random.default_rng(n)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    L = np.linalg.cholesky(Z @ Z.conj().T + n * np.eye(n))
    Li, ref = _tri_inv(L), np.linalg.inv(L)
    assert Li.shape == (n, n) and Li.dtype == L.dtype
    np.testing.assert_allclose(Li, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
    np.testing.assert_allclose(Li @ L, np.eye(n), rtol=0, atol=1e-13)
    if n > TRI_INV_BASE:
        assert not np.any(np.triu(Li, 1))


def test_crawford_bound_is_below_the_crawford_number():
    # On the pair route gamma(A, B) >= 1 / (|L^-1|_F^2 sqrt(1 + t^2)), from
    # the factor the solve already has; every other route records None.
    pairs = [_definite_pair([1.0, 1.5, 2.0], [-1.0, -0.5], seed, cond)
             for cond in (6.0, 1e4) for seed in range(10)]
    pairs += [p for cap in (1e2, 1e4) for prob, _ in _equal_inertia_sweep(cap, 30)
              for p in (prob.pair, prob.hat_pair)]
    bounded = 0
    for pair in pairs:
        a = analyze_pair(pair)
        if a.route != "pair-cholesky":
            assert a.crawford_bound is None
            continue
        assert 0.0 < a.crawford_bound <= crawford_number(pair), a.crawford_bound
        bounded += 1
    assert bounded >= 100, bounded


@pytest.mark.parametrize("A, B", [
    (np.diag([1.0, 3.0, -1.0]), np.diag([1.0, 0.0, -2.0])),
    (np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 0.0, -2.0])),
], ids=["singular", "shared_null"])
def test_rejected_pair_solve_types_the_finite_part(A, B):
    # A definite pair with singular B passes the pair-coordinate Cholesky and
    # fails the nonsingularity certificate (with a shared null vector s*A - t*B
    # is singular, and its Cholesky passes or fails by roundoff); the finite
    # part is then solved in B-frame coordinates, to the values 1 (type +1)
    # and 0.5 (type -1) of the diagonal pair and a congruence frame that
    # diagonalizes it.
    pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), 2, 4.0)
    a, lam, jd, res_a, res_b = diagonal_frame(pair)
    assert a.route == "frame-cholesky"
    np.testing.assert_allclose(a.pos_values, [1.0], rtol=1e-12)
    np.testing.assert_allclose(a.neg_values, [0.5], rtol=1e-12)
    assert max(res_a, res_b) <= 1e-12 * np.linalg.norm(lam)


def test_linked_conjugate_group_of_singular_block_is_skipped():
    # A complex Jordan block Tc(2) at 0.4 + 0.9i: eig splits each of its two
    # copies by roundoff into nearly parallel eigenvectors, whose cross forms
    # M are roundoff-sized, and so is every singular value of M.  At the
    # default type_tol they link nothing, and no group forms.  Where the
    # least singular value of M is below its least entry, a type_tol between
    # the two links every entry into one group of equal sides, which the SVD
    # shows to be a Jordan block: it is skipped, and no conjugate block is
    # kept.  A type_tol below the least singular value keeps both copies as
    # blocks.  The scrambles whose roundoff gives such an M are searched for.
    found = 0
    for seed in range(40):
        pair, _ = assemble([BlockSpec("Tc", p=2, alpha=0.4, beta=0.9)], scramble_seed=seed,
                           conditioning_cap=4.0)
        a = analyze_pair(pair)
        assert a.route == "eig" and len(a.complex_values) == 4 and not a.blocks
        w, Z = np.linalg.eig(a.j[:, None] * a.A_fin)
        G = Z.conj().T @ (a.j[:, None] * Z)
        M = G[np.ix_(w.imag > 0, w.imag < 0)]
        least, entry = np.linalg.svd(M, compute_uv=False)[-1], float(np.abs(M).min())
        assert np.abs(M).max() <= 1e-6
        if not least < entry:
            continue
        linked = analyze_pair(pair, pt.ToleranceSet(type_tol=(least + entry) / 2.0))
        assert len(linked.complex_values) == 4 and not linked.blocks
        assert len(analyze_pair(pair, pt.ToleranceSet(type_tol=least / 2.0)).blocks) == 2
        found += 1
    assert found >= 1, found


def test_close_eigenvalues_stay_distinct_on_the_cholesky_route(monkeypatch):
    # 80 eigenvalues of both types, two of them 5e-7 apart: above the cluster
    # gap type_tol * max|lam| + rank_tol * |Ã|_F, so the definite solve keeps them.
    pos = np.linspace(1.0, 2.0, 40)
    pos[1] = pos[0] + 5e-7
    neg = np.linspace(-2.0, -1.0, 40)
    pair = _definite_pair(pos, neg, 0, 2.0)
    a, _, route = _solved(monkeypatch, pair)
    assert route == "pair-cholesky"
    assert len(a.pos_values) == len(a.neg_values) == 40
    np.testing.assert_allclose(a.pos_values[:2], pos[:2], rtol=0, atol=1e-10)


@pytest.mark.parametrize("factor", [1e-8, 1e-6, 1e6])
def test_route_and_typed_values_scale_with_a(monkeypatch, factor):
    # Every bound of the definite route scales with A, so scaling A keeps the
    # route and scales the typed values; the Jordan pair stays on eig.
    pairs = [_definite_pair([1.0, 1.5, 2.0], [-1.0, -0.5], seed, 6.0) for seed in range(3)]
    pairs += [_definite_pair([0.5, 3.0], [], 3, 6.0), k2_pair(0.3)]
    routes = []
    for pair in pairs:
        base, _, route = _solved(monkeypatch, pair)
        scaled = pt.pair_from_arrays(factor * pair.A.entries, pair.B.entries)
        a, _, scaled_route = _solved(monkeypatch, scaled)
        assert scaled_route == route
        routes.append(route)
        for got, want in ((a.pos_values, base.pos_values), (a.neg_values, base.neg_values)):
            np.testing.assert_allclose(got, factor * want, rtol=1e-12, atol=0)
    assert routes == ["pair-cholesky"] * 4 + ["eig"]


def _diverge_certify_pairs():
    """The pairs of mixed-sign problems shaped like the benchmark's
    diverge-certify workload: orders 20, 40 and 80, congruences of condition 6."""
    rng = np.random.default_rng(80)
    for n in (20, 20, 40, 40, 80, 80):
        npl, nmi = n // 2, n - n // 2
        prob = diag_problem(
            rng.uniform(0.5, 2.0, npl), rng.uniform(-2.0, -0.5, nmi),
            -rng.uniform(0.5, 2.0, npl), rng.uniform(0.5, 2.0, nmi),
            scramble=tuple(rng.integers(2**31, size=2)),
        )
        yield from (prob.pair, prob.hat_pair)


def test_pair_route_matches_the_b_frame_route():
    # Every pair solved in its own coordinates has the types and values of
    # the B-frame route (eigh of B, then the finite part's own solve).
    routes = []
    problems = _criterion_7_problems()
    for pair in itertools.chain(*((p.pair, p.hat_pair) for p in problems), _diverge_certify_pairs()):
        a = analyze_pair(pair)
        routes.append(a.route)
        if a.route != "pair-cholesky":
            continue
        pos, neg = b_frame_spectrum(pair)
        assert (len(a.pos_values), len(a.neg_values)) == (len(pos), len(neg))
        got = np.concatenate([a.pos_values, a.neg_values])
        want = np.concatenate([pos, neg])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    assert routes.count("pair-cholesky") == 483


@pytest.mark.parametrize("A, B, route, inertia, deflated", [
    (np.diag([1.0, -1.0]), np.diag([1.0, 5e-11]), "frame-cholesky", pt.Inertia(1, 1, 0), 0),
    (np.diag([1.0, -1.0]), np.diag([1.0, 1e-9]), "pair-cholesky", pt.Inertia(2, 0, 0), 0),
    (np.diag([100.0, 1.0, 0.99e-8]), np.diag([1.0, -1.0, -0.99e-10]), "frame-cholesky",
     pt.Inertia(1, 1, 1), 1),
    (np.diag([1.0, 1.0, 1.0, 1e6]), np.diag([1.0, -1.0, 5e-11, -1.2e-10]), "eig",
     pt.Inertia(1, 1, 2), 0),
], ids=["below-rank_tol", "above-rank_tol", "common_not_null", "signs_disagree"])
def test_pair_route_keeps_the_zero_rule_of_b(A, B, route, inertia, deflated):
    # B's eigenvalue ratios lie below rank_tol, or above it.  Each pair is
    # definite, but where one lies below, B counts as singular: the
    # nonsingularity certificate of the pair route fails, and the B-frame
    # route splits off N(B), as the inertia of B alone says.
    # common_not_null: B's -0.99e-10 and A's 0.99e-8 on e3 are zero by the
    # rank_tol rules, so e3 is a common null direction and is deflated.
    # signs_disagree: 5e-11 is a zero of B, -1.2e-10 is not (rank_tol = 1e-10);
    # the finite part's values 1 and -1 lie within the cluster gap of a
    # spectrum that reaches -8.3e15, so a guard sends its solve to eig.
    pair = pt.pair_from_arrays(A, B)
    a = analyze_pair(pair)
    assert a.route == route
    assert a.b_inertia == pt.inertia(pair.B) == inertia
    assert a.deflated_dims == deflated

def test_split_infinite_classification():
    tols = pt.ToleranceSet()
    # Diagonal infinite block, positive orientation.
    pair = pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, 0.0]))
    assert analyze_pair(pair).infinite_sign == INF_PLUS
    # Mixed orientation.
    pair = pt.pair_from_arrays(np.diag([1.0, 2.0, -1.0]), np.diag([1.0, 0.0, 0.0]))
    assert analyze_pair(pair).infinite_sign == INF_MIXED
    # Chained: A restricted to N(B) is singular without a common kernel.
    pair = pt.pair_from_arrays(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.0, 1.0])
    )
    assert pt.analyze_pair(pair, tols).coupled
    assert analyze_pair(pair).infinite_sign == INF_COUPLED


def test_chained_pair_is_untyped_without_an_eigensolve(monkeypatch):
    # No finite part splits off a chained pair, so nothing is typed or solved.
    pair = pt.pair_from_arrays(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.0, 1.0]))
    calls = count_eigen_kernels(monkeypatch)
    spec = pt.analyze_pair(pair)
    assert calls.count("eig") == 0, calls
    assert len(spec.pos_values) == len(spec.neg_values) == 0 and spec.complex_values == ()
    assert spec.pos_dirs.shape[1] == spec.neg_dirs.shape[1] == 0
    assert spec.isotropic_defect and spec.infinite_sign == INF_COUPLED


def test_split_infinite_schur_reduction_invariant():
    # Scrambled T-r(1) + T-inf(1): the split must recover the finite eigenvalue.
    base = pt.pair_from_arrays(np.diag([3.0, 1.0]), np.diag([1.0, 0.0]))
    for seed in range(6):
        scr, _ = pt.random_congruence(base, seed, 6.0)
        spec = analyze_pair(scr)
        assert spec.infinite_sign == INF_PLUS
        np.testing.assert_allclose(spec.pos_values, [3.0], rtol=1e-8)


def test_congruent_diagonalize_already_canonical():
    pair = pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]))
    a, lam, jd, res_a, res_b = diagonal_frame(pair)
    np.testing.assert_allclose(jd, [1.0, -1.0])
    np.testing.assert_allclose(np.diag(lam), [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(a.pos_values, [1.0], atol=1e-12)
    np.testing.assert_allclose(a.neg_values, [-2.0], atol=1e-12)
    assert res_a <= 1e-10 and res_b <= 1e-10


def test_congruent_diagonalize_golden_hat():
    pair = pt.pair_from_arrays(golden_hat_matrix(), np.diag([1.0, -1.0]))
    _, lam, jd, res_a, res_b = diagonal_frame(pair)
    np.testing.assert_allclose(jd, [1.0, -1.0])
    np.testing.assert_allclose(np.diag(lam), [np.sqrt(2) / 2, np.sqrt(2) / 4], atol=1e-10)
    assert res_b < 1e-10
    assert res_a < 1e-10


@pytest.mark.parametrize("eta", (1, -1))
def test_clustered_frame_beside_a_jordan_block(eta):
    # A Jordan copy owns no direction; the typed directions beside it still
    # form a congruence frame, and the spectrum keeps both Jordan copies.
    specs = [BlockSpec("Tr", p=2, alpha=0.3, eta=eta),
             BlockSpec("Tr", p=1, alpha=1.5, eta=1), BlockSpec("Tr", p=1, alpha=-0.7, eta=-1)]
    for seed in range(6):
        pair, _ = assemble(specs, scramble_seed=seed, conditioning_cap=2.5)
        a, lam, jd, res_a, res_b = diagonal_frame(pair)
        assert len(jd) == 2
        np.testing.assert_allclose(np.diag(lam), [1.5, 0.7], rtol=1e-8)
        assert res_a <= 1e-10 and res_b <= 1e-10
        # One Jordan copy of each type.
        assert (int(np.sum(a.pos_jordan)), int(np.sum(a.neg_jordan))) == (1, 1)
        jordan = np.concatenate([a.pos_values[a.pos_jordan], a.neg_values[a.neg_jordan]])
        np.testing.assert_allclose(jordan, [0.3, 0.3], rtol=1e-6)


def test_congruent_diagonalize_scrambled_round_trip():
    rng = np.random.default_rng(31)
    # Matrix entries on negative-type directions carry -eigenvalue:
    # eigenvalues are 0.3, 1.5 (positive type) and -0.7, -2.0 (negative type).
    base = pt.pair_from_arrays(
        np.diag([0.3, 1.5, 0.7, 2.0]), np.diag([1.0, 1.0, -1.0, -1.0])
    )
    for seed in range(8):
        scr, _ = pt.random_congruence(base, seed, 8.0)
        a, _, _, res_a, res_b = diagonal_frame(scr)
        scale_b = 1 + spectral_norm(scr.B)
        scale_a = 1 + spectral_norm(scr.A)
        assert res_b <= 1e-8 * scale_b
        assert res_a <= 1e-8 * scale_a
        np.testing.assert_allclose(a.pos_values, [0.3, 1.5], rtol=1e-7)
        np.testing.assert_allclose(a.neg_values, [-2.0, -0.7], rtol=1e-7)


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
        spec = analyze_pair(scr)
        ib = pt.inertia(scr.B)
        assert len(spec.pos_values) == ib.n_plus
        assert len(spec.neg_values) == ib.n_minus


def test_clustered_frame_real_conjugate_and_null_directions():
    # One frame holds typed, conjugate-block and B-null directions:
    # T^H B T = diag(j) and T^H A T is the block diagonal the analysis records,
    # also when two identical conjugate blocks repeat an eigenvalue.
    tr = [BlockSpec("Tr", p=1, alpha=0.7, eta=1), BlockSpec("Tr", p=1, alpha=-1.3, eta=-1)]
    tc = BlockSpec("Tc", p=1, alpha=0.4, beta=0.9)
    inputs = [tr + [tc, BlockSpec("Tinf", p=1, eta=-1)], [tc, tc, tr[0]]]
    for specs, seed in itertools.product(inputs, range(6)):
        pair, truth = assemble(specs, scramble_seed=seed, conditioning_cap=5.0)
        a, _, _, res_a, res_b = diagonal_frame(pair)
        assert a.deflated_dims == 0
        np.testing.assert_allclose(a.pos_values, truth.pos, rtol=1e-8)
        np.testing.assert_allclose(a.neg_values, truth.neg, rtol=1e-8)
        np.testing.assert_allclose(np.sign(a.d_inf), truth.infinite_signs)
        upper = [(z.real, z.imag) for z in truth.complex_values if z.imag > 0]
        np.testing.assert_allclose(sorted(b[2:] for b in a.blocks), upper, atol=1e-8)
        scale = 1 + spectral_norm(pair.A) + spectral_norm(pair.B)
        assert res_b <= 1e-8 * scale
        assert res_a <= 1e-8 * scale


def test_views_read_one_analysis():
    # Analysing the pair again gives the same typed values, and the frame
    # diagonalizes the pair.
    pair, _ = pt.random_congruence(
        pt.pair_from_arrays(np.diag([3.0, 1.0, -2.0]), np.diag([1.0, 0.0, -1.0])), 4, 5.0
    )
    a = pt.analyze_pair(pair)
    assert a.b_inertia.as_tuple() == pt.inertia(pair.B).as_tuple()
    assert typed_values(analyze_pair(pair)) == typed_values(a)
    np.testing.assert_allclose(a.pos_values, [3.0], rtol=1e-8)
    np.testing.assert_allclose(a.neg_values, [2.0], rtol=1e-8)
    assert a.infinite_sign == INF_PLUS
    np.testing.assert_allclose(a.b_frame.conj().T @ pair.B.entries @ a.b_frame,
                               np.diag([1.0, -1.0, 0.0]), atol=1e-10)
    *_, res_a, res_b = diagonal_frame(pair)
    assert res_a <= 1e-8 and res_b <= 1e-8


@pytest.mark.parametrize("specs", [
    [BlockSpec("Tr", p=2, alpha=0.3, eta=1), BlockSpec("Tc", p=1, alpha=0.4, beta=0.9),
     BlockSpec("Tr", p=1, alpha=1.5, eta=1), BlockSpec("Tinf", p=1, eta=-1)],
    [BlockSpec("Tr", p=2, alpha=-0.6, eta=-1), BlockSpec("Tr", p=1, alpha=-1.1, eta=-1),
     BlockSpec("Tr", p=1, alpha=0.8, eta=1), BlockSpec("Tinf", p=1, eta=1)],
], ids=["jordan-conjugate-null", "jordan-typed-null"])
def test_one_typed_list_carries_the_frame_columns(specs):
    # Each typed value is listed once, and each that owns a frame column has
    # one column of its type's direction matrix: a direction of B-form +1 or
    # -1 by type in the pair's coordinates; a Jordan copy owns none.
    for seed in range(4):
        pair, truth = assemble(specs, scramble_seed=seed, conditioning_cap=2.5)
        a = pt.analyze_pair(pair)
        B = pair.B.entries
        for owns, dirs, sign in ((a.pos_owns, a.pos_dirs, 1.0), (a.neg_owns, a.neg_dirs, -1.0)):
            assert dirs.shape[1] == np.sum(owns)
            for d in dirs.T:
                assert abs(d.conj() @ B @ d - sign) <= 1e-8 * (1 + spectral_norm(pair.B))
        jordan = np.concatenate([a.pos_jordan, a.neg_jordan])
        owns = np.concatenate([a.pos_owns, a.neg_owns])
        assert np.sum(jordan) == 2 and not np.any(jordan & owns)
        assert len(a.blocks) == len(truth.complex_values) // 2
        assert len(a.d_inf) == len(truth.infinite_signs) == 1
        assert typed_values(pt.analyze_pair(pair)) == typed_values(a)


def test_cluster_types_as_the_per_entry_loop_does():
    # On every eig-route pair of the criterion-7 problems and of Jordan,
    # repeated, conjugate and odd-isotropic assemblies, the typed arrays hold
    # exactly the entries a loop over clusters and entries builds: the same
    # values, types and flags in the same order, and the same
    # directions, bit for bit.  A Jordan block beside a simple eigenvalue at
    # its value makes one cluster of a direction and two copies.
    specs = [[_tr(2, 0.3, 1), _tr(1, 1.5, 1), _tr(1, -0.7, -1)], [_tr(3, 0.5, 1)],
             [_tr(2, 0.3, 1), _tr(2, 0.3, -1)], [_tr(1, 1.0, 1), _tr(1, 1.0, 1), _tr(1, 1.0, -1)],
             [_tr(2, 0.3, 1), _tr(1, 0.3, 1), _tr(1, -1.0, -1)],
             [_tr(2, 0.3, 1), _tr(1, 0.3, -1), _tr(1, 1.0, 1)],
             [BlockSpec("Tc", p=1, alpha=0.4, beta=0.9), _tr(2, -0.6, -1), _tr(1, 0.8, 1)]]
    assembled = (assemble(sp, scramble_seed=seed, conditioning_cap=4.0)[0]
                 for sp in specs for seed in range(3))
    problems = _criterion_7_problems()
    checked = jordan = 0
    for pair in itertools.chain(*((p.pair, p.hat_pair) for p in problems), assembled):
        a = analyze_pair(pair)
        if a.route != "eig":
            continue
        j = a.j
        w, Z0 = np.linalg.eig(j[:, None] * a.A_fin)
        G = Z0.conj().T @ (j[:, None] * Z0)
        Z, scale = a.finite_frame() @ Z0, float(np.linalg.norm(a.A_fin)) or 1.0
        typed, _ = _cluster(w, Z, G, a.tols, scale)
        got = _by_type(*typed)
        entries = cluster_entries(w, Z, G, a.tols, scale)
        for k, positive in ((0, True), (1, False)):
            want = [e for e in entries if e[1] is positive]
            values, flags, dirs, owns = got[k], got[2 + k], got[4 + k], got[6 + k]
            assert values.tolist() == [e[0] for e in want]
            assert flags.tolist() == [e[3] for e in want]
            assert owns.tolist() == [e[4] is not None for e in want]
            cols = [e[4] for e in want if e[4] is not None]
            assert np.array_equal(dirs, np.column_stack(cols) if cols else dirs[:, :0])
        checked += 1
        jordan += any(e[3] for e in entries)
    assert checked >= 200 and jordan >= 60, (checked, jordan)


def test_overflowing_finite_part_is_non_finite_error():
    # Every entry is finite, but in B-frame coordinates A scales by
    # 1/|d| = 1e160 and the finite part overflows: a typed error, no warning.
    pair = pt.pair_from_arrays(np.diag([1e153, 2e153]), np.diag([1e-160, -1e-160]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="finite part of the pair overflows"):
            pt.analyze_pair(pair)


def test_records_holding_arrays_compare_by_identity():
    # HermitianMatrix, MatrixPair, ProblemInstance, PairAnalysis and
    # WitnessFamily hold arrays: equality is identity and each is hashable,
    # also for equal-valued instances built separately.
    def records():
        problem = pt.problem_from_arrays(
            np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), np.diag([-1.0, -1.0]), np.diag([1.0, -1.0])
        )
        family = pt.build_witness(problem, pt.infimum(problem))
        return problem.pair.A, problem.pair, problem, pt.analyze_pair(problem.pair), family

    for first, second in zip(records(), records()):
        assert first == first and first != second
        assert len({first, second, first}) == 2


# Open defects of the pair analysis, each pinned on a fixed input; each test
# passes once the ROADMAP item named in its reason fixes it.


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: _cluster merges 1 and -1 beside -8.3e15, as type_tol*max|value| "
    "= 8.3e8 exceeds their gap (ROADMAP item 8)"
))
def test_cluster_keeps_unit_values_apart_beside_a_huge_one():
    a = analyze_pair(pt.pair_from_arrays(
        np.diag([1.0, 1.0, 1.0, 1e6]), np.diag([1.0, -1.0, 5e-11, -1.2e-10])
    ))
    assert a.pos_values == pytest.approx([1.0])
    assert a.neg_values == pytest.approx([-1e6 / 1.2e-10, -1.0])


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: s*(t + 1/mu) cancels for a shift far from a small eigenvalue, "
    "1.99999994 for 2 (ROADMAP item 5)"
))
def test_value_beside_a_tiny_b_entry_is_accurate():
    a = analyze_pair(pt.pair_from_arrays(np.diag([2.0, 0.5]), np.diag([1.0, 1e-9])))
    assert min(a.pos_values) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "FOUND: a real Jordan block of order 3 is split by roundoff into "
    "complex eigenvalues (ROADMAP item 20)"
))
@pytest.mark.parametrize("seed", range(5))
def test_real_jordan_block_of_order_3_has_no_complex_values(seed):
    pair, _ = assemble([BlockSpec("Tr", p=3, alpha=0.5, eta=1)], seed, conditioning_cap=4.0)
    assert analyze_pair(pair).complex_values == ()

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
    analyze_pair,
)

from pencil_tracemin.errors import NonFiniteError
from pencil_tracemin.genpairs import BlockSpec, assemble

from conftest import count_eigen_kernels, golden_hat_matrix, k2_pair, rand_hermitian, spectral_norm
from reference import deflate_common_nullspace


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
    typed = [e for e in a.pos + a.neg if e.direction is not None]
    sign = [1.0 if e.eig_type == "positive" else -1.0 for e in typed]
    T = np.column_stack([e.direction for e in typed] + [c for b in a.blocks for c in b[:2]]
                        + list(a.null_frame().T))
    lam = block_diag(np.diag([s * e.value for s, e in zip(sign, typed)]), *(
        [[x, -1j * y], [1j * y, -x]] for *_, x, y in a.blocks), np.diag(np.sign(a.d_inf)))
    jd = np.concatenate([sign, np.tile([1.0, -1.0], len(a.blocks)), np.zeros(len(a.d_inf))])
    res = [float(np.linalg.norm(T.conj().T @ M.entries @ T - F, 2))
           for M, F in ((pair.A, lam), (pair.B, np.diag(jd)))]
    return (a, lam, jd, *res)


def typed_values(a):
    """The typed values of an analysis, as equality compares them (directions aside)."""
    return a.pos, a.neg, a.complex_values


def b_frame_of(B):
    """analyze_pair of (I, B) and the residual ||W^H B W - diag(j, 0)||_2 of its B-frame W."""
    a = pt.analyze_pair(pt.pair_from_arrays(np.eye(len(B)), B))
    W = a.b_frame
    jd = np.concatenate([a.j, np.zeros(W.shape[1] - len(a.j))])
    return a, float(np.linalg.norm(W.conj().T @ B @ W - np.diag(jd), 2))


def test_eigh_examples():
    a, res = b_frame_of(np.diag([3.0, 1.0]))
    assert a.b_inertia == pt.Inertia(2, 0, 0) and res <= 1e-15
    # Columns in ascending eigenvalue order: e2 (eigenvalue 1), then e1 / sqrt(3).
    np.testing.assert_allclose(np.abs(a.b_frame), [[0.0, 1.0 / np.sqrt(3.0)], [1.0, 0.0]])
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
    assert len(spec.pos) == 1 and len(spec.neg) == 1
    assert spec.pos[0].jordan_pair and spec.neg[0].jordan_pair
    assert spec.pos[0].value == pytest.approx(0.3, abs=1e-7)
    assert spec.neg[0].value == pytest.approx(0.3, abs=1e-7)


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
    assert len(spec.pos) == 80
    np.testing.assert_allclose(spec.pos_values[:2], vals[:2], rtol=0, atol=1e-10)

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
    assert spec.pos == spec.neg == spec.complex_values == ()
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
        jordan = [(e.value, e.eig_type) for e in a.pos + a.neg if e.jordan_pair]
        assert sorted(t for _, t in jordan) == ["negative", "positive"]
        np.testing.assert_allclose([v for v, _ in jordan], [0.3, 0.3], rtol=1e-6)


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
        assert len(spec.pos) == ib.n_plus
        assert len(spec.neg) == ib.n_minus


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
    # Each typed value is listed once, with the frame column it owns: a
    # direction of B-form +1 or -1 by type in the pair's coordinates; a
    # Jordan copy owns none.
    for seed in range(4):
        pair, truth = assemble(specs, scramble_seed=seed, conditioning_cap=2.5)
        a = pt.analyze_pair(pair)
        B = pair.B.entries
        for es, sign in ((a.pos, 1.0), (a.neg, -1.0)):
            for d in (e.direction for e in es if e.direction is not None):
                assert abs(d.conj() @ B @ d - sign) <= 1e-8 * (1 + spectral_norm(pair.B))
        jordan = [e for e in a.pos + a.neg if e.jordan_pair]
        assert len(jordan) == 2 and all(e.direction is None for e in jordan)
        assert len(a.blocks) == len(truth.complex_values) // 2
        assert len(a.d_inf) == len(truth.infinite_signs) == 1
        assert typed_values(pt.analyze_pair(pair)) == typed_values(a)


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

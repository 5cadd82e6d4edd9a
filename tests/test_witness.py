import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.cli import EXIT_NO_WITNESS, main
from pencil_tracemin.errors import (
    CertificationFailedError,
    NonFiniteError,
    NoWitnessConstructibleError,
)
from pencil_tracemin.genpairs import BlockSpec, assemble, block
from pencil_tracemin.spectral import TRI_INV_BASE
from pencil_tracemin.tracemin import FINITE, NEG_INFINITE, infimum
from pencil_tracemin.witness import (
    COMPLEX_BLOCK_SLOPE,
    INFINITE_BLOCK_RAY,
    MIXED_SIGN_SLOPE,
    SIGMA_IDENTITY,
    SIGMA_QUARTIC,
    SIGMA_SQUARE,
    T_GROWTH,
    _finish_family,
    _planes,
    _ray_witness,
    _rotation_witness,
    _sigma,
    build_witness,
    certify_unbounded,
    evaluate_witness,
)
from pencil_tracemin.witness import _sides as side_matrices

from conftest import count_eigen_kernels, diag_problem, k2_pair, pencil_solves


def _trend_ok(family, ts=(0.0, 1.0, 10.0, 100.0)):
    for t in ts:
        X, tr = evaluate_witness(family, t)
        want = family.slope * t * t + family.offset
        assert abs(tr - want) <= 1e-6 * (1 + abs(family.slope) * t * t + abs(family.offset))
        resid = pt.feasibility_residual(family.problem, X)
        assert resid <= 1e-6 * (1 + t * t)


def test_mixed_sign_slope_value():
    # Typed eigenvalues: big (1, -2), hat (-1, 2):
    # slope = (lhat+ - lhat-)(l+ - l-) = (-3)(3) = -9.
    prob = diag_problem([1.0], [-2.0], [-1.0], [2.0])
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    fam = build_witness(prob, res)
    assert fam.kind == MIXED_SIGN_SLOPE
    assert fam.slope == pytest.approx(-9.0, abs=1e-10)
    _trend_ok(fam)


@pytest.mark.parametrize("n", [20, 40])
def test_infimum_witness_kernel_count(monkeypatch, n):
    # build_witness reads the frames infimum built: one pencil solve per pair,
    # a Cholesky and its eigh as both pairs are definite, and no other eigh
    # than B's where a pair falls back to its B-frame (none here).
    # The definiteness confirmation reads a pair-route Ã off its diagonal, so
    # only a B-frame pair's admitted side runs an eigvalsh.
    rng = np.random.default_rng(n)
    npl, nmi = n // 2, n - n // 2
    prob = diag_problem(
        rng.uniform(0.5, 2.0, npl), rng.uniform(-2.0, -0.5, nmi),
        -rng.uniform(0.5, 2.0, npl), rng.uniform(0.5, 2.0, nmi), scramble=(n, n + 1),
    )
    calls = count_eigen_kernels(monkeypatch)
    res = infimum(prob)
    fam = build_witness(prob, res)
    assert res.verdict == NEG_INFINITE
    assert pencil_solves(calls) == 2, calls
    assert calls.count("eig") == 0, calls
    assert calls.count("eigh") <= 4, calls
    # At n = 40 the pair's diagonal shift fails its Cholesky, and the shift
    # from its 2x2 compressions passes.
    routes = [res.analysis.route, res.hat_analysis.route]
    assert routes == ["pair-cholesky"] * 2
    assert calls.count("eigh") == 2 + routes.count("frame-cholesky"), calls
    assert calls.count("eigvalsh") == routes.count("frame-cholesky"), calls
    # Each solve inverts its triangular factor by block recursion: no
    # general inverse of an order above the recursion's base size.
    assert 0 < max(calls.inv_orders) <= TRI_INV_BASE, calls.inv_orders
    assert fam.kind == MIXED_SIGN_SLOPE
    _trend_ok(fam, ts=(0.0, 1.0, 10.0))
    # The certificate's residual is a Frobenius norm: no SVD.
    certify_unbounded(fam, -1e6, 1e4)
    assert calls.count("svd") == 0, calls


def _sides(analysis):
    """The (direction, value) lists of a pair's +1 and -1 typed entries that own a direction."""
    a = analysis
    return [list(zip(dirs.T, values[owns].tolist()))
            for values, owns, dirs in ((a.pos_values, a.pos_owns, a.pos_dirs),
                                       (a.neg_values, a.neg_owns, a.neg_dirs))]


def _padded(typed, count):
    """(value, is_real) items of a hat list padded with zeros to ``count``."""
    return [(v, True) for _, v in typed] + [(0.0, False)] * (count - len(typed))


def _assignment_problem():
    """A mixed-sign problem with nhat < n, whose pairs' +1/-1 direction matrices
    are returned as (problem, big, hat)."""
    prob = diag_problem([1.0, 2.0, 3.0], [-1.0, -2.0], [-1.5, -0.5], [2.5], scramble=(3, 4))
    res = infimum(prob)
    big = tuple(d for _, d in side_matrices(res.analysis))
    hat = tuple(d for _, d in side_matrices(res.hat_analysis))
    return prob, big, hat


@pytest.mark.parametrize("rot", [
    (2, 1, 1, 0, 1.0, -1.0),  # both hat columns rotate; the phase w on mhat's image
    (0, 1, 2, 0, 1.0, 1.0),  # phat is a padded +1 hat value, a zero column
])
def test_finish_family_base_is_the_static_assignment(rot):
    # x_base = L R^H: the hat columns, +1 then -1 and each in order, against
    # their images; phat maps to p and mhat to w m, and the other hat columns
    # map in order onto the big columns of their type that p and m leave.
    prob, big, hat = _assignment_problem()
    p, m, phat, mhat, u, w = rot
    # A phat past the +1 hat columns names a padded value: zero columns up to it.
    hat = (np.hstack([hat[0], np.zeros((prob.nhat, phat + 1 - hat[0].shape[1]))]), hat[1])
    images, R = [], np.hstack(hat)
    for big_dirs, hat_dirs, big_col, hat_col in zip(big, hat, (p, m), (phat, mhat)):
        free = iter(k for k in range(big_dirs.shape[1]) if k != big_col)
        images += [big_dirs[:, big_col if c == hat_col else next(free)] for c in range(hat_dirs.shape[1])]
    R[:, hat[0].shape[1] + mhat] *= np.conj(w)
    L = np.column_stack(images)
    fam = _finish_family(MIXED_SIGN_SLOPE, prob, big, hat, rot, -1.0, SIGMA_IDENTITY)
    assert np.array_equal(fam.x_base, L @ R.conj().T)
    X, _ = evaluate_witness(fam, 0.0)
    assert np.array_equal(X, fam.x_base)
    assert fam.offset == pt.tracemin._objective(prob, fam.x_base)


def test_finish_family_needs_a_big_column_for_each_static_hat_column():
    # Four +1 hat columns, one of them rotated onto p, leave three static ones
    # for the two +1 big columns that p does not take.
    prob, big, hat = _assignment_problem()
    hat = (np.hstack([hat[0], hat[0]]), hat[1])
    with pytest.raises(NoWitnessConstructibleError, match="^insufficient directions for assignment$"):
        _finish_family(MIXED_SIGN_SLOPE, prob, big, hat, (0, 0, 0, 0, 1.0, 1.0), -1.0, SIGMA_IDENTITY)


def test_padded_pair_is_the_greatest_hat_gap_but_not_the_steepest():
    # Hat values -0.5 | 0.5 padded to the inertia (3, 2) of B: +1 side
    # (-0.5, 0, 0), -1 side (0.5, 0).  Every gap with a real value is
    # negative, so the two padded zeros (gap 0) are the greatest gap.  The
    # least hat gap -1 against the greatest big gap 3 - (-2) = 5 still sets
    # the slope -5.
    prob = diag_problem([1.0, 2.0, 3.0], [-1.0, -2.0], [-0.5], [0.5], scramble=(3, 4))
    res = infimum(prob)
    assert res.reason == "MixedSigns"
    (pos, _), (neg, _) = side_matrices(res.hat_analysis, (2, 1))
    least, greatest = _planes(res.hat_analysis.blocks, pos, neg)
    assert least[:2] == (0, 0) and least[2] + least[4] == pytest.approx(-1.0, rel=1e-12)
    assert greatest[:2] == (1, 1) and greatest[2] + greatest[4] == 0.0
    fam = build_witness(prob, res)
    assert fam.kind == MIXED_SIGN_SLOPE
    assert fam.slope == pytest.approx(-5.0, rel=1e-12)
    assert certify_unbounded(fam, -1e6, 1e4).feas_residual <= 1e-6
    _trend_ok(fam)


def test_mixed_sign_slope_matches_brute_force():
    # The least dhat * (bv_p - bv_m) by exhaustive search over hat pairs (two
    # padded zeros make no pair) and big pairs of typed values.
    rng = np.random.default_rng(4)
    checked = 0
    for trial in range(100):
        npl, nmi = (int(k) for k in rng.integers(1, 4, size=2))
        hpl, hmi = int(rng.integers(0, npl + 1)), int(rng.integers(0, nmi + 1))
        if hpl + hmi == 0:
            hpl = 1
        prob = diag_problem(
            rng.uniform(-2.0, 2.0, npl), rng.uniform(-2.0, 2.0, nmi),
            rng.uniform(-2.0, 2.0, hpl), rng.uniform(-2.0, 2.0, hmi),
            scramble=(trial, trial + 1000),
        )
        res = infimum(prob)
        if res.verdict != NEG_INFINITE:
            continue
        big_pos, big_neg = _sides(res.analysis)
        hat_pos, hat_neg = _sides(res.hat_analysis)
        hp = _padded(hat_pos, len(big_pos))
        hm = _padded(hat_neg, len(big_neg))
        brute = min(
            (hv - gv) * (bv_p - bv_m)
            for hv, h_real in hp
            for gv, g_real in hm
            if h_real or g_real
            for _, bv_p in big_pos
            for _, bv_m in big_neg
        )
        fam = build_witness(prob, res)
        assert fam.kind == MIXED_SIGN_SLOPE
        assert fam.slope == pytest.approx(brute, rel=1e-9), trial
        checked += 1
    assert checked >= 30


def test_mixed_sign_witness_t_evaluation():
    prob = diag_problem([1.0], [-2.0], [-1.0], [2.0])
    fam = build_witness(prob, infimum(prob))
    _, tr10 = evaluate_witness(fam, 10.0)
    assert tr10 == pytest.approx(fam.offset - 900.0, rel=1e-10)
    # Doubling t quadruples the decrement.
    _, tr1 = evaluate_witness(fam, 1.0)
    _, tr2 = evaluate_witness(fam, 2.0)
    dec1 = fam.offset - tr1
    dec2 = fam.offset - tr2
    assert dec2 == pytest.approx(4.0 * dec1, rel=1e-9)


def test_complex_block_slope_value():
    # Conjugate blocks on both sides with alpha = 0, beta = 1:
    # trace(t) = -2 - 4 t^2.
    Tc = np.array([[0.0, 1j], [-1j, 0.0]])
    F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    prob = pt.problem_from_arrays(Tc, F2, Tc, F2)
    res = infimum(prob)
    fam = build_witness(prob, res)
    assert fam.kind == COMPLEX_BLOCK_SLOPE
    assert fam.slope == pytest.approx(-4.0, abs=1e-9)
    assert fam.offset == pytest.approx(-2.0, abs=1e-9)
    _trend_ok(fam)


def test_complex_block_one_sided():
    # Hat side conjugate block against real directions, and vice versa.
    Tc = np.array([[0.0, 1j], [-1j, 0.0]])
    F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    big = diag_problem([1.0, 2.0], [-1.0], [1.0], [-0.5]).pair
    prob = pt.ProblemInstance(pair=big, hat_pair=pt.pair_from_arrays(Tc, F2))
    res = infimum(prob)
    assert res.reason == "ComplexEigenvalues"
    fam = build_witness(prob, res)
    assert fam.kind == COMPLEX_BLOCK_SLOPE
    assert fam.slope < 0
    _trend_ok(fam)

    prob2 = pt.ProblemInstance(
        pair=pt.pair_from_arrays(Tc, F2),
        hat_pair=pt.pair_from_arrays(np.diag([0.3]), np.diag([1.0])),
    )
    res2 = infimum(prob2)
    fam2 = build_witness(prob2, res2)
    assert fam2.kind == COMPLEX_BLOCK_SLOPE
    assert fam2.slope < 0
    _trend_ok(fam2)


def test_complex_hat_block_takes_the_widest_gap():
    # The big gaps pos - neg are 0 - 0.8 and 1 - 0.8; the slope -2 |gap| beta_hat
    # (beta_hat = 1 for Tc against F2) is steepest at the wider one, -0.8.
    Tc = np.array([[0.0, 1j], [-1j, 0.0]])
    F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    big = diag_problem([0.0, 1.0], [0.8], [1.0], [-0.5], scramble=(3, 4)).pair
    prob = pt.ProblemInstance(pair=big, hat_pair=pt.pair_from_arrays(Tc, F2))
    fam = build_witness(prob, infimum(prob))
    assert fam.kind == COMPLEX_BLOCK_SLOPE
    assert fam.slope == pytest.approx(-1.6, rel=1e-9)
    _trend_ok(fam)


PHASES = (1.0, 1j, -1.0, -1j)


def _every_plane(blocks, pos, neg):
    """Every (+1, -1) plane of a pair: all real pairs (a padded zero has
    direction None; two padded zeros make no pair) and all conjugate blocks."""
    planes = [(p, m) for p, _ in pos for m, _ in neg if p is not None or m is not None]
    return planes + [(b[0], b[1]) for b in blocks]


def _plane_form(H, plane):
    """The 2x2 form a^H H b of H on a plane of direction vectors; a padded
    direction has zero rows."""
    F = np.zeros((2, 2), dtype=complex)
    for i, a in enumerate(plane):
        for k, b in enumerate(plane):
            if a is not None and b is not None:
                F[i, k] = a.conj() @ H @ b
    return F


def _rotation_coefficients(F, Fh, u, w):
    """(k2, k3) with trace(Fh M^H F M) = const + k2 s^2 + k3 c s, fitted at s = 1, 2,
    for M = [[c, w s conj(u)], [s u, w c]] and c = sqrt(1 + s^2)."""

    def trace(s):
        c = np.sqrt(1.0 + s * s)
        M = np.array([[c, w * s * np.conj(u)], [s * u, w * c]])
        return float(np.real(np.trace(Fh @ M.conj().T @ F @ M)))

    lhs = np.array([[1.0, np.sqrt(2.0)], [4.0, 2.0 * np.sqrt(5.0)]])
    return np.linalg.solve(lhs, [trace(1.0) - trace(0.0), trace(2.0) - trace(0.0)])


def _block_specs(rng, blocks, plus, minus):
    """Random Tc blocks and +1 / -1 real Tr(1) blocks."""
    return (
        [BlockSpec("Tc", p=1, alpha=float(rng.uniform(-1, 1)), beta=float(rng.uniform(0.2, 1.5)))
         for _ in range(blocks)]
        + [BlockSpec("Tr", p=1, alpha=float(rng.uniform(-2, 2)), eta=1) for _ in range(plus)]
        + [BlockSpec("Tr", p=1, alpha=float(rng.uniform(-2, 2)), eta=-1) for _ in range(minus)]
    )


def test_rotation_slope_matches_brute_force():
    # The least slope over every big plane, every hat plane and all 16
    # phases, each fitted from the trace of the 2x2 rotation itself.
    rng = np.random.default_rng(10)
    checked = 0
    for trial in range(60):
        nb, npl, nmi = (int(k) for k in rng.integers(1, 3, size=3))
        hb = int(rng.integers(0, nb + 1))
        hpl, hmi = int(rng.integers(0, npl + 1)), int(rng.integers(0, nmi + 1))
        if hb + hpl + hmi == 0:
            hpl = 1
        pair, _ = assemble(_block_specs(rng, nb, npl, nmi), trial, 4.0)
        hat, _ = assemble(_block_specs(rng, hb, hpl, hmi), trial + 500, 4.0)
        prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
        res = infimum(prob)
        assert res.reason == "ComplexEigenvalues"
        big, hf = res.analysis, res.hat_analysis
        (big_pos, big_neg), (hat_pos, hat_neg) = _sides(big), _sides(hf)
        # The hat pair zero-padded to the inertia of B; each block has a +1
        # and a -1 direction.
        extra = len(big.blocks) - len(hf.blocks)
        hp = hat_pos + [(None, 0.0)] * (len(big_pos) - len(hat_pos) + extra)
        hm = hat_neg + [(None, 0.0)] * (len(big_neg) - len(hat_neg) + extra)
        brute = np.inf
        for plane in _every_plane(big.blocks, big_pos, big_neg):
            F = _plane_form(pair.A.entries, plane)
            for hat_plane in _every_plane(hf.blocks, hp, hm):
                Fh = _plane_form(hat.A.entries, hat_plane)
                for u in PHASES:
                    for w in PHASES:
                        k2, k3 = _rotation_coefficients(F, Fh, u, w)
                        # One of the two always vanishes, so the rotation's
                        # trend is exactly quadratic in t under its sigma map.
                        assert min(abs(k2), abs(k3)) <= 1e-9 * (1 + abs(k2) + abs(k3))
                        brute = min(brute, k2, k3)
        fam = build_witness(prob, res)
        assert fam.slope == pytest.approx(brute, rel=1e-9), trial
        _trend_ok(fam)
        checked += 1
    assert checked >= 40


def test_ray_under_complex_eigenvalues():
    # A chained conjugate block (Tc of order 4) owns no direction in the
    # frame, but the +1 infinite direction against the hat value -0.5 diverges.
    pair, _ = assemble(
        [BlockSpec("Tc", p=2, alpha=0.3, beta=1.0), BlockSpec("Tinf", p=1, eta=1)], 3, 4.0
    )
    prob = pt.ProblemInstance(
        pair=pair, hat_pair=pt.pair_from_arrays(np.array([[-0.5]]), np.array([[1.0]]))
    )
    res = infimum(prob)
    assert res.reason == "ComplexEigenvalues"
    fam = build_witness(prob, res)
    assert fam.kind == INFINITE_BLOCK_RAY
    assert fam.slope == pytest.approx(-0.5, rel=1e-9)
    _trend_ok(fam)


def test_real_pair_beats_a_conjugate_block():
    # Big: a block of beta 0.1 and the real pair 2 / -2 (gap 4); hat gap
    # -1 - 1 = -2.  The real planes give 4 * (-2) = -8, the block against the
    # hat pair only -2 * 0.1 * 2 = -0.4.
    pair, _ = assemble(
        [BlockSpec("Tc", p=1, alpha=0.0, beta=0.1),
         BlockSpec("Tr", p=1, alpha=2.0, eta=1),
         BlockSpec("Tr", p=1, alpha=-2.0, eta=-1)],
        5,
        4.0,
    )
    prob = pt.ProblemInstance(
        pair=pair, hat_pair=pt.pair_from_arrays(np.diag([-1.0, -1.0]), np.diag([1.0, -1.0]))
    )
    res = infimum(prob)
    assert res.reason == "ComplexEigenvalues"
    fam = build_witness(prob, res)
    assert fam.kind == MIXED_SIGN_SLOPE
    assert fam.slope == pytest.approx(-8.0, rel=1e-9)
    _trend_ok(fam)


@pytest.mark.parametrize("seed", range(10))
def test_repeated_conjugate_block_witness_certifies(seed):
    # Two identical conjugate blocks (alpha 0.4, beta 0.9) share one
    # eigenspace pair; its frame must still be a congruence.  Against the
    # widest hat gap 0.9 - (-0.6) the slope is -2 * 0.9 * 1.5 = -2.7.
    tc = BlockSpec("Tc", p=1, alpha=0.4, beta=0.9)
    pair, _ = assemble([tc, tc, BlockSpec("Tr", p=1, alpha=0.7, eta=1)], seed, 5.0)
    hat, _ = assemble(
        [BlockSpec("Tr", p=1, alpha=a, eta=e) for a, e in ((0.5, 1), (0.9, 1), (-0.3, -1), (-0.6, -1))],
        seed + 100,
        5.0,
    )
    prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
    res = infimum(prob)
    assert res.reason == "ComplexEigenvalues"
    fam = build_witness(prob, res)
    assert fam.kind == COMPLEX_BLOCK_SLOPE
    assert fam.slope == pytest.approx(-2.7, rel=1e-9)
    assert certify_unbounded(fam, -1e6, 1e4).feas_residual <= 1e-6
    _trend_ok(fam)


@pytest.mark.parametrize("eta", (1, -1))
def test_jordan_beside_conjugate_block_witness_certifies(eta):
    # The Jordan block at 0.75 gets no frame column, but the conjugate block
    # beside it (alpha 0.34, beta 0.9) still rotates against the padded hat
    # value 0.99: slope -2 * 0.9 * 0.99.
    pair_specs = [BlockSpec("Tr", p=2, alpha=0.75, eta=eta),
                  BlockSpec("Tc", p=1, alpha=0.34, beta=0.9)]
    for seed in range(10):
        pair, _ = assemble(pair_specs, seed, 2.5)
        hat, _ = assemble([BlockSpec("Tr", p=1, alpha=0.99, eta=-1)], seed, 2.5)
        prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
        res = infimum(prob)
        assert res.verdict == NEG_INFINITE
        fam = build_witness(prob, res)
        assert fam.kind == COMPLEX_BLOCK_SLOPE
        assert fam.slope == pytest.approx(-2.0 * 0.9 * 0.99, rel=1e-8)
        assert certify_unbounded(fam, -1e6, 1e4).feas_residual <= 1e-6
        _trend_ok(fam)


@pytest.mark.parametrize("eta", (1, -1))
def test_jordan_hat_pair_gets_no_rotation(eta, tmp_path):
    # The hat's Jordan copies (at 0.3) own no frame column, so no
    # rotation has a feasible base: the builder says so, and the CLI exits 7.
    hat, _ = assemble([BlockSpec("Tr", p=2, alpha=0.3, eta=eta),
                       BlockSpec("Tr", p=1, alpha=2.0, eta=1)], 1, 3.0)
    pair, _ = assemble([BlockSpec("Tr", p=1, alpha=a, eta=e)
                        for a, e in ((1.0, 1), (-1.5, 1), (3.0, 1), (0.5, -1), (2.5, -1))], 2, 3.0)
    prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    hat_pos, hat_neg = _sides(res.hat_analysis)
    assert len(hat_pos) + len(hat_neg) + 2 * len(res.hat_analysis.blocks) < prob.nhat
    with pytest.raises(NoWitnessConstructibleError, match="no frame column"):
        build_witness(prob, res)
    path = str(tmp_path / "problem.json")
    pt.matcore.save_problem(path, prob)
    assert main(["witness", path]) == EXIT_NO_WITNESS


def test_infinite_ray_slope():
    # B-nullspace block +1 against a negative hat eigenvalue -mu: slope -mu.
    mu = 0.7
    prob = pt.problem_from_arrays(
        np.diag([1.0, 1.0]), np.diag([1.0, 0.0]), np.array([[-mu]]), np.array([[1.0]])
    )
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    fam = build_witness(prob, res)
    assert fam.kind == INFINITE_BLOCK_RAY
    assert fam.slope == pytest.approx(-mu, abs=1e-10)
    _trend_ok(fam)


def test_infinite_ray_mixed():
    prob = pt.problem_from_arrays(
        np.diag([1.0, 1.0, -1.0]),
        np.diag([1.0, 0.0, 0.0]),
        np.array([[0.5]]),
        np.array([[1.0]]),
    )
    res = infimum(prob)
    assert res.reason_detail == "infinite-mixed"
    fam = build_witness(prob, res)
    assert fam.kind == INFINITE_BLOCK_RAY
    assert fam.slope == pytest.approx(-0.5, abs=1e-10)
    _trend_ok(fam)


@pytest.mark.parametrize("a_plus, kind, slope", [
    (1.2, INFINITE_BLOCK_RAY, -2.0),
    (3.0, MIXED_SIGN_SLOPE, -3.0),
])
def test_steeper_of_rotation_and_ray_is_kept(a_plus, kind, slope):
    # Big finite values (a_plus, 1) with the +1 null direction of A = 1; hat
    # values (0.5, 2).  The rotation's slope is (0.5 - 2)(a_plus - 1), the
    # ray's +1 * (-2): -0.3 or -3 against -2.
    prob = pt.problem_from_arrays(
        np.diag([a_plus, -1.0, 1.0]), np.diag([1.0, -1.0, 0.0]),
        np.diag([0.5, -2.0]), np.diag([1.0, -1.0]),
    )
    res = infimum(prob)
    assert (res.reason, res.reason_detail) == ("MixedSigns", "infinite-orientation")
    fam = build_witness(prob, res)
    assert fam.kind == kind
    assert fam.slope == pytest.approx(slope, rel=1e-12)
    big, hat = res.analysis, res.hat_analysis
    assert fam.slope == min(b(prob, big, hat).slope for b in (_rotation_witness, _ray_witness))
    _trend_ok(fam)
    cert = certify_unbounded(fam, -1e6, 1e4)
    assert cert.trace_value <= -1e6
    assert cert.feas_residual <= 1e-9


def test_chained_block_witness():
    bp = block(BlockSpec("Tinf", p=2, eta=1))
    prob = pt.problem_from_arrays(
        bp.A.entries, bp.B.entries, np.array([[1.0]]), np.array([[1.0]])
    )
    res = infimum(prob)
    assert res.reason == "CoupledInfiniteStructure"
    fam = build_witness(prob, res)
    assert fam.kind == INFINITE_BLOCK_RAY
    assert fam.slope < 0
    _trend_ok(fam)
    cert = certify_unbounded(fam, -1e6, 1e4)
    assert cert.trace_value <= -1e6
    assert cert.feas_residual <= 1e-4


def test_improper_witness_via_padding():
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0, 1.0, 2.0]),
        np.diag([1.0, 1.0, -1.0, -1.0]),
        np.diag([-0.5, -0.2, 0.7]),
        np.diag([1.0, 1.0, -1.0]),
    )
    res = infimum(prob)
    assert res.reason == "Improper"
    fam = build_witness(prob, res)
    assert fam.kind == MIXED_SIGN_SLOPE
    assert fam.slope < 0
    _trend_ok(fam)
    cert = certify_unbounded(fam, -1e6, 1e4)
    assert cert.trace_value <= -1e6


def test_certify_examples():
    Tc = np.array([[0.0, 1j], [-1j, 0.0]])
    F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    prob = pt.problem_from_arrays(Tc, F2, Tc, F2)
    fam = build_witness(prob, infimum(prob))
    # slope -4, offset -2: t around 500 reaches -1e6.
    cert = certify_unbounded(fam, -1e6, 1e4)
    assert cert.t == pytest.approx(500.0, rel=2e-2)
    assert cert.trace_value <= -1e6

    prob2 = diag_problem([1.0], [-2.0], [-1.0], [2.0])
    fam2 = build_witness(prob2, infimum(prob2))
    cert2 = certify_unbounded(fam2, -1.0, 1e4)
    assert cert2.trace_value <= -1.0

    with pytest.raises(CertificationFailedError):
        certify_unbounded(fam, -1e6, 0.0)


def test_certify_grows_t_when_the_slope_overstates_the_trend():
    # The first try steps just past t_star of the family's slope; when the
    # trace has not crossed there, t grows by T_GROWTH per try, and a slope
    # far too steep runs out of tries.
    J = np.diag([1.0, -1.0])
    prob = pt.problem_from_arrays(np.eye(2), J, -np.eye(2), J)
    fam = build_witness(prob, infimum(prob))
    assert fam.kind == MIXED_SIGN_SLOPE
    assert (fam.slope, fam.offset) == pytest.approx((-4.0, -2.0))
    # Slope -8 puts the first try at 500 / sqrt(2); the true trend crosses
    # -1e6 at t = 500, after two growths.
    cert = certify_unbounded(replace(fam, slope=2 * fam.slope), -1e6, 1e4)
    assert cert.t == pytest.approx(500.0 * T_GROWTH**2 / np.sqrt(2.0), rel=1e-5)
    assert cert.trace_value <= -1e6
    with pytest.raises(CertificationFailedError, match="did not cross the threshold"):
        certify_unbounded(replace(fam, slope=1000 * fam.slope), -1e6, 1e4)


@pytest.mark.parametrize("threshold,t_max", [
    (np.nan, 1e4), (-np.inf, 1e4), (-1e6, np.nan), (-1e6, np.inf), (-1e6, -1.0),
])
def test_certify_rejects_bad_bounds(threshold, t_max):
    prob = diag_problem([1.0], [-2.0], [-1.0], [2.0])
    fam = build_witness(prob, infimum(prob))
    with pytest.raises(ValueError, match="must be finite"):
        certify_unbounded(fam, threshold, t_max)


def test_certify_rejects_nonnegative_slope():
    prob = diag_problem([1.0], [-2.0], [-1.0], [2.0])
    fam = build_witness(prob, infimum(prob))
    for slope in (0.0, 1.0):
        with pytest.raises(CertificationFailedError, match="nonnegative slope"):
            certify_unbounded(replace(fam, slope=slope), -1e6, 1e4)


def test_evaluate_witness_rejects_negative_t():
    prob = diag_problem([1.0], [-2.0], [-1.0], [2.0])
    fam = build_witness(prob, infimum(prob))
    for t in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            evaluate_witness(fam, t)


def _mixed_sign_golden_family():
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), np.diag([-1.0, -2.0]), np.diag([1.0, -1.0])
    )
    family = build_witness(prob, infimum(prob))
    assert family.kind == MIXED_SIGN_SLOPE and family.sigma_map == SIGMA_IDENTITY
    return family


def test_evaluate_witness_far_out_is_finite_or_a_typed_error():
    # A trace beyond the floats is a NonFiniteError naming t, never a NaN,
    # an infinity or a numpy warning: at t = 1e154 the trace -9e308 overflows,
    # and from 1.3e154 so does sigma^2 in the cosh coefficient.
    family = _mixed_sign_golden_family()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X, trace = evaluate_witness(family, 1e150)
        assert np.all(np.isfinite(X))
        want = family.slope * 1e300 + family.offset
        assert abs(trace - want) <= 1e-12 * abs(want)
        for t in (1e154, 1e155, 1e200):
            with pytest.raises(NonFiniteError, match=re.escape(f"t = {t!r}")):
                evaluate_witness(family, t)
        square = replace(family, sigma_map=SIGMA_SQUARE)
        with pytest.raises(NonFiniteError):
            evaluate_witness(square, 1e160)


def test_quartic_sigma_keeps_its_trend_at_small_t():
    # sigma sqrt(1 + sigma^2) = t^2 to 4 ulp of t^2 at every scale: the
    # trend stays exactly quadratic down to t = 1e-6, where the cancelling
    # form (sqrt(1 + 4 t^4) - 1) / 2 gave sigma = 0.
    quartic = replace(_mixed_sign_golden_family(), sigma_map=SIGMA_QUARTIC)
    for t in np.geomspace(1e-6, 1e3, 451):
        s = _sigma(quartic, float(t))
        assert abs(s * math.sqrt(1.0 + s * s) - t * t) <= 4 * np.spacing(t * t), t


def test_no_witness_for_a_finite_verdict():
    prob = diag_problem([1.0], [-2.0], [1.0], [-2.0])
    res = infimum(prob)
    assert res.verdict == FINITE
    with pytest.raises(NoWitnessConstructibleError, match="not NegInfinite"):
        build_witness(prob, res)


def test_witness_refuses_an_infimum_of_another_problem():
    # build_witness reads the frames of the result's analyses; for another
    # problem's result it would mix them with this problem's matrices (a
    # family with feasibility residual 9.7e5 here) and certify nothing.  It
    # refuses the result, as minimizer and FeasibleSampler do.
    p1 = pt.problem_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]),
                                np.diag([-1.0, -1.0]), np.diag([1.0, -1.0]))
    p2 = pt.problem_from_arrays(np.diag([3.0, 5.0]), np.diag([2.0, -1.0]),
                                np.diag([-2.0, -0.5]), np.diag([1.0, -4.0]))
    res = infimum(p1)
    assert res.verdict == NEG_INFINITE
    with pytest.raises(ValueError, match="not computed for this problem"):
        build_witness(p2, res)
    # A result of a finite verdict is refused for the mismatch first.
    with pytest.raises(ValueError, match="not computed for this problem"):
        build_witness(p2, infimum(diag_problem([1.0], [-2.0], [1.0], [-2.0])))
    family = build_witness(p1, res)
    assert certify_unbounded(family, -1e6, 1e4).feas_residual <= 1e-6


def test_witness_not_constructible_for_pure_jordan():
    # Improper instance whose big pair has only coincident two-copy values:
    # the builder has no strict gap to drive a slope.
    jp = k2_pair(0.0)
    prob = pt.ProblemInstance(
        pair=jp,
        hat_pair=pt.pair_from_arrays(np.diag([-1.0]), np.diag([1.0])),
    )
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    with pytest.raises(NoWitnessConstructibleError):
        build_witness(prob, res)


def test_witness_on_scrambled_corpora():
    rng = np.random.default_rng(44)
    count = 0
    for seed in range(12):
        kind = seed % 3
        if kind == 0:
            prob = diag_problem(
                [1.0, 2.0], [-1.5], [-0.5, -1.0], [0.5], scramble=(seed, seed + 7)
            )
        elif kind == 1:
            pair = assemble(
                [
                    BlockSpec("Tc", p=1, alpha=0.2, beta=0.9),
                    BlockSpec("Tr", p=1, alpha=1.0, eta=1),
                ],
                seed,
                4.0,
            )[0]
            hat = diag_problem([0.6], [-0.4], [0.3], [-0.2]).pair
            prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
        else:
            pair = assemble(
                [
                    BlockSpec("Tinf", p=1, eta=1),
                    BlockSpec("Tinf", p=1, eta=-1),
                    BlockSpec("Tr", p=1, alpha=0.5, eta=1),
                    BlockSpec("Tr", p=1, alpha=-0.5, eta=-1),
                ],
                seed,
                4.0,
            )[0]
            hat = diag_problem([0.4], [-0.4], [0.3], [-0.3]).pair
            prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
        res = infimum(prob)
        assert res.verdict == NEG_INFINITE
        fam = build_witness(prob, res)
        cert = certify_unbounded(fam, -1e6, 1e4)
        assert cert.trace_value <= -1e6
        assert cert.feas_residual <= 1e-4
        count += 1
    assert count == 12

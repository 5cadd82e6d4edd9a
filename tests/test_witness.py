import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import CertificationFailedError, NoWitnessConstructibleError
from pencil_tracemin.genpairs import BlockSpec, assemble, block
from pencil_tracemin.tracemin import NEG_INFINITE, infimum
from pencil_tracemin.witness import (
    COMPLEX_BLOCK_SLOPE,
    INFINITE_BLOCK_RAY,
    MIXED_SIGN_SLOPE,
    build_witness,
    certify_unbounded,
    evaluate_witness,
)

from conftest import count_eigen_kernels, diag_problem, k2_pair


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
    # build_witness reads the frames infimum built: one eig per pair, and an
    # eigh only for B and for clusters of more than one eigenvalue.
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
    assert calls.count("eig") == 2, calls
    assert calls.count("eigh") <= 4, calls
    assert calls.count("eigvalsh") == 2, calls
    assert fam.kind == MIXED_SIGN_SLOPE
    _trend_ok(fam, ts=(0.0, 1.0, 10.0))


def _padded(typed, count):
    """(value, is_real) items of a hat list padded with zeros to ``count``."""
    return [(v, True) for _, v in typed] + [(0.0, False)] * (count - len(typed))


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
        big, hat = res.analysis.frame, res.hat_analysis.frame
        hp = _padded(hat.real_pos, len(big.real_pos))
        hm = _padded(hat.real_neg, len(big.real_neg))
        brute = min(
            (hv - gv) * (bv_p - bv_m)
            for hv, h_real in hp
            for gv, g_real in hm
            if h_real or g_real
            for _, bv_p in big.real_pos
            for _, bv_m in big.real_neg
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

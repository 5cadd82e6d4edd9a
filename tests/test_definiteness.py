from collections import Counter

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.definiteness import (
    _definiteness_from_spectrum,
    _lam_min,
    analysis_definiteness,
)
from pencil_tracemin.genpairs import BlockSpec, assemble
from pencil_tracemin.spectral import analyze_pair

import replay
from conftest import count_eigen_kernels, diag_problem, pencil_solves, rand_hermitian, spectral_norm
from reference import eigvalsh_definiteness, lambda_min_shift, per_shift_definiteness
from test_tracemin import _criterion_7_problems


@pytest.fixture
def simple_pair():
    return pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("shift,expected", [(0.0, 1.0), (1.0, 0.0), (2.0, -1.0)])
def test_lambda_min_shift(simple_pair, shift, expected):
    assert lambda_min_shift(simple_pair, shift) == pytest.approx(expected, abs=1e-12)


def test_interval_simple(simple_pair):
    rep = analysis_definiteness(analyze_pair(simple_pair))
    assert rep.is_psd_pair
    lo, hi = rep.psd_interval
    assert lo == pytest.approx(-2.0, abs=1e-6)
    assert hi == pytest.approx(1.0, abs=1e-6)
    assert not rep.is_nsd_pair


def test_a_equals_b_is_both(simple_pair):
    pair = pt.pair_from_arrays(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    rep = analysis_definiteness(analyze_pair(pair))
    assert rep.is_psd_pair and rep.is_nsd_pair
    # A - lam0 B = (1 - lam0) B: PSD for lam0 <= 1, NSD for lam0 >= 1.
    assert rep.psd_interval[1] == pytest.approx(1.0, abs=1e-6)
    assert rep.nsd_interval[0] == pytest.approx(1.0, abs=1e-6)


def test_conjugate_block_is_neither():
    pair = pt.pair_from_arrays(
        np.array([[0.0, 1j], [-1j, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    rep = analysis_definiteness(analyze_pair(pair))
    assert not rep.is_psd_pair and not rep.is_nsd_pair


def test_positive_definite_b_unbounded_interval():
    pair = pt.pair_from_arrays(np.diag([3.0, 5.0]), np.eye(2))
    rep = analysis_definiteness(analyze_pair(pair))
    assert rep.is_psd_pair and rep.is_nsd_pair
    assert rep.psd_interval[0] == -np.inf
    assert rep.psd_interval[1] == pytest.approx(3.0, abs=1e-6)
    assert rep.nsd_interval[0] == pytest.approx(5.0, abs=1e-6)
    assert rep.nsd_interval[1] == np.inf


def test_concavity_probe():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pair = pt.pair_from_arrays(rand_hermitian(rng, n), rand_hermitian(rng, n))
        scale = 1.0 + spectral_norm(pair.A) + spectral_norm(pair.B)
        a, b = sorted(rng.uniform(-4, 4, size=2))
        t = rng.uniform(0.05, 0.95)
        mid = t * a + (1 - t) * b
        fa = lambda_min_shift(pair, a)
        fb = lambda_min_shift(pair, b)
        fm = lambda_min_shift(pair, mid)
        assert fm >= t * fa + (1 - t) * fb - 1e-9 * scale


def test_negation_duality():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        A = rand_hermitian(rng, n)
        B = rand_hermitian(rng, n)
        rep = analysis_definiteness(analyze_pair(pt.pair_from_arrays(A, B)))
        mir = analysis_definiteness(analyze_pair(pt.pair_from_arrays(-A, -B)))
        assert rep.is_psd_pair == mir.is_nsd_pair
        assert rep.is_nsd_pair == mir.is_psd_pair


def test_interval_matches_extreme_typed_eigenvalues():
    rng = np.random.default_rng(21)
    for seed in range(8):
        pos = np.sort(rng.uniform(0.5, 3.0, size=2))
        neg = np.sort(rng.uniform(-3.0, -0.5, size=2))
        A = np.diag(np.concatenate([pos, -neg]))
        B = np.diag([1.0, 1.0, -1.0, -1.0])
        pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seed, 6.0)
        rep = analysis_definiteness(analyze_pair(pair))
        scale = 1.0 + spectral_norm(pair.A) + spectral_norm(pair.B)
        assert rep.is_psd_pair
        assert abs(rep.psd_interval[0] - neg[-1]) <= 1e-6 * scale
        assert abs(rep.psd_interval[1] - pos[0]) <= 1e-6 * scale


def test_zero_b_pair():
    zero_b = lambda a: pt.pair_from_arrays(np.diag(a), np.zeros((2, 2)))
    rep = analysis_definiteness(analyze_pair(zero_b([1.0, 2.0])))
    assert rep.is_psd_pair and not rep.is_nsd_pair
    rep2 = analysis_definiteness(analyze_pair(zero_b([1.0, -2.0])))
    assert not rep2.is_psd_pair and not rep2.is_nsd_pair
    # A = B = 0: every direction is common nullspace, so any shift is admissible.
    zero = pt.pair_from_arrays(np.zeros((3, 3)), np.zeros((3, 3)))
    a = analyze_pair(zero)
    rep3 = analysis_definiteness(a)
    assert rep3.is_psd_pair and rep3.is_nsd_pair
    assert rep3.psd_interval == rep3.nsd_interval == (-np.inf, np.inf)
    assert a.deflated_dims == 3 and a.infinite_sign == "none"


@pytest.mark.parametrize(
    "B",
    [np.diag([1.0, 1.0, -1.0, -1.0]), np.diag([1.0, 2.0, 3.0, 4.0])],
    ids=["indefinite", "definite"],
)
def test_definiteness_kernel_count(monkeypatch, B):
    # One eigh of B and one pencil solve for the typed spectrum (an eig, or a
    # Cholesky and its eigh), then at most one eigvalsh per side the spectrum
    # admits (both sides only for definite B).  Both pairs are definite and
    # solved in their own coordinates, where Ã is diagonal up to roundoff and
    # its diagonal decides each side with no eigvalsh.
    A = np.diag([2.0, 3.0, 1.0, 0.5])
    pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), 3, 5.0)
    calls = count_eigen_kernels(monkeypatch)
    analysis = analyze_pair(pair)
    rep = analysis_definiteness(analysis)
    assert rep.is_psd_pair
    # Besides the solve's own kernels (an eig, or a Cholesky and an eigh):
    assert len(calls) - calls.count("eig") - 2 * calls.count("cholesky") <= 3, calls
    assert pencil_solves(calls) == 1, calls
    assert analysis.route == "pair-cholesky"
    assert calls.count("eigvalsh") == 0, calls


def _semidefinite_specs(rng):
    """Tr p=1/p=2 and Tc blocks; mostly ordered around a shared shift, so both verdicts occur."""
    shift = float(rng.uniform(-1.0, 1.0))
    orient = 1 if rng.random() < 0.5 else -1  # +1 favours PSD, -1 NSD
    specs = []
    for _ in range(int(rng.integers(1, 5))):
        eta = 1 if rng.random() < 0.5 else -1
        u = rng.random()
        if u < 0.6:
            off = float(rng.uniform(0.1, 2.0))
            specs.append(BlockSpec("Tr", p=1, alpha=shift + orient * eta * off, eta=eta))
        elif u < 0.75:
            specs.append(BlockSpec("Tr", p=2, alpha=shift, eta=orient))
        elif u < 0.9:
            specs.append(BlockSpec("Tr", p=1, alpha=float(rng.uniform(-2.0, 2.0)), eta=eta))
        else:
            alpha, beta = float(rng.uniform(-1, 1)), float(rng.uniform(0.3, 1.5))
            specs.append(BlockSpec("Tc", p=1, alpha=alpha, beta=beta))
    return specs


def test_intervals_hold_inside_and_fail_outside():
    rng = np.random.default_rng(2024)
    seen = {"psd": 0, "nsd": 0, "neither": 0}
    pinned = 0  # semidefinite at a Jordan eigenvalue only
    for trial in range(120):
        specs = _semidefinite_specs(rng)
        cap = 2.5 if any(s.p == 2 for s in specs) else 5.0
        pair, truth = assemble(specs, scramble_seed=trial, conditioning_cap=cap)
        rep = analysis_definiteness(analyze_pair(pair))
        assert (rep.is_psd_pair, rep.is_nsd_pair) == (truth.psd, truth.nsd), specs
        seen["psd"] += truth.psd
        seen["nsd"] += truth.nsd
        seen["neither"] += not (truth.psd or truth.nsd)
        pinned += bool(truth.jordan_values) and (truth.psd or truth.nsd)
        tol = 1e-8 * (1.0 + spectral_norm(pair.A) + spectral_norm(pair.B))
        for sign, itv in ((1.0, rep.psd_interval), (-1.0, rep.nsd_interval)):
            if itv is None:
                continue
            # lam_min of sign*(A - t*B): >= 0 on the interval, < 0 beyond it.
            A, B = sign * pair.A.entries, sign * pair.B.entries
            f = lambda t: float(np.linalg.eigvalsh(A - t * B)[0])
            lo, hi = itv
            if np.isfinite(lo) and np.isfinite(hi):
                grid = np.linspace(lo, hi, 7)
            elif np.isfinite(lo):
                grid = lo + np.array([0.0, 0.5, 2.0, 8.0])
            else:
                grid = hi - np.array([0.0, 0.5, 2.0, 8.0])
            for t in grid:
                assert f(t) >= -tol, (specs, t, itv)
            for edge, step in ((lo, -0.05), (hi, 0.05)):
                if np.isfinite(edge):
                    assert f(edge + step) < 0.0, (specs, edge, itv)
    assert min(seen.values()) >= 10 and pinned >= 5, (seen, pinned)


@pytest.mark.parametrize(
    "H, expected, solves",
    [
        # The diagonal passes (min d = 1) but the off-diagonal part does not
        # leave it decided: lam_min = -1 from eigvalsh.
        ([[1.0, 2.0], [2.0, 1.0]], -1.0, 1),
        # Decided by the diagonal: min d -/+ e = 2 -/+ 0.5*sqrt(2) both hold
        # or both fail, and the lower end is returned.
        ([[3.0, 0.5], [0.5, 2.0]], 2.0 - 0.5 * np.sqrt(2.0), 0),
        ([[-3.0, 0.5], [0.5, 2.0]], -3.0 - 0.5 * np.sqrt(2.0), 0),
        # min d + e = -1 + 2*sqrt(2) leaves Weyl's interval undecided, but
        # lam_min <= min d = -1 already fails the test.
        ([[-1.0, 2.0], [2.0, 3.0]], -1.0 - 2.0 * np.sqrt(2.0), 0),
    ],
    ids=["undecided", "holds", "fails", "fails-by-min-d"],
)
def test_lam_min_reads_a_decided_diagonal(monkeypatch, H, expected, solves):
    H = np.array(H)
    d = np.real(np.diagonal(H))
    e = float(np.linalg.norm(H - np.diag(d)))
    calls = count_eigen_kernels(monkeypatch)
    assert _lam_min(d, e, lambda: H, 1e-12) == pytest.approx(expected, abs=1e-12)
    assert calls.count("eigvalsh") == solves, calls


def _criterion_7_pairs():
    """Every pair of the criterion-7 problems and of their scaled replay copies."""
    for prob in _criterion_7_problems():
        for a, ahat in [(1.0, 1.0), *replay.SCALES.values()]:
            copy = replay.scaled(prob, a, ahat)
            yield copy.pair
            yield copy.hat_pair


def _screened_pairs():
    """Every pair of the criterion-7 problems and of their scaled replay
    copies, then both pairs of six diverge-certify-shaped problems (mixed
    signs, scrambled typed frames) at n = 20, 40 and 80."""
    yield from _criterion_7_pairs()
    for n in (20, 40, 80):
        for seed in (n, n + 1):
            rng = np.random.default_rng(seed)
            npl, nmi = n // 2, n - n // 2
            prob = diag_problem(
                rng.uniform(0.5, 2.0, npl), rng.uniform(-2.0, -0.5, nmi),
                -rng.uniform(0.5, 2.0, npl), rng.uniform(0.5, 2.0, nmi), scramble=(seed, seed + 100),
            )
            yield prob.pair
            yield prob.hat_pair


def test_diagonal_screen_matches_eigvalsh_confirmation(monkeypatch):
    # Reading a decided side off the diagonal moves no verdict, interval or
    # shift, and its lam_min is a lower bound on the eigvalsh value within
    # 2|offdiag|_F of it, both up to eigvalsh's own roundoff, 8 eps |H|_F.
    eps = np.finfo(float).eps
    keys = ("is_psd_pair", "is_nsd_pair", "psd_interval", "nsd_interval",
            "psd_shift", "nsd_shift", "tolerance")
    calls = count_eigen_kernels(monkeypatch)
    sides, solves = Counter(), Counter()
    for pair in _screened_pairs():
        a = analyze_pair(pair)
        if a.route is None:  # chained or B = 0: no finite part to confirm
            continue
        calls.clear()
        rep = _definiteness_from_spectrum(a)
        solves[a.route] += calls.count("eigvalsh")
        ref = eigvalsh_definiteness(a)
        assert [getattr(rep, k) for k in keys] == [getattr(ref, k) for k in keys]
        A, J = a.A_fin, np.diag(a.j)
        for sign, t, f, f_ref in ((1.0, rep.psd_shift, rep.psd_lam_min, ref.psd_lam_min),
                                  (-1.0, rep.nsd_shift, rep.nsd_lam_min, ref.nsd_lam_min)):
            if t is None:
                assert f is None and f_ref is None
                continue
            sides[a.route] += 1
            H = sign * (A - t * J)
            d = np.real(np.diagonal(H))
            e, ulp = np.linalg.norm(H - np.diag(d)), 8 * eps * np.linalg.norm(H)
            assert -ulp <= f_ref - f <= 2 * e + ulp, (a.route, f, f_ref, e)
    # Ã is diagonal to roundoff on the pair route: its diagonal decides every side.
    assert sides["pair-cholesky"] > 4000 and solves["pair-cholesky"] == 0, (sides, solves)
    assert solves["frame-cholesky"] + solves["eig"] > 0, (sides, solves)


def test_shift_free_screen_matches_the_per_shift_screen():
    # The off-diagonal norm taken once per pair, and each side screened on
    # its diagonal vector, give the report that screening the dense shifted
    # matrix at each shift gave, bit for bit.
    compared = 0
    for pair in _criterion_7_pairs():
        a = analyze_pair(pair)
        if a.route is None:  # chained or B = 0: no finite part to confirm
            continue
        assert _definiteness_from_spectrum(a) == per_shift_definiteness(a)
        compared += 1
    assert compared > 3000, compared


def test_pair_route_finite_part_is_its_typed_values():
    # On the pair route the typed frame W has W^H A W = diag(j · value) by
    # construction, so A_fin is that diagonal exactly, in W's column order,
    # and complex like every other route's.
    compared = 0
    for pair in _criterion_7_pairs():
        a = analyze_pair(pair)
        if a.route != "pair-cholesky":
            continue
        assert a.A_fin.dtype == complex
        expected = np.diag(np.concatenate([a.pos_values, -a.neg_values]))
        assert np.array_equal(a.A_fin.real, expected) and not a.A_fin.imag.any()
        compared += 1
    assert compared > 2000, compared

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import json
import time

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.cli import main
from pencil_tracemin.genpairs import BlockSpec, assemble
from pencil_tracemin.spectral import analyze_pair
from pencil_tracemin.tracemin import (
    FINITE,
    NEG_INFINITE,
    FeasibleSampler,
    infimum,
    minimizer,
)
from pencil_tracemin.witness import build_witness, certify_unbounded

from conftest import golden_hat_matrix, rand_hermitian, spectral_norm
from reference import deflate_common_nullspace, equal_inertia_value, lambda_min_shift, pad_problem


def _objective(problem, X):
    """trace(Ahat X^H A X) of each matrix in a (K, n, nhat) stack of samples."""
    Xh = X.conj().swapaxes(-1, -2)
    return np.real(
        np.trace(
            problem.hat_pair.A.entries @ Xh @ problem.pair.A.entries @ X,
            axis1=-2,
            axis2=-1,
        )
    )


def _scrambled_diag_problem(rng, bp, bn, hp, hn, seeds, cap=6.0):
    A = np.diag(np.concatenate([bp, -np.asarray(bn)])).astype(complex)
    B = np.diag([1.0] * len(bp) + [-1.0] * len(bn)).astype(complex)
    Ah = np.diag(np.concatenate([hp, -np.asarray(hn)])).astype(complex)
    Bh = np.diag([1.0] * len(hp) + [-1.0] * len(hn)).astype(complex)
    pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seeds[0], cap)
    hat, _ = pt.random_congruence(pt.pair_from_arrays(Ah, Bh), seeds[1], cap)
    return pt.ProblemInstance(pair=pair, hat_pair=hat)


def test_criterion_1_golden_example(tmp_path, capsys):
    t0 = time.perf_counter()
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        golden_hat_matrix(),
        np.diag([1.0, -1.0]),
    )
    path = str(tmp_path / "golden.json")
    pt.matcore.save_problem(path, prob)

    code = main(["--json", "infimum", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(rep["infimum"]["value"] - np.sqrt(2.0)) <= 1e-8

    spec = analyze_pair(prob.hat_pair)
    assert abs(spec.pos_values[0] - np.sqrt(2.0) / 2.0) <= 1e-8
    assert abs(spec.neg_values[0] + np.sqrt(2.0) / 4.0) <= 1e-8

    out = str(tmp_path / "xopt.json")
    code = main(["--json", "minimize", path, out])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(rep["minimizer"]["achieved"] - np.sqrt(2.0)) <= 1e-8
    assert rep["minimizer"]["feasibility_residual"] <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden example sqrt(2) in {elapsed:.3f}s")


def test_criterion_2_fan_reduction():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, max(2, n // 2 + 1)))
        A = rand_hermitian(rng, n)
        prob = pt.problem_from_arrays(A, np.eye(n), np.eye(k), np.eye(k))
        res = infimum(prob)
        vals, vecs = np.linalg.eigh(A)
        expected = float(np.sum(vals[:k]))
        assert res.verdict == FINITE
        assert abs(res.value - expected) <= 1e-9 * (1 + abs(expected))

        X, achieved = minimizer(prob)
        assert abs(achieved - expected) <= 1e-9 * (1 + abs(expected))
        P_opt = X @ np.linalg.pinv(X)
        P_true = vecs[:, :k] @ vecs[:, :k].conj().T
        assert np.linalg.norm(P_opt - P_true, 2) <= 1e-7
    print("PASS criterion 2: Fan reduction on 50 random instances")


def test_criterion_3_closed_form_oracle_equivalence():
    rng = np.random.default_rng(3033)
    for trial in range(100):
        npl = int(rng.integers(1, 4))
        nmi = int(rng.integers(1, 4 - max(0, npl - 2)))
        shift = float(rng.uniform(-1, 1))
        bp = np.sort(rng.uniform(0.1, 3.0, size=npl)) + shift
        bn = np.sort(rng.uniform(-3.0, -0.1, size=nmi)) + shift
        hp = np.sort(rng.uniform(0.1, 2.0, size=npl)) + shift
        hn = np.sort(rng.uniform(-2.0, -0.1, size=nmi)) + shift
        prob = _scrambled_diag_problem(
            rng, bp, bn, hp, hn, seeds=(trial, trial + 5000), cap=6.0
        )
        res = infimum(prob)
        assert res.verdict == FINITE

        # (a) equal-inertia closed form
        big = analyze_pair(deflate_common_nullspace(prob.pair).reduced)
        hat = analyze_pair(prob.hat_pair)
        ref = equal_inertia_value(big, hat)
        assert abs(res.value - ref) <= 1e-12 * (1 + abs(ref))

        # (b) brute force over type-preserving permutations
        brute = min(
            float(np.dot(hp, p)) for p in itertools.permutations(bp)
        ) + min(float(np.dot(hn, p)) for p in itertools.permutations(bn))
        assert abs(res.value - brute) <= 1e-8 * (1 + abs(brute))

        # (c) Monte-Carlo lower bound, 2000 samples at spread 2, drawn as one stack
        draws = np.random.default_rng([trial, 1])
        worst = float(np.min(_objective(prob, FeasibleSampler(prob).sample(2.0, draws, 2000))))
        assert worst >= res.value - 1e-6 * (1 + abs(res.value))
    print("PASS criterion 3: 100 equal-inertia instances vs closed form, brute force, MC")


def _case_instance(rng, case, seeds):
    """Generate an instance with nhat < n realizing a given properness case."""
    shift = 0.0
    if case == "i":
        npl = int(rng.integers(1, 3))
        nmi = int(rng.integers(1, 3))
        z = int(rng.integers(1, 3))
        bp = rng.uniform(0.2, 3.0, size=npl)
        bn = rng.uniform(-3.0, -0.2, size=nmi)
        hp = rng.uniform(0.0, 2.0, size=npl)
        hn = rng.uniform(-2.0, 0.0, size=nmi)
        A = np.diag(np.concatenate([bp, -bn, np.ones(z)]))
        B = np.diag([1.0] * npl + [-1.0] * nmi + [0.0] * z)
        pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seeds[0], 5.0)
        hat = _hat_pair(rng, hp, hn, seeds[1])
        return pt.ProblemInstance(pair=pair, hat_pair=hat)
    if case in ("ii", "improper"):
        npl = int(rng.integers(1, 3))
        nmi_hat = int(rng.integers(1, 3))
        nmi = nmi_hat + int(rng.integers(1, 3))
        if case == "ii":
            hp = rng.uniform(0.5, 2.0, size=npl)  # lambda_1^{+up} >= 0
            hn = np.concatenate(
                [rng.uniform(-2.0, -0.1, size=nmi_hat - nmi_hat // 2),
                 rng.uniform(0.05, 0.4, size=nmi_hat // 2)]  # d_- > 0 half the time
            )
        else:
            hp = rng.uniform(-2.0, -0.5, size=npl)  # violates the sign condition
            hn = rng.uniform(-4.0, -2.5, size=nmi_hat)
        bp = rng.uniform(np.max(np.concatenate([hn, [0.0]])) + 0.5, 4.0, size=npl)
        bn = rng.uniform(-4.0, -0.2, size=nmi)
        lo = float(np.min(np.concatenate([bp, [0.0]])))
        bn = np.minimum(bn, lo - 0.2)
        A = np.diag(np.concatenate([bp, -bn]))
        B = np.diag([1.0] * npl + [-1.0] * nmi)
        pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seeds[0], 5.0)
        hat = _hat_pair(rng, hp, hn, seeds[1])
        return pt.ProblemInstance(pair=pair, hat_pair=hat)
    if case == "iii":
        # i+(B) > i+(Bhat), i-(B) = i-(Bhat), lambda_1^{-down}(hat) <= 0;
        # negative hat positive-type values exercise d_+ > 0.
        nmi = int(rng.integers(1, 3))
        npl_hat = int(rng.integers(1, 3))
        npl = npl_hat + int(rng.integers(1, 3))
        hn = rng.uniform(-2.0, -0.5, size=nmi)
        hp = np.concatenate(
            [rng.uniform(0.1, 2.0, size=npl_hat - npl_hat // 2),
             rng.uniform(-0.4, -0.05, size=npl_hat // 2)]
        )
        bn = rng.uniform(-4.0, -0.2, size=nmi)
        bp = rng.uniform(np.max(bn) + 0.5, 4.0, size=npl)
        A = np.diag(np.concatenate([bp, -bn]))
        B = np.diag([1.0] * npl + [-1.0] * nmi)
        pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seeds[0], 5.0)
        hat = _hat_pair(rng, hp, hn, seeds[1])
        return pt.ProblemInstance(pair=pair, hat_pair=hat)
    # case iv
    npl_hat = int(rng.integers(1, 3))
    nmi_hat = int(rng.integers(1, 3))
    npl = npl_hat + 1
    nmi = nmi_hat + 1
    hp = rng.uniform(0.0, 2.0, size=npl_hat)
    hn = rng.uniform(-2.0, 0.0, size=nmi_hat)
    bp = rng.uniform(0.2, 3.0, size=npl)
    bn = rng.uniform(-3.0, -0.2, size=nmi)
    A = np.diag(np.concatenate([bp, -bn]))
    B = np.diag([1.0] * npl + [-1.0] * nmi)
    pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seeds[0], 5.0)
    hat = _hat_pair(rng, hp, hn, seeds[1])
    return pt.ProblemInstance(pair=pair, hat_pair=hat)


def _hat_pair(rng, hp, hn, seed):
    Ah = np.diag(np.concatenate([hp, -np.asarray(hn)]))
    Bh = np.diag([1.0] * len(hp) + [-1.0] * len(hn))
    hat, _ = pt.random_congruence(pt.pair_from_arrays(Ah, Bh), seed, 5.0)
    return hat


def test_criterion_4_properness_and_padding():
    rng = np.random.default_rng(404)
    cases = ["i", "ii", "iii", "iv"] * 22 + ["improper"] * 12
    counts = {}
    for trial, case in enumerate(cases):
        prob = _case_instance(rng, case, seeds=(trial, trial + 9000))
        res = infimum(prob)
        padded = pad_problem(prob)
        res_pad = infimum(padded)
        if case == "improper":
            assert res.verdict == NEG_INFINITE and res.reason == "Improper"
            assert res_pad.verdict == NEG_INFINITE
            fam = build_witness(prob, res)
            cert = certify_unbounded(fam, -1e6, 1e4)
            assert cert.trace_value <= -1e6
        else:
            assert res.verdict == FINITE, f"case {case}: {res.reason}"
            label = res.properness.case_label
            counts[label] = counts.get(label, 0) + 1
            assert res_pad.verdict == FINITE
            assert abs(res.value - res_pad.value) <= 1e-8 * (1 + abs(res.value))
    for label in ("i", "ii", "iii", "iv"):
        assert counts.get(label, 0) >= 10, counts
    print(f"PASS criterion 4: padding equality on 100 instances, cases {counts}")


def test_criterion_5_divergence_certification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    corpora = []
    for k in range(20):  # (a) mixed-sign semidefinite pairs
        corpora.append(
            _scrambled_diag_problem(
                rng,
                rng.uniform(0.5, 2.0, size=2),
                rng.uniform(-2.0, -0.5, size=1),
                -rng.uniform(0.5, 2.0, size=2)[::-1],
                -rng.uniform(-2.0, -0.5, size=1),
                seeds=(k, k + 100),
                cap=4.0,
            )
        )
    for k in range(20):  # (b) a conjugate 2x2 block on either side
        alpha = float(rng.uniform(-0.5, 0.5))
        beta = float(rng.uniform(0.4, 1.2))
        if k % 2 == 0:
            pair, _ = assemble(
                [BlockSpec("Tc", p=1, alpha=alpha, beta=beta),
                 BlockSpec("Tr", p=1, alpha=1.0, eta=1)],
                scramble_seed=k,
                conditioning_cap=4.0,
            )
            hat = _hat_pair(rng, [0.8], [-0.6], k + 200)
            corpora.append(pt.ProblemInstance(pair=pair, hat_pair=hat))
        else:
            hatp, _ = assemble(
                [BlockSpec("Tc", p=1, alpha=alpha, beta=beta)],
                scramble_seed=k,
                conditioning_cap=4.0,
            )
            big = _scrambled_diag_problem(
                rng, [1.0, 2.0], [-1.0], [0.5], [-0.5], seeds=(k, k + 300), cap=4.0
            ).pair
            corpora.append(pt.ProblemInstance(pair=big, hat_pair=hatp))
    for k in range(20):  # (c) mixed infinite structure
        pair, _ = assemble(
            [BlockSpec("Tinf", p=1, eta=1), BlockSpec("Tinf", p=1, eta=-1),
             BlockSpec("Tr", p=1, alpha=0.7, eta=1),
             BlockSpec("Tr", p=1, alpha=-0.7, eta=-1)],
            scramble_seed=k,
            conditioning_cap=4.0,
        )
        hat = _hat_pair(rng, [0.4], [-0.4], k + 400)
        corpora.append(pt.ProblemInstance(pair=pair, hat_pair=hat))
    for k in range(20):  # (d) a chained 2x2 infinite block
        pair, _ = assemble(
            [BlockSpec("Tinf", p=2, eta=1 if k % 2 else -1),
             BlockSpec("Tr", p=1, alpha=0.9, eta=1),
             BlockSpec("Tr", p=1, alpha=-0.9, eta=-1)],
            scramble_seed=k,
            conditioning_cap=3.0,
        )
        hat = _hat_pair(rng, [3.0], [-3.0], k + 500)
        corpora.append(pt.ProblemInstance(pair=pair, hat_pair=hat))

    for idx, prob in enumerate(corpora):
        res = infimum(prob)
        assert res.verdict == NEG_INFINITE, f"instance {idx}: {res.verdict}"
        fam = build_witness(prob, res)
        cert = certify_unbounded(fam, -1e6, 1e4)
        assert cert.trace_value <= -1e6
        assert cert.feas_residual <= 1e-4, f"instance {idx}: residual {cert.feas_residual}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 5: {len(corpora)} divergence certificates in {elapsed:.1f}s")


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(606)

    # Congruence invariance of verdict and value.
    base_vals = ([0.5, 1.5], [-1.0, -0.3], [0.4, 1.1], [-0.9])
    ref = infimum(
        _scrambled_diag_problem(rng, *base_vals, seeds=(0, 1), cap=1.0 + 1e-9)
    )
    for seed in range(10):
        res = infimum(
            _scrambled_diag_problem(rng, *base_vals, seeds=(seed + 2, seed + 60), cap=7.0)
        )
        assert res.verdict == ref.verdict == FINITE
        assert abs(res.value - ref.value) <= 1e-6 * (1 + abs(ref.value))

    mixed_vals = ([1.0, 2.0], [-1.0], [-0.5], [0.6])
    for seed in range(5):
        res = infimum(
            _scrambled_diag_problem(rng, *mixed_vals, seeds=(seed, seed + 70), cap=7.0)
        )
        assert res.verdict == NEG_INFINITE

    # Positive scaling of A multiplies the value.
    prob = _scrambled_diag_problem(rng, *base_vals, seeds=(11, 12), cap=5.0)
    v = infimum(prob).value
    for c in (0.5, 3.0, 11.0):
        scaled = pt.ProblemInstance(
            pair=pt.pair_from_arrays(c * prob.pair.A.entries, prob.pair.B.entries),
            hat_pair=prob.hat_pair,
        )
        assert abs(infimum(scaled).value - c * v) <= 1e-6 * (1 + abs(c * v))

    # Shift interval endpoints match the extreme typed eigenvalues.
    for seed in range(10):
        pos = np.sort(rng.uniform(0.3, 3.0, size=2))
        neg = np.sort(rng.uniform(-3.0, -0.3, size=2))
        A = np.diag(np.concatenate([pos, -neg]))
        B = np.diag([1.0, 1.0, -1.0, -1.0])
        pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), seed, 6.0)
        rep = pt.analysis_definiteness(pt.analyze_pair(pair))
        scale = 1.0 + spectral_norm(pair.A) + spectral_norm(pair.B)
        assert rep.is_psd_pair
        assert abs(rep.psd_interval[0] - neg[-1]) <= 1e-6 * scale
        assert abs(rep.psd_interval[1] - pos[0]) <= 1e-6 * scale

    # Trace sandwich bounds on 200 random PSD triples, n <= 8.
    from pencil_tracemin.hyperbolic import sample_j_unitary

    for trial in range(200):
        npl = int(rng.integers(1, 5))
        nmi = int(rng.integers(1, 5))
        n = npl + nmi
        M0 = rand_hermitian(rng, n)
        M1 = rand_hermitian(rng, n)
        A0, A1 = M0 @ M0.conj().T, M1 @ M1.conj().T
        X = sample_j_unitary(npl, nmi, 1.0, rng)
        tr = float(np.real(np.trace(A0 @ X.conj().T @ A1 @ X)))
        s = np.linalg.svd(X, compute_uv=False)
        l0 = np.sort(np.linalg.eigvalsh(A0))[::-1]
        l1 = np.sort(np.linalg.eigvalsh(A1))
        lower = float(l0 @ l1) * s[-1] ** 2
        upper = float(l0 @ l1[::-1]) * s[0] ** 2
        assert lower - 1e-8 * (1 + abs(lower)) <= tr
        assert tr <= upper + 1e-8 * (1 + abs(upper))

    # Concavity probes of the shift function.
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pair = pt.pair_from_arrays(rand_hermitian(rng, n), rand_hermitian(rng, n))
        scale = 1.0 + spectral_norm(pair.A) + spectral_norm(pair.B)
        a, b = sorted(rng.uniform(-5, 5, size=2))
        t = rng.uniform(0.0, 1.0)
        mid = t * a + (1 - t) * b
        assert lambda_min_shift(pair, mid) >= (
            t * lambda_min_shift(pair, a)
            + (1 - t) * lambda_min_shift(pair, b)
            - 1e-9 * scale
        )
    print("PASS criterion 6: invariance suite")


def _random_specs(rng, max_order=10):
    specs = []
    order = 0
    shift = float(rng.uniform(-1.0, 1.0))
    while order < 1 or (order < max_order and rng.random() < 0.75):
        room = max_order - order
        choices = ["Tr1", "Tr1", "Tr1", "Tinf1"]
        if room >= 2:
            choices += ["Tr2", "Tc1", "Tinf2", "To+Tr1"]
        if room >= 3:
            choices += ["Ts1"]
        kind = rng.choice(choices)
        if kind == "Tr1":
            eta = 1 if rng.random() < 0.5 else -1
            off = float(rng.uniform(0.1, 2.0))
            specs.append(BlockSpec("Tr", p=1, alpha=shift + eta * off, eta=eta))
            order += 1
        elif kind == "Tr2":
            specs.append(BlockSpec("Tr", p=2, alpha=shift, eta=1 if rng.random() < 0.5 else -1))
            order += 2
        elif kind == "Tc1":
            specs.append(
                BlockSpec("Tc", p=1, alpha=float(rng.uniform(-1, 1)), beta=float(rng.uniform(0.3, 1.5)))
            )
            order += 2
        elif kind == "Tinf2":
            specs.append(BlockSpec("Tinf", p=2, eta=1 if rng.random() < 0.5 else -1))
            order += 2
        elif kind == "To+Tr1":
            specs.append(BlockSpec("To"))
            specs.append(BlockSpec("Tr", p=1, alpha=shift + 1.0, eta=1))
            order += 2
        elif kind == "Ts1":
            specs.append(BlockSpec("Ts", p=1))
            order += 3
        else:
            specs.append(BlockSpec("Tinf", p=1, eta=1 if rng.random() < 0.5 else -1))
            order += 1
    return specs


def test_criterion_7_full_generality_no_contradictions():
    rng = np.random.default_rng(707)
    verdicts = {"Finite": 0, "NegInfinite": 0, "ExcludedConstant": 0, "empty": 0}
    for trial in range(500):
        specs = _random_specs(rng)
        cap = 2.5 if any(s.kind == "Tr" and s.p == 2 for s in specs) else 5.0
        pair, truth = assemble(specs, scramble_seed=trial, conditioning_cap=cap)
        ib = truth.inertia_B
        if ib.rank == 0:
            continue
        hpl, hmi = 0, 0
        while hpl + hmi == 0:
            hpl = int(rng.integers(0, ib.n_plus + 1))
            hmi = int(rng.integers(0, ib.n_minus + 1))
        hp = np.sort(rng.uniform(-1.5, 1.5, size=hpl))
        hn = np.sort(rng.uniform(-1.5, 1.5, size=hmi))
        hat = _hat_pair(rng, hp, hn, trial + 31337)
        prob = pt.ProblemInstance(pair=pair, hat_pair=hat)

        try:
            res = infimum(prob)
        except pt.errors.EmptyFeasibleSetError:
            verdicts["empty"] += 1
            continue
        verdicts[res.verdict] += 1

        if res.verdict in (FINITE, "ExcludedConstant") and res.value is not None:
            draws = np.random.default_rng([trial, 1])
            tr = float(np.min(_objective(prob, FeasibleSampler(prob).sample(1.5, draws, 25))))
            assert tr >= res.value - 1e-6 * (1 + abs(res.value)), (
                f"trial {trial}: sample {tr} below value {res.value}; specs {specs}"
            )
    assert verdicts["Finite"] >= 30
    assert verdicts["NegInfinite"] >= 100
    print(f"PASS criterion 7: 500 assemblies, verdicts {verdicts}")

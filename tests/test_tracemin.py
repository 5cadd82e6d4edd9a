import itertools

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import (
    EmptyFeasibleSetError,
    InertiaViolationError,
    LengthMismatchError,
    NotAttainableError,
)
from pencil_tracemin.genpairs import BlockSpec, assemble
from pencil_tracemin.spectral import typed_spectrum
from pencil_tracemin.tracemin import (
    ATTAINABLE_YES,
    EXCLUDED_CONSTANT,
    FINITE,
    MIXED_SIGNS,
    NEG_INFINITE,
    check_excluded,
    fan_min_product,
    infimum,
    equal_inertia_value,
    minimizer,
    pad_problem,
    properness,
)

from conftest import count_eigen_kernels, diag_problem, golden_hat_matrix, k2_pair, rand_hermitian
from test_acceptance import _hat_pair, _random_specs


# --- excluded cases ---------------------------------------------------------


def test_excluded_ahat_zero():
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), np.zeros((2, 2)), np.diag([1.0, -1.0])
    )
    exc = check_excluded(prob)
    assert exc.which == "AhatZero" and exc.constant == 0.0
    res = infimum(prob)
    assert res.verdict == EXCLUDED_CONSTANT and res.value == 0.0


def test_excluded_a_equals_mu_b():
    # A = 2B: objective is identically 2 trace(Ahat Bhat^{-1}) = 4.
    prob = pt.problem_from_arrays(
        2.0 * np.diag([1.0, -1.0]),
        np.diag([1.0, -1.0]),
        np.diag([3.0, 1.0]),
        np.diag([1.0, -1.0]),
    )
    exc = check_excluded(prob)
    assert exc.which == "AEqualsMuB"
    assert exc.mu == pytest.approx(2.0, abs=1e-12)
    assert exc.constant == pytest.approx(4.0, abs=1e-10)


def test_excluded_ahat_equals_muhat_bhat():
    # n = nhat, Ahat = 3 Bhat: constant is 3 trace(B^{-1} A) = 3 (5 - 7) = -6.
    prob = pt.problem_from_arrays(
        np.diag([5.0, 7.0]),
        np.diag([1.0, -1.0]),
        3.0 * np.diag([1.0, -1.0]),
        np.diag([1.0, -1.0]),
    )
    exc = check_excluded(prob)
    assert exc.which == "AhatEqualsMuhatBhat"
    assert exc.constant == pytest.approx(-6.0, abs=1e-10)


# --- properness -------------------------------------------------------------


def test_properness_case_i():
    spec = typed_spectrum(pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0])))
    rep = properness(pt.Inertia(1, 0, 1), spec, pt.Inertia(1, 0, 1))
    assert rep.is_proper and rep.case_label == "i"
    assert (rep.d_plus, rep.d_minus) == (0, 0)


def test_properness_case_ii_counts_positive_negative_type():
    # Hat pair (diag(1,-1), diag(1,-1)): eigenvalue 1 of both types.
    spec = typed_spectrum(pt.pair_from_arrays(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))
    np.testing.assert_allclose(spec.pos_values, [1.0])
    np.testing.assert_allclose(spec.neg_values, [1.0])
    rep = properness(pt.Inertia(1, 0, 2), spec, pt.Inertia(1, 0, 1))
    assert rep.is_proper and rep.case_label == "ii"
    assert rep.d_minus == 1 and rep.d_plus == 0


def test_properness_improper_case_iv():
    # Hat positive-type eigenvalue -1 < 0 violates case (iv).
    spec = typed_spectrum(pt.pair_from_arrays(np.diag([-1.0, 2.0]), np.diag([1.0, -1.0])))
    rep = properness(pt.Inertia(2, 0, 2), spec, pt.Inertia(1, 0, 1))
    assert not rep.is_proper and rep.case_label == "improper"


def test_properness_inertia_violation():
    spec = typed_spectrum(pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0])))
    with pytest.raises(InertiaViolationError):
        properness(pt.Inertia(0, 0, 1), spec, pt.Inertia(1, 0, 1))


def test_properness_leaves_semidefiniteness_to_its_tolerance():
    # The hat's negative-type value exceeds its positive-type one by 5e-7: a
    # PSD pair under psd_tol = 1e-6, beyond type_tol.  Properness tests only
    # the padded zeros, so the semidefiniteness verdict stands.
    tols = pt.ToleranceSet(psd_tol=1e-6)
    prob = pt.ProblemInstance(
        pair=pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0])),
        hat_pair=pt.pair_from_arrays(np.diag([1.0, -(1.0 + 5e-7)]), np.diag([1.0, -1.0])),
        tolerances=tols,
    )
    res = infimum(prob)
    assert res.verdict == FINITE and res.properness.case_label == "i"


# --- padding ----------------------------------------------------------------


def test_pad_identity_when_square():
    prob = diag_problem([1.0, 2.0], [-1.0], [1.0, 1.5], [-0.5])
    assert pad_problem(prob) is prob


def test_pad_construction():
    prob = pt.problem_from_arrays(
        np.diag([2.0, 1.0, 3.0]),
        np.diag([1.0, -1.0, -1.0]),
        np.diag([0.6, 0.9]),
        np.diag([1.0, -1.0]),
    )
    padded = pad_problem(prob)
    assert padded.nhat == 3
    np.testing.assert_array_equal(
        padded.hat_pair.A.entries.real, np.diag([0.6, 0.9, 0.0])
    )
    np.testing.assert_array_equal(
        padded.hat_pair.B.entries.real, np.diag([1.0, -1.0, -1.0])
    )
    # The padded hat pair gains one zero negative-type eigenvalue.
    spec = typed_spectrum(padded.hat_pair)
    np.testing.assert_allclose(spec.neg_values, [-0.9, 0.0], atol=1e-12)


def test_pad_preserves_infimum():
    prob = pt.problem_from_arrays(
        np.diag([2.0, 1.0, 3.0]),
        np.diag([1.0, -1.0, -1.0]),
        np.diag([0.6, 0.9]),
        np.diag([1.0, -1.0]),
    )
    r1 = infimum(prob)
    r2 = infimum(pad_problem(prob))
    assert r1.verdict == r2.verdict == FINITE
    assert r1.value == pytest.approx(r2.value, abs=1e-10)


# --- fan_min_product --------------------------------------------------------


def test_fan_min_product_examples():
    assert fan_min_product([1.0, 2.0], [3.0, 4.0]) == pytest.approx(10.0)
    assert fan_min_product([2.0, 2.0, 2.0], [5.0, -1.0, 0.5]) == pytest.approx(9.0)
    with pytest.raises(LengthMismatchError):
        fan_min_product([1.0], [1.0, 2.0])


def test_fan_min_product_factorial_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        l0 = rng.uniform(-2, 2, size=n)
        l1 = rng.uniform(-2, 2, size=n)
        brute = min(
            float(np.dot(l0, np.array(p))) for p in itertools.permutations(l1)
        )
        assert fan_min_product(l0, l1) == pytest.approx(brute, abs=1e-12)


# --- infimum ----------------------------------------------------------------


def test_infimum_golden(golden_problem):
    res = infimum(golden_problem)
    assert res.verdict == FINITE
    assert res.sign_case == "PSD_pairs"
    assert res.value == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert res.attainable == ATTAINABLE_YES
    products = sorted(t.product for t in res.terms)
    np.testing.assert_allclose(
        products, sorted([np.sqrt(2) / 2 * 1.0, (-np.sqrt(2) / 4) * (-2.0)]), atol=1e-10
    )
    assert res.value == sum(t.product for t in res.terms)


def test_infimum_fan_reduction():
    rng = np.random.default_rng(2)
    for _ in range(6):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, max(2, n // 2)))
        A = rand_hermitian(rng, n)
        prob = pt.problem_from_arrays(A, np.eye(n), np.eye(k), np.eye(k))
        res = infimum(prob)
        expected = float(np.sum(np.sort(np.linalg.eigvalsh(A))[:k]))
        assert res.verdict == FINITE
        assert res.value == pytest.approx(expected, abs=1e-9)


def test_infimum_mixed_signs():
    prob = diag_problem([1.0], [-2.0], [-1.0], [2.0])  # PSD big, NSD hat
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    assert res.reason == MIXED_SIGNS


def test_infimum_not_semidefinite():
    # Big pair has lam+ values straddling a lam- value: neither PSD nor NSD.
    prob = diag_problem([1.0, 5.0], [2.0], [1.0], [-1.0])
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    assert res.reason == "NotSemidefinitePair"


def test_infimum_complex_reason():
    Tc = np.array([[0.0, 1j], [-1j, 0.0]])
    F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    prob = pt.problem_from_arrays(Tc, F2, np.diag([1.0]), np.diag([1.0]))
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    assert res.reason == "ComplexEigenvalues"


def test_infimum_coupled_reason():
    pair = assemble([BlockSpec("Tinf", p=2, eta=1), BlockSpec("Tr", p=1, alpha=1.0, eta=1)], 3)[0]
    prob = pt.ProblemInstance(
        pair=pair, hat_pair=pt.pair_from_arrays(np.diag([1.0]), np.diag([1.0]))
    )
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    assert res.reason == "CoupledInfiniteStructure"


def test_infimum_improper():
    # i+(B) = i+(Bhat), i-(B) > i-(Bhat), hat lambda_1^{+up} < 0: improper.
    prob = diag_problem([1.0, 2.0], [-1.0, -2.0], [-0.5, 0.0], [])
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0, 1.0, 2.0]),
        np.diag([1.0, 1.0, -1.0, -1.0]),
        np.diag([-0.5, -0.2, 0.7]),
        np.diag([1.0, 1.0, -1.0]),
    )
    # hat pair: pos values (-0.5, -0.2), neg value -0.7 -> PSD, but
    # lambda_1^{+up} = -0.5 < 0 while i_- drops: improper.
    res = infimum(prob)
    assert res.verdict == NEG_INFINITE
    assert res.reason == "Improper"


def test_infimum_empty_feasible():
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, 1.0]), np.diag([1.0]), np.diag([-1.0])
    )
    with pytest.raises(EmptyFeasibleSetError):
        infimum(prob)


def test_infimum_nsd_branch():
    # Mirror of the golden example: value flips sign.
    Ah = golden_hat_matrix()
    prob = pt.problem_from_arrays(
        -np.diag([1.0, 2.0]), -np.diag([1.0, -1.0]), -Ah, -np.diag([1.0, -1.0])
    )
    res = infimum(prob)
    assert res.verdict == FINITE
    assert res.sign_case == "NSD_pairs"
    assert res.value == pytest.approx(np.sqrt(2.0), abs=1e-10)


def _criterion_7_problems():
    """The problems of acceptance criterion 7 with rank B > 0, drawn the same way."""
    rng = np.random.default_rng(707)
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
        yield pt.ProblemInstance(pair=pair, hat_pair=_hat_pair(rng, hp, hn, trial + 31337))


def test_negation_duality():
    # Negating all four matrices keeps the objective, the constraint and every
    # eigenvalue, and swaps the types: the verdict, reason and value stay, and
    # the terms stay with their types flipped.
    negate = lambda p: pt.pair_from_arrays(-p.A.entries, -p.B.entries)
    flip = {"positive": "negative", "negative": "positive"}
    counts = {"problems": 0, FINITE: 0}
    for prob in _criterion_7_problems():
        res = infimum(prob)
        neg = infimum(pt.ProblemInstance(pair=negate(prob.pair), hat_pair=negate(prob.hat_pair)))
        assert (neg.verdict, neg.reason) == (res.verdict, res.reason)
        if res.value is not None:
            assert neg.value == pytest.approx(res.value, rel=1e-10, abs=1e-10)
        terms = sorted((t.eig_type, t.lam_hat, t.lam) for t in res.terms)
        flipped = sorted((flip[t.eig_type], t.lam_hat, t.lam) for t in neg.terms)
        assert [t[0] for t in flipped] == [t[0] for t in terms]
        np.testing.assert_allclose(
            [t[1:] for t in flipped], [t[1:] for t in terms], rtol=1e-9, atol=1e-12
        )
        counts["problems"] += 1
        counts[FINITE] += res.verdict == FINITE
    assert counts == {"problems": 482, FINITE: 32}


def test_equal_inertia_closed_form_equivalence():
    rng = np.random.default_rng(12)
    for seed in range(20):
        npl = int(rng.integers(1, 4))
        nmi = int(rng.integers(1, 4))
        bp = np.sort(rng.uniform(0.0, 3.0, size=npl))
        bn = np.sort(rng.uniform(-3.0, 0.0, size=nmi))
        hp = np.sort(rng.uniform(0.0, 2.0, size=npl))
        hn = np.sort(rng.uniform(-2.0, 0.0, size=nmi))
        prob = diag_problem(bp, bn, hp, hn, scramble=(seed, seed + 1000), cap=6.0)
        res = infimum(prob)
        assert res.verdict == FINITE
        big = typed_spectrum(pt.deflate_common_nullspace(prob.pair).reduced)
        hat = typed_spectrum(prob.hat_pair)
        ref = equal_inertia_value(big, hat)
        assert res.value == pytest.approx(ref, abs=1e-12 * (1 + abs(ref)))


def test_shift_identity():
    # Shifting both diagonal frames changes the value by the closed-form
    # constant lam0hat tr(J Lam) - lam0hat lam0 n + lam0 tr(Lamhat J).
    bp, bn = [1.0, 2.5], [-0.5, -2.0]
    hp, hn = [0.7, 1.2], [-0.3, -1.1]
    prob = diag_problem(bp, bn, hp, hn)
    base = infimum(prob).value
    n = 4
    lam0, lam0h = 0.37, -0.21
    J = np.diag([1.0, 1.0, -1.0, -1.0])
    Lam = prob.pair.A.entries.real
    Lamh = prob.hat_pair.A.entries.real
    shifted = pt.problem_from_arrays(Lam - lam0 * J, J, Lamh - lam0h * J, J)
    const = (
        lam0h * np.trace(J @ Lam)
        - lam0h * lam0 * n
        + lam0 * np.trace(Lamh @ J)
    )
    res = infimum(shifted)
    assert res.verdict == FINITE
    assert res.value + const == pytest.approx(base, rel=1e-8)


def test_positive_scaling():
    prob = diag_problem([0.5, 1.5], [-1.0], [0.4], [-0.8], scramble=(3, 4))
    v1 = infimum(prob).value
    c = 3.7
    prob2 = pt.ProblemInstance(
        pair=pt.pair_from_arrays(c * prob.pair.A.entries, prob.pair.B.entries),
        hat_pair=prob.hat_pair,
    )
    v2 = infimum(prob2).value
    assert v2 == pytest.approx(c * v1, rel=1e-9)


def test_congruence_invariance_of_value():
    prob = diag_problem([0.5, 1.5], [-1.0, -0.2], [0.4, 0.9], [-0.8])
    ref = infimum(prob).value
    for seed in range(6):
        scr = diag_problem(
            [0.5, 1.5], [-1.0, -0.2], [0.4, 0.9], [-0.8], scramble=(seed, seed + 50)
        )
        res = infimum(scr)
        assert res.verdict == FINITE
        assert res.value == pytest.approx(ref, rel=1e-6)


# --- minimizer --------------------------------------------------------------


def test_minimizer_golden(golden_problem):
    X, achieved = minimizer(golden_problem)
    assert achieved == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert pt.feasibility_residual(golden_problem, X) <= 1e-8


def test_minimizer_fan_invariant_subspace():
    rng = np.random.default_rng(8)
    n, k = 8, 3
    A = rand_hermitian(rng, n)
    prob = pt.problem_from_arrays(A, np.eye(n), np.eye(k), np.eye(k))
    X, achieved = minimizer(prob)
    vals, vecs = np.linalg.eigh(A)
    assert achieved == pytest.approx(float(np.sum(vals[:k])), abs=1e-9)
    P_opt = X @ np.linalg.pinv(X)
    P_true = vecs[:, :k] @ vecs[:, :k].conj().T
    assert np.linalg.norm(P_opt - P_true, 2) <= 1e-7


def test_minimizer_signed_permutation_oracle():
    # Diagonal equal-inertia frames: brute-force over type-preserving
    # permutations is the exact minimum.
    rng = np.random.default_rng(19)
    for _ in range(10):
        npl = int(rng.integers(1, 3))
        nmi = int(rng.integers(1, 3))
        bp = np.sort(rng.uniform(0.0, 3.0, size=npl))
        bn = np.sort(rng.uniform(-3.0, 0.0, size=nmi))
        hp = np.sort(rng.uniform(0.0, 2.0, size=npl))
        hn = np.sort(rng.uniform(-2.0, 0.0, size=nmi))
        prob = diag_problem(bp, bn, hp, hn)
        res = infimum(prob)
        brute_pos = min(
            float(np.dot(hp, perm)) for perm in itertools.permutations(bp)
        )
        brute_neg = min(
            float(np.dot(hn, perm)) for perm in itertools.permutations(bn)
        )
        assert res.value == pytest.approx(brute_pos + brute_neg, abs=1e-8)
        X, achieved = minimizer(prob)
        assert achieved == pytest.approx(res.value, abs=1e-8)
        assert pt.feasibility_residual(prob, X) <= 1e-8
        # On diagonal frames the minimizer is a signed permutation.
        mags = np.sort(np.abs(X), axis=0)
        np.testing.assert_allclose(mags[-1, :], 1.0, atol=1e-9)
        np.testing.assert_allclose(mags[:-1, :], 0.0, atol=1e-9)


def test_mixed_type_repeated_eigenvalue():
    # The eigenvalue 2 has one positive-type and one negative-type copy.  A
    # congruence mixes their eigenvectors, which then look B-isotropic one by
    # one; the cluster's Gram matrix still has one + and one - eigenvalue.
    base = pt.pair_from_arrays(np.diag([2.0, -2.0, 5.0]), np.diag([1.0, -1.0, 1.0]))
    hat = pt.pair_from_arrays(np.array([[1.0]]), np.array([[1.0]]))
    for seed in range(50):
        pair, _ = pt.random_congruence(base, seed, 6.0)
        spec = typed_spectrum(pair)
        np.testing.assert_allclose(spec.pos_values, [2.0, 5.0], rtol=1e-7)
        np.testing.assert_allclose(spec.neg_values, [2.0], rtol=1e-7)
        assert not spec.has_jordan and not spec.isotropic_defect
        prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
        res = infimum(prob)
        assert res.verdict == FINITE, f"seed {seed}: {res.verdict} ({res.reason})"
        assert res.value == pytest.approx(2.0, rel=1e-7)
        X, achieved = minimizer(prob)
        assert achieved == pytest.approx(2.0, rel=1e-7)
        assert pt.feasibility_residual(prob, X) <= 1e-8


def test_minimizer_kernel_count(monkeypatch):
    # minimizer runs infimum, which analyses each pair once, and then reads
    # the clustered frames off the result: one eig per pair.
    rng = np.random.default_rng(5)
    prob = diag_problem(
        rng.uniform(1.0, 2.0, 4), rng.uniform(-2.0, -1.0, 4),
        rng.uniform(0.5, 1.0, 2), rng.uniform(-1.0, -0.5, 2), scramble=(6, 7),
    )
    calls = count_eigen_kernels(monkeypatch)
    X, achieved = minimizer(prob)
    assert calls.count("eig") == 2, calls
    assert achieved == pytest.approx(infimum(prob).value, rel=1e-8)
    assert pt.feasibility_residual(prob, X) <= 1e-8


def test_minimizer_jordan_not_attainable():
    jp = k2_pair(0.3)
    prob = pt.ProblemInstance(
        pair=jp, hat_pair=pt.pair_from_arrays(np.diag([1.0, 0.5]), np.diag([1.0, -1.0]))
    )
    res = infimum(prob)
    assert res.verdict == FINITE
    assert res.attainable == "Unknown"
    with pytest.raises(NotAttainableError):
        minimizer(prob)


def test_minimizer_with_infinite_directions():
    # Singular B with a compatible +1 infinite block: minimizer still exists.
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0, 5.0]),
        np.diag([1.0, -1.0, 0.0]),
        np.diag([0.5, 0.1]),
        np.diag([1.0, -1.0]),
    )
    res = infimum(prob)
    assert res.verdict == FINITE
    X, achieved = minimizer(prob)
    assert achieved == pytest.approx(res.value, abs=1e-8)
    assert pt.feasibility_residual(prob, X) <= 1e-8


@pytest.mark.parametrize(
    "specs,expected_reasons",
    [
        ([BlockSpec("Tr", p=3, alpha=0.5, eta=1)],
         {"ComplexEigenvalues", "NotSemidefinitePair"}),
        ([BlockSpec("Tc", p=2, alpha=0.3, beta=0.8)], {"ComplexEigenvalues"}),
        ([BlockSpec("Tinf", p=3, eta=1), BlockSpec("Tr", p=1, alpha=1.0, eta=1)],
         {"CoupledInfiniteStructure"}),
        ([BlockSpec("Ts", p=2), BlockSpec("Tr", p=1, alpha=1.0, eta=1)],
         {"CoupledInfiniteStructure"}),
    ],
)
def test_higher_order_blocks_diverge(specs, expected_reasons):
    # Chained or defective structure beyond the diagonalizable families always
    # drives the infimum to -infinity; the verdict must be scramble-stable.
    hat = pt.pair_from_arrays(np.diag([0.4]), np.diag([1.0]))
    for seed in range(6):
        pair, truth = assemble(specs, scramble_seed=seed, conditioning_cap=4.0)
        assert not truth.psd and not truth.nsd
        res = infimum(pt.ProblemInstance(pair=pair, hat_pair=hat))
        assert res.verdict == NEG_INFINITE
        assert res.reason in expected_reasons


def test_two_copy_value_is_approached():
    # Hat pair with a boundary 2x2 Jordan structure: the closed-form value
    # counts the double eigenvalue once per type.  Splitting the double
    # eigenvalue by eps keeps the constraint unchanged, so the perturbed
    # minimizers are feasible for the original problem and their original
    # objective must descend to the reported value.
    A = np.diag([2.0, 1.0, 3.0])
    B = np.diag([1.0, -1.0, -1.0])
    Ah = np.array([[0.0, 0.4], [0.4, 1.0]])
    Bh = np.array([[0.0, 1.0], [1.0, 0.0]])
    prob = pt.problem_from_arrays(A, B, Ah, Bh)
    res = infimum(prob)
    assert res.verdict == FINITE and res.attainable == "Unknown"
    assert res.value == pytest.approx(-0.4, abs=1e-9)

    gaps = []
    for eps in (1e-4, 1e-6, 1e-8):
        prob_eps = pt.problem_from_arrays(
            A, B, np.array([[eps, 0.4], [0.4, 1.0]]), Bh
        )
        X, _ = minimizer(prob_eps)
        orig = float(np.real(np.trace(Ah @ X.conj().T @ A @ X)))
        assert pt.feasibility_residual(prob, X) <= 1e-6
        assert orig >= res.value - 1e-9
        gaps.append(orig - res.value)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] <= 1e-3


def test_nsd_branch_minimizer_and_padding():
    # Fully mirrored data lands on the NSD branch; padding equality and the
    # minimizer construction must hold there too.
    prob = pt.problem_from_arrays(
        -np.diag([2.0, 1.0, 3.0]),
        -np.diag([1.0, -1.0, -1.0]),
        -np.diag([0.6, 0.9]),
        -np.diag([1.0, -1.0]),
    )
    res = infimum(prob)
    assert res.verdict == FINITE and res.sign_case == "NSD_pairs"
    res_pad = infimum(pad_problem(prob))
    assert res_pad.value == pytest.approx(res.value, abs=1e-10)
    X, achieved = minimizer(prob)
    assert achieved == pytest.approx(res.value, abs=1e-8)
    assert pt.feasibility_residual(prob, X) <= 1e-8


def test_sampled_lower_bound(golden_problem):
    res = infimum(golden_problem)
    rngs = [np.random.default_rng([17, k]) for k in range(200)]
    X = pt.FeasibleSampler(golden_problem).sample(2.0, rngs)
    Xh = X.conj().swapaxes(-1, -2)
    traces = np.real(
        np.trace(
            golden_problem.hat_pair.A.entries @ Xh @ golden_problem.pair.A.entries @ X,
            axis1=-2,
            axis2=-1,
        )
    )
    worst = float(np.min(traces))
    assert worst >= res.value - 1e-6 * (1 + abs(res.value))


# --- stacked feasible sampling ----------------------------------------------


def _singular_b_problem():
    """genpairs pair with an infinite block (B singular, rank 3), hat pair of order 2."""
    specs = [
        BlockSpec("Tr", p=1, alpha=1.0, eta=1),
        BlockSpec("Tr", p=1, alpha=2.0, eta=1),
        BlockSpec("Tr", p=1, alpha=-1.0, eta=-1),
        BlockSpec("Tinf", p=1, eta=1),
    ]
    pair, truth = assemble(specs, scramble_seed=8, conditioning_cap=4.0)
    assert truth.inertia_B.n_zero == 1
    hat = pt.problem_from_arrays(np.eye(2), np.eye(2), np.diag([0.5, 1.5]), np.diag([1.0, -1.0]))
    return pt.ProblemInstance(pair=pair, hat_pair=hat.hat_pair)


@pytest.mark.parametrize(
    "make",
    [
        lambda: diag_problem([0.5, 1.0, 2.0], [], [0.3, 0.7, 1.1], [], scramble=(1, 2)),
        lambda: diag_problem([], [1.0, 2.0], [], [0.4, 0.9], scramble=(3, 4)),
        lambda: diag_problem([0.5, 2.0], [1.0, 3.0], [0.8], [0.6], scramble=(5, 6)),
        _singular_b_problem,
    ],
    ids=["n_minus_zero", "n_plus_zero", "nhat_below_n", "singular_B"],
)
def test_stacked_sample_matches_per_generator_draw(make):
    # Slice k of a stack is the single draw from default_rng([seed, k]), and the
    # stacked objective and residual are the per-sample values.
    prob = make()
    sampler = pt.FeasibleSampler(prob)
    stack = sampler.sample(1.7, [np.random.default_rng([29, k]) for k in range(12)])
    assert stack.shape == (12, prob.n, prob.nhat)
    traces = pt.tracemin._objective(prob, stack)
    residuals = pt.feasibility_residual(prob, stack)
    assert traces.shape == residuals.shape == (12,)
    for k in range(12):
        X = sampler.sample(1.7, np.random.default_rng([29, k]))
        assert X.shape == (prob.n, prob.nhat)
        assert np.linalg.norm(stack[k] - X) <= 1e-12 * np.linalg.norm(X)
        tr = pt.tracemin._objective(prob, X)
        assert isinstance(tr, float)
        assert abs(traces[k] - tr) <= 1e-12 * (1.0 + abs(tr))
        assert residuals[k] <= 1e-8 and pt.feasibility_residual(prob, X) <= 1e-8

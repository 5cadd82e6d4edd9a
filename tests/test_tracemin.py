import itertools

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import (
    EmptyFeasibleSetError,
    NotAttainableError,
)
from pencil_tracemin.genpairs import BlockSpec, assemble
from pencil_tracemin.matcore import DEFAULT_TOLS, check_inertias
from pencil_tracemin.spectral import analyze_pair
from pencil_tracemin.tracemin import (
    ATTAINABLE_YES,
    COMPLEX_EIGENVALUES,
    EXCLUDED_CONSTANT,
    FINITE,
    MIXED_SIGNS,
    NEG_INFINITE,
    _properness,
    check_excluded,
    infimum,
    minimizer,
)

from conftest import (
    count_eigen_kernels, diag_problem, golden_hat_matrix, k2_pair, pencil_solves, rand_hermitian,
)
from reference import deflate_common_nullspace, equal_inertia_value, fan_min_product, pad_problem
from test_acceptance import _hat_pair, _objective, _random_specs


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


@pytest.mark.parametrize("A, B, Ahat, Bhat, which, mu, value", [
    (np.diag([2.0, -2.0]), np.diag([1.0, -1.0]), [[3.0]], [[1.0]], "AEqualsMuB", 2.0, 6.0),
    (np.diag([1.0, 3.0]), np.diag([1.0, -1.0]), np.diag([2.0, -2.0]), np.diag([1.0, -1.0]),
     "AhatEqualsMuhatBhat", 2.0, -4.0),
    (0.5 * np.eye(3), np.eye(3), np.diag([1.0, 2.0]), np.eye(2), "AEqualsMuB", 0.5, 1.5),
], ids=["a_is_2b", "ahat_is_2bhat", "a_is_half_b"])
def test_exactly_proportional_pair_gets_the_exact_ratio(A, B, Ahat, Bhat, which, mu, value):
    # |N|_F² summed, not squared from the rounded |N|_F: the ratio, and so
    # the constant, come out exact.
    prob = pt.problem_from_arrays(A, B, np.array(Ahat), np.array(Bhat))
    exc = check_excluded(prob)
    assert (exc.which, exc.mu, exc.constant) == (which, mu, value)
    res = infimum(prob)
    assert res.verdict == EXCLUDED_CONSTANT and res.value == value


def test_zero_b_is_no_excluded_case():
    # B = 0 makes A = mu*B impossible: _proportional has no least-squares mu
    # to offer (|B|_F = 0), and with Ahat not proportional to Bhat nothing is
    # excluded.
    prob = pt.problem_from_arrays(np.diag([1.0, 2.0]), np.zeros((2, 2)), np.diag([0.5, 0.3]),
                                  np.diag([1.0, -1.0]))
    assert check_excluded(prob) is None


@pytest.mark.parametrize("rel", [3e-10, 8e-10])
def test_nearly_proportional_a_takes_the_general_path(rel):
    # A = 2B off by rel (relative): beyond rank_tol = 1e-10, so no AEqualsMuB
    # exclusion.  The general path finds the constant 2 trace(Ahat Bhat^-1)
    # = 0.4 up to the perturbation's size.
    B, E = np.diag([1.0, 1.0, -1.0]), np.diag([1.0, -1.0, 0.5])
    A = 2.0 * B + rel * np.linalg.norm(2.0 * B) * E / np.linalg.norm(E)
    prob = pt.problem_from_arrays(A, B, np.diag([0.5, 0.3]), np.diag([1.0, -1.0]))
    assert check_excluded(prob) is None
    res = infimum(prob)
    assert res.verdict == FINITE
    assert res.value == pytest.approx(0.4, abs=1e-8)

# --- properness -------------------------------------------------------------
# _properness takes the hat's typed values and whether B has more positive
# (pad_plus) or negative (pad_minus) directions than Bhat.


def test_properness_case_i():
    # Inertias (1, 0, 1) and (1, 0, 1): no padding.
    spec = analyze_pair(pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0])))
    rep = _properness(spec.pos_values, spec.neg_values, False, False, DEFAULT_TOLS)
    assert rep.is_proper and rep.case_label == "i"
    assert (rep.d_plus, rep.d_minus) == (0, 0)


def test_properness_case_ii_counts_positive_negative_type():
    # Hat pair (diag(1,-1), diag(1,-1)): eigenvalue 1 of both types.
    spec = analyze_pair(pt.pair_from_arrays(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))
    np.testing.assert_allclose(spec.pos_values, [1.0])
    np.testing.assert_allclose(spec.neg_values, [1.0])
    # Inertias (1, 0, 2) and (1, 0, 1): B has one more negative direction.
    rep = _properness(spec.pos_values, spec.neg_values, False, True, DEFAULT_TOLS)
    assert rep.is_proper and rep.case_label == "ii"
    assert rep.d_minus == 1 and rep.d_plus == 0


def test_properness_improper_case_iv():
    # Hat positive-type eigenvalue -1 < 0 violates case (iv).
    spec = analyze_pair(pt.pair_from_arrays(np.diag([-1.0, 2.0]), np.diag([1.0, -1.0])))
    # Inertias (2, 0, 2) and (1, 0, 1): both sides padded.
    rep = _properness(spec.pos_values, spec.neg_values, True, True, DEFAULT_TOLS)
    assert not rep.is_proper and rep.case_label == "improper"


def test_properness_inertia_violation():
    # Bhat's inertia (1, 0, 1) does not fit inside B's (0, 0, 1): no feasible X.
    with pytest.raises(EmptyFeasibleSetError):
        check_inertias(pt.Inertia(0, 0, 1), pt.Inertia(1, 0, 1))


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
    spec = analyze_pair(padded.hat_pair)
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
    with pytest.raises(ValueError):
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


def _equal_inertia_sweep(cap, count=100):
    """Equal-inertia PSD diagonal problems of order 2-8 under congruences of
    condition number up to ``cap``, each with its sorted-product value."""
    rng = np.random.default_rng(5)
    for k in range(count):
        n = int(rng.integers(2, 9))
        npl = int(rng.integers(1, n))
        cut, hcut = rng.uniform(-1.0, 1.0, size=2)
        bp, bn = cut + rng.uniform(0.1, 2.0, npl), cut - rng.uniform(0.1, 2.0, n - npl)
        hp, hn = hcut + rng.uniform(0.1, 2.0, npl), hcut - rng.uniform(0.1, 2.0, n - npl)
        value = fan_min_product(hp, bp) + fan_min_product(hn, bn)
        yield diag_problem(bp, bn, hp, hn, scramble=(k, k + 1000), cap=cap), value


@pytest.mark.parametrize("cap", [1e4, 1e5])
def test_verdict_independent_of_congruence_conditioning(cap):
    # Typed in the B-frame, where B has unit scale, the eigenvalues of an
    # ill-conditioned congruence keep their types: every problem stays
    # Finite and attainable, with the sorted-product value.
    for prob, value in _equal_inertia_sweep(cap):
        res = infimum(prob)
        assert (res.verdict, res.attainable) == (FINITE, ATTAINABLE_YES)
        assert res.value == pytest.approx(value, rel=1e-6)


@pytest.mark.parametrize("cap, solved", [(1e4, 75), (1e5, 72)], ids=["cap-1e4", "cap-1e5"])
def test_pair_route_value_under_an_ill_conditioned_congruence(cap, solved):
    # Solved in their own coordinates, both pairs skip the B-frame and its
    # eps * cond(B) roundoff: the value keeps 1e-12 relative accuracy.
    pair_solved = 0
    for prob, value in _equal_inertia_sweep(cap):
        res = infimum(prob)
        if res.analysis.route == res.hat_analysis.route == "pair-cholesky":
            assert res.value == pytest.approx(value, rel=1e-12, abs=0)
            pair_solved += 1
    assert pair_solved == solved


def test_minimizer_with_a_tiny_entry_of_b():
    # (diag(1, 2), diag(1, 1e-8)) has the positive-type eigenvalues 1 and 2e8;
    # the small B-form of the second is no Jordan structure.
    prob = pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, 1e-8]), np.diag([1.0, 3.0]), np.eye(2)
    )
    X, achieved = minimizer(prob)
    assert achieved == pytest.approx(2e8 + 3.0, rel=1e-12)
    assert pt.feasibility_residual(prob, X) <= 1e-8


def test_type_counts_match_the_signs_of_j():
    # _formula_terms indexes a big typed list by the positions of the hat
    # list: safe iff each list holds one value per sign of its pair's J, a
    # conjugate block counting once per type.
    def check(pair):
        a = pt.analyze_pair(pair)
        ib = a.b_inertia
        blocks = len(a.complex_values) // 2
        assert (len(a.pos_values) + blocks, len(a.neg_values) + blocks) == (ib.n_plus, ib.n_minus)

    checked = 0
    for prob in _criterion_7_problems():
        if not pt.analyze_pair(prob.pair).coupled:
            check(prob.pair)
            checked += 1
    assert checked == 233
    for cap in (1e4, 1e5):
        for prob, _ in _equal_inertia_sweep(cap):
            check(prob.pair)
            check(prob.hat_pair)


def test_nsd_properness_named_by_the_padded_side_of_b():
    # Negated, B has two +1 signs and Bhat one: the positive side of B is
    # padded (case "iii"), and the hat's positive-type value 0.2 lies beyond
    # that zero on the NSD branch.  The PSD original pads the negative side.
    mats = [np.diag([2.0, 1.0, 3.0]), np.diag([1.0, -1.0, -1.0]),
            np.diag([1.0, -0.2]), np.diag([1.0, -1.0])]
    nsd = infimum(pt.problem_from_arrays(*[-M for M in mats]))
    psd = infimum(pt.problem_from_arrays(*mats))
    assert nsd.sign_case == "NSD_pairs" and psd.sign_case == "PSD_pairs"
    label = lambda p: (p.case_label, p.d_plus, p.d_minus)
    assert label(nsd.properness) == ("iii", 1, 0)
    assert label(psd.properness) == ("ii", 0, 1)
    assert nsd.value == pytest.approx(psd.value, abs=1e-12)


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
        big = analyze_pair(deflate_common_nullspace(prob.pair).reduced)
        hat = analyze_pair(prob.hat_pair)
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


@pytest.mark.parametrize(
    "a, b, hat, factor",
    [
        (1e-11, 1e-11, 1.0, 1.0),  # A on N(B) must not read as chained
        (1.0, 1e12, 1.0, 1e-12),  # the direction where A = 2 must not be deflated
        (1.0, 1e8, 1.0, 1e-8),  # the eigenvalues 3e-8 and -1e-8 must not cluster
        (1.0, 1.0, 1e-11, 1.0),  # Ahat must not read as zero
    ],
    ids=["pair", "B", "B-cluster", "hat-pair"],
)
def test_verdict_independent_of_scale(a, b, hat, factor):
    # A = diag(3, 2, 1), B = diag(1, 0, -1), Ahat = diag(0.5, 0.3), Bhat =
    # diag(1, -1) has infimum 3 * 0.5 + (-1)(-0.3) = 1.8.  Scaling B by b
    # scales it by 1/b; scaling A with B, or Ahat with Bhat, leaves it alone.
    prob = pt.problem_from_arrays(
        a * np.diag([3.0, 2.0, 1.0]), b * np.diag([1.0, 0.0, -1.0]),
        hat * np.diag([0.5, 0.3]), hat * np.diag([1.0, -1.0]),
    )
    res = infimum(prob)
    assert res.verdict == FINITE
    assert res.value == pytest.approx(1.8 * factor, rel=1e-9)



def test_small_conjugate_pair_beside_a_large_eigenvalue():
    # Eigenvalues +-0.05i and 1e6: realness is judged relative to each
    # eigenvalue, so the pair stays complex beside the large one.
    A = np.array([[0.0, 0.05, 0.0], [0.05, 0.0, 0.0], [0.0, 0.0, 1.0]])
    prob = pt.problem_from_arrays(
        A, np.diag([1.0, -1.0, 1e-6]), np.diag([0.5, 0.3]), np.diag([1.0, -1.0])
    )
    spec = analyze_pair(prob.pair)
    assert sorted(z.imag for z in spec.complex_values) == pytest.approx([-0.05, 0.05], abs=1e-9)
    np.testing.assert_allclose(spec.pos_values, [1e6], rtol=1e-12)
    assert not len(spec.neg_values)
    res = infimum(prob)
    assert (res.verdict, res.reason) == (NEG_INFINITE, COMPLEX_EIGENVALUES)

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
        spec = analyze_pair(pair)
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
    # the typed directions off the result: one pencil solve per pair.
    rng = np.random.default_rng(5)
    prob = diag_problem(
        rng.uniform(1.0, 2.0, 4), rng.uniform(-2.0, -1.0, 4),
        rng.uniform(0.5, 1.0, 2), rng.uniform(-1.0, -0.5, 2), scramble=(6, 7),
    )
    calls = count_eigen_kernels(monkeypatch)
    X, achieved = minimizer(prob)
    assert pencil_solves(calls) == 2, calls
    assert achieved == pytest.approx(infimum(prob).value, rel=1e-8)
    assert pt.feasibility_residual(prob, X) <= 1e-8


def test_infimum_result_is_the_handle_for_minimizer_and_sampler(monkeypatch):
    # An infimum result passed back in is read, not solved again: one pencil
    # solve per pair for infimum, minimizer and sampler together.
    rng = np.random.default_rng(5)
    prob = diag_problem(
        rng.uniform(1.0, 2.0, 4), rng.uniform(-2.0, -1.0, 4),
        rng.uniform(0.5, 1.0, 2), rng.uniform(-1.0, -0.5, 2), scramble=(6, 7),
    )
    calls = count_eigen_kernels(monkeypatch)
    res = infimum(prob)
    X, achieved = minimizer(prob, res)
    Xs = pt.FeasibleSampler(prob, res).sample(1.0, np.random.default_rng(0))
    assert pencil_solves(calls) == 2, calls
    assert achieved == pytest.approx(res.value, rel=1e-8)
    assert pt.feasibility_residual(prob, X) <= 1e-8
    assert pt.feasibility_residual(prob, Xs) <= 1e-8
    # A result read from other pairs, even equal ones, is refused.
    other = pt.ProblemInstance(pair=prob.pair, hat_pair=pt.pair_from_arrays(
        prob.hat_pair.A.entries, prob.hat_pair.B.entries))
    for use in (minimizer, pt.FeasibleSampler):
        with pytest.raises(ValueError, match="not computed for this problem"):
            use(other, res)


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


def test_minimizer_neg_infinite_not_attainable():
    prob = diag_problem([1.0], [-2.0], [-1.0], [2.0])
    assert infimum(prob).verdict == NEG_INFINITE
    with pytest.raises(NotAttainableError, match="-infinity"):
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
    X = pt.FeasibleSampler(golden_problem).sample(2.0, np.random.default_rng(17), 200)
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


_STACKED = [
    lambda: diag_problem([0.5, 1.0, 2.0], [], [0.3, 0.7, 1.1], [], scramble=(1, 2)),
    lambda: diag_problem([], [1.0, 2.0], [], [0.4, 0.9], scramble=(3, 4)),
    lambda: diag_problem([0.5, 2.0], [1.0, 3.0], [0.8], [0.6], scramble=(5, 6)),
    _singular_b_problem,
    # Unitary factors of order 5 and 6, so the reflector loop runs.
    lambda: diag_problem(np.linspace(0.5, 2.0, 6), np.linspace(1.0, 3.0, 5),
                         np.linspace(0.4, 1.2, 4), [0.6, 0.9, 1.3], scramble=(11, 12)),
    lambda: diag_problem(np.linspace(0.5, 2.0, 5), np.linspace(1.0, 3.0, 5),
                         np.linspace(0.4, 1.2, 5), np.linspace(0.6, 1.8, 5), scramble=(13, 14)),
]
_STACKED_IDS = ["n_minus_zero", "n_plus_zero", "nhat_below_n", "singular_B", "n11_nhat7", "n10_equal"]
stacked_problems = pytest.mark.parametrize("make", _STACKED, ids=_STACKED_IDS)


@stacked_problems
def test_stacked_sample_matches_per_generator_draw(make):
    # Slice k of a stack is the k-th of successive single draws from the same
    # generator, and the stacked objective and residual are the per-sample values.
    # The objective's two-product sum agrees with trace(Ahat X^H A X) of three
    # products up to the order of summation.
    prob = make()
    sampler = pt.FeasibleSampler(prob)
    stack = sampler.sample(1.7, np.random.default_rng(29), 12)
    assert stack.shape == (12, prob.n, prob.nhat)
    traces = pt.tracemin._objective(prob, stack)
    residuals = pt.feasibility_residual(prob, stack)
    assert traces.shape == residuals.shape == (12,)
    reference = _objective(prob, stack)
    assert np.all(np.abs(traces - reference) <= 1e-12 * (1.0 + np.abs(reference)))
    rng = np.random.default_rng(29)
    for k in range(12):
        X = sampler.sample(1.7, rng)
        assert X.shape == (prob.n, prob.nhat)
        assert np.linalg.norm(stack[k] - X) <= 1e-12 * np.linalg.norm(X)
        tr = pt.tracemin._objective(prob, X)
        assert isinstance(tr, float)
        assert abs(traces[k] - tr) <= 1e-12 * (1.0 + abs(tr))
        assert residuals[k] <= 1e-8 and pt.feasibility_residual(prob, X) <= 1e-8


@pytest.mark.parametrize("n, nhat", [(2, 1), (20, 13), (80, 57)])
def test_products_give_one_x_what_they_give_a_one_sample_stack(n, nhat):
    # The objective and the constraint gap of one X equal those of the same X
    # passed as a stack of one, and those of the products as written.
    rng = np.random.default_rng(n)
    pair = pt.pair_from_arrays(rand_hermitian(rng, n), rand_hermitian(rng, n))
    hat = pt.pair_from_arrays(rand_hermitian(rng, nhat), rand_hermitian(rng, nhat))
    prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
    X = rng.standard_normal((n, nhat)) + 1j * rng.standard_normal((n, nhat))
    Xh = X.conj().T
    trace = pt.tracemin._objective(prob, X)
    stacked = pt.tracemin._objective(prob, X[None])
    reference = np.trace(hat.A.entries @ Xh @ pair.A.entries @ X).real
    assert isinstance(trace, float) and stacked.shape == (1,)
    for value in (trace, stacked[0]):
        assert abs(value - reference) <= 1e-13 * abs(reference)
    gap = pt.tracemin._constraint_gap(prob, X)
    stacked = pt.tracemin._constraint_gap(prob, X[None])
    reference = hat.B.entries @ Xh @ pair.B.entries @ X - np.eye(nhat)
    assert gap.shape == (nhat, nhat) and stacked.shape == (1, nhat, nhat)
    for value in (gap, stacked[0]):
        assert np.linalg.norm(value - reference) <= 1e-13 * np.linalg.norm(reference)


@pytest.mark.parametrize("K", [1, 2, 7, 200])
@pytest.mark.parametrize("dtype", [complex, float])
def test_times_fixed_matches_per_sample_products(dtype, K):
    # Each sample gets the bits of its own product, on the stacked-rows GEMM
    # and on the guarded inputs alike.  Complex one-row samples with c = 2, 3
    # or 5 and real two-row samples with c = 17 or 18 change bits when
    # flattened, so they fail here unless the guards send them to S @ M.
    rng = np.random.default_rng(K)

    def draw(*shape):
        if dtype is float:
            return rng.standard_normal(shape)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    shapes = [(r, c, d) for r in (1, 2, 3, 8) for c in (1, 4, 8) for d in (1, 3, 8)]
    shapes += [(1, c, 3) for c in (2, 3, 5)] + [(2, c, 3) for c in (17, 18)]
    for r, c, d in shapes:
        S, M = draw(K, r, c), draw(c, d)
        expected = np.array([S[k] @ M for k in range(K)])
        assert np.array_equal(pt.tracemin._times_fixed(S, M), expected), (r, c, d)
        assert np.array_equal(pt.tracemin._times_fixed(S[0], M), S[0] @ M), (r, c, d)


@pytest.mark.parametrize("K", [1, 2, 12, 200])
@pytest.mark.parametrize(
    "make",
    _STACKED + [
        lambda: diag_problem([0.5, 2.0], [1.0], [0.8], [], scramble=(21, 22)),
        lambda: diag_problem([0.5, 2.0, 3.0], [1.0, 1.5, 2.5], [0.8], [], scramble=(23, 24)),
    ],
    ids=_STACKED_IDS + ["n3_nhat1", "n6_nhat1"],
)
def test_stacked_values_are_the_single_values_exactly(make, K):
    # Sample k of a stack gets the very trace, gap and residual that it gets
    # alone.  With nhat = 1 the gap's Bhat X^H samples have one row, so the
    # fixed factor B is multiplied sample by sample.
    prob = make()
    X = pt.FeasibleSampler(prob).sample(1.7, np.random.default_rng(37), K)
    traces = pt.tracemin._objective(prob, X)
    gaps = pt.tracemin._constraint_gap(prob, X)
    residuals = pt.feasibility_residual(prob, X)
    for k in range(K):
        assert traces[k] == pt.tracemin._objective(prob, X[k])
        assert np.array_equal(gaps[k], pt.tracemin._constraint_gap(prob, X[k]))
        assert residuals[k] == pt.feasibility_residual(prob, X[k])


@stacked_problems
def test_stacked_sample_prefix_and_split(make):
    # Sample k does not depend on how many samples are drawn, nor on where a
    # run of draws from one generator is split into stacks.
    sampler = pt.FeasibleSampler(make())
    whole = sampler.sample(1.7, np.random.default_rng(29), 12)
    np.testing.assert_array_equal(sampler.sample(1.7, np.random.default_rng(29), 5), whole[:5])
    rng = np.random.default_rng(29)
    split = np.concatenate([sampler.sample(1.7, rng, 7), sampler.sample(1.7, rng, 5)])
    np.testing.assert_array_equal(split, whole)


def test_samples_reach_the_null_space_of_singular_b():
    # With B singular, a sample adds N Y to the J-unitary's columns, N the
    # null columns of B's frame and Y Gaussian scaled by the spread: every
    # sample has a component in N(B) and stays feasible, and a stack equals
    # the single draws.
    prob = _singular_b_problem()
    sampler = pt.FeasibleSampler(prob)
    stack = sampler.sample(1.7, np.random.default_rng(31), 40)
    vals, vecs = np.linalg.eigh(prob.pair.B.entries)
    null = vecs[:, np.abs(vals) <= 1e-10 * np.max(np.abs(vals))]
    assert null.shape[1] == 1
    size = np.linalg.norm(stack, axis=(-2, -1))
    assert np.all(np.linalg.norm(null.conj().T @ stack, axis=(-2, -1)) >= 1e-3 * size)
    scale = np.linalg.norm(prob.hat_pair.B.entries, 2) * np.linalg.norm(prob.pair.B.entries, 2)
    assert np.all(pt.feasibility_residual(prob, stack) <= 1e-9 * scale * size**2)
    rng = np.random.default_rng(31)
    for k in range(40):
        np.testing.assert_array_equal(sampler.sample(1.7, rng), stack[k])


def _golden_like():
    return pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), golden_hat_matrix(), np.diag([1.0, -1.0])
    )


@pytest.mark.parametrize(
    "make, spread, size",
    [
        (_golden_like, 1.0, 200),
        (_golden_like, 2.0, 200),
        (_golden_like, 10.0, 37),
        (lambda: diag_problem([0.5, 2.0], [1.0, 3.0], [0.8], [0.6], scramble=(5, 6)), 2.0, 200),
        (lambda: diag_problem([0.5, 1.0, 2.0], [0.7, 1.5], [0.3, 0.9], [0.4], scramble=(7, 8)), 3.0, 200),
        (_golden_like, 2.0, 1),
        (_golden_like, 0.0, 50),
        (lambda: diag_problem([0.5, 2.0], [1.0, 3.0], [0.8], [0.6], scramble=(5, 6)), 0.0, 50),
    ],
    ids=["golden-1", "golden-2", "golden-10", "nhat_below_n", "nhat_below_n-3x5", "one_sample",
         "spread_zero", "spread_zero-nhat_below_n"],
)
def test_feasibility_residual_is_the_frobenius_norm(make, spread, size):
    # Each sample's residual is ||G||_F of its gap G, whatever stack it is
    # read from, and lies between ||G||_2 and sqrt(nhat) times it.
    prob = make()
    sampler = pt.FeasibleSampler(prob)
    for seed in range(5):
        X = sampler.sample(spread, np.random.default_rng(seed), size)
        G = pt.tracemin._constraint_gap(prob, X)
        residuals = pt.feasibility_residual(prob, X)
        assert residuals.shape == (size,)
        for k in range(size):
            one = pt.feasibility_residual(prob, X[k])
            assert isinstance(one, float)
            assert one == pt.feasibility_residual(prob, X[k : k + 1])[0] == residuals[k]
            frobenius, two = np.linalg.norm(G[k]), np.linalg.norm(G[k], 2)
            assert abs(one - frobenius) <= 1e-15 * frobenius
            assert two * (1.0 - 1e-14) <= one <= np.sqrt(prob.nhat) * two * (1.0 + 1e-14)


@pytest.mark.parametrize(
    "entry, in_x",
    [(np.nan, True), (np.nan, False), (np.inf, False), (complex(np.inf, np.nan), False)],
    ids=["nan_sample", "nan", "inf", "inf_nan"],
)
def test_feasibility_residual_of_a_nonfinite_gap_is_nonfinite(monkeypatch, entry, in_x):
    # A NaN or inf in one sample's G makes that residual non-finite, with no
    # exception and no warning, and leaves the others as they were.
    prob = _golden_like()
    X = pt.FeasibleSampler(prob).sample(2.0, np.random.default_rng(8), 6)
    finite = pt.feasibility_residual(prob, X)
    if in_x:
        X[3, 0, 0] = entry
    else:
        G = pt.tracemin._constraint_gap(prob, X)
        G[3, 1, 0] = entry
        monkeypatch.setattr(pt.tracemin, "_constraint_gap", lambda problem, X: G)
    residuals = pt.feasibility_residual(prob, X)
    assert not np.isfinite(residuals[3])
    np.testing.assert_array_equal(np.delete(residuals, 3), np.delete(finite, 3))


def test_feasibility_residual_of_a_huge_gap_is_finite():
    # Gap entries of about 1e200 square beyond the floats; the residual,
    # summed relative to the largest entry, stays finite.  A zero gap gives 0.
    prob = _golden_like()
    X = 1e100 * pt.FeasibleSampler(prob).sample(2.0, np.random.default_rng(9), 4)
    G = pt.tracemin._constraint_gap(prob, X)
    assert np.all(np.abs(G).max(axis=(-2, -1)) >= 1e199)
    residuals = pt.feasibility_residual(prob, X)
    assert np.all(np.isfinite(residuals))
    for k in range(4):
        reference = 1e200 * np.linalg.norm(G[k] / 1e200)
        assert abs(residuals[k] - reference) <= 1e-15 * reference
    assert pt.feasibility_residual(prob, np.eye(2)) == 0.0

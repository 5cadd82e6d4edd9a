import json

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import (
    EmptyFeasibleSetError,
    NonFiniteError,
    NotHermitianError,
    NotSquareError,
)
from pencil_tracemin.matcore import matrix_from_json, matrix_to_json

from conftest import rand_hermitian


def test_validate_real_diagonal():
    H = pt.validate_hermitian([[1, 0], [0, 2]])
    assert H.herm_residual == 0.0
    assert H.n == 2
    np.testing.assert_array_equal(H.entries, np.diag([1.0 + 0j, 2.0]))


def test_validate_exact_hermitian_complex():
    H = pt.validate_hermitian([[0, 1j], [-1j, 0]])
    assert H.herm_residual == 0.0


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        pt.validate_hermitian([[0, 1], [0, 0]], herm_tol=1e-10)


def test_validate_rejects_non_square():
    with pytest.raises(NotSquareError):
        pt.validate_hermitian(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_validate_rejects_non_finite(bad):
    # A NaN residual compares false against herm_tol, so finiteness is checked first.
    with pytest.raises(NonFiniteError):
        pt.validate_hermitian([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(NonFiniteError):
        pt.pair_from_arrays(np.eye(2), [[bad, 0.0], [0.0, 1.0]], herm_tol=np.inf)


def test_symmetrization_idempotent():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    M = M + M.conj().T + 1e-12 * rng.standard_normal((4, 4))
    H1 = pt.validate_hermitian(M, herm_tol=1e-10)
    H2 = pt.validate_hermitian(H1.entries)
    np.testing.assert_array_equal(H1.entries, H2.entries)


def test_inertia_diagonal_examples():
    assert pt.inertia(pt.validate_hermitian(np.diag([1.0, -1.0]))).as_tuple() == (1, 0, 1)
    assert pt.inertia(pt.validate_hermitian(np.diag([2.0, 3.0, 0.0]))).as_tuple() == (2, 1, 0)


def test_inertia_anti_identity():
    # F_2 has eigenvalues +1 and -1 (characteristic polynomial t^2 - 1).
    F2 = pt.validate_hermitian([[0.0, 1.0], [1.0, 0.0]])
    assert pt.inertia(F2).as_tuple() == (1, 0, 1)


def test_inertia_components_sum_to_n():
    rng = np.random.default_rng(11)
    for n in (1, 3, 7):
        H = pt.validate_hermitian(rand_hermitian(rng, n))
        assert pt.inertia(H).n == n


def test_sylvester_law_many_seeds():
    rng = np.random.default_rng(5)
    base = pt.pair_from_arrays(rand_hermitian(rng, 5), np.diag([2.0, 1.0, 0.0, -1.0, -3.0]))
    want = pt.inertia(base.B).as_tuple()
    for seed in range(100):
        out, Y = pt.random_congruence(base, seed, conditioning_cap=50.0)
        assert pt.inertia(out.B).as_tuple() == want
        assert np.linalg.cond(Y) <= 50.0 * 1.01


def test_random_congruence_deterministic():
    rng = np.random.default_rng(0)
    pair = pt.pair_from_arrays(rand_hermitian(rng, 4), rand_hermitian(rng, 4))
    out1, Y1 = pt.random_congruence(pair, 7, 10.0)
    out2, Y2 = pt.random_congruence(pair, 7, 10.0)
    np.testing.assert_array_equal(Y1, Y2)
    np.testing.assert_array_equal(out1.A.entries, out2.A.entries)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = matrix_to_json(M)
    assert obj["n"] == 3 and len(obj["entries"]) == 9
    back = matrix_from_json(json.loads(json.dumps(obj)))
    np.testing.assert_array_equal(back, M)


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 1, "entries": [1.0]},
        {"n": 1, "entries": [[1.0, 0.0, 2.0]]},
        {"n": 1, "entries": [["1", 0.0]]},
        {"n": 1, "entries": 5},
        {"n": None, "entries": [[1.0, 0.0]]},
        {"n": 2, "entries": [[1.0, 0.0]]},
    ],
)
def test_matrix_from_json_rejects_malformed_entries(obj):
    with pytest.raises(ValueError):
        matrix_from_json(obj)


def test_pair_and_problem_files(tmp_path):
    rng = np.random.default_rng(4)
    pair = pt.pair_from_arrays(rand_hermitian(rng, 3), rand_hermitian(rng, 3))
    path = tmp_path / "pair.json"
    pt.matcore.save_pair(path, pair)
    back = pt.load_pair(path)
    np.testing.assert_allclose(back.A.entries, pair.A.entries, atol=1e-15)

    prob = pt.ProblemInstance(pair=pair, hat_pair=pair)
    ppath = tmp_path / "problem.json"
    pt.matcore.save_problem(ppath, prob)
    back = pt.load_problem(ppath)
    np.testing.assert_allclose(back.hat_pair.B.entries, pair.B.entries, atol=1e-15)


def test_check_feasibility():
    ok = pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), np.diag([1.0]), np.diag([1.0])
    )
    pt.infimum(ok)

    singular_bhat = pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), np.diag([1.0]), np.diag([0.0])
    )
    with pytest.raises(EmptyFeasibleSetError):
        pt.infimum(singular_bhat)

    too_much_minus = pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, 1.0]), np.diag([1.0]), np.diag([-1.0])
    )
    with pytest.raises(EmptyFeasibleSetError):
        pt.infimum(too_much_minus)

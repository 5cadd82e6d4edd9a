import io
import json
import re

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import (
    EmptyFeasibleSetError,
    NonFiniteError,
    NotHermitianError,
    NotSquareError,
)
from pencil_tracemin.matcore import haar_unitary, matrix_from_json, matrix_to_json, standard_normals

from conftest import rand_hermitian
from reference import qr_haar_unitary


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


@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_validate_accepts_large_hermitian_roundoff(scale):
    # Y^H D Y formed in floating point is Hermitian up to roundoff relative to
    # its size; that residual exceeds herm_tol in absolute terms at these scales.
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = Y.conj().T @ np.diag(scale * rng.uniform(-1.0, 1.0, 6)) @ Y
    H = pt.validate_hermitian(M)
    assert H.herm_residual > pt.ToleranceSet().herm_tol


def test_validate_rejects_small_non_hermitian():
    # A matrix that is not Hermitian at all is refused however small it is.
    with pytest.raises(NotHermitianError, match=r"herm_tol \* max\|M\| = 1\.000e-21"):
        pt.validate_hermitian([[0, 1e-11], [0, 0]])


def test_validate_rejects_non_square():
    with pytest.raises(NotSquareError):
        pt.validate_hermitian(np.zeros((2, 3)))
    with pytest.raises(NotSquareError, match="at least 1"):
        pt.validate_hermitian(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_validate_rejects_non_finite(bad):
    # A NaN residual compares false against herm_tol, so finiteness is checked first.
    with pytest.raises(NonFiniteError):
        pt.validate_hermitian([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(NonFiniteError):
        pt.pair_from_arrays(np.eye(2), [[bad, 0.0], [0.0, 1.0]], herm_tol=np.inf)


def test_validate_rejects_entries_whose_norm_overflows():
    # Squares above the largest float make |A|_F infinite, and a proportionality
    # test |M - mu N| <= tol |M| then reads inf <= inf; the input is refused.
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    args = (np.diag([1.0, -1.0]), [[0.5]], [[1.0]])
    res = pt.infimum(pt.problem_from_arrays(1e150 * A, *args))
    assert res.verdict == "Finite"
    assert res.value == pytest.approx(0.8956439237389597e150, rel=1e-12)
    for s in (1e154, 1e160):
        with pytest.raises(NonFiniteError, match="Frobenius norm"):
            pt.problem_from_arrays(s * A, *args)
    # Entries above half the largest float overflow M + M^H itself, without a warning.
    with pytest.raises(NonFiniteError):
        pt.validate_hermitian([[1e308, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("field", ["herm_tol", "rank_tol", "psd_tol", "type_tol", "feas_tol"])
def test_tolerances_must_be_finite(field):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        pt.ToleranceSet(**{field: np.inf})


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


@pytest.mark.parametrize("n", [1, 2, 5, 20])
@pytest.mark.parametrize("seed", [0, 11, 2**32 - 1])
def test_haar_unitary_is_pinned_bit_for_bit(n, seed):
    # random_congruence and every genpairs scramble read this draw: a change
    # to its stream or its formula would move them all.
    rng = np.random.default_rng(seed)
    U = haar_unitary(n, rng)
    ref_rng = np.random.default_rng(seed)
    np.testing.assert_array_equal(U, qr_haar_unitary(n, ref_rng))
    # The generator is left where the reference left it.
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_random_congruence_qr_failure_is_typed(monkeypatch):
    # random_congruence keeps LAPACK's QR for its one Haar unitary.
    from pencil_tracemin.errors import KernelFailureError

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    pair = pt.pair_from_arrays(np.eye(3), np.diag([1.0, -1.0, 2.0]))
    monkeypatch.setattr(np.linalg, "qr", failing)
    with pytest.raises(KernelFailureError, match="did not converge"):
        pt.random_congruence(pair, 7, 10.0)


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


@pytest.mark.parametrize(
    "obj,field",
    [
        ({"n": 2.5, "entries": [[1.0, 0.0]] * 4}, "'n'"),
        ({"n": 2.0, "entries": [[1.0, 0.0]] * 4}, "'n'"),
        ({"n": True, "entries": [[1.0, 0.0]]}, "'n'"),
        ({"n": "1", "entries": [[1.0, 0.0]]}, "'n'"),
        ({"n": -1, "entries": [[1.0, 0.0]]}, "'n'"),
        ({"n": 0, "entries": []}, "'n'"),
        ({"n": 1, "m": True, "entries": [[1.0, 0.0]]}, "'m'"),
        ({"n": 1, "m": 0, "entries": []}, "'m'"),
        ({"n": 1, "entries": [[True, 0]]}, "'entries'[0]"),
        ({"n": 2, "m": 1, "entries": [[1.0, 0.0], [0.0, None]]}, "'entries'[1]"),
        ({"n": 1, "entries": [[10**400, 0]]}, "'entries'"),
    ],
)
def test_matrix_from_json_names_the_bad_field(obj, field):
    # Each of these was read silently, or failed inside numpy, before the
    # fields were checked.
    with pytest.raises(ValueError, match=re.escape(field)):
        matrix_from_json(obj)


def _exception_text(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the message of whatever Python raises
        return str(exc)
    raise AssertionError("no exception")


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[True, 0]], "matrix 'entries'[0] must be two numbers, got [True, 0]"),
        ([[1.0, 0.0], ["1.5", 0.0]], "matrix 'entries'[1] must be two numbers, got ['1.5', 0.0]"),
        ([[1.0, 0.0], [0.0, None]], "matrix 'entries'[1] must be two numbers, got [0.0, None]"),
        ([[1.0, 0.0, 2.0], [0.0, 0.0]], "matrix 'entries' must be [re, im] pairs ({})".format(
            _exception_text(lambda: [(re, im) for re, im in [[1.0, 0.0, 2.0]]]))),
        ([[10**400, 0], [0.0, 0.0]],
         "matrix 'entries' hold an integer too large for a float ({})".format(
             _exception_text(lambda: float(10**400)))),
    ],
    ids=["true", "string", "null", "three-items", "huge-int"],
)
def test_matrix_from_json_rejection_messages(entries, message):
    # The vectorized read reports the entry at fault as the per-entry loop did.
    with pytest.raises(ValueError) as info:
        matrix_from_json({"n": 2, "m": 1, "entries": entries})
    assert str(info.value) == message


def test_matrix_from_json_reads_ints_and_floats_exactly():
    entries = [[1, -0.0], [2**70 + 1, 1e-310], [-3, 1e300], [0.1, -(2**64) - 3]]
    M = matrix_from_json({"n": 2, "entries": entries})
    assert M.dtype == complex and M.shape == (2, 2)
    np.testing.assert_array_equal(M.reshape(-1), [complex(re, im) for re, im in entries])
    assert np.signbit(M[0, 0].imag)


def test_hermitian_matrix_keeps_its_frobenius_norm():
    rng = np.random.default_rng(8)
    for n, scale in ((1, 1.0), (3, 1e-150), (8, 1e150), (20, 1.0)):
        H = pt.validate_hermitian(rand_hermitian(rng, n, scale))
        assert H.fro == np.linalg.norm(H.entries)
    A, B = pt.validate_hermitian(rand_hermitian(rng, 4)), pt.validate_hermitian(np.eye(4))
    pair = pt.MatrixPair(A, B)
    assert pair.scale == 1.0 + float(np.linalg.norm(A.entries) + np.linalg.norm(B.entries))


def _dumped_the_python_way(obj):
    """json.dump's bytes, through the pure-Python encoder, with each entry
    converted one at a time."""
    def matrix(M):
        return {"n": M.shape[0], "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)]}

    out = io.StringIO()
    json.dump({k: matrix(M) for k, M in obj.items()}, out)
    return out.getvalue().encode("utf-8")


def test_save_problem_writes_the_bytes_of_json_dump(tmp_path):
    # -0.0, a subnormal and a huge entry: the C encoder prints them as
    # json.dump did.  Such a matrix's norm overflows, so validate_hermitian
    # would refuse it; the instance is built directly.
    M = np.array([[-0.0, 1e-310 + 1e300j], [1e-310 - 1e300j, 1e300]])
    H = pt.matcore.HermitianMatrix(M, 0.0, np.inf)
    K = pt.validate_hermitian(np.array([[2.0, 0.5 - 1e-310j], [0.5 + 1e-310j, -0.0]]))
    prob = pt.ProblemInstance(pair=pt.MatrixPair(H, K), hat_pair=pt.MatrixPair(K, H))
    path = tmp_path / "problem.json"
    pt.matcore.save_problem(path, prob)
    expected = {"A": M, "B": K.entries, "Ahat": K.entries, "Bhat": M}
    assert path.read_bytes() == _dumped_the_python_way(expected)
    pt.matcore.save_pair(path, prob.pair)
    assert path.read_bytes() == _dumped_the_python_way({"A": M, "B": K.entries})
    # A transposed (non-contiguous) matrix is written in row-major order.
    assert matrix_to_json(M.T) == matrix_to_json(np.ascontiguousarray(M.T))
    assert matrix_to_json(M.T)["entries"][1] == [1e-310, -1e300]


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


def _assert_stack_is_successive_draws(seed, m, size):
    """standard_normals' size=K stacks equal K successive single draws, bit for bit."""
    rng = np.random.default_rng(seed)
    refs = [standard_normals(rng, m) for _ in range(size)]
    stack = standard_normals(np.random.default_rng(seed), m, size)
    assert stack.shape == (m, size)
    assert np.array_equal(stack, np.hstack(refs))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
def test_key_streams_are_default_rng_streams(seed):
    # One stack of 1000 reads default_rng(seed)'s stream as 1000 single draws do.
    _assert_stack_is_successive_draws(seed, 20, 1000)


@pytest.mark.parametrize("width", [1, 4, 6])
def test_key_streams_of_other_widths(width):
    # Other row widths, and an empty one, which draws nothing.
    _assert_stack_is_successive_draws(width, 6 * width, 300)
    _assert_stack_is_successive_draws(width, 0, 300)
    rng = np.random.default_rng(width)
    standard_normals(rng, 0, 300)
    fresh = standard_normals(np.random.default_rng(width), width)
    assert np.array_equal(standard_normals(rng, width), fresh)


@pytest.mark.parametrize(
    "keys",
    [
        np.array([[5, 0]]),
        np.array([[2**32, 0]]),
        np.array([[-1, 0]]),
        np.array([[1.0, 2.0]]),
        np.array([5, 0]),
        [np.random.default_rng([5, 0]), np.random.default_rng([5, 1])],
        5,
    ],
    ids=["key_array", "out_of_range", "negative", "float", "one_dimensional", "generators", "int"],
)
def test_keys_outside_the_reproduced_form_are_rejected(keys):
    # Only one Generator is a source of draws: key arrays, lists and ints are refused.
    with pytest.raises(ValueError, match="numpy.random.Generator"):
        standard_normals(keys, 8)

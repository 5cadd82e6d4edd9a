"""A ratchet on the Python-level calls the library makes per operation.

The kernel-count tests see every LAPACK call, but not the wrappers,
temporaries and small numpy calls around them, which set the latency at
small orders.  ``library_calls`` counts, with ``sys.setprofile``, every
call event whose caller frame is in ``pencil_tracemin`` and every call of a
builtin (``c_call``) made from such a frame: the calls the library makes,
not those numpy makes inside itself.  The counts repeat exactly from run to
run for a given interpreter and numpy.  Each budget is the count measured
when it was set (Python 3.11, numpy 2.4) plus 5 %.  A change that adds work
without adding a kernel call fails here; one that removes calls lowers the
budget to its new count plus 5 %.
"""

import contextlib
import io
import os
import sys

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.cli import main
from pencil_tracemin.matcore import save_problem
from pencil_tracemin.tracemin import infimum
from pencil_tracemin.witness import build_witness, certify_unbounded

from conftest import diag_problem, golden_hat_matrix

PACKAGE = os.path.dirname(pt.__file__) + os.sep


def library_calls(operation):
    """The calls made from library frames while ``operation()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(PACKAGE):
                count += 1
        elif event == "c_call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(previous)
    return count


def within_budget(operation, budget):
    """The call count of ``operation``'s second run, after one to warm caches;
    the two runs make the same calls."""
    first = library_calls(operation)
    count = library_calls(operation)
    assert count == first
    assert count <= budget, f"{count} calls, budget {budget}"


@pytest.mark.parametrize("n, budget", [(20, 412), (80, 462)])
def test_mixed_sign_chain_budget(n, budget):
    # infimum -> build_witness -> certify_unbounded on the mixed-sign problem
    # of test_infimum_witness_kernel_count, both pairs on the pair route.
    rng = np.random.default_rng(n)
    npl, nmi = n // 2, n - n // 2
    prob = diag_problem(
        rng.uniform(0.5, 2.0, npl), rng.uniform(-2.0, -0.5, nmi),
        -rng.uniform(0.5, 2.0, npl), rng.uniform(0.5, 2.0, nmi), scramble=(n, n + 1),
    )

    def chain():
        family = build_witness(prob, infimum(prob))
        certify_unbounded(family, -1e6, 1e4)

    within_budget(chain, budget)


@pytest.mark.parametrize("n, budget", [(6, 424), (20, 533)])
def test_singular_b_infimum_budget(n, budget):
    # infimum of a problem whose pair is definite with one zero in B: the
    # pair's own Cholesky passes and B fails the nonsingularity certificate,
    # so B is decomposed and the finite part takes the B-frame Cholesky route.
    rng = np.random.default_rng(n)
    npl, nmi = (n - 1) // 2, n - 1 - (n - 1) // 2
    A, B = np.diag(rng.uniform(0.5, 2.0, n)), np.diag([1.0] * npl + [-1.0] * nmi + [0.0])
    Ah, Bh = np.diag(rng.uniform(0.5, 2.0, n - 1)), np.diag([1.0] * npl + [-1.0] * nmi)
    pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), n, 6.0)
    hat, _ = pt.random_congruence(pt.pair_from_arrays(Ah, Bh), n + 1, 6.0)
    prob = pt.ProblemInstance(pair=pair, hat_pair=hat)
    assert pt.analyze_pair(pair).route == "frame-cholesky"
    within_budget(lambda: infimum(prob), budget)


def _verify(path):
    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--json", "verify", path, "--samples", "200"]) == 0

    return verify


def test_verify_budget(tmp_path):
    # `cli verify` of the golden problem with 200 samples, one stacked block.
    # Its J-unitaries have order 1 + 1, so the draw runs no reflector loop.
    path = str(tmp_path / "golden.json")
    save_problem(path, pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), golden_hat_matrix(), np.diag([1.0, -1.0])
    ))
    within_budget(_verify(path), 646)


def test_verify_budget_order_8(tmp_path):
    # `cli verify` with 200 samples on an equal-inertia problem of order 8,
    # nhat = 8, both pairs on the pair route: four Haar factors of order 4
    # per draw, each through the reflector loop.
    rng = np.random.default_rng(8)
    prob = diag_problem(
        rng.uniform(0.5, 2.0, 4), rng.uniform(-2.0, -0.5, 4),
        rng.uniform(0.5, 2.0, 4), rng.uniform(-2.0, -0.5, 4), scramble=(8, 9),
    )
    path = str(tmp_path / "order8.json")
    save_problem(path, prob)
    within_budget(_verify(path), 684)


def test_minimize_budget(tmp_path):
    # `cli minimize` on a problem of order 20, nhat = 10, whose pairs are
    # both definite and on the pair route: infimum, the minimizer's
    # directions, its residual and the written X.
    rng = np.random.default_rng(20)
    prob = diag_problem(
        rng.uniform(1.0, 2.0, 10), rng.uniform(-2.0, -1.0, 10),
        rng.uniform(0.5, 1.0, 5), rng.uniform(-1.0, -0.5, 5), scramble=(20, 21),
    )
    path, out = str(tmp_path / "order20.json"), str(tmp_path / "x.json")
    save_problem(path, prob)

    def minimize():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--json", "minimize", path, out]) == 0

    within_budget(minimize, 627)

"""A verdict must not depend on input order (ROADMAP aim 3).

Each problem is built as the ``structure-mix`` workload builds it: a
``genpairs`` assembly of order <= 10 and a scrambled typed hat pair.  A
random permutation congruence P^T (A, B) P of each pair relabels the
coordinates and changes nothing of the problem, so the verdict, reason,
attainability and value must stay, and so must the witness kind (or the
exception raised) and its slope.  The slope of a chained ray is left out:
the chained branch of ``_ray_witness`` tries the basis vectors of the
A-null part of N(B) one at a time, and that basis is arbitrary when it has
more than one vector.
"""

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import EmptyFeasibleSetError, NoWitnessConstructibleError
from pencil_tracemin.genpairs import assemble
from pencil_tracemin.tracemin import NEG_INFINITE, infimum
from pencil_tracemin.witness import INFINITE_BLOCK_RAY, build_witness

from test_acceptance import _hat_pair, _random_specs


def _structure_mix_problem(rng):
    pair, ib = None, None
    while ib is None or ib.rank == 0:  # B = 0 admits no hat pair
        specs = _random_specs(rng)
        cap = 2.5 if any(s.kind == "Tr" and s.p == 2 for s in specs) else 5.0
        pair, truth = assemble(specs, int(rng.integers(2**32)), cap)
        ib = truth.inertia_B
    hpl = hmi = 0
    while hpl + hmi == 0:
        hpl = int(rng.integers(0, ib.n_plus + 1))
        hmi = int(rng.integers(0, ib.n_minus + 1))
    hp = np.sort(rng.uniform(-1.5, 1.5, hpl))
    hn = np.sort(rng.uniform(-1.5, 1.5, hmi))
    hat = _hat_pair(rng, hp, hn, int(rng.integers(2**32)))
    return pt.ProblemInstance(pair=pair, hat_pair=hat)


def _permuted(pair, perm):
    ix = np.ix_(perm, perm)
    return pt.pair_from_arrays(pair.A.entries[ix], pair.B.entries[ix])


def _outcome(problem):
    """(verdict, reason, attainable, value) and, for NegInfinite, (kind,
    slope, chained) of the witness or (exception type, None, None)."""
    try:
        res = infimum(problem)
    except EmptyFeasibleSetError:
        return ("empty",), None
    verdict = (res.verdict, res.reason, res.attainable, res.value)
    if res.verdict != NEG_INFINITE:
        return verdict, None
    try:
        fam = build_witness(problem, res)
    except NoWitnessConstructibleError:
        return verdict, ("NoWitnessConstructibleError", None, None)
    return verdict, (fam.kind, fam.slope, fam.kind == INFINITE_BLOCK_RAY and res.analysis.coupled)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verdict_and_witness_do_not_depend_on_input_order(seed):
    rng = np.random.default_rng(seed)
    kinds = set()
    for trial in range(100):
        prob = _structure_mix_problem(rng)
        perm = pt.ProblemInstance(
            pair=_permuted(prob.pair, rng.permutation(prob.n)),
            hat_pair=_permuted(prob.hat_pair, rng.permutation(prob.nhat)),
        )
        (verdict, witness), (p_verdict, p_witness) = _outcome(prob), _outcome(perm)
        assert verdict[:3] == p_verdict[:3], trial
        if len(verdict) > 3 and verdict[3] is not None:
            assert p_verdict[3] == pytest.approx(verdict[3], rel=1e-10), trial
        else:
            assert verdict[3:] == p_verdict[3:], trial
        assert (witness is None) == (p_witness is None), trial
        if witness is None:
            continue
        kind, slope, chained = witness
        assert p_witness[0] == kind, trial
        kinds.add(kind)
        if slope is not None and not (chained or p_witness[2]):
            assert p_witness[1] == pytest.approx(slope, rel=1e-9), trial
    assert len(kinds) >= 3, kinds

"""Independent routes the tests compare the library's pipeline against.

The library computes the infimum once, ``analyze_pair`` -> ``infimum``.
These functions reach the same quantities another way: the common nullspace
of A and B by one SVD of the stacked 2n x n pair, padding by explicit
construction of the padded hat pair, the closed form by Fan's sorted-product
rule on the typed value lists, and lam_min(A - t*B) by a direct eigenvalue
solve, and the typed spectrum of a pair with nonsingular B by the B-frame
route alone.  They are not part of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pencil_tracemin.errors import EmptyFeasibleSetError
from pencil_tracemin.matcore import (
    DEFAULT_TOLS,
    MatrixPair,
    ProblemInstance,
    eigvalsh,
    inertia,
    pair_from_arrays,
)
from pencil_tracemin.spectral import PairAnalysis, _finite_spectrum


@dataclass(frozen=True)
class DeflationResult:
    reduced: MatrixPair
    basis: np.ndarray  # spans the removed common nullspace, n x d
    keep: np.ndarray  # n x (n - d); reduced = keep^H (.) keep
    deflated_dims: int


def deflate_common_nullspace(
    pair: MatrixPair, rank_tol: float = DEFAULT_TOLS.rank_tol
) -> DeflationResult:
    """Remove N(A) & N(B); the removed directions never affect the problem."""
    n = pair.n
    stacked = np.vstack([pair.A.entries, pair.B.entries])
    _, svals, Vh = np.linalg.svd(stacked)
    smax = svals[0] if svals.size else 0.0
    if smax == 0.0:
        # Entirely zero pair: keep a single direction so orders stay >= 1.
        keep = np.eye(n, 1, dtype=complex)
        basis = np.eye(n, dtype=complex)[:, 1:]
        red = pair_from_arrays(np.zeros((1, 1)), np.zeros((1, 1)), herm_tol=np.inf)
        return DeflationResult(red, basis, keep, n - 1)
    rank = int(np.sum(svals > rank_tol * smax))
    d = n - rank
    if d == 0:
        eye = np.eye(n, dtype=complex)
        return DeflationResult(pair, eye[:, :0], eye, 0)
    V = Vh.conj().T
    keep, basis = V[:, :rank], V[:, rank:]
    A_r = keep.conj().T @ pair.A.entries @ keep
    B_r = keep.conj().T @ pair.B.entries @ keep
    return DeflationResult(pair_from_arrays(A_r, B_r, herm_tol=np.inf), basis, keep, d)


def pad_problem(problem: ProblemInstance) -> ProblemInstance:
    """Pad the hat pair to the rank of B: Ahat -> diag(Ahat, 0),
    Bhat -> diag(Bhat, I_{c+}, -I_{c-}) with c_pm the inertia surpluses.

    The padded problem has the same infimum as the original.
    """
    tols = problem.tolerances
    ib = inertia(problem.pair.B, tols.rank_tol)
    ibh = inertia(problem.hat_pair.B, tols.rank_tol)
    if ibh.n_zero > 0 or ibh.n_plus > ib.n_plus or ibh.n_minus > ib.n_minus:
        raise EmptyFeasibleSetError("padding requires nonsingular Bhat within inertia of B")
    cp, cm = ib.n_plus - ibh.n_plus, ib.n_minus - ibh.n_minus
    if cp == 0 and cm == 0:
        return problem
    nh = problem.nhat
    m = nh + cp + cm
    Ah = np.zeros((m, m), dtype=complex)
    Bh = np.zeros((m, m), dtype=complex)
    Ah[:nh, :nh] = problem.hat_pair.A.entries
    Bh[:nh, :nh] = problem.hat_pair.B.entries
    jc = np.concatenate([np.ones(cp), -np.ones(cm)])
    Bh[nh:, nh:] = np.diag(jc)
    return ProblemInstance(
        pair=problem.pair,
        hat_pair=pair_from_arrays(Ah, Bh, herm_tol=np.inf),
        tolerances=tols,
    )


def fan_min_product(lambda0, lambda1) -> float:
    """min over unitary alignments of sum lambda0_i * lambda1_{perm(i)}:
    descending first list against ascending second list."""
    l0 = np.asarray(lambda0, dtype=float)
    l1 = np.asarray(lambda1, dtype=float)
    if l0.shape != l1.shape or l0.ndim != 1:
        raise ValueError("lists must be 1-d and of equal length")
    return float(np.sort(l0)[::-1] @ np.sort(l1))


def equal_inertia_value(big: PairAnalysis, hat: PairAnalysis) -> float:
    """Equal-inertia closed form: descending hat values against ascending values."""
    return fan_min_product(hat.pos_values, big.pos_values) + fan_min_product(
        hat.neg_values, big.neg_values
    )


def lambda_min_shift(pair: MatrixPair, shift: float) -> float:
    """Smallest eigenvalue of A - shift*B."""
    return float(eigvalsh(pair.A.entries - shift * pair.B.entries)[0])


def b_frame_spectrum(pair: MatrixPair, tols=DEFAULT_TOLS):
    """(pos, neg) of a pair with nonsingular B, solved in B-frame coordinates:
    eigh(B) = (d, V), R = V |d|^(-1/2) (+1 columns, then -1), and the typed
    spectrum of (R^H A R, diag(sign d)) by ``_finite_spectrum``."""
    d, V = np.linalg.eigh(pair.B.entries)
    order = np.argsort(-np.sign(d), kind="stable")
    R = V[:, order] / np.sqrt(np.abs(d[order]))
    M = R.conj().T @ pair.A.entries @ R
    pos, neg, *_ = _finite_spectrum((M + M.conj().T) / 2.0, np.sign(d[order]), R, tols)
    return pos, neg

"""Independent routes the tests compare the library's pipeline against.

The library computes the infimum once, ``analyze_pair`` -> ``infimum``.
These functions reach the same quantities another way: the common nullspace
of A and B by one SVD of the stacked 2n x n pair, padding by explicit
construction of the padded hat pair, the closed form by Fan's sorted-product
rule on the typed value lists, and lam_min(A - t*B) by a direct eigenvalue
solve, and the typed spectrum of a pair with nonsingular B by the B-frame
route alone, and the typing of ``_cluster`` by a loop over its clusters and
entries, and the definiteness report of a finite part with every admitted
side confirmed by an eigensolve or screened as a dense matrix at its shift,
and the Crawford number of a definite pair
by a search over angles, and a J-unitary in hyperbolic CS form from dense
Householder reflectors, one sample at a time, and a Haar unitary by the
formula ``matcore.haar_unitary`` is pinned to.  They are not part of the
library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pencil_tracemin.definiteness import DefinitenessReport, _confirmed_side
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


def eigvalsh_definiteness(analysis: PairAnalysis) -> DefinitenessReport:
    """``definiteness._definiteness_from_spectrum`` with each side the spectrum
    admits confirmed by eigvalsh of the shifted finite part, Ã - t*J or
    t*J - Ã, never read off its diagonal."""
    A, J, tols = analysis.A_fin, np.diag(analysis.j), analysis.tols
    tol = tols.psd_tol * (1.0 + float(np.linalg.norm(A) + np.linalg.norm(J)))
    if analysis.has_complex:
        return DefinitenessReport(False, False, None, None, tolerance=tol)
    pos, neg = analysis.pos_values, analysis.neg_values
    psd = _confirmed_side(lambda t: float(eigvalsh(A - t * J)[0]), neg, pos, tols, tol)
    nsd = _confirmed_side(lambda t: float(eigvalsh(t * J - A)[0]), pos, neg, tols, tol)
    return DefinitenessReport(
        psd[0] is not None, nsd[0] is not None, psd[0], nsd[0], *psd[1:], *nsd[1:], tol
    )


def per_shift_definiteness(analysis: PairAnalysis) -> DefinitenessReport:
    """``definiteness._definiteness_from_spectrum`` with each side screened
    as a dense matrix at its shift: H = Ã - t*J or t*J - Ã, its diagonal d
    and the norm e of H - diag(d) taken afresh at every shift, and
    eigvalsh(H) only where Weyl's interval [min d - e, min d + e] leaves
    the side undecided."""
    A, J, tols = analysis.A_fin, np.diag(analysis.j), analysis.tols
    tol = tols.psd_tol * (1.0 + float(np.linalg.norm(A) + np.linalg.norm(J)))
    if analysis.has_complex:
        return DefinitenessReport(False, False, None, None, tolerance=tol)

    def lam_min(H):
        d = np.real(np.diagonal(H))
        low, e = float(np.min(d)), float(np.linalg.norm(H - np.diag(d)))
        if low - e >= -tol or low < -tol:
            return low - e
        return float(eigvalsh(H)[0])

    pos, neg = analysis.pos_values, analysis.neg_values
    psd = _confirmed_side(lambda t: lam_min(A - t * J), neg, pos, tols, tol)
    nsd = _confirmed_side(lambda t: lam_min(t * J - A), pos, neg, tols, tol)
    return DefinitenessReport(
        psd[0] is not None, nsd[0] is not None, psd[0], nsd[0], *psd[1:], *nsd[1:], tol
    )


def b_frame_spectrum(pair: MatrixPair, tols=DEFAULT_TOLS):
    """The (pos, neg) typed values of a pair with nonsingular B, solved in B-frame coordinates:
    eigh(B) = (d, V), R = V |d|^(-1/2) (+1 columns, then -1), and the typed
    spectrum of (R^H A R, diag(sign d)) by ``_finite_spectrum``."""
    d, V = np.linalg.eigh(pair.B.entries)
    order = np.argsort(-np.sign(d), kind="stable")
    R = V[:, order] / np.sqrt(np.abs(d[order]))
    M = R.conj().T @ pair.A.entries @ R
    M = (M + M.conj().T) / 2.0
    pos, neg, *_ = _finite_spectrum(M, np.sign(d[order]), R, tols, float(np.linalg.norm(M)))
    return pos, neg


def cluster_entries(w, Z, G, tols, scale):
    """The typed entries of ``spectral._cluster``'s inputs, built one at a time.

    The same clustering, then a loop over the clusters: a cluster of one
    keeps its diagonal entry of G, a larger one takes the eigh of G[C, C] at
    its mean value.  Each direction of b_form g (|g| > type_tol) is an entry
    of type sign g, in eigh order; the isotropic ones then give one Jordan
    copy of each type per two, and an odd one left over takes its b_form's
    sign.  Returns [(value, positive, b_form, jordan, direction or None)],
    clusters ascending.
    """
    floor, split_tol = tols.rank_tol * scale, tols.type_tol * scale
    root = np.sqrt(tols.type_tol)
    im = np.abs(w.imag)
    real = im <= tols.type_tol * np.abs(w) + floor
    split = np.flatnonzero(~real & (im <= split_tol))
    if split.size:
        real[split] = np.max(np.abs(G[:, split]), axis=0) <= root
    ridx = np.flatnonzero(real)
    ridx = ridx[np.argsort(w[ridx].real)]
    vals = w[ridx].real
    if not vals.size:
        return []
    gaps = np.diff(vals)
    apart = gaps > tols.type_tol * float(np.max(np.abs(vals))) + floor
    near = np.flatnonzero(apart & (gaps <= split_tol))
    if near.size:
        jordan = np.max(np.abs(G[:, ridx]), axis=0) <= root
        apart[near] = ~(jordan[near] & jordan[near + 1])
    Zr, forms = Z[:, ridx], np.real(G.diagonal()[ridx])
    bounds = [0, *(np.flatnonzero(apart) + 1).tolist(), len(vals)]
    entries = []
    for start, end in zip(bounds, bounds[1:]):
        X, g, mu = Zr[:, start:end], forms[start:end], float(vals[start])
        if end - start > 1:
            GC = G[np.ix_(ridx[start:end], ridx[start:end])]
            g, U = np.linalg.eigh((GC + GC.conj().T) / 2.0)
            X, mu = X @ U, float(np.mean(vals[start:end]))
        iso = []
        for i, gi in enumerate(g.tolist()):
            if abs(gi) <= tols.type_tol:
                iso.append(gi)
            else:
                entries.append((mu, gi > 0, gi, False, X[:, i] / np.sqrt(abs(gi))))
        entries += [(mu, positive, 0.0, True, None) for positive in (True, False) * (len(iso) // 2)]
        if len(iso) % 2:
            entries.append((mu, iso[-1] >= 0, iso[-1], False, None))
    return entries


def crawford_number(pair: MatrixPair, grid: int = 720) -> float:
    """The Crawford number of a definite pair by brute force over the angle.

    gamma(A, B) = min over unit z of |z^H (A + iB) z| = max over theta of
    lam_min(cos(theta)·A + sin(theta)·B) for a definite pair.  The maximum
    over ``grid`` equally spaced angles is refined on a 201-point grid one
    step either side of the best; being a maximum over sample angles, the
    result is at most gamma.
    """
    A, B = pair.A.entries, pair.B.entries

    def lam_min(thetas):
        M = np.cos(thetas)[:, None, None] * A + np.sin(thetas)[:, None, None] * B
        return np.linalg.eigvalsh(M)[:, 0]

    step = 2.0 * np.pi / grid
    thetas = np.arange(grid) * step
    coarse = lam_min(thetas)
    best = thetas[int(np.argmax(coarse))]
    return float(max(np.max(coarse), np.max(lam_min(best + np.linspace(-step, step, 201)))))


def householder_haar(vectors) -> np.ndarray:
    """The unitary H_0 (1 + H_1) ... (I_{m-1} + H_{m-1}) diag(-phi_0, ...,
    -phi_{m-1}) of complex vectors x_0, ..., x_{m-1} of lengths m, ..., 1,
    "+" the direct sum, H_j = I - 2 v v^H / (v^H v) for v = x_j + phi_j
    |x_j| e_1 and phi_j = x_j[0] / |x_j[0]|: one dense reflector matrix at
    a time."""
    m = len(vectors)
    U = np.eye(m, dtype=complex)
    for j, x in enumerate(vectors):
        v = np.array(x, dtype=complex)
        v[0] += x[0] / abs(x[0]) * np.linalg.norm(x)
        H = np.eye(m, dtype=complex)
        H[j:, j:] -= 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real
        U = U @ H
    return U @ np.diag([-x[0] / abs(x[0]) for x in vectors])


def cs_j_unitary(sinh, P, Q, V_plus, V_minus) -> np.ndarray:
    """diag(P, Q) H(theta) diag(V+, V-), H(theta) holding cosh and sinh of
    theta_k on the planes (k, n+ + k) and the identity elsewhere."""
    p, q = len(P), len(Q)
    H = np.eye(p + q)
    for k, s in enumerate(sinh):
        c = np.sqrt(1.0 + s * s)
        H[k, k] = H[p + k, p + k] = c
        H[k, p + k] = H[p + k, k] = s
    left = np.zeros((p + q, p + q), dtype=complex)
    right = np.zeros((p + q, p + q), dtype=complex)
    left[:p, :p], left[p:, p:] = P, Q
    right[:p, :p], right[p:, p:] = V_plus, V_minus
    return left @ H @ right


def qr_haar_unitary(n: int, rng) -> np.ndarray:
    """The Haar unitary of order n that ``matcore.haar_unitary`` draws: 2n^2
    standard normals, the real parts of an n x n matrix Z, row-major, then its
    imaginary parts; Q of LAPACK's QR of Z, each column times the phase of R's
    diagonal entry (1 where that entry is 0)."""
    g = rng.standard_normal(2 * n * n)
    Z = (g[: n * n] + 1j * g[n * n :]).reshape(n, n)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))

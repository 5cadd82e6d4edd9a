"""Explicit feasible families X(t) certifying an infinite infimum.

Every family has one form,

    X(t) = x_base + (c - 1) d_cosh + sigma d_sinh,   c = sqrt(1 + sigma^2),

with sigma = sigma(t) one of three maps and d_cosh, d_sinh sums of at most
two rank-one terms.  Each builder returns a family whose trace trend is
exactly slope * t^2 + offset with slope < 0, while Bhat X(t)^H B X(t) = I
holds up to roundoff that grows no faster than (1 + t^2).  Three mechanisms:

* ``MixedSignSlope``   - a hyperbolic rotation mixing a positive-type and a
  negative-type direction whose eigenvalue gaps have opposite signs on the
  two sides (after zero-padding the hat values when nhat < rank B).
* ``ComplexBlockSlope`` - a rotation through a 2x2 conjugate-eigenvalue block
  with a tuned phase.
* ``InfiniteBlockRay``  - scaling either a B-null direction against an
  adverse eigendirection of the hat objective (diagonal infinite structure),
  or a chained null direction whose coupling into the finite part drives the
  cross term (2x2 chained structure).

Builders read the clustered frames and B-frames of the ``PairAnalysis``
objects that ``infimum`` carries on its result; no pair is analysed again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .errors import (
    CertificationFailedError,
    NoWitnessConstructibleError,
    NotDiagonalizableError,
)
from .matcore import ProblemInstance, ToleranceSet
from .spectral import ClusteredFrame, PairAnalysis
from .tracemin import (
    COMPLEX_EIGENVALUES,
    COUPLED_INFINITE,
    NEG_INFINITE,
    InfimumResult,
    feasibility_residual,
)

MIXED_SIGN_SLOPE = "MixedSignSlope"
COMPLEX_BLOCK_SLOPE = "ComplexBlockSlope"
INFINITE_BLOCK_RAY = "InfiniteBlockRay"

SIGMA_IDENTITY = "identity"  # sigma(t) = t
SIGMA_SQUARE = "square"  # sigma(t) = t^2
SIGMA_QUARTIC = "quartic"  # sigma(t) with sigma*sqrt(1+sigma^2) = t^2


@dataclass(frozen=True)
class WitnessFamily:
    kind: str
    slope: float
    offset: float
    trend_power: int
    sigma_map: str
    x_base: np.ndarray
    d_cosh: np.ndarray  # coefficient c(sigma) - 1
    d_sinh: np.ndarray  # coefficient sigma
    problem: ProblemInstance


def _sigma(family: WitnessFamily, t: float) -> float:
    if family.sigma_map == SIGMA_IDENTITY:
        return float(t)
    if family.sigma_map == SIGMA_SQUARE:
        return float(t) ** 2
    # sigma^2 (1 + sigma^2) = t^4  =>  exact quadratic trend for the rotation
    q = 0.5 * (np.sqrt(1.0 + 4.0 * t**4) - 1.0)
    return float(np.sqrt(q))


def evaluate_witness(family: WitnessFamily, t: float):
    """Materialize X(t) and return (X, trace value)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    s = _sigma(family, t)
    X = family.x_base + (np.sqrt(1.0 + s * s) - 1.0) * family.d_cosh + s * family.d_sinh
    A = family.problem.pair.A.entries
    Ah = family.problem.hat_pair.A.entries
    trace = float(np.real(np.trace(Ah @ X.conj().T @ A @ X)))
    return X, trace


@dataclass(frozen=True)
class CertificationReport:
    t: float
    trace_value: float
    feas_residual: float
    threshold: float
    t_max: float


def certify_unbounded(
    family: WitnessFamily, threshold: float, t_max: float
) -> CertificationReport:
    """Find t <= t_max with trace(X(t)) <= threshold; report trace and residual."""
    if threshold >= 0:
        raise ValueError("threshold must be negative")
    if family.slope >= 0:
        raise CertificationFailedError("family has nonnegative slope")
    need = threshold - family.offset
    t_star = 0.0 if need >= 0 else float(np.sqrt(need / family.slope))
    t = t_star * 1.000001 + 1e-9
    for _ in range(8):
        if t > t_max:
            raise CertificationFailedError(
                f"required t {t:.6g} exceeds t_max {t_max:.6g}"
            )
        X, trace = evaluate_witness(family, t)
        if trace <= threshold:
            return CertificationReport(
                t=float(t),
                trace_value=trace,
                feas_residual=feasibility_residual(family.problem, X),
                threshold=float(threshold),
                t_max=float(t_max),
            )
        t *= 1.25
    raise CertificationFailedError("trace did not cross the threshold numerically")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _frames(big: PairAnalysis, hat: PairAnalysis):
    """The clustered frames of both pairs, or NoWitnessConstructibleError."""
    try:
        return big.frame, hat.frame
    except NotDiagonalizableError as exc:
        raise NoWitnessConstructibleError(str(exc)) from exc


def _static_assignment(big: ClusteredFrame, hat: ClusteredFrame, reserved_big, reserved_hat):
    """Injective type-preserving map hat dir -> big dir avoiding reservations."""
    assign = {}
    for sign in (+1, -1):
        hat_dirs = [d for d in (hat.plus_dirs if sign > 0 else hat.minus_dirs)
                    if d not in reserved_hat]
        big_dirs = [d for d in (big.plus_dirs if sign > 0 else big.minus_dirs)
                    if d not in reserved_big]
        if len(hat_dirs) > len(big_dirs):
            raise NoWitnessConstructibleError("insufficient directions for assignment")
        for hd, bd in zip(hat_dirs, big_dirs):
            assign[hd] = bd
    return assign


def _finish_family(kind, problem, keep, big, hat, rot, slope, sigma_map):
    """Assemble x_base, d_cosh and d_sinh from a rotation plus a static assignment.

    ``rot`` is (p, m, phat, mhat, a11, a21, a12, a22): columns phat / mhat of
    the canonical X(t) are a11*c e_p + a21*s e_m and a12*s e_p + a22*c e_m
    (phat or mhat may be None for padded hat values).  The other hat
    directions map to unreserved big directions of the same type.
    """
    p, m, phat, mhat, a11, a21, a12, a22 = rot
    assign = _static_assignment(big, hat, {p, m}, {d for d in (phat, mhat) if d is not None})
    Mbig = keep @ big.T
    Xt0 = np.zeros((big.n, problem.nhat), dtype=complex)
    for hd, bd in assign.items():
        Xt0[bd, hd] = 1.0

    d_cosh = np.zeros((Mbig.shape[0], problem.nhat), dtype=complex)
    d_sinh = np.zeros_like(d_cosh)
    for hd, cosh_dir, sinh_dir, a_cosh, a_sinh in ((phat, p, m, a11, a21), (mhat, m, p, a22, a12)):
        if hd is not None:
            Xt0[cosh_dir, hd] = a_cosh
            v = hat.T[:, hd].conj()
            d_cosh += a_cosh * np.outer(Mbig[:, cosh_dir], v)
            d_sinh += a_sinh * np.outer(Mbig[:, sinh_dir], v)

    x_base = Mbig @ Xt0 @ hat.T.conj().T
    return _family(kind, problem, slope, sigma_map, x_base, d_cosh, d_sinh)


def _family(kind, problem, slope, sigma_map, x_base, d_cosh, d_sinh):
    """The WitnessFamily of these parts, trend power 2; its offset is the trace at t = 0."""
    family = WitnessFamily(kind, float(slope), 0.0, 2, sigma_map, x_base, d_cosh, d_sinh, problem)
    return replace(family, offset=evaluate_witness(family, 0.0)[1])


def _padded_values(hat_vals, count):
    """Hat (direction, value) items, padded with zeros (direction None) to ``count``."""
    return list(hat_vals) + [(None, 0.0)] * (count - len(hat_vals))


def _gap_extremes(xs, ys):
    """The least and the greatest gap a - b over (direction, value) items a of xs, b of ys.

    A pair of two padded zeros (both directions None) is no gap.  Every other
    pair has a real item on one side, so each extreme pairs an extreme real
    item of one list with an extreme item of the other.  Returns
    ((gap, a, b) least, (gap, a, b) greatest).
    """
    value = itemgetter(1)
    ends = []
    for a, b in (([x for x in xs if x[0] is not None], ys),
                 (xs, [y for y in ys if y[0] is not None])):
        if a and b:
            ends.append((min(a, key=value), max(b, key=value)))
            ends.append((max(a, key=value), min(b, key=value)))
    if not ends:
        raise NoWitnessConstructibleError("no eigenvalue pair to form a gap")
    gaps = [(a[1] - b[1], a, b) for a, b in ends]
    return min(gaps, key=itemgetter(0)), max(gaps, key=itemgetter(0))


def _mixed_sign_witness(problem, tols, big_a, hat_a):
    big, hat = _frames(big_a, hat_a)
    if big.blocks or hat.blocks:
        raise NoWitnessConstructibleError("conjugate blocks need the complex builder")

    hp = _padded_values(hat.real_pos, len(big.real_pos))
    hm = _padded_values(hat.real_neg, len(big.real_neg))
    # slope = dhat * dbig over hat gaps dhat and big gaps dbig: a product
    # is least at one of the four pairings of their extremes.
    hat_gaps = _gap_extremes(hp, hm)
    big_gaps = _gap_extremes(big.real_pos, big.real_neg)
    slope, (_, (phat, _), (mhat, _)), (_, (p, _), (m, _)) = min(
        ((dh[0] * db[0], dh, db) for dh in hat_gaps for db in big_gaps), key=itemgetter(0)
    )
    scale = 1.0 + max(abs(v) for _, v in hp + hm) + max(
        abs(v) for _, v in big.real_pos + big.real_neg
    )
    if slope >= -tols.type_tol * scale:
        raise NoWitnessConstructibleError("no opposing eigenvalue gaps found")

    rot = (p, m, phat, mhat, 1.0, 1.0, 1.0, 1.0)
    return _finish_family(
        MIXED_SIGN_SLOPE, problem, big_a.deflation.keep, big, hat, rot, slope, SIGMA_IDENTITY
    )


def _widest_gap(xs, ys, tols):
    """The gap (gap, a, b) of largest size; NoWitnessConstructibleError if it vanishes."""
    gap, a, b = max(_gap_extremes(xs, ys), key=lambda g: abs(g[0]))
    if abs(gap) <= tols.type_tol * (1.0 + abs(a[1]) + abs(b[1])):
        raise NoWitnessConstructibleError("no eigenvalue gap to drive the slope")
    return gap, a[0], b[0]


def _complex_witness(problem, tols, big_a, hat_a):
    big, hat = _frames(big_a, hat_a)

    if hat.blocks and big.blocks:
        # Both sides carry a conjugate block: phase pi/2 against -pi/2.
        hb = max(hat.blocks, key=lambda b: b[3])
        bb = max(big.blocks, key=lambda b: b[3])
        slope = -4.0 * bb[3] * hb[3]
        theta, theta_hat = np.pi / 2.0, -np.pi / 2.0
        a11, a21 = 1.0, np.exp(1j * theta)
        a12, a22 = np.exp(-1j * theta_hat), np.exp(1j * (theta - theta_hat))
        rot = (bb[0], bb[1], hb[0], hb[1], a11, a21, a12, a22)
        sigma_map = SIGMA_IDENTITY
    elif hat.blocks and big.real_pos and big.real_neg:
        # Hat block against two real directions of opposite type.
        hb = max(hat.blocks, key=lambda b: b[3])
        gap, p, m = _widest_gap(big.real_pos, big.real_neg, tols)
        theta_hat = -np.sign(gap) * np.pi / 2.0
        slope = 2.0 * gap * hb[3] * np.sin(theta_hat)
        ph = np.exp(-1j * theta_hat)
        rot = (p, m, hb[0], hb[1], 1.0, 1.0, ph, ph)
        sigma_map = SIGMA_QUARTIC
    elif big.blocks:
        # Big block against two (possibly padded) hat values.
        bb = max(big.blocks, key=lambda b: b[3])
        hp = _padded_values(hat.real_pos, len(big.plus_dirs))
        hm = _padded_values(hat.real_neg, len(big.minus_dirs))
        gap, phat, mhat = _widest_gap(hp, hm, tols)
        theta = -np.sign(gap) * np.pi / 2.0  # slope = 2 (hv-gv) beta sin(theta)
        slope = 2.0 * gap * bb[3] * np.sin(theta)
        ph = np.exp(1j * theta)
        rot = (bb[0], bb[1], phat, mhat, 1.0, ph, 1.0, ph)
        sigma_map = SIGMA_QUARTIC
    else:
        raise NoWitnessConstructibleError("no conjugate block arrangement applies")
    return _finish_family(
        COMPLEX_BLOCK_SLOPE, problem, big_a.deflation.keep, big, hat, rot, slope, sigma_map
    )


def _ray_family(problem, slope, x_base, u, v, sigma_map):
    """The family X(t) = x_base + sigma(t) u v^H through a null direction of B."""
    d_sinh = np.outer(u, v.conj())
    d_cosh = np.zeros_like(d_sinh)
    return _family(INFINITE_BLOCK_RAY, problem, slope, sigma_map, x_base, d_cosh, d_sinh)


def _ray_witness(problem, tols, big, hat):
    sp = big.split
    if not sp.has_infinite or sp.coupled or sp.finite_pair is None:
        raise NoWitnessConstructibleError("no diagonal infinite structure")

    # R + N K is A-orthogonal to N(B), so the ray adds no cross term.
    keep = big.deflation.keep
    Th = hat.b_frame
    X0 = keep @ sp.finite_frame()[:, big.paired_columns(hat)] @ Th.conj().T

    Mh = Th.conj().T @ problem.hat_pair.A.entries @ Th
    Mh = (Mh + Mh.conj().T) / 2.0
    lam_hat, Wh = np.linalg.eigh(Mh)

    # slope = sign(d_inf[i]) * lam_hat[k], least at a pairing of extremes.
    signs = np.sign(sp.d_inf)
    slope, i, k = min(
        (float(signs[i] * lam_hat[k]), int(i), int(k))
        for i in (np.argmin(signs), np.argmax(signs))
        for k in (np.argmin(lam_hat), np.argmax(lam_hat))
    )
    if slope >= -tols.type_tol * (1.0 + float(np.max(np.abs(lam_hat)))):
        raise NoWitnessConstructibleError("infinite block is sign-compatible")
    u, v = keep @ sp.null_frame()[:, i], Th @ Wh[:, k]
    return _ray_family(problem, slope, X0, u, v, SIGMA_IDENTITY)


def _chain_witness(problem, tols, big, hat):
    sp = big.split
    if not sp.has_infinite:
        raise NoWitnessConstructibleError("no infinite structure to chain against")
    cand = np.flatnonzero(np.abs(sp.d_inf) <= sp.null_tol)
    if not cand.size:
        raise NoWitnessConstructibleError("no A-null direction in the B-nullspace")
    if sp.R.shape[1] == 0:
        raise NoWitnessConstructibleError("no finite block to couple against")

    # X0 pairs hat B-frame direction k with a big one, w_k; moving along a
    # chained null direction z changes the trace at the rate 2 Re(r v) with
    # r = sum_k (z^H A w_k) (row k of Th^H Ah).  A phase on w_k keeps X0
    # feasible, so each term is turned to add to the largest one.
    A = big.deflation.reduced.A.entries
    Ah = problem.hat_pair.A.entries
    Wc, Th = big.b_frame[:, big.paired_columns(hat)], hat.b_frame
    M = Th.conj().T @ Ah
    best = None
    for i in cand:
        z = sp.N @ sp.Q_inf[:, i]
        terms = (z.conj() @ A @ Wc)[:, None] * M
        largest = terms[np.argmax(np.linalg.norm(terms, axis=1))]
        phases = np.exp(1j * np.angle(terms.conj() @ largest))
        r = phases @ terms
        norm_r = float(np.linalg.norm(r))
        if best is None or norm_r > best[0]:
            best = (norm_r, z, r, phases)
    norm_r, z, r, phases = best
    X0_d = (Wc * phases) @ Th.conj().T
    scale = 1.0 + float(np.linalg.norm(Ah, 2))
    if norm_r <= tols.type_tol * scale:
        raise NoWitnessConstructibleError("coupling does not reach the objective")
    keep = big.deflation.keep
    u, v = keep @ z, -r.conj() / norm_r
    return _ray_family(problem, -2.0 * norm_r, keep @ X0_d, u, v, SIGMA_SQUARE)


def build_witness(
    problem: ProblemInstance,
    infimum_diag: InfimumResult,
    tols: ToleranceSet | None = None,
) -> WitnessFamily:
    """Construct a divergent feasible family matching the NegInfinite diagnosis."""
    tols = tols or problem.tolerances
    if infimum_diag.verdict != NEG_INFINITE:
        raise NoWitnessConstructibleError("verdict is not NegInfinite")

    big, hat = infimum_diag.analysis, infimum_diag.hat_analysis
    if infimum_diag.reason == COUPLED_INFINITE:
        builders = [_chain_witness]
    elif infimum_diag.reason == COMPLEX_EIGENVALUES:
        builders = [_complex_witness]
    else:  # MixedSigns, NotSemidefinitePair, Improper
        builders = [_mixed_sign_witness, _ray_witness]

    # Several mechanisms may apply at once; keep the steepest family so the
    # certification threshold is reached at the smallest t.
    best = None
    errors = []
    for builder in builders:
        try:
            fam = builder(problem, tols, big, hat)
        except NoWitnessConstructibleError as exc:
            errors.append(f"{builder.__name__}: {exc}")
            continue
        if best is None or fam.slope < best.slope:
            best = fam
    if best is None:
        raise NoWitnessConstructibleError("; ".join(errors))
    return best

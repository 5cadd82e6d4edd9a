"""Explicit feasible families X(t) certifying an infinite infimum.

Every family has one form,

    X(t) = x_base + (c - 1) d_cosh + sigma d_sinh,   c = sqrt(1 + sigma^2),

with sigma = sigma(t) one of three maps and d_cosh, d_sinh sums of at most
two rank-one terms.  Each builder returns a family whose trace trend is
exactly slope * t^2 + offset with slope < 0, while Bhat X(t)^H B X(t) = I
holds up to roundoff growing like (1 + t^2) * eps, or like t^4 * eps for
the chained ``InfiniteBlockRay`` (sigma = t^2).  Three builders:

* ``_rotation_witness`` - a hyperbolic rotation of a (+1, -1) plane of the
  big pair against one of the hat pair's (zero-padded when nhat < rank B).
  A plane is two real directions of opposite type or a 2x2
  conjugate-eigenvalue block; the family is a ``ComplexBlockSlope`` when a
  block takes part and a ``MixedSignSlope`` otherwise.
* ``_ray_witness``, ``_chain_witness`` - an ``InfiniteBlockRay``: scaling
  either a B-null direction against an adverse eigendirection of the hat
  objective (diagonal infinite structure), or a chained null direction
  whose coupling into the finite part drives the cross term (2x2 chained
  structure).

Builders read the ``PairAnalysis`` objects that ``infimum`` carries on its
result: the directions its typed entries and conjugate blocks own, and its
B-frame; no pair is analysed again.  A Jordan copy or a chained conjugate
group owns no direction, so the rotation uses only the typed and block
planes there are, and it needs a direction for every hat dimension: a hat
pair with Jordan or chained structure gets no rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from operator import itemgetter

import numpy as np

from .errors import CertificationFailedError, NoWitnessConstructibleError
from .matcore import ProblemInstance, paired_columns
from .tracemin import (
    NEG_INFINITE,
    InfimumResult,
    _objective,
    feasibility_residual,
)

MIXED_SIGN_SLOPE = "MixedSignSlope"
COMPLEX_BLOCK_SLOPE = "ComplexBlockSlope"
INFINITE_BLOCK_RAY = "InfiniteBlockRay"

SIGMA_IDENTITY = "identity"  # sigma(t) = t
SIGMA_SQUARE = "square"  # sigma(t) = t^2
SIGMA_QUARTIC = "quartic"  # sigma(t) with sigma*sqrt(1+sigma^2) = t^2

# Every family's trace trend is slope * t^TREND_POWER + offset.
TREND_POWER = 2


@dataclass(frozen=True, eq=False)
class WitnessFamily:
    kind: str
    slope: float
    offset: float
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
    """Materialize X(t) and return (X, trace value); t must be finite and nonnegative."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative")
    s = _sigma(family, t)
    X = family.x_base + (np.sqrt(1.0 + s * s) - 1.0) * family.d_cosh + s * family.d_sinh
    return X, _objective(family.problem, X)


@dataclass(frozen=True)
class CertificationReport:
    t: float
    trace_value: float
    feas_residual: float
    threshold: float


# The trend reaches the threshold exactly at t_star, where the computed
# trace is as likely above it as below; the first try steps just past it.
T_STAR_MARGIN = 1.000001
# The first try is t_star * T_STAR_MARGIN + T_FLOOR, never 0, so each retry's
# factor of T_GROWTH moves it even when t_star = 0 (the offset already meets
# the threshold).
T_FLOOR = 1e-9
T_GROWTH = 1.25
T_TRIES = 8


def certify_unbounded(
    family: WitnessFamily, threshold: float, t_max: float
) -> CertificationReport:
    """Find t <= t_max with trace(X(t)) <= threshold; report trace and residual.

    Raises ValueError unless the threshold is finite and negative and t_max
    finite and nonnegative (the family's parameter t is nonnegative).
    """
    if not (math.isfinite(threshold) and threshold < 0):
        raise ValueError("threshold must be finite and negative")
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError("t_max must be finite and nonnegative")
    if family.slope >= 0:
        raise CertificationFailedError("family has nonnegative slope")
    need = threshold - family.offset
    t_star = 0.0 if need >= 0 else float(np.sqrt(need / family.slope))
    t = t_star * T_STAR_MARGIN + T_FLOOR
    for _ in range(T_TRIES):
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
            )
        t *= T_GROWTH
    raise CertificationFailedError("trace did not cross the threshold numerically")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _finish_family(kind, problem, big, hat, rot, slope, sigma_map):
    """Assemble x_base, d_cosh and d_sinh from a rotation plus a static assignment.

    ``big`` and ``hat`` are the (+1 directions, -1 directions) of each pair
    and ``rot`` is (p, m, phat, mhat, u, w), as in ``_rotation_witness``
    (phat or mhat is None for a padded hat value).  The other hat directions
    map to unreserved big directions of the same type.
    """
    p, m, phat, mhat, u, w = rot
    L, R = [], []  # x_base = L R^H, big directions against hat directions
    # The plane's directions are objects of these lists, so identity tells them apart.
    for hat_dirs, big_dirs in zip(hat, big):
        hat_dirs = [d for d in hat_dirs if d is not phat and d is not mhat]
        big_dirs = [d for d in big_dirs if d is not p and d is not m]
        if len(hat_dirs) > len(big_dirs):
            raise NoWitnessConstructibleError("insufficient directions for assignment")
        L += big_dirs[: len(hat_dirs)]
        R += hat_dirs

    d_cosh = np.zeros((problem.n, problem.nhat), dtype=complex)
    d_sinh = np.zeros_like(d_cosh)
    for hd, cosh_dir, sinh_dir, a_cosh, a_sinh in (
        (phat, p, m, 1.0, u), (mhat, m, p, w, w * u.conjugate())
    ):
        if hd is not None:
            L.append(a_cosh * cosh_dir)
            R.append(hd)
            d_cosh += a_cosh * np.outer(cosh_dir, hd.conj())
            d_sinh += a_sinh * np.outer(sinh_dir, hd.conj())

    x_base = np.column_stack(L) @ np.column_stack(R).conj().T
    return _family(kind, problem, slope, sigma_map, x_base, d_cosh, d_sinh)


def _family(kind, problem, slope, sigma_map, x_base, d_cosh, d_sinh):
    """The WitnessFamily of these parts; its offset is the trace at t = 0."""
    family = WitnessFamily(kind, float(slope), 0.0, sigma_map, x_base, d_cosh, d_sinh, problem)
    return replace(family, offset=evaluate_witness(family, 0.0)[1])


def _gap_extremes(xs, ys):
    """The least and the greatest gap a - b over (direction, value) items a of xs, b of ys.

    A pair of two padded zeros (both directions None) is no gap.  Every other
    pair has a real item on one side, so each extreme pairs an extreme real
    item of one list with an extreme item of the other.  Returns
    ((gap, a, b) least, (gap, a, b) greatest), or () when no pair forms a gap.
    """
    value = itemgetter(1)
    ends = []
    for a, b in (([x for x in xs if x[0] is not None], ys),
                 (xs, [y for y in ys if y[0] is not None])):
        if a and b:
            ends.append((min(a, key=value), max(b, key=value)))
            ends.append((max(a, key=value), min(b, key=value)))
    if not ends:
        return ()
    gaps = [(a[1] - b[1], a, b) for a, b in ends]
    return min(gaps, key=itemgetter(0)), max(gaps, key=itemgetter(0))


def _planes(blocks, pos, neg):
    """Candidate planes (p, m, a, b, d) of one pair, with A-form [[a, b], [conj b, d]].

    They are the real pairs of least and greatest gap over the (direction,
    value) lists ``pos`` and ``neg``, A-form diag(value_p, -value_m), and the
    conjugate block of largest beta, [[alpha, -i beta], [i beta, -alpha]]:
    a slope is linear in the gap a + d and in beta, so no other plane is
    steeper.
    """
    planes = [(p, m, vp, 0j, -vm) for _, (p, vp), (m, vm) in _gap_extremes(pos, neg)]
    if blocks:
        p, m, alpha, beta = max(blocks, key=itemgetter(3))
        planes.append((p, m, alpha, -1j * beta, -alpha))
    return planes


def _sides(analysis):
    """The +1 and the -1 side of a pair: each the (direction, value) list of
    its typed entries that own a direction, and the list of its directions,
    those then one of each conjugate block."""
    typed = [[(e.direction, e.value) for e in entries if e.direction is not None]
             for entries in (analysis.pos, analysis.neg)]
    return [(t, [d for d, _ in t] + [b[k] for b in analysis.blocks]) for k, t in enumerate(typed)]


PHASES = (1.0, 1j, -1.0, -1j)


def _rotation_witness(problem, big_a, hat_a):
    """The steepest hyperbolic rotation of a big plane against a hat plane.

    The rotation (p, m, phat, mhat, u, w), |u| = |w| = 1, maps the hat
    direction phat onto c p + s u m and mhat onto w (s conj(u) p + c m), all
    direction vectors, with c^2 = 1 + s^2.  The trace is const + k2 s^2 + k3 c s:

        k2 = (ah + dh)(a + d) + 2 Re(bh conj(w) (b u^2 + conj(b))),
        k3 = 2 Re(u b)(ah + dh) + 2 Re(bh conj(w) (a + d) u).

    A real plane has b = 0 and a block a + d = 0, so k2 or k3 vanishes: k2
    is the slope under sigma = t, k3 under the quartic sigma (one block).
    With b = 0 the slope depends on u only through conj(w) u, and with
    bh = 0 not on w, so the phases are searched on a block's side alone.
    """
    (big_pos, big_plus), (big_neg, big_minus) = _sides(big_a)
    (hat_pos, hat_plus), (hat_neg, hat_minus) = _sides(hat_a)
    if len(hat_plus) + len(hat_minus) < problem.nhat:
        raise NoWitnessConstructibleError("hat Jordan or chained structure has no frame column")
    # The hat pair zero-padded to the inertia of B: each +1 (-1) direction the
    # big pair has beyond the hat's adds a hat value 0 of that type.
    pad = [(None, 0.0)]
    hp = hat_pos + pad * (len(big_plus) - len(hat_plus))
    hm = hat_neg + pad * (len(big_minus) - len(hat_minus))
    big_planes = _planes(big_a.blocks, big_pos, big_neg)
    hat_planes = _planes(hat_a.blocks, hp, hm)

    best = None
    for (p, m, a, b, d), (phat, mhat, ah, bh, dh) in product(big_planes, hat_planes):
        for u, w in product(PHASES if b else PHASES[:1], PHASES if bh else PHASES[:1]):
            bw = bh * w.conjugate()
            k2 = (ah + dh) * (a + d) + 2.0 * (bw * (b * u * u + b.conjugate())).real
            k3 = 2.0 * (u * b).real * (ah + dh) + 2.0 * (bw * (a + d) * u).real
            for slope, sigma_map in ((k2, SIGMA_IDENTITY), (k3, SIGMA_QUARTIC)):
                if best is None or slope < best[0]:
                    best = (slope, sigma_map, bool(b or bh), (p, m, phat, mhat, u, w))
    if best is None:
        raise NoWitnessConstructibleError("no plane pair to rotate")
    slope, sigma_map, uses_block, rot = best
    scale = 1.0 + sum(max(abs(x) for pl in planes for x in pl[2:])
                      for planes in (big_planes, hat_planes))
    if slope >= -big_a.tols.type_tol * scale:
        raise NoWitnessConstructibleError("no opposing eigenvalue gaps found")
    kind = COMPLEX_BLOCK_SLOPE if uses_block else MIXED_SIGN_SLOPE
    big, hat = (big_plus, big_minus), (hat_plus, hat_minus)
    return _finish_family(kind, problem, big, hat, rot, slope, sigma_map)


def _ray_family(problem, slope, x_base, u, v, sigma_map):
    """The family X(t) = x_base + sigma(t) u v^H through a null direction of B."""
    d_sinh = np.outer(u, v.conj())
    d_cosh = np.zeros_like(d_sinh)
    return _family(INFINITE_BLOCK_RAY, problem, slope, sigma_map, x_base, d_cosh, d_sinh)


def _ray_witness(problem, big, hat):
    if not big.has_infinite or big.coupled:
        raise NoWitnessConstructibleError("no diagonal infinite structure")

    # R + N K is A-orthogonal to N(B), so the ray adds no cross term.
    Th = hat.b_frame
    X0 = big.finite_frame()[:, paired_columns(big.b_inertia, hat.b_inertia)] @ Th.conj().T

    # Bhat is nonsingular, so the hat finite part is Th^H Ahat Th.
    lam_hat, Wh = np.linalg.eigh(hat.A_fin)

    # slope = sign(d_inf[i]) * lam_hat[k], least at a pairing of extremes.
    signs = np.sign(big.d_inf)
    slope, i, k = min(
        (float(signs[i] * lam_hat[k]), int(i), int(k))
        for i in (np.argmin(signs), np.argmax(signs))
        for k in (np.argmin(lam_hat), np.argmax(lam_hat))
    )
    if slope >= -big.tols.type_tol * (1.0 + float(np.max(np.abs(lam_hat)))):
        raise NoWitnessConstructibleError("infinite block is sign-compatible")
    u, v = big.null_frame()[:, i], Th @ Wh[:, k]
    return _ray_family(problem, slope, X0, u, v, SIGMA_IDENTITY)


def _chain_witness(problem, big, hat):
    if not big.has_infinite:
        raise NoWitnessConstructibleError("no infinite structure to chain against")
    cand = np.flatnonzero(np.abs(big.d_inf) <= big.null_tol)
    if not cand.size:
        raise NoWitnessConstructibleError("no A-null direction in the B-nullspace")

    # X0 pairs hat B-frame direction k with a big one, w_k; moving along a
    # chained null direction z changes the trace at the rate 2 Re(r v) with
    # r = sum_k (z^H A w_k) (row k of Th^H Ah).  A phase on w_k keeps X0
    # feasible, so each term is turned to add to the largest one.
    A = big.pair.A.entries
    Ah = problem.hat_pair.A.entries
    Wc, Th = big.b_frame[:, paired_columns(big.b_inertia, hat.b_inertia)], hat.b_frame
    M = Th.conj().T @ Ah
    best = None
    for i in cand:
        z = big.N @ big.Q_inf[:, i]
        terms = (z.conj() @ A @ Wc)[:, None] * M
        largest = terms[np.argmax(np.linalg.norm(terms, axis=1))]
        phases = np.exp(1j * np.angle(terms.conj() @ largest))
        r = phases @ terms
        norm_r = float(np.linalg.norm(r))
        if best is None or norm_r > best[0]:
            best = (norm_r, z, r, phases)
    norm_r, z, r, phases = best
    X0_d = (Wc * phases) @ Th.conj().T
    scale = 1.0 + float(np.linalg.norm(Ah))
    if norm_r <= big.tols.type_tol * scale:
        raise NoWitnessConstructibleError("coupling does not reach the objective")
    u, v = z, -r.conj() / norm_r
    return _ray_family(problem, -2.0 * norm_r, X0_d, u, v, SIGMA_SQUARE)


def build_witness(problem: ProblemInstance, infimum_diag: InfimumResult) -> WitnessFamily:
    """Construct a divergent feasible family for a NegInfinite verdict.

    Every builder is tried, whatever the verdict's reason: each raises at
    once where its structure is absent, and several may apply at once, so
    the steepest family is kept and the certification threshold is reached
    at the smallest t.  The family is gated by the tolerances its frames
    were built under, those of the analyses on ``infimum_diag``.
    """
    if infimum_diag.verdict != NEG_INFINITE:
        raise NoWitnessConstructibleError("verdict is not NegInfinite")

    big, hat = infimum_diag.analysis, infimum_diag.hat_analysis
    best = None
    errors = []
    for builder in (_rotation_witness, _ray_witness, _chain_witness):
        try:
            fam = builder(problem, big, hat)
        except NoWitnessConstructibleError as exc:
            errors.append(f"{builder.__name__}: {exc}")
            continue
        if best is None or fam.slope < best.slope:
            best = fam
    if best is None:
        raise NoWitnessConstructibleError("; ".join(errors))
    return best

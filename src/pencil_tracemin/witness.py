"""Explicit feasible families X(t) certifying an infinite infimum.

Every family has one form,

    X(t) = x_base + (c - 1) d_cosh + sigma d_sinh,   c = sqrt(1 + sigma^2),

with sigma = sigma(t) one of three maps and d_cosh, d_sinh sums of at most
two rank-one terms.  Each builder returns a family whose trace trend is
exactly slope * t^2 + offset with slope < 0, while Bhat X(t)^H B X(t) = I
holds up to roundoff growing like (1 + t^2) * eps, or like t^4 * eps for
the chained ``InfiniteBlockRay`` (sigma = t^2).  Two builders:

* ``_rotation_witness`` - a hyperbolic rotation of a (+1, -1) plane of the
  big pair against one of the hat pair's, zero-padded when nhat < rank B:
  each padded hat value is a zero column of the hat directions.
  A plane is two real directions of opposite type or a 2x2
  conjugate-eigenvalue block; the family is a ``ComplexBlockSlope`` when a
  block takes part and a ``MixedSignSlope`` otherwise.
* ``_ray_witness`` - an ``InfiniteBlockRay``, on the branch that the
  analysis's ``coupled`` flag picks: scaling a B-null direction against an
  adverse eigendirection of the hat objective (diagonal infinite
  structure), or moving along a chained null direction whose coupling into
  the finite part drives the cross term (2x2 chained structure).

Builders read the ``PairAnalysis`` objects that ``infimum`` carries on its
result: its typed values, the directions its typed entries and conjugate
blocks own, named by their column in the +1 or the -1 side's matrix, and
its B-frame; no pair is analysed again.  The ray builder, which runs only
where B has a null direction, pairs a unit direction of a hat frame with a
null direction of B, so its slope is measured in that frame.  It takes
Bhat's eigenvector frame Th (``eigh_frame``, square, as Bhat is
nonsingular) instead of the hat pair's typed one: its columns are
orthogonal, so the slope does not depend on the route that solved the hat
pair, while the typed frame of a definite hat pair can be far from
orthogonal, and the chained family, whose residual sits at its roundoff
floor, certifies worse there.  Only its diagonal branch forms the hat A-form
Th^H Ahat Th.  A Jordan copy or a chained conjugate
group owns no direction, so the rotation uses only the typed and block
planes there are, and it needs a direction for every hat dimension: a hat
pair with Jordan or chained structure gets no rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CertificationFailedError, NonFiniteError, NoWitnessConstructibleError
from .matcore import ProblemInstance, paired_columns
from .spectral import eigh_frame
from .tracemin import (
    NEG_INFINITE,
    InfimumResult,
    _checked,
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
    # sigma^2 (1 + sigma^2) = t^4  =>  exact quadratic trend for the rotation;
    # q = (sqrt(1 + 4 t^4) - 1) / 2 in a form that does not cancel at small t.
    q = 2.0 * t**4 / (1.0 + math.hypot(1.0, 2.0 * t * t))
    return math.sqrt(q)


def evaluate_witness(family: WitnessFamily, t: float):
    """Materialize X(t) and return (X, trace value); t must be finite and nonnegative.

    NonFiniteError, naming t, when sigma(t), X(t) or the trace is beyond the
    floats: a trace below -1.8e308, or sigma^2 overflowing in the cosh
    coefficient sqrt(1 + sigma^2) - 1, from sigma = 1.3e154, where the trace
    of a family of unit slope overflows too.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative")
    try:
        s = _sigma(family, t)
    except OverflowError:
        s = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        X = family.x_base + (math.sqrt(1.0 + s * s) - 1.0) * family.d_cosh + s * family.d_sinh
        trace = _objective(family.problem, X)
    if not math.isfinite(trace):
        raise NonFiniteError(f"the witness trace at t = {t!r} is not a finite float")
    return X, trace


@dataclass(frozen=True)
class CertificationReport:
    """A witness family certified at its parameter ``t``.

    ``trace_value`` is trace(Ahat X^H A X) at X(t), at most ``threshold``.
    ``feas_residual`` is ``feasibility_residual`` at X(t): the Frobenius
    norm ||Bhat X^H B X - I||_F, an upper bound on the 2-norm.
    """

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
    t_star = 0.0 if need >= 0 else math.sqrt(need / family.slope)
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

    ``big`` and ``hat`` are the (+1 directions, -1 directions) matrices of
    each pair and ``rot`` is (p, m, phat, mhat, u, w), as in
    ``_rotation_witness``: columns of those matrices, where a padded hat
    value is a zero column.  x_base = X(0) = L R^H, with R the hat
    directions, the +1 columns then the -1 columns, and L their images in
    the same order: phat maps to p and mhat to w m, by the phase conj(w) on
    mhat's column of R, and the other hat columns map, in order, onto the
    unreserved big columns of the same type.  On the plane, the rotation
    maps the columns (phat, mhat) of R to (p, m) times [[c, s conj(u)],
    [s u, c]], so d_cosh and d_sinh are (p, m) times the identity and
    [[0, conj(u)], [u, 0]] against those two columns.  A zero column of R
    adds nothing to any of the three.
    """
    p, m, phat, mhat, u, w = rot
    images = []
    for hat_dirs, big_dirs, hat_col, big_col in zip(hat, big, (phat, mhat), (p, m)):
        cols = [k for k in range(big_dirs.shape[1]) if k != big_col]
        if hat_dirs.shape[1] - 1 > len(cols):
            raise NoWitnessConstructibleError("insufficient directions for assignment")
        cols.insert(hat_col, big_col)
        images.append(big_dirs[:, cols[: hat_dirs.shape[1]]])
    R = np.concatenate(hat, axis=1)
    mcol = hat[0].shape[1] + mhat
    R[:, mcol] *= w.conjugate()
    x_base = np.concatenate(images, axis=1) @ R.conj().T

    plane = np.concatenate((big[0][:, [p]], big[1][:, [m]]), axis=1)
    Hr = R[:, [phat, mcol]].conj().T
    d_cosh = plane @ Hr
    d_sinh = (plane[:, ::-1] * (u, u.conjugate())) @ Hr
    return _family(kind, problem, slope, sigma_map, x_base, d_cosh, d_sinh)


def _family(kind, problem, slope, sigma_map, x_base, d_cosh, d_sinh):
    """The WitnessFamily of these parts; its offset is the trace at t = 0,
    where X(0) = x_base."""
    offset = _objective(problem, x_base)
    return WitnessFamily(kind, float(slope), offset, sigma_map, x_base, d_cosh, d_sinh, problem)


def _planes(blocks, pos, neg):
    """Candidate planes (p, m, a, b, d) of one pair, with A-form [[a, b], [conj b, d]].

    p and m are columns of the +1 and -1 sides of ``_sides``: those of the
    (padded) typed values ``pos`` and ``neg``, then one per conjugate block.
    The planes are the real pairs of least and greatest gap, A-form
    diag(value_p, -value_m), and the conjugate block of largest beta,
    [[alpha, -i beta], [i beta, -alpha]]: a slope is linear in the gap a + d
    and in beta, so no other plane is steeper.  A pair of two padded zeros
    (zero columns) has gap 0 and rotates nothing.  It is an extreme only
    when every other gap lies on one side of 0, and then the opposite
    extreme, of larger size, makes a product at least as negative with
    every big gap and every block, so it never sets the steepest slope.
    """
    planes = []
    if pos.size and neg.size:
        planes = [(int(i), int(k), float(pos[i]), 0j, -float(neg[k]))
                  for i, k in ((pos.argmin(), neg.argmax()), (pos.argmax(), neg.argmin()))]
    if blocks:
        i = max(range(len(blocks)), key=lambda b: blocks[b][3])
        _, _, alpha, beta = blocks[i]
        planes.append((len(pos) + i, len(neg) + i, alpha, -1j * beta, -alpha))
    return planes


def _sides(analysis, pads=(0, 0)):
    """The +1 and the -1 side of a pair: each the values of its typed entries that own a
    direction, then ``pads`` zeros, and the matrix of its directions, those then a zero
    column per padded zero, then one column of each conjugate block."""
    a = analysis

    def side(values, typed, k, pad):
        if pad or a.blocks:
            values = np.concatenate([values, np.zeros(pad)])
            typed = np.column_stack([typed, np.zeros((len(typed), pad)), *(b[k] for b in a.blocks)])
        return values, typed

    return (side(a.pos_values[a.pos_owns], a.pos_dirs, 0, pads[0]),
            side(a.neg_values[a.neg_owns], a.neg_dirs, 1, pads[1]))


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
    hat_cols = [d.shape[1] + len(hat_a.blocks) for d in (hat_a.pos_dirs, hat_a.neg_dirs)]
    if sum(hat_cols) < problem.nhat:
        raise NoWitnessConstructibleError("hat Jordan or chained structure has no frame column")
    # The hat pair zero-padded to the inertia of B: each +1 (-1) direction the
    # big pair has beyond the hat's adds a hat value 0 of that type.
    pads = [max(0, b.shape[1] - h) for b, h in zip((big_plus, big_minus), hat_cols)]
    (hat_pos, hat_plus), (hat_neg, hat_minus) = _sides(hat_a, pads)
    big_planes = _planes(big_a.blocks, big_pos, big_neg)
    hat_planes = _planes(hat_a.blocks, hat_pos, hat_neg)

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


def _ray_witness(problem, big, hat):
    """X(t) = x_base + sigma(t) u v^H, u a null direction of B and v a unit
    direction of Bhat's frame Th; chained (sigma = t^2) when ``big.coupled``."""
    if not big.has_infinite:
        raise NoWitnessConstructibleError("no infinite structure")
    Ah = problem.hat_pair.A.entries
    Th, _, _ = eigh_frame(problem.hat_pair.B.entries, hat.tols)
    cols = paired_columns(big.b_inertia, hat.b_inertia)
    M = Th.conj().T @ Ah
    if big.coupled:
        # x_base pairs hat B-frame direction k with a big one, w_k; moving along
        # a chained null direction z changes the trace at the rate 2 Re(r v)
        # with r = sum_k (z^H A w_k) (row k of Th^H Ah).  A phase on w_k keeps
        # x_base feasible, so each term is turned to add to the largest one.
        A = big.pair.A.entries
        Wc = big.b_frame[:, cols]
        best = None
        for i in np.flatnonzero(np.abs(big.d_inf) <= big.null_tol):
            z = big.N @ big.Q_inf[:, i]
            terms = (z.conj() @ A @ Wc)[:, None] * M
            largest = terms[np.argmax(np.linalg.norm(terms, axis=1))]
            phases = np.exp(1j * np.angle(terms.conj() @ largest))
            r = phases @ terms
            norm_r = float(np.linalg.norm(r))
            if best is None or norm_r > best[0]:
                best = (norm_r, z, r, phases)
        norm_r, z, r, phases = best
        x_base = (Wc * phases) @ Th.conj().T
        scale = 1.0 + problem.hat_pair.A.fro
        if norm_r <= big.tols.type_tol * scale:
            raise NoWitnessConstructibleError("coupling does not reach the objective")
        slope, sigma_map = -2.0 * norm_r, SIGMA_SQUARE
        u, v = z, -r.conj() / norm_r
    else:
        # R + N K is A-orthogonal to N(B), so the ray adds no cross term.
        x_base = big.finite_frame()[:, cols] @ Th.conj().T
        H = M @ Th
        lam_hat, Wh = np.linalg.eigh((H + H.conj().T) / 2.0)

        # slope = sign(d_inf[i]) * lam_hat[k], least at a pairing of extremes.
        signs = np.sign(big.d_inf)
        slope, i, k = min(
            (float(signs[i] * lam_hat[k]), int(i), int(k))
            for i in (np.argmin(signs), np.argmax(signs))
            for k in (np.argmin(lam_hat), np.argmax(lam_hat))
        )
        if slope >= -big.tols.type_tol * (1.0 + float(np.max(np.abs(lam_hat)))):
            raise NoWitnessConstructibleError("infinite block is sign-compatible")
        sigma_map = SIGMA_IDENTITY
        u, v = big.null_frame()[:, i], Th @ Wh[:, k]
    d_sinh = np.outer(u, v.conj())
    return _family(
        INFINITE_BLOCK_RAY, problem, slope, sigma_map, x_base, np.zeros_like(d_sinh), d_sinh
    )


def build_witness(problem: ProblemInstance, infimum_diag: InfimumResult) -> WitnessFamily:
    """Construct a divergent feasible family for a NegInfinite verdict.

    Every builder is tried, whatever the verdict's reason: each raises at
    once where its structure is absent, and several may apply at once, so
    the steepest family is kept and the certification threshold is reached
    at the smallest t.  The family is gated by the tolerances its frames
    were built under, those of the analyses on ``infimum_diag``.  Raises
    ValueError when ``infimum_diag`` was not computed for ``problem``
    (``tracemin._checked``), as ``minimizer`` does: its frames would be
    mixed with another problem's matrices.
    """
    big, hat = _checked(problem, infimum_diag).analysis, infimum_diag.hat_analysis
    if infimum_diag.verdict != NEG_INFINITE:
        raise NoWitnessConstructibleError("verdict is not NegInfinite")

    best = None
    errors = []
    for builder in (_rotation_witness, _ray_witness):
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

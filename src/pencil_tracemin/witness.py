"""Explicit feasible families X(t) certifying an infinite infimum.

Each builder returns a family whose trace trend is exactly
slope * t^2 + offset with slope < 0, while Bhat X(t)^H B X(t) = I holds up to
roundoff that grows no faster than (1 + t^2).  Three mechanisms:

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

from dataclasses import dataclass, field, replace

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
    MIXED_SIGNS,
    NEG_INFINITE,
    InfimumResult,
    feasibility_residual,
)

MIXED_SIGN_SLOPE = "MixedSignSlope"
COMPLEX_BLOCK_SLOPE = "ComplexBlockSlope"
INFINITE_BLOCK_RAY = "InfiniteBlockRay"

SIGMA_IDENTITY = "identity"  # sigma(t) = t
SIGMA_QUARTIC = "quartic"  # sigma(t) with sigma*sqrt(1+sigma^2) = t^2


@dataclass(frozen=True)
class WitnessFamily:
    kind: str
    slope: float
    offset: float
    trend_power: int
    sigma_map: str
    x_base: np.ndarray
    upd_cosh: tuple  # ((u, v), ...): coefficient cosh-part c(sigma) - 1
    upd_sinh: tuple  # ((u, v), ...): coefficient sigma
    upd_power: tuple  # ((u, v, k), ...): coefficient t^k
    problem: ProblemInstance
    frame: dict = field(default_factory=dict)
    selectors: dict = field(default_factory=dict)


def _sigma(family: WitnessFamily, t: float) -> float:
    if family.sigma_map == SIGMA_IDENTITY:
        return float(t)
    # sigma^2 (1 + sigma^2) = t^4  =>  exact quadratic trend for the rotation
    q = 0.5 * (np.sqrt(1.0 + 4.0 * t**4) - 1.0)
    return float(np.sqrt(q))


def evaluate_witness(family: WitnessFamily, t: float):
    """Materialize X(t) and return (X, trace value)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    X = family.x_base.copy()
    s = _sigma(family, t)
    c = np.sqrt(1.0 + s * s)
    for u, v in family.upd_cosh:
        X += (c - 1.0) * np.outer(u, v.conj())
    for u, v in family.upd_sinh:
        X += s * np.outer(u, v.conj())
    for u, v, k in family.upd_power:
        X += (t**k) * np.outer(u, v.conj())
    A = family.problem.pair.A.entries
    Ah = family.problem.hat_pair.A.entries
    trace = float(np.real(np.trace(Ah @ X.conj().T @ A @ X)))
    return X, trace


def witness_feasibility(family: WitnessFamily, X: np.ndarray) -> float:
    return feasibility_residual(family.problem, X)


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
                feas_residual=witness_feasibility(family, X),
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


def _finish_family(kind, problem, keep, big, hat, rot, slope, sigma_map, selectors):
    """Assemble x_base and rank-one updates from a rotation plus a static assignment.

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

    upd_cosh, upd_sinh = [], []
    if phat is not None:
        Xt0[p, phat] = a11
        upd_cosh.append((a11 * Mbig[:, p], hat.T[:, phat]))
        upd_sinh.append((a21 * Mbig[:, m], hat.T[:, phat]))
    if mhat is not None:
        Xt0[m, mhat] = a22
        upd_cosh.append((a22 * Mbig[:, m], hat.T[:, mhat]))
        upd_sinh.append((a12 * Mbig[:, p], hat.T[:, mhat]))

    x_base = Mbig @ Xt0 @ hat.T.conj().T
    family = WitnessFamily(
        kind=kind,
        slope=float(slope),
        offset=0.0,
        trend_power=2,
        sigma_map=sigma_map,
        x_base=x_base,
        upd_cosh=tuple(upd_cosh),
        upd_sinh=tuple(upd_sinh),
        upd_power=(),
        problem=problem,
        frame={
            "yinv_big": Mbig,
            "yinv_hat": hat.T,
            "j_big": big.j_diag,
            "j_hat": hat.j_diag,
        },
        selectors=selectors,
    )
    return replace(family, offset=evaluate_witness(family, 0.0)[1])


def _padded_values(hat_vals, count):
    """Hat-side values with virtual zeros for the inertia surplus.

    Returns [(value, hat_dir_or_None), ...]."""
    out = [(float(v), d) for d, v in hat_vals]
    out.extend((0.0, None) for _ in range(count - len(out)))
    return out


def _mixed_sign_witness(problem, tols, big_a, hat_a):
    big, hat = _frames(big_a, hat_a)
    if big.blocks or hat.blocks:
        raise NoWitnessConstructibleError("conjugate blocks need the complex builder")

    npl, nmi = len(big.real_pos), len(big.real_neg)
    hp = _padded_values(hat.real_pos, npl)
    hm = _padded_values(hat.real_neg, nmi)
    if not hp or not hm or not big.real_pos or not big.real_neg:
        raise NoWitnessConstructibleError("a typed direction is missing on one side")

    best = None
    for hv, hd in hp:
        for gv, gd in hm:
            dhat = hv - gv
            if hd is None and gd is None:
                continue
            for bd_p, bv_p in big.real_pos:
                for bd_m, bv_m in big.real_neg:
                    s = dhat * (bv_p - bv_m)
                    if best is None or s < best[0]:
                        best = (s, hd, gd, bd_p, bd_m, hv, gv, bv_p, bv_m)
    scale = 1.0 + max(abs(v) for v, _ in hp + hm) + max(
        abs(v) for _, v in big.real_pos + big.real_neg
    )
    if best is None or best[0] >= -tols.type_tol * scale:
        raise NoWitnessConstructibleError("no opposing eigenvalue gaps found")
    slope, phat, mhat, p, m, hv, gv, bv_p, bv_m = best

    rot = (p, m, phat, mhat, 1.0, 1.0, 1.0, 1.0)
    selectors = {
        "hat_plus": hv, "hat_minus": gv, "big_plus": bv_p, "big_minus": bv_m,
    }
    return _finish_family(
        MIXED_SIGN_SLOPE, problem, big_a.deflation.keep, big, hat, rot,
        slope, SIGMA_IDENTITY, selectors,
    )


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
        selectors = {"alpha": bb[2], "beta": bb[3], "alpha_hat": hb[2], "beta_hat": hb[3]}
    elif hat.blocks and big.real_pos and big.real_neg:
        # Hat block against two real directions of opposite type.
        hb = max(hat.blocks, key=lambda b: b[3])
        # The largest gap max(pos) - min(neg); if it vanishes, every gap is
        # <= 0 and the largest in size is min(pos) - max(neg).
        (bd_p, bv_p), (bd_m, bv_m) = big.real_pos[-1], big.real_neg[0]
        if abs(bv_p - bv_m) <= tols.type_tol * (1.0 + abs(bv_p) + abs(bv_m)):
            (bd_p, bv_p), (bd_m, bv_m) = big.real_pos[0], big.real_neg[-1]
        gap = bv_p - bv_m
        if abs(gap) <= tols.type_tol * (1.0 + abs(bv_p) + abs(bv_m)):
            raise NoWitnessConstructibleError("no eigenvalue gap to drive the slope")
        theta_hat = -np.sign(gap) * np.pi / 2.0
        slope = 2.0 * gap * hb[3] * np.sin(theta_hat)
        ph = np.exp(-1j * theta_hat)
        rot = (bd_p, bd_m, hb[0], hb[1], 1.0, 1.0, ph, ph)
        sigma_map = SIGMA_QUARTIC
        selectors = {"beta_hat": hb[3], "big_plus": bv_p, "big_minus": bv_m}
    elif big.blocks:
        # Big block against two (possibly padded) hat values.
        bb = max(big.blocks, key=lambda b: b[3])
        hp = _padded_values(hat.real_pos, len(big.plus_dirs))
        hm = _padded_values(hat.real_neg, len(big.minus_dirs))
        cand = [(abs(a - b), a, da, b, db) for a, da in hp for b, db in hm
                if not (da is None and db is None)]
        if not cand:
            raise NoWitnessConstructibleError("only padded hat values available")
        _, hv, phat, gv, mhat = max(cand, key=lambda c: c[0])
        gap = hv - gv
        if abs(gap) <= tols.type_tol * (1.0 + abs(hv) + abs(gv)):
            raise NoWitnessConstructibleError("no hat eigenvalue gap")
        theta = -np.sign(gap) * np.pi / 2.0  # slope = 2 (hv-gv) beta sin(theta)
        slope = 2.0 * gap * bb[3] * np.sin(theta)
        ph = np.exp(1j * theta)
        rot = (bb[0], bb[1], phat, mhat, 1.0, ph, 1.0, ph)
        sigma_map = SIGMA_QUARTIC
        selectors = {"beta": bb[3], "hat_plus": hv, "hat_minus": gv}
    else:
        raise NoWitnessConstructibleError("no conjugate block arrangement applies")
    return _finish_family(
        COMPLEX_BLOCK_SLOPE, problem, big_a.deflation.keep, big, hat, rot,
        slope, sigma_map, selectors,
    )


def _ray_family(problem, slope, x_base, u, v, power, d_inf, selectors):
    """The family X(t) = x_base + t^power u v^H through a null direction of B."""
    family = WitnessFamily(
        kind=INFINITE_BLOCK_RAY,
        slope=float(slope),
        offset=0.0,
        trend_power=2,
        sigma_map=SIGMA_IDENTITY,
        x_base=x_base,
        upd_cosh=(),
        upd_sinh=(),
        upd_power=((u, v, power),),
        problem=problem,
        frame={"d_inf": d_inf},
        selectors=selectors,
    )
    return replace(family, offset=evaluate_witness(family, 0.0)[1])


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

    signs = np.sign(sp.d_inf)
    best = None
    for i, s in enumerate(signs):
        for k, lh in enumerate(lam_hat):
            prod = float(s * lh)
            if best is None or prod < best[0]:
                best = (prod, i, k)
    scale = 1.0 + float(np.max(np.abs(lam_hat))) if lam_hat.size else 1.0
    if best is None or best[0] >= -tols.type_tol * scale:
        raise NoWitnessConstructibleError("infinite block is sign-compatible")
    slope, i, k = best
    selectors = {"infinite_sign": float(signs[i]), "hat_eigenvalue": float(lam_hat[k])}
    return _ray_family(
        problem, slope, X0, keep @ sp.null_frame()[:, i], Th @ Wh[:, k], 1, sp.d_inf, selectors
    )


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
    selectors = {"chained": True, "coupling_norm": norm_r}
    return _ray_family(
        problem, -2.0 * norm_r, keep @ X0_d, keep @ z, -r.conj() / norm_r, 2, sp.d_inf, selectors
    )


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
    reason = infimum_diag.reason
    detail = infimum_diag.reason_detail or ""
    if reason == COUPLED_INFINITE:
        order = [_chain_witness]
    elif reason == COMPLEX_EIGENVALUES:
        order = [_complex_witness]
    elif reason == MIXED_SIGNS and detail.startswith("infinite"):
        order = [_ray_witness, _mixed_sign_witness]
    else:  # MixedSigns (finite), NotSemidefinitePair, Improper
        order = [_mixed_sign_witness, _ray_witness]

    # Several mechanisms may apply at once; keep the steepest family so the
    # certification threshold is reached at the smallest t.
    best = None
    errors = []
    for builder in order:
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

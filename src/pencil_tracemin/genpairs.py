"""Ground-truth pencil generator built from canonical congruence blocks.

Every Hermitian pair is congruent to a direct sum of five block families;
assembling known blocks and scrambling with a controlled congruence yields
test pencils whose spectra, definiteness, and diagonalizability are known
analytically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .matcore import Inertia, MatrixPair, pair_from_arrays, random_congruence


def K_block(p: int, tau: complex) -> np.ndarray:
    """Anti-triangular p x p block: tau on the anti-diagonal, ones just below."""
    return tau * F_block(p) + np.eye(p, k=1)[::-1]


def F_block(p: int) -> np.ndarray:
    """Anti-identity of order p."""
    return np.eye(p, dtype=complex)[::-1].copy()


def _finite_real(x) -> bool:
    """A real number, not a boolean, that converts to a finite float."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class BlockSpec:
    kind: str  # "To" | "Ts" | "Tinf" | "Tc" | "Tr"
    p: int = 1
    alpha: float = 0.0
    beta: float = 0.0
    eta: int = 1

    def __post_init__(self):
        if self.kind not in ("To", "Ts", "Tinf", "Tc", "Tr"):
            raise InvalidSpecError(f"unknown block kind {self.kind!r}")
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise InvalidSpecError(f"p must be a positive integer, got {self.p!r}")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise InvalidSpecError(f"{name} must be a finite real number, got {value!r:.40}")
        eta = self.eta
        if isinstance(eta, bool) or not isinstance(eta, (int, np.integer)) or eta not in (1, -1):
            raise InvalidSpecError(f"eta must be the integer +1 or -1, got {eta!r}")
        if self.kind == "Tc" and not self.beta > 0:
            raise InvalidSpecError("Tc blocks need beta > 0")


def block(spec: BlockSpec) -> MatrixPair:
    """Emit the exact canonical pair for one block."""
    p, eta = spec.p, spec.eta
    if spec.kind == "To":
        A = np.zeros((1, 1), dtype=complex)
        B = np.zeros((1, 1), dtype=complex)
    elif spec.kind == "Ts":
        A = K_block(2 * p + 1, 0.0)
        B = np.zeros((2 * p + 1, 2 * p + 1), dtype=complex)
        F = F_block(p)
        B[:p, p + 1 :] = F
        B[p + 1 :, :p] = F
    elif spec.kind == "Tinf":
        A = eta * F_block(p)
        B = eta * K_block(p, 0.0)
    elif spec.kind == "Tc":
        A = np.zeros((2 * p, 2 * p), dtype=complex)
        A[:p, p:] = K_block(p, spec.alpha + 1j * spec.beta)
        A[p:, :p] = K_block(p, spec.alpha - 1j * spec.beta)
        B = F_block(2 * p)
    else:  # Tr
        A = eta * K_block(p, spec.alpha)
        B = eta * F_block(p)
    return pair_from_arrays(A, B)


def _f_inertia(p: int, eta: int) -> tuple:
    plus, minus = (p + 1) // 2, p // 2
    return (plus, 0, minus) if eta > 0 else (minus, 0, plus)


def _block_b_inertia(spec: BlockSpec) -> tuple:
    p, eta = spec.p, spec.eta
    if spec.kind == "To":
        return (0, 1, 0)
    if spec.kind == "Ts":
        return (p, 1, p)
    if spec.kind == "Tinf":
        # eta*K_p(0) is eta*F_{p-1} bordered by a zero row/column.
        pl, _, mi = _f_inertia(p - 1, eta) if p > 1 else (0, 0, 0)
        return (pl, 1, mi)
    if spec.kind == "Tc":
        return (p, 0, p)
    return _f_inertia(p, eta)


@dataclass(frozen=True)
class GroundTruth:
    inertia_B: Inertia
    pos: tuple  # positive-type finite eigenvalues (ascending, with multiplicity)
    neg: tuple
    jordan_values: tuple  # two-copy eigenvalues already included in pos/neg
    complex_values: tuple
    infinite_signs: tuple  # one +1/-1 per Tinf(1) block
    psd: bool
    nsd: bool
    diagonalizable: bool  # pencil semisimple: only To / Tr(1) / Tinf(1) / Tc(1)
    coupled: bool  # Ts or Tinf(p >= 2) present


def _truth(specs) -> GroundTruth:
    pos, neg, jordan, cvals, inf_signs = [], [], [], [], []
    lo, hi = -np.inf, np.inf  # admissible shift interval for PSD
    lo_n, hi_n = -np.inf, np.inf  # for NSD
    psd_possible = True
    nsd_possible = True
    diag = True
    coupled = False
    ip = iz = im = 0

    for spec in specs:
        bp, bz, bm = _block_b_inertia(spec)
        ip, iz, im = ip + bp, iz + bz, im + bm
        p, eta, a = spec.p, spec.eta, spec.alpha
        if spec.kind == "To":
            continue
        if spec.kind == "Ts":
            psd_possible = nsd_possible = False
            diag = False
            coupled = True
        elif spec.kind == "Tinf":
            if p == 1:
                inf_signs.append(eta)
                if eta > 0:
                    nsd_possible = False
                else:
                    psd_possible = False
            else:
                psd_possible = nsd_possible = False
                diag = False
                coupled = True
        elif spec.kind == "Tc":
            psd_possible = nsd_possible = False
            if p > 1:
                diag = False
            cvals.extend([complex(a, spec.beta), complex(a, -spec.beta)] * p)
        else:  # Tr
            if p == 1:
                if eta > 0:
                    pos.append(a)
                    hi = min(hi, a)  # A - lam0 B >= 0 needs lam0 <= a
                    lo_n = max(lo_n, a)
                else:
                    neg.append(a)
                    lo = max(lo, a)
                    hi_n = min(hi_n, a)
            elif p == 2:
                diag = False
                jordan.append(a)
                pos.append(a)
                neg.append(a)
                if eta > 0:
                    lo, hi = max(lo, a), min(hi, a)  # pins lam0 = a
                    nsd_possible = False
                else:
                    lo_n, hi_n = max(lo_n, a), min(hi_n, a)
                    psd_possible = False
            else:
                psd_possible = nsd_possible = False
                diag = False
                # Tr(p>=3) contributes p copies of alpha in chained structure;
                # typed counts follow the inertia of eta*F_p.
                fp, _, fm = _f_inertia(p, eta)
                pos.extend([a] * fp)
                neg.extend([a] * fm)

    psd = psd_possible and lo <= hi
    nsd = nsd_possible and lo_n <= hi_n
    return GroundTruth(
        inertia_B=Inertia(ip, iz, im),
        pos=tuple(sorted(pos)),
        neg=tuple(sorted(neg)),
        jordan_values=tuple(sorted(jordan)),
        complex_values=tuple(sorted(cvals, key=lambda z: (z.real, z.imag))),
        infinite_signs=tuple(inf_signs),
        psd=psd,
        nsd=nsd,
        diagonalizable=diag,
        coupled=coupled,
    )


def assemble(specs, scramble_seed=0, conditioning_cap: float = 10.0):
    """Direct-sum the blocks, scramble by a random congruence, return pair + truth."""
    specs = [s if isinstance(s, BlockSpec) else BlockSpec(**s) for s in specs]
    if not specs:
        raise InvalidSpecError("at least one block is required")
    mats = [block(s) for s in specs]
    n = sum(m.n for m in mats)
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    at = 0
    for m in mats:
        A[at : at + m.n, at : at + m.n] = m.A.entries
        B[at : at + m.n, at : at + m.n] = m.B.entries
        at += m.n
    pair = pair_from_arrays(A, B)
    scrambled, _ = random_congruence(pair, scramble_seed, conditioning_cap)
    return scrambled, _truth(specs)


def spec_from_json(obj) -> list:
    """Parse the block-spec JSON: {"blocks": [{"kind": ..., ...}, ...], ...}."""
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise InvalidSpecError("spec object must carry a 'blocks' list")
    blocks = obj["blocks"]
    if not isinstance(blocks, list) or not blocks:
        raise InvalidSpecError("'blocks' must be a nonempty list")
    out = []
    for item in blocks:
        if not isinstance(item, dict) or "kind" not in item:
            raise InvalidSpecError("each block needs a 'kind'")
        kwargs = {k: item[k] for k in ("kind", "p", "alpha", "beta", "eta") if k in item}
        try:
            out.append(BlockSpec(**kwargs))
        except (TypeError, ValueError) as exc:
            raise InvalidSpecError(str(exc)) from exc
    return out

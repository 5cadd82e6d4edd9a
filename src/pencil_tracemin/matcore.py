"""Core matrix types: validated Hermitian matrices, inertia, congruences, JSON I/O.

Every matrix entering the library passes through :func:`validate_hermitian`
exactly once; downstream modules receive already-symmetrized entries and do
not re-check Hermiticity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    EmptyFeasibleSetError,
    KernelFailureError,
    NonFiniteError,
    NotHermitianError,
    NotSquareError,
)


@dataclass(frozen=True)
class ToleranceSet:
    """Numerical tolerances used throughout the pipeline (relative where noted)."""

    herm_tol: float = 1e-10
    rank_tol: float = 1e-10
    psd_tol: float = 1e-8
    type_tol: float = 1e-7
    feas_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be strictly positive")


DEFAULT_TOLS = ToleranceSet()


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense complex Hermitian matrix, stored symmetrized."""

    entries: np.ndarray
    herm_residual: float

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        """Spectral norm (largest absolute eigenvalue)."""
        return float(np.max(np.abs(eigvalsh(self.entries))))


@dataclass(frozen=True)
class Inertia:
    n_plus: int
    n_zero: int
    n_minus: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def n(self) -> int:
        return self.n_plus + self.n_zero + self.n_minus

    def as_tuple(self):
        return (self.n_plus, self.n_zero, self.n_minus)


@dataclass(frozen=True)
class MatrixPair:
    """Hermitian matrix pair (A, B) of equal order."""

    A: HermitianMatrix
    B: HermitianMatrix

    def __post_init__(self):
        if self.A.n != self.B.n:
            raise ValueError("pair members must have equal dimension")

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def scale(self) -> float:
        """1 + |A|_F + |B|_F: the size that absolute tolerances on the pair multiply."""
        return 1.0 + float(np.linalg.norm(self.A.entries) + np.linalg.norm(self.B.entries))


@dataclass(frozen=True)
class ProblemInstance:
    """Four-matrix instance: minimize trace(Ahat X^H A X) s.t. Bhat X^H B X = I."""

    pair: MatrixPair
    hat_pair: MatrixPair
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)

    def __post_init__(self):
        if self.hat_pair.n > self.pair.n:
            raise ValueError("hat pair order must not exceed the full pair order")

    @property
    def n(self) -> int:
        return self.pair.n

    @property
    def nhat(self) -> int:
        return self.hat_pair.n


def validate_hermitian(raw, herm_tol: float = DEFAULT_TOLS.herm_tol) -> HermitianMatrix:
    """Validate and symmetrize a raw square array into a HermitianMatrix.

    Raises NotSquareError / NonFiniteError / NotHermitianError when the input
    is not square, holds a NaN or infinite entry, or its Hermiticity residual
    max|M - M^H| exceeds ``herm_tol``.
    """
    M = np.asarray(raw, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSquareError(f"expected square matrix, got shape {M.shape}")
    if M.shape[0] < 1:
        raise NotSquareError("matrix dimension must be at least 1")
    # NaN or infinite entries, and only those, make the residual non-finite
    # (barring overflow of M - M^H near the largest float); inf - inf is
    # reported below as NonFiniteError, not as a numpy warning.
    with np.errstate(invalid="ignore"):
        residual = float(np.max(np.abs(M - M.conj().T)))
    if not math.isfinite(residual):
        raise NonFiniteError("matrix entries must be finite (no NaN or infinity)")
    if residual > herm_tol:
        raise NotHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds tolerance {herm_tol:.3e}"
        )
    sym = (M + M.conj().T) / 2.0
    return HermitianMatrix(entries=sym, herm_residual=residual)


def pair_from_arrays(A, B, herm_tol: float = DEFAULT_TOLS.herm_tol) -> MatrixPair:
    return MatrixPair(validate_hermitian(A, herm_tol), validate_hermitian(B, herm_tol))


def problem_from_arrays(A, B, Ahat, Bhat, tols: ToleranceSet = DEFAULT_TOLS) -> ProblemInstance:
    return ProblemInstance(
        pair=pair_from_arrays(A, B, tols.herm_tol),
        hat_pair=pair_from_arrays(Ahat, Bhat, tols.herm_tol),
        tolerances=tols,
    )


def eigvalsh(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise KernelFailureError(str(exc)) from exc


def inertia(M: HermitianMatrix, rank_tol: float = DEFAULT_TOLS.rank_tol) -> Inertia:
    """Count eigenvalues above / below the relative zero threshold.

    An eigenvalue is counted as zero iff |lam| <= rank_tol * max|lam|, which
    makes the verdict invariant under positive rescaling of M.
    """
    vals = eigvalsh(M.entries)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale == 0.0:
        return Inertia(0, M.n, 0)
    thr = rank_tol * scale
    n_plus = int(np.sum(vals > thr))
    n_minus = int(np.sum(vals < -thr))
    return Inertia(n_plus, M.n - n_plus - n_minus, n_minus)


def random_congruence(pair: MatrixPair, seed, conditioning_cap: float = 10.0):
    """Apply a random congruence Y^H (.) Y with condition number <= conditioning_cap.

    Y is a Haar unitary times a diagonal with entries log-uniform in
    [1/sqrt(cap), sqrt(cap)]; deterministic per seed.  Returns (pair', Y).
    """
    if not conditioning_cap > 1.0:
        raise ValueError("conditioning_cap must exceed 1")
    n = pair.n
    rng = np.random.default_rng(seed)
    Y = haar_unitary(n, rng) @ np.diag(
        np.exp(rng.uniform(-0.5, 0.5, size=n) * np.log(conditioning_cap))
    )
    A2 = Y.conj().T @ pair.A.entries @ Y
    B2 = Y.conj().T @ pair.B.entries @ Y
    return pair_from_arrays(A2, B2, herm_tol=np.inf), Y


def complex_normal(rng, *shapes) -> list:
    """Complex standard normal arrays of the given shapes, one draw per Generator,
    each taking its real then its imaginary parts as separate draws would; a
    sequence of K Generators gives (K, *shape) stacks, slice k from ``rng[k]``."""
    sizes = [math.prod(shape) for shape in shapes]
    total = 2 * sum(sizes)
    if isinstance(rng, np.random.Generator):
        g = rng.standard_normal(total)
    else:
        g = np.stack([r.standard_normal(total) for r in rng])
    out, at = [], 0
    for shape, m in zip(shapes, sizes):
        z = g[..., at : at + m] + 1j * g[..., at + m : at + 2 * m]
        out.append(z.reshape(g.shape[:-1] + tuple(shape)))
        at += 2 * m
    return out


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary; a sequence of Generators gives a (K, n, n) stack."""
    return unitary_factor(*complex_normal(rng, (n, n)))


def unitary_factor(Z: np.ndarray) -> np.ndarray:
    """Q of the QR of each complex Gaussian Z, with R's diagonal phases fixed: Haar."""
    try:
        Q, R = np.linalg.qr(Z)
    except np.linalg.LinAlgError as exc:
        raise KernelFailureError(str(exc)) from exc
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))[..., None, :]


def check_inertias(ib: Inertia, ibh: Inertia) -> None:
    """Raise EmptyFeasibleSetError unless Bhat (inertia ibh) is nonsingular and
    its inertia fits inside the inertia ib of B."""
    if ibh.n_zero > 0:
        raise EmptyFeasibleSetError("Bhat is singular; the constraint has no solution")
    if ibh.n_plus > ib.n_plus or ibh.n_minus > ib.n_minus:
        raise EmptyFeasibleSetError(
            f"inertia of Bhat {ibh.as_tuple()} exceeds inertia of B {ib.as_tuple()}"
        )


# ---------------------------------------------------------------------------
# JSON formats
#
# Matrix object: {"n": int, "entries": [[re, im], ...]} row-major, length n^2.
# Pair file:     {"A": Matrix, "B": Matrix}
# Problem file:  {"A": Matrix, "B": Matrix, "Ahat": Matrix, "Bhat": Matrix}
# ---------------------------------------------------------------------------


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    n, m = M.shape
    obj = {"n": int(n), "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)]}
    if n != m:
        obj["m"] = int(m)
    return obj


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix object must carry 'n' and 'entries'")
    try:
        n = int(obj["n"])
        m = int(obj.get("m", n))
        flat = np.array([complex(re, im) for re, im in obj["entries"]], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix entries must be [re, im] pairs of numbers ({exc})") from exc
    if flat.size != n * m:
        raise ValueError(f"expected {n * m} entries, got {flat.size}")
    return flat.reshape(n, m)


def _load_matrices(path, names, herm_tol):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object of matrices")
    return [validate_hermitian(matrix_from_json(obj[k]), herm_tol) for k in names]


def load_pair(path, herm_tol: float = DEFAULT_TOLS.herm_tol) -> MatrixPair:
    return MatrixPair(*_load_matrices(path, ("A", "B"), herm_tol))


def load_problem(path, tols: ToleranceSet = DEFAULT_TOLS) -> ProblemInstance:
    A, B, Ahat, Bhat = _load_matrices(path, ("A", "B", "Ahat", "Bhat"), tols.herm_tol)
    return ProblemInstance(
        pair=MatrixPair(A, B), hat_pair=MatrixPair(Ahat, Bhat), tolerances=tols
    )


def save_pair(path, pair: MatrixPair) -> None:
    obj = {"A": matrix_to_json(pair.A.entries), "B": matrix_to_json(pair.B.entries)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def save_problem(path, problem: ProblemInstance) -> None:
    obj = {
        "A": matrix_to_json(problem.pair.A.entries),
        "B": matrix_to_json(problem.pair.B.entries),
        "Ahat": matrix_to_json(problem.hat_pair.A.entries),
        "Bhat": matrix_to_json(problem.hat_pair.B.entries),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)

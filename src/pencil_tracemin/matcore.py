"""Core matrix types: Hermitian matrices, inertia and the signature rules, congruences, JSON I/O.

Every matrix entering the library passes through :func:`validate_hermitian`
exactly once; downstream modules receive already-symmetrized entries and do
not re-check Hermiticity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain

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
    """Numerical tolerances used throughout the pipeline, and the rule each decides.

    herm_tol: M is Hermitian when max|M - M^H| <= herm_tol * max|M|.  rank_tol:
    the zero rule, an eigenvalue d is zero when |d| <= rank_tol * max|d|
    (``eigen_signs``), so a B or Bhat whose condition number exceeds about
    1/rank_tol is read as singular; times a pair's size it is also the floor of
    "A vanishes on N(B)" and of the cluster rule.  psd_tol: a side holds when
    lam_min(Ã - t*J) >= -psd_tol * (1 + |Ã|_F + |J|_F) at an admitted shift t.
    type_tol: eigenvalues are real, cluster, or are isotropic within type_tol
    relative to the spectrum.  feas_tol (``--tol-feas``): no library code reads
    it; the benchmark harness bounds a minimizer's feasibility residual by it.
    """

    herm_tol: float = 1e-10
    rank_tol: float = 1e-10
    psd_tol: float = 1e-8
    type_tol: float = 1e-7
    feas_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and strictly positive")


DEFAULT_TOLS = ToleranceSet()


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Dense complex Hermitian matrix, stored symmetrized, with the Frobenius
    norm ``fro`` of those entries, which ``validate_hermitian`` takes once."""

    entries: np.ndarray
    herm_residual: float
    fro: float

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


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


@dataclass(frozen=True, eq=False)
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
        return 1.0 + (self.A.fro + self.B.fro)


@dataclass(frozen=True, eq=False)
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
    is not square, holds a NaN or infinite entry or is too large for its
    Frobenius norm to be a finite float, or its Hermiticity residual
    max|M - M^H| exceeds ``herm_tol * max|M|``; the test is relative, so it
    does not depend on the scale of M.
    """
    M = np.asarray(raw, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSquareError(f"expected square matrix, got shape {M.shape}")
    if M.shape[0] < 1:
        raise NotSquareError("matrix dimension must be at least 1")
    # NaN or infinite entries make the residual non-finite, and entries whose
    # squares overflow make the norm of the symmetrized matrix infinite; every
    # gate reads that norm, so both are reported below as NonFiniteError, not
    # as a numpy warning.
    with np.errstate(invalid="ignore", over="ignore"):
        residual = float(np.max(np.abs(M - M.conj().T)))
        sym = (M + M.conj().T) / 2.0
        size = float(np.linalg.norm(sym))
    if not math.isfinite(residual):
        raise NonFiniteError("matrix entries must be finite (no NaN or infinity)")
    if not math.isfinite(size):
        raise NonFiniteError("matrix entries too large: their Frobenius norm overflows")
    threshold = herm_tol * float(np.max(np.abs(M)))
    if residual > threshold:
        raise NotHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds herm_tol * max|M| = {threshold:.3e}"
        )
    return HermitianMatrix(entries=sym, herm_residual=residual, fro=size)


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


def eigen_signs(vals: np.ndarray, rank_tol: float) -> np.ndarray:
    """+1, 0 or -1 for each eigenvalue by the relative zero rule.

    An eigenvalue counts as zero iff |lam| <= rank_tol * max|lam|, which
    makes the signs invariant under positive rescaling of the matrix.
    """
    thr = rank_tol * float(np.max(np.abs(vals), initial=0.0))
    return np.where(np.abs(vals) <= thr, 0, np.sign(vals)).astype(int)


def inertia(M: HermitianMatrix, rank_tol: float = DEFAULT_TOLS.rank_tol) -> Inertia:
    """Count eigenvalues above / below the relative zero threshold (``eigen_signs``)."""
    signs = eigen_signs(eigvalsh(M.entries), rank_tol)
    return Inertia(int(np.sum(signs > 0)), int(np.sum(signs == 0)), int(np.sum(signs < 0)))


def random_congruence(pair: MatrixPair, seed, conditioning_cap: float = 10.0):
    """Apply a random congruence Y^H (.) Y with condition number <= conditioning_cap.

    Y is a Haar unitary times a diagonal with entries log-uniform in
    [1/sqrt(cap), sqrt(cap)]; deterministic per seed.  Returns (pair', Y).
    """
    if not 1.0 < conditioning_cap < math.inf:
        raise ValueError("conditioning_cap must be finite and exceed 1")
    n = pair.n
    rng = np.random.default_rng(seed)
    Y = haar_unitary(n, rng) @ np.diag(
        np.exp(rng.uniform(-0.5, 0.5, size=n) * np.log(conditioning_cap))
    )
    A2 = Y.conj().T @ pair.A.entries @ Y
    B2 = Y.conj().T @ pair.B.entries @ Y
    return pair_from_arrays(A2, B2, herm_tol=np.inf), Y


def standard_normals(rng, m: int, size=None) -> np.ndarray:
    """m standard normals per sample from one Generator, as an (m, K) array
    whose column k holds sample k's, or (m, 1) for ``size=None``.

    ``size=K`` makes one ``rng.standard_normal((K, m))`` call, so the K
    columns equal, bit for bit, K successive calls with ``size=None``."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be one numpy.random.Generator, got {type(rng).__name__}")
    g = rng.standard_normal(m if size is None else (size, m))
    return g[:, None] if size is None else np.ascontiguousarray(g.T)


def complex_blocks(g: np.ndarray, at: int, count: int, length: int) -> np.ndarray:
    """``count`` blocks of ``length`` complex normals read from row ``at`` of
    the (m, K) ``standard_normals`` array g, each block as ``length`` rows of
    real parts and then ``length`` of imaginary parts: a (count, length, K)
    array."""
    parts = g[at : at + 2 * count * length].reshape(count, 2, length, g.shape[1])
    return parts[:, 0] + 1j * parts[:, 1]


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary of order n, drawn from one Generator: the Q of
    the QR of an n x n complex Gaussian matrix (one ``complex_blocks`` block,
    row-major), with R's diagonal phases fixed.

    It serves one large matrix (``random_congruence``), where LAPACK's QR is
    fastest; a stack of small factors pays a LAPACK call per matrix, so the
    sampler builds its own from reflectors (``hyperbolic._haar_factors``)."""
    Z = complex_blocks(standard_normals(rng, 2 * n * n), 0, 1, n * n).reshape(n, n)
    try:
        Q, R = np.linalg.qr(Z)
    except np.linalg.LinAlgError as exc:
        raise KernelFailureError(str(exc)) from exc
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def check_inertias(ib: Inertia, ibh: Inertia) -> None:
    """Raise EmptyFeasibleSetError unless Bhat (inertia ibh) is nonsingular and
    its inertia fits inside the inertia ib of B: then, and only then, some X
    has Bhat X^H B X = I."""
    if ibh.n_zero > 0:
        raise EmptyFeasibleSetError(
            "Bhat is judged singular by the zero rule |d| <= rank_tol * max|d| on its"
            " eigenvalues d; the constraint has no solution"
        )
    if ibh.n_plus > ib.n_plus or ibh.n_minus > ib.n_minus:
        raise EmptyFeasibleSetError(
            f"inertia of Bhat {ibh.as_tuple()} exceeds inertia of B {ib.as_tuple()} "
            "(an eigenvalue d is zero by the zero rule |d| <= rank_tol * max|d|)"
        )


def paired_columns(ib: Inertia, ibh: Inertia) -> np.ndarray:
    """The columns of a frame of B, ordered (+1.., -1.., 0..), that receive
    Bhat's +1 and -1 directions: the first ibh.n_plus +1 columns and the
    first ibh.n_minus -1 columns.

    For a frame F with F^H B F = diag(+1.., -1..) on these columns S and a
    frame Fh with Fh^H Bhat Fh = diag(+1.., -1..), X = F[:, S] Fh^H
    satisfies Bhat X^H B X = I.
    """
    return np.r_[0 : ibh.n_plus, ib.n_plus : ib.n_plus + ibh.n_minus]


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
    entries = np.ascontiguousarray(M).reshape(-1).view(float).reshape(-1, 2).tolist()
    obj = {"n": int(n), "entries": entries}
    if n != m:
        obj["m"] = int(m)
    return obj


def _is_number(x) -> bool:
    """A JSON number: an int or a float, not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _dimension(obj: dict, key: str, default=None) -> int:
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"matrix field '{key}' must be a positive integer, got {value!r}")
    return value


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ValueError("matrix object must carry 'n' and 'entries'")
    n = _dimension(obj, "n")
    m = _dimension(obj, "m", n)
    try:
        parts = [(re, im) for re, im in obj["entries"]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix 'entries' must be [re, im] pairs ({exc})") from exc
    reals = list(chain.from_iterable(parts))  # re, im, re, im, ...
    # One pass over the types; the entry that fails is looked for only on failure.
    if not set(map(type, reals)) <= {int, float}:
        for k, (re, im) in enumerate(parts):
            if not (_is_number(re) and _is_number(im)):
                raise ValueError(
                    f"matrix 'entries'[{k}] must be two numbers, got [{re!r}, {im!r}]"
                )
    try:
        flat = np.array(reals, dtype=float).view(complex)
    except OverflowError as exc:
        raise ValueError(f"matrix 'entries' hold an integer too large for a float ({exc})") from exc
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


def _save_matrices(path, names, matrices):
    obj = {k: matrix_to_json(M.entries) for k, M in zip(names, matrices)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))


def save_pair(path, pair: MatrixPair) -> None:
    _save_matrices(path, ("A", "B"), (pair.A, pair.B))


def save_problem(path, problem: ProblemInstance) -> None:
    pair, hat = problem.pair, problem.hat_pair
    _save_matrices(path, ("A", "B", "Ahat", "Bhat"), (pair.A, pair.B, hat.A, hat.B))

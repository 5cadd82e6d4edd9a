"""Core matrix types: Hermitian matrices, inertia and the signature rules, congruences, JSON I/O.

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
    """Numerical tolerances used throughout the pipeline (relative where noted).

    No library code reads ``feas_tol`` (``--tol-feas``); the benchmark harness
    reads it as the bound on a minimizer's feasibility residual.
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
    """Dense complex Hermitian matrix, stored symmetrized."""

    entries: np.ndarray
    herm_residual: float

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
        return 1.0 + float(np.linalg.norm(self.A.entries) + np.linalg.norm(self.B.entries))


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
    max|M - M^H| exceeds ``herm_tol``.
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
    if residual > herm_tol:
        raise NotHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds tolerance {herm_tol:.3e}"
        )
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


# numpy's SeedSequence hash (NEP 19) and the PCG64 LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash step on uint32 arrays; the constant advances per call."""

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> 16)


def _pcg64_states(keys: np.ndarray) -> list:
    """(state, inc) of ``default_rng(row)``'s PCG64 for each row of a (K, m) uint32
    key array: numpy's SeedSequence pool mix and ``generate_state(4, uint64)``,
    run on all K rows at once, then ``pcg64_set_seed``'s two LCG steps."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    words = list(keys.T)
    pool = [hashmix(words[i] if i < len(words) else np.zeros(len(keys), np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    generate = _hasher(_INIT_B, _MULT_B)
    out = [generate(pool[i % 4]) for i in range(8)]
    states = []
    # uint64 word j of the state is out[2j] | out[2j+1] << 32; seed = s0:s1, inc = s2:s3.
    for w0, w1, w2, w3, w4, w5, w6, w7 in np.stack(out, axis=1).tolist():
        inc = (((w5 << 32 | w4) << 64 | w7 << 32 | w6) << 1 | 1) & _MASK128
        seed = (w1 << 32 | w0) << 64 | w3 << 32 | w2
        states.append((((inc + seed) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _keyed_normals(keys, total: int) -> np.ndarray:
    """(K, total) standard normals, row k drawn by ``numpy.random.default_rng(keys[k])``."""
    keys = np.asarray(keys)
    if keys.ndim != 2 or not np.issubdtype(keys.dtype, np.integer):
        raise ValueError("keys must be a 2-D integer array, one row per stream")
    if keys.size and not (int(keys.min()) >= 0 and int(keys.max()) <= _MASK32):
        raise ValueError("key entries must lie in [0, 2**32)")
    from numpy.random import PCG64, Generator

    bit_generator = PCG64(0)
    gen = Generator(bit_generator)
    g = np.empty((len(keys), total))
    for (state, inc), row in zip(_pcg64_states(keys.astype(np.uint32)), g):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(out=row)
    return g


def complex_normal(rng, *shapes) -> list:
    """Complex standard normal arrays of the given shapes, one draw per stream,
    each taking its real then its imaginary parts as separate draws would.

    ``rng`` is one Generator, or a (K, m) array of integer keys in [0, 2**32):
    keys give (K, *shape) stacks whose slice k is, bit for bit, the draw of
    ``numpy.random.default_rng(keys[k])``."""
    sizes = [math.prod(shape) for shape in shapes]
    total = 2 * sum(sizes)
    if isinstance(rng, np.random.Generator):
        g = rng.standard_normal(total)
    else:
        g = _keyed_normals(rng, total)
    out, at = [], 0
    for shape, m in zip(shapes, sizes):
        z = g[..., at : at + m] + 1j * g[..., at + m : at + 2 * m]
        out.append(z.reshape(g.shape[:-1] + tuple(shape)))
        at += 2 * m
    return out


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary; a (K, m) key array gives a (K, n, n) stack."""
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
    its inertia fits inside the inertia ib of B: then, and only then, some X
    has Bhat X^H B X = I."""
    if ibh.n_zero > 0:
        raise EmptyFeasibleSetError("Bhat is singular; the constraint has no solution")
    if ibh.n_plus > ib.n_plus or ibh.n_minus > ib.n_minus:
        raise EmptyFeasibleSetError(
            f"inertia of Bhat {ibh.as_tuple()} exceeds inertia of B {ib.as_tuple()}"
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
    obj = {"n": int(n), "entries": [[float(z.real), float(z.imag)] for z in M.reshape(-1)]}
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
    for k, (re, im) in enumerate(parts):
        if not (_is_number(re) and _is_number(im)):
            raise ValueError(f"matrix 'entries'[{k}] must be two numbers, got [{re!r}, {im!r}]")
    try:
        flat = np.array([complex(re, im) for re, im in parts], dtype=complex)
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

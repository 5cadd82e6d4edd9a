"""J-unitary matrices in hyperbolic CS form, and feasible sampling.

With J = diag(I_{n+}, -I_{n-}), a matrix X is J-unitary when X^H J X = J.
Every such X factors, in the hyperbolic CS form, as
diag(P, Q) H(theta) diag(V+, V-), with P, V+ unitary of order n+, Q, V-
unitary of order n-, and H(theta) equal to
[[cosh theta_k, sinh theta_k], [sinh theta_k, cosh theta_k]] on the planes
(k, n+ + k), k < min(n+, n-), and to the identity elsewhere (Higham,
*J-orthogonal matrices: properties and generation*, SIAM Review 45, 2003).
A signature is given by its counts n+, n-, or by the ``matcore.Inertia`` of
B, whose nonzero counts are the signature of B's frame; the columns of a
J-unitary that ``matcore.paired_columns`` selects are a feasible point.

``sample_feasible`` draws the CS form, with no LAPACK call.  Each sinh
theta_k is spread * |g_k|, g_k complex normal with E|g_k|^2 = 1, and each of
P, V+, Q, V- is a Haar unitary built from Householder reflectors of
independent complex Gaussian vectors (Stewart, SIAM J. Numer. Anal. 17,
1980; ``_haar_factors``).  One draw reads ``standard_normal`` once, in this
order: the g_k (real parts, then imaginary parts), then the Gaussians of P,
V+, Q and V- (each a ``matcore.complex_blocks`` block), then those of the
null-space rows, in the same call.
``size=K`` reads one (K, m) block whose row k holds draw k, so a stack
equals K successive single draws.  The stack is assembled with the sample
index last, so every numpy call acts elementwise on whole stacks of
entries, and all factors of one order come out of one call to
``_haar_factors``.
"""

from __future__ import annotations

import math

import numpy as np

from .matcore import Inertia, check_inertias, complex_blocks, paired_columns, standard_normals


def _haar_normals(m: int) -> int:
    """The count of complex Gaussians one Haar factor of order m reads."""
    return m * (m + 1) // 2


def _haar_factors(x, m):
    """Haar unitaries of order m from complex Gaussians x, shape (F, T, K)
    with T = ``_haar_normals(m)``: the result is (F, m, m, K), one unitary for
    each of the F x K trailing indices.

    Along T, x holds the vectors x_0, ..., x_{m-1} of lengths m, m-1, ..., 1.
    With phi_j = x_j[0]/|x_j[0]| and H_j the Householder reflector that maps
    x_j to -phi_j |x_j| e_1, the factor is
    H_0 (1 + H_1) ... (I_{m-1} + H_{m-1}) diag(-phi_0, ..., -phi_{m-1}), "+"
    the direct sum: the Q of the Householder QR of a complex Gaussian matrix
    whose R has a positive diagonal, which is Haar.  A reflector leaves the
    columns not yet reduced Gaussian and independent of it, so the x_j may
    be drawn independently.  H_{m-1} is -1 and the last diagonal entry is
    phi_{m-1}.  The first column is x_0/|x_0|.
    """
    F, _, K = x.shape
    U = np.zeros((F, m, m, K), dtype=complex)
    if m == 0:
        return U
    starts = np.cumsum(np.r_[0, np.arange(m, 1, -1)])
    sq = x.real**2 + x.imag**2
    norm = np.sqrt(np.add.reduceat(sq, starts, axis=1))
    first = x[:, starts]
    size = np.sqrt(sq[:, starts])
    phase = np.divide(first, size, out=np.ones_like(first), where=size > 0)
    # H_j = I - u_j u_j^H with u_j = v_j / sqrt(|x_j| (|x_j| + |x_j[0]|)),
    # v_j = x_j + phi_j |x_j| e_1, since |v_j|^2 = 2 |x_j| (|x_j| + |x_j[0]|).
    scale = 1.0 / np.sqrt(norm * (norm + size))
    u = x * np.repeat(scale, np.arange(m, 0, -1), axis=1)
    u[:, starts] = phase * (size + norm) * scale
    uc = u.conj()
    diag = np.arange(m)
    U[:, diag, diag] = -phase
    U[:, m - 1, m - 1] = phase[:, m - 1]
    # H_j acts on rows j.. as w = u_j^H U, then U -= u_j w, one row at a
    # time: each numpy call takes an (F, m - j, K) slab, so no temporary
    # grows with the square of the order.
    for j in range(m - 2, -1, -1):
        at = starts[j]
        w = uc[:, at, None] * U[:, j, j:]
        for i in range(1, m - j):
            w += uc[:, at + i, None] * U[:, j + i, j:]
        for i in range(m - j):
            U[:, j + i, j:] -= u[:, at + i, None] * w
    return U


def _draw_size(n_plus, n_minus, spread):
    """The count of standard normals one CS draw reads, after checking its
    arguments."""
    if n_plus < 0 or n_minus < 0 or n_plus + n_minus < 1:
        raise ValueError(f"signature counts must be >= 0, sum >= 1; got {n_plus}, {n_minus}")
    if not 0 <= spread < np.inf:
        raise ValueError(f"spread must be finite and nonnegative, got {spread}")
    r = min(n_plus, n_minus)
    return 2 * r + 4 * (_haar_normals(n_plus) + _haar_normals(n_minus))


def _cs_draw(g, n_plus, n_minus, spread):
    """The CS draws read from the (m, K) normals ``g`` (module docstring), as
    a (K, n, n) stack.  ValueError, naming the spread, when some
    cosh theta + sinh theta = e^theta, the draw's norm, is not finite."""
    p, q = n_plus, n_minus
    r = min(p, q)
    with np.errstate(over="ignore"):
        sinh = spread * (np.hypot(g[:r], g[r : 2 * r]) / math.sqrt(2.0))
        cosh = np.hypot(1.0, sinh)
        if not np.all(np.isfinite(cosh + sinh)):
            raise ValueError(f"spread {spread} overflows: a draw's cosh + sinh is not finite")
    tp, tq = _haar_normals(p), _haar_normals(q)
    if p == q:
        P, V_plus, Q, V_minus = _haar_factors(complex_blocks(g, 2 * r, 4, tp), p)
    else:
        P, V_plus = _haar_factors(complex_blocks(g, 2 * r, 2, tp), p)
        Q, V_minus = _haar_factors(complex_blocks(g, 2 * r + 4 * tp, 2, tq), q)
    # T = H(theta) diag(V+, V-), then G = diag(P, Q) T one column of P or Q
    # at a time: each sample's entries take the same operations whatever the
    # stack holds, so a stack equals its single draws bit for bit.
    T = np.zeros((p + q, p + q, g.shape[1]), dtype=complex)
    T[:p, :p] = V_plus
    T[:r, :p] *= cosh[:, None]
    T[:r, p:] = sinh[:, None] * V_minus[:r]
    T[p : p + r, :p] = sinh[:, None] * V_plus[:r]
    T[p:, p:] = V_minus
    T[p : p + r, p:] *= cosh[:, None]
    G = np.zeros_like(T)
    for j in range(p):
        G[:p] += P[:, j, None] * T[j]
    for j in range(q):
        G[p:] += Q[:, j, None] * T[p + j]
    return np.moveaxis(G, -1, 0)


def sample_feasible(
    ib: Inertia, ibh: Inertia, spread: float, rng, size=None, null_dims: int = 0
) -> np.ndarray:
    """Sample X ((rank B + null_dims) x nhat) with X^H diag(J, 0) X = Jhat,
    J and Jhat the signatures of the inertias ``ib`` of B and ``ibh`` of
    Bhat: the columns that ``paired_columns`` selects of a random J-unitary
    in hyperbolic CS form, sinh theta_k = spread * |g_k| and Haar unitary
    factors (module docstring), over ``null_dims`` rows of complex Gaussians
    scaled by ``spread`` as the g_k are.  Deterministic given the generator
    state; ``size=K`` gives a (K, rank B + null_dims, nhat) stack, the K
    draws that successive calls would make.  Raises EmptyFeasibleSetError
    where ``check_inertias`` does, and ValueError, naming the spread, when a
    draw's cosh theta + sinh theta or a null-space entry is not finite."""
    check_inertias(ib, ibh)
    m = _draw_size(ib.n_plus, ib.n_minus, spread)
    nhat = ibh.rank
    g = standard_normals(rng, m + 2 * null_dims * nhat, size)
    G = _cs_draw(g, ib.n_plus, ib.n_minus, spread)[..., paired_columns(ib, ibh)]
    if null_dims:
        Y = complex_blocks(g, m, 1, null_dims * nhat).reshape(null_dims, nhat, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            Y *= spread / math.sqrt(2.0)
        if not np.all(np.isfinite(Y)):
            raise ValueError(f"spread {spread} overflows: a null-space entry is not finite")
        G = np.concatenate([G, np.moveaxis(Y, -1, 0)], axis=1)
    return np.ascontiguousarray(G[0] if size is None else G)


def sample_j_unitary(n_plus: int, n_minus: int, spread: float, rng, size=None) -> np.ndarray:
    """A random J-unitary, J = diag(I_{n_plus}, -I_{n_minus}): the
    ``sample_feasible`` draw with B and Bhat both of that signature."""
    signature = Inertia(n_plus, 0, n_minus)
    return sample_feasible(signature, signature, spread, rng, size)

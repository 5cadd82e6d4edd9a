"""A worked 2x2 instance where the answer is sqrt(2).

Minimize trace(Ahat X^H A X) over all X with Bhat X^H B X = I, for

    A = diag(1, 2),  B = Bhat = diag(1, -1),  Ahat = Q^T diag(1, 1/4) Q,

with a rotation Q tuned so the answer comes out in closed form.  The key
point: the value is built from the eigenvalues of the PAIR (Ahat, Bhat) --
not of Ahat alone -- paired by type with the eigenvalues of (A, B).
"""

import numpy as np

import pencil_tracemin as pt

sigma = np.sqrt(18.0 - 6.0 * np.sqrt(2.0)) / 6.0
c = np.sqrt(1.0 - sigma**2)
Q = np.array([[c, -sigma], [sigma, c]])
Ahat = Q.T @ np.diag([1.0, 0.25]) @ Q

problem = pt.problem_from_arrays(
    np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), Ahat, np.diag([1.0, -1.0])
)

print("== typed spectra ==")
# One analysis per pair holds its typed spectrum; every verdict reads it.
big = pt.analyze_pair(problem.pair)
hat = pt.analyze_pair(problem.hat_pair)
print(f"(A, B):       positive type {big.pos_values}, negative type {big.neg_values}")
print(f"(Ahat, Bhat): positive type {hat.pos_values}, negative type {hat.neg_values}")
print(f"expected hat values: +{np.sqrt(2)/2:.12f}, {-np.sqrt(2)/4:.12f}")

print("\n== admissible shifts ==")
rep = pt.analysis_definiteness(big)
print(f"(A, B) psd shift interval: {rep.psd_interval}")

print("\n== infimum ==")
res = pt.infimum(problem)
print(f"verdict: {res.verdict}, value = {res.value!r}  (sqrt(2) = {np.sqrt(2)!r})")
for t in res.terms:
    print(f"  {t.eig_type:>8}: {t.lam_hat:+.6f} * {t.lam:+.6f} = {t.product:+.6f}")

print("\n== minimizer ==")
X, achieved = pt.minimizer(problem)
print(f"achieved = {achieved!r}")
print(f"feasibility residual = {pt.feasibility_residual(problem, X):.3e}")
print("X_opt =")
print(np.round(X, 6))

print("\n== Monte-Carlo sanity: feasible samples never beat the value ==")
# The sampler draws all 2000 as one (2000, 2, 2) stack from one generator:
# the same points as 2000 single draws from it.
Xs = pt.FeasibleSampler(problem).sample(2.0, np.random.default_rng(0), 2000)
traces = np.real(
    np.trace(Ahat @ Xs.conj().swapaxes(1, 2) @ problem.pair.A.entries @ Xs, axis1=1, axis2=2)
)
print(f"min over 2000 samples: {traces.min():.9f} >= {res.value:.9f}")

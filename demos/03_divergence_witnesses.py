"""Four ways the infimum escapes to -infinity, each with a certificate.

Whenever the verdict is NegInfinite the library constructs an explicit
feasible family X(t) whose objective trends like slope * t^2 + offset with
slope < 0, then certifies a target threshold numerically.
"""

import numpy as np

import pencil_tracemin as pt
from pencil_tracemin.genpairs import BlockSpec, assemble
from pencil_tracemin.witness import build_witness, certify_unbounded, evaluate_witness


def show(name, problem, threshold=-1e6):
    res = pt.infimum(problem)
    assert res.verdict == "NegInfinite"
    fam = build_witness(problem, res)
    cert = certify_unbounded(fam, threshold, 1e4)
    print(f"--- {name}")
    print(f"  reason   : {res.reason}" + (f" ({res.reason_detail})" if res.reason_detail else ""))
    print(f"  witness  : {fam.kind}, trend {fam.slope:+.4f} t^2 {fam.offset:+.4f}")
    for t in (0.0, 1.0, 10.0):
        X, tr = evaluate_witness(fam, t)
        print(f"    t = {t:>5}: trace {tr:+12.4f}, residual {pt.feasibility_residual(problem, X):.1e}")
    print(f"  certified: trace {cert.trace_value:.3e} at t = {cert.t:.1f} "
          f"(residual {cert.feas_residual:.1e})")


# 1. Both pairs semidefinite but with opposite orientations.
show(
    "mixed orientations",
    pt.problem_from_arrays(
        np.diag([1.0, 2.0]), np.diag([1.0, -1.0]),
        np.diag([-1.0, -2.0]), np.diag([1.0, -1.0]),
    ),
)

# 2. A conjugate complex eigenvalue pair on both sides.
Tc = np.array([[0.0, 1j], [-1j, 0.0]])
F2 = np.array([[0.0, 1.0], [1.0, 0.0]])
show("conjugate blocks", pt.problem_from_arrays(Tc, F2, Tc, F2))

# 3. Indefinite structure on the nullspace of B.
show(
    "mixed infinite structure",
    pt.problem_from_arrays(
        np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 0.0, 0.0]),
        np.array([[0.5]]), np.array([[1.0]]),
    ),
)

# 4. A chained 2x2 block at infinity (scrambled so nothing is obvious).
pair, _ = assemble(
    [BlockSpec("Tinf", p=2, eta=1), BlockSpec("Tr", p=1, alpha=1.0, eta=1)],
    scramble_seed=7,
    conditioning_cap=3.0,
)
show(
    "chained infinite block",
    pt.ProblemInstance(
        pair=pair,
        hat_pair=pt.pair_from_arrays(np.array([[2.0]]), np.array([[1.0]])),
    ),
)

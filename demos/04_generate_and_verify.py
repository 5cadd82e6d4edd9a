"""Generate labeled pencils, analyze them, and cross-check with sampling.

The generator assembles pencils from canonical building blocks with known
spectra and definiteness, scrambles them with a conditioned congruence, and
keeps the ground truth.  The same files drive the command-line interface.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import pencil_tracemin as pt
from pencil_tracemin.cli import main
from pencil_tracemin.genpairs import BlockSpec, assemble

# A positive semidefinite pencil: eigenvalue 1 of positive type, -2 of
# negative type, plus one +1 block at infinity (B is singular).
specs = [
    BlockSpec("Tr", p=1, alpha=1.0, eta=1),
    BlockSpec("Tr", p=1, alpha=-2.0, eta=-1),
    BlockSpec("Tinf", p=1, eta=1),
]
pair, truth = assemble(specs, scramble_seed=11, conditioning_cap=5.0)
print("ground truth:", truth.pos, truth.neg, "psd =", truth.psd)

analysis = pt.analyze_pair(pair)
print("recovered   :", analysis.pos_values, analysis.neg_values,
      "infinite sign =", analysis.infinite_sign)

verdict = pt.analysis_definiteness(analysis)
print("psd pair    :", verdict.is_psd_pair, " nsd pair:", verdict.is_nsd_pair)

# Pose a trace-minimization problem against a compatible hat pair; Ahat must
# be positive semidefinite itself because B is singular.
hat = pt.pair_from_arrays(np.diag([0.5, 0.25]), np.diag([1.0, -1.0]))
problem = pt.ProblemInstance(pair=pair, hat_pair=hat)
res = pt.infimum(problem)
print(f"\ninfimum: {res.verdict} value {res.value!r} (case {res.properness.case_label})")

X, achieved = pt.minimizer(problem)
print(f"minimizer achieves {achieved!r}, residual "
      f"{pt.feasibility_residual(problem, X):.2e}")

# The same flow through the command line: gen -> analyze -> infimum -> verify.
with tempfile.TemporaryDirectory() as td:
    td = Path(td)
    spec_file = td / "blocks.json"
    spec_file.write_text(json.dumps({
        "blocks": [
            {"kind": "Tr", "p": 1, "alpha": 1.0, "eta": 1},
            {"kind": "Tr", "p": 1, "alpha": -2.0, "eta": -1},
        ],
        "seed": 3,
        "cap": 5.0,
    }))
    pair_file = td / "pair.json"
    print("\n$ pencil-tracemin gen blocks.json pair.json")
    main(["--json", "gen", str(spec_file), str(pair_file)])

    print("\n$ pencil-tracemin analyze pair.json")
    main(["analyze", str(pair_file)])

    problem_file = td / "problem.json"
    cli_problem = pt.ProblemInstance(
        pair=pt.load_pair(pair_file),
        hat_pair=pt.pair_from_arrays(np.diag([0.5]), np.diag([1.0])),
    )
    pt.matcore.save_problem(problem_file, cli_problem)
    print("\n$ pencil-tracemin verify problem.json --samples 500 --spread 2")
    main(["--seed", "1", "verify", str(problem_file), "--samples", "500", "--spread", "2.0"])

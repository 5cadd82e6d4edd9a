"""Command-line front end: JSON matrix files in, JSON reports out.

Exit codes: 0 success; 2 invalid input (malformed JSON or matrix object,
non-square or non-finite matrix, a file path that cannot be read or
written, such as a missing file or a directory, a verify spread whose
samples, traces or residuals are not finite, or a witness trace beyond the
floats); 3 not Hermitian; 4 infimum is
-infinity (verdict still printed); 5 empty feasible set; 6 minimizer not
attainable; 7 no witness constructible; 8 certification failed; 9 a dense
kernel (LAPACK eigen/QR/SVD) failed, or its eigenvalues were too inaccurate
to type.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .definiteness import analysis_definiteness
from .errors import (
    CertificationFailedError,
    EmptyFeasibleSetError,
    InvalidSpecError,
    KernelFailureError,
    NonFiniteError,
    NoWitnessConstructibleError,
    NotAttainableError,
    NotHermitianError,
    NotSquareError,
)
from .genpairs import _finite_real, assemble, spec_from_json
from .matcore import (
    ToleranceSet,
    inertia,
    load_pair,
    load_problem,
    matrix_to_json,
    save_pair,
)
from .spectral import analyze_pair
from .tracemin import (
    NEG_INFINITE,
    FeasibleSampler,
    _objective,
    feasibility_residual,
    infimum,
    minimizer,
)
from .witness import TREND_POWER, build_witness, certify_unbounded

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_HERMITIAN = 3
EXIT_NEG_INFINITE = 4
EXIT_EMPTY_FEASIBLE = 5
EXIT_NOT_ATTAINABLE = 6
EXIT_NO_WITNESS = 7
EXIT_CERTIFICATION = 8
EXIT_KERNEL_FAILURE = 9

# Complex entries (16 MB) in one n x n stack of verify samples: bounds memory.
SAMPLE_BLOCK_ENTRIES = 1 << 20


def _tol_values(args) -> dict:
    """The ``--tol-*`` flag values, keyed by ToleranceSet field name."""
    return {f.name: getattr(args, f.name) for f in fields(ToleranceSet)}


def _tols_from_args(args) -> ToleranceSet:
    return ToleranceSet(**_tol_values(args))


def _finite(x):
    x = float(x)
    if np.isposinf(x):
        return "inf"
    if np.isneginf(x):
        return "-inf"
    return x


def _interval(itv):
    return None if itv is None else [_finite(itv[0]), _finite(itv[1])]


def _spectrum_obj(analysis):
    typed = lambda *arrays: [
        dict(zip(("value", "jordan_pair"), e)) for e in zip(*(a.tolist() for a in arrays))
    ]
    return {
        "pos": typed(analysis.pos_values, analysis.pos_jordan),
        "neg": typed(analysis.neg_values, analysis.neg_jordan),
        "deflated_dims": analysis.deflated_dims,
        "infinite_definite_sign": analysis.infinite_sign,
        "complex_values": [[z.real, z.imag] for z in analysis.complex_values],
        "route": analysis.route,
        "crawford_bound": analysis.crawford_bound,
    }


def _definiteness_obj(rep):
    return {
        **asdict(rep),
        "psd_interval": _interval(rep.psd_interval),
        "nsd_interval": _interval(rep.nsd_interval),
    }


def _emit(report, args, code=EXIT_OK, summary_lines=()):
    body = json.dumps(report, indent=2, sort_keys=True)
    if not args.json:
        for line in summary_lines:
            print(line)
    print(body)
    return code


def _base_report(command, args):
    return {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "tolerances": _tol_values(args),
    }


def cmd_analyze(args) -> int:
    tols = _tols_from_args(args)
    pair = load_pair(args.pair_file, tols.herm_tol)
    analysis = analyze_pair(pair, tols)
    rep_def = analysis_definiteness(analysis)
    report = _base_report("analyze", args)
    report.update(
        {
            "inertia_A": list(inertia(pair.A, tols.rank_tol).as_tuple()),
            "inertia_B": list(analysis.b_inertia.as_tuple()),
            "is_psd_pair": rep_def.is_psd_pair,
            "is_nsd_pair": rep_def.is_nsd_pair,
            "definiteness": _definiteness_obj(rep_def),
            "typed_spectrum": _spectrum_obj(analysis),
        }
    )
    lines = [
        f"inertia(A) = {report['inertia_A']}, inertia(B) = {report['inertia_B']}",
        f"psd pair: {rep_def.is_psd_pair}, nsd pair: {rep_def.is_nsd_pair}",
    ]
    return _emit(report, args, EXIT_OK, lines)


def _infimum_obj(result):
    obj = {
        "verdict": result.verdict,
        "value": result.value,
        "sign_case": result.sign_case,
        "reason": result.reason,
        "reason_detail": result.reason_detail,
        "attainable": result.attainable,
        "terms": [
            {
                "eig_type": t.eig_type,
                "lambda_hat": t.lam_hat,
                "lambda": t.lam,
                "product": t.product,
            }
            for t in result.terms
        ],
    }
    if result.excluded is not None:
        obj["excluded"] = asdict(result.excluded)
    if result.properness is not None:
        obj["properness"] = asdict(result.properness)
    return obj


def _solve(command, args):
    """Load the problem file, run ``infimum`` on it and start the report with
    its ``infimum`` object; returns (problem, result, report)."""
    problem = load_problem(args.problem_file, _tols_from_args(args))
    result = infimum(problem)
    report = _base_report(command, args)
    report["infimum"] = _infimum_obj(result)
    return problem, result, report


def cmd_infimum(args) -> int:
    _, result, report = _solve("infimum", args)
    code = EXIT_NEG_INFINITE if result.verdict == NEG_INFINITE else EXIT_OK
    lines = [f"verdict: {result.verdict}"]
    if result.value is not None:
        lines.append(f"value: {result.value!r}")
    if result.reason:
        lines.append(f"reason: {result.reason}")
    return _emit(report, args, code, lines)


def cmd_minimize(args) -> int:
    problem, result, report = _solve("minimize", args)
    if result.verdict == NEG_INFINITE:
        return _emit(report, args, EXIT_NEG_INFINITE, [f"verdict: {result.verdict}"])
    X, achieved = minimizer(problem, result)
    residual = feasibility_residual(problem, X)
    with open(args.out_file, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(matrix_to_json(X)))
    report["minimizer"] = {
        "achieved": achieved,
        "feasibility_residual": residual,
        "out_file": args.out_file,
    }
    lines = [f"achieved: {achieved!r} (residual {residual:.3e})"]
    return _emit(report, args, EXIT_OK, lines)


def cmd_witness(args) -> int:
    problem, result, report = _solve("witness", args)
    if result.verdict != NEG_INFINITE:
        report["witness"] = None
        return _emit(report, args, EXIT_OK, [f"verdict: {result.verdict}; no witness needed"])
    family = build_witness(problem, result)
    cert = certify_unbounded(family, args.threshold, args.tmax)
    report["witness"] = {
        "kind": family.kind,
        "slope": family.slope,
        "offset": family.offset,
        "trend_power": TREND_POWER,
        "certification": {
            "t": cert.t,
            "trace": cert.trace_value,
            "feasibility_residual": cert.feas_residual,
            "threshold": cert.threshold,
        },
    }
    lines = [
        f"witness {family.kind}: slope {family.slope!r}",
        f"certified at t = {cert.t!r}: trace {cert.trace_value!r}",
    ]
    return _emit(report, args, EXIT_OK, lines)


def _finite_samples(spread, *values) -> None:
    """ValueError, naming the spread, unless every sampled value is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"spread {spread} overflows: a sampled trace or residual is not finite")


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be a positive integer, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer for verify, got {args.seed}")
    problem, result, report = _solve("verify", args)
    sampler = FeasibleSampler(problem, result)
    # One generator read in order: sample k is its k-th draw, whatever block it
    # falls in and however many samples are asked for.
    rng = np.random.default_rng(args.seed)
    block = max(1, SAMPLE_BLOCK_ENTRIES // problem.n**2)
    traces, residuals = [], []
    # Samples of a large spread can overflow; the finiteness checks report
    # that in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, args.samples, block):
            X = sampler.sample(args.spread, rng, min(block, args.samples - start))
            traces.append(_objective(problem, X))
            residual = feasibility_residual(problem, X)
            _finite_samples(args.spread, traces[-1], residual)
            residuals.append(np.max(residual))
        traces = np.concatenate(traces)
        stats = {
            "samples": args.samples,
            "spread": args.spread,
            "min_trace": float(np.min(traces)),
            "mean_trace": float(np.mean(traces)),
            "max_feasibility_residual": float(np.max(residuals)),
        }
    _finite_samples(args.spread, stats["mean_trace"], stats["max_feasibility_residual"])
    if result.value is not None:
        gap = float(np.min(traces)) - result.value
        stats["gap"] = gap
        stats["lower_bound_ok"] = bool(
            gap >= -1e-6 * (1.0 + abs(result.value))
        )
    report["sampling"] = stats
    lines = [
        f"min sampled trace: {stats['min_trace']!r}",
        f"mean sampled trace: {stats['mean_trace']!r}",
    ]
    return _emit(report, args, EXIT_OK, lines)


def cmd_gen(args) -> int:
    with open(args.spec_file, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    specs = spec_from_json(obj)
    seed = obj.get("seed", args.seed)
    cap = obj.get("cap", 10.0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidSpecError(f"'seed' must be an integer, got {seed!r}")
    if not _finite_real(cap):
        raise InvalidSpecError(f"'cap' must be a finite number, got {cap!r:.40}")
    pair, truth = assemble(specs, scramble_seed=seed, conditioning_cap=cap)
    save_pair(args.out_pair_file, pair)
    truth_obj = {
        **asdict(truth),
        "inertia_B": list(truth.inertia_B.as_tuple()),
        "complex_values": [[z.real, z.imag] for z in truth.complex_values],
    }
    sidecar = args.out_pair_file + ".truth.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(truth_obj, fh, indent=2, sort_keys=True)
    report = _base_report("gen", args)
    report["scramble_seed"] = seed
    report["generated"] = {
        "pair_file": args.out_pair_file,
        "truth_file": sidecar,
        "order": pair.n,
        "truth": truth_obj,
    }
    return _emit(report, args, EXIT_OK, [f"wrote {args.out_pair_file} (order {pair.n})"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencil-tracemin",
        description="Trace minimization over Hermitian matrix pairs",
    )
    parser.add_argument("--json", action="store_true", help="report-only output")
    parser.add_argument(
        "--seed", type=int, help="sampling seed (default: PENCIL_TRACEMIN_SEED or 0)"
    )
    for f in fields(ToleranceSet):  # herm_tol -> --tol-herm
        flag = "--tol-" + f.name.removesuffix("_tol")
        parser.add_argument(flag, dest=f.name, type=float, default=f.default)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="inertia, definiteness, typed spectrum of a pair")
    p.add_argument("pair_file")

    p = sub.add_parser("infimum", help="finiteness verdict and closed-form value")
    p.add_argument("problem_file")

    p = sub.add_parser("minimize", help="construct an optimal X")
    p.add_argument("problem_file")
    p.add_argument("out_file")

    p = sub.add_parser("witness", help="certify a -infinity verdict")
    # "--threshold -1e6" is a number, not an option: on Python 3.11 argparse's
    # own negative-number pattern takes no exponent.
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.add_argument("problem_file")
    p.add_argument("--threshold", type=float, default=-1e6)
    p.add_argument("--tmax", type=float, default=1e4)

    p = sub.add_parser("verify", help="Monte-Carlo feasible sampling check")
    p.add_argument("problem_file")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument(
        "--spread", type=float, default=1.0,
        help="sample scale: each hyperbolic angle's sinh and N(B) entry is spread x |normal|",
    )

    p = sub.add_parser("gen", help="generate a pair from canonical block specs")
    p.add_argument("spec_file")
    p.add_argument("out_pair_file")

    return parser


# Library errors and the exit code each maps to, tried in order.
EXIT_CODES = (
    # A LinAlgError is a ValueError: its row comes before the bad-input row.
    ((KernelFailureError, np.linalg.LinAlgError), EXIT_KERNEL_FAILURE),
    ((json.JSONDecodeError, OSError, KeyError, ValueError,
      InvalidSpecError, NotSquareError, NonFiniteError), EXIT_BAD_INPUT),
    ((NotHermitianError,), EXIT_NOT_HERMITIAN),
    ((EmptyFeasibleSetError,), EXIT_EMPTY_FEASIBLE),
    ((NotAttainableError,), EXIT_NOT_ATTAINABLE),
    ((NoWitnessConstructibleError,), EXIT_NO_WITNESS),
    ((CertificationFailedError,), EXIT_CERTIFICATION),
)


# One parser per process, built on import: in-process callers of ``main`` do
# not rebuild it per call.  It holds neither the seed variable nor the command
# functions; ``main`` looks both up on every call.
_PARSER = build_parser()


def _env_seed() -> int:
    try:
        return int(os.environ.get("PENCIL_TRACEMIN_SEED", "0"))
    except ValueError:
        raise ValueError("PENCIL_TRACEMIN_SEED must be an integer") from None


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return globals()["cmd_" + args.command](args)
    except tuple(cls for classes, _ in EXIT_CODES for cls in classes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())

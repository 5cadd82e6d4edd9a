"""Replay the criterion-7 generator and record the outcome of every problem.

    python tests/replay.py --out outcomes.json
    python tests/replay.py --compare old.json new.json

``--out`` runs the 482 non-empty assemblies of ``test_criterion_7`` (seed
707) and four scaled copies of each: (A*1e6, Ahat*1e-6), (A*1e-6, Ahat*1e6),
Ahat*1e-8 and A*1e-8, where A and Ahat are the objective matrices of the
pair and the hat pair.  Each outcome records the verdict, reason, detail,
value and attainability of ``infimum``, the route each pair was solved by
(``PairAnalysis.route``), the flags of both typed spectra,
for a NegInfinite verdict the witness kind, slope and certified
residual (``certify_unbounded(-1e6, 1e4)``), or the type and message of
the exception raised, and how many ``numpy.linalg.eigvalsh`` calls the
outcome made (counted by ``conftest.count_eigen_kernels``).

``--compare`` prints every difference between two such files (values to
1e-10 relative, slopes to 1e-9; a certified residual differs when one side
exceeds both 10 times the other and 1e-9, so roundoff-level changes pass;
exception messages are not compared, so files recorded before messages
were kept still compare), a summary of each, and the scaled flips of
each: scaled copies whose verdict, reason or scaled value (1e-6 relative)
differs from the unscaled problem.  For each file it also breaks the
unscaled ``NoWitnessConstructibleError`` count down by verdict reason and
by the message of ``_rotation_witness``, and counts the routes of each
file's pairs and its ``eigvalsh`` calls per scale label (neither is
compared; a file recorded before the calls were kept shows "not
recorded").  It exits 1 when it prints any difference.  ``compare`` returns
the differences of two replays held in memory.  ``test_replay.py`` runs
the replay in-process, holds its counts as a ratchet and compares it with
the committed record ``replay_record.json``, written by ``--out``.  The
file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pencil_tracemin as pt  # noqa: E402
from pencil_tracemin.errors import PencilError  # noqa: E402
from pencil_tracemin.genpairs import assemble  # noqa: E402
from pencil_tracemin.tracemin import EXCLUDED_CONSTANT, NEG_INFINITE, infimum  # noqa: E402
from pencil_tracemin.witness import build_witness, certify_unbounded  # noqa: E402

from conftest import count_eigen_kernels  # noqa: E402
from test_acceptance import _hat_pair, _random_specs  # noqa: E402

# label -> (factor on A, factor on Ahat); the value scales by their product.
SCALES = {
    "A*1e6,Ahat*1e-6": (1e6, 1e-6),
    "A*1e-6,Ahat*1e6": (1e-6, 1e6),
    "Ahat*1e-8": (1.0, 1e-8),
    "A*1e-8": (1e-8, 1.0),
}
VALUE_RTOL, SLOPE_RTOL, FLIP_RTOL = 1e-10, 1e-9, 1e-6
RESIDUAL_FACTOR, RESIDUAL_FLOOR = 10.0, 1e-9
BAD_RESIDUAL = 1e-4


def problems():
    """(trial, problem) for the non-empty assemblies of criterion 7, in its order."""
    rng = np.random.default_rng(707)
    for trial in range(500):
        specs = _random_specs(rng)
        cap = 2.5 if any(s.kind == "Tr" and s.p == 2 for s in specs) else 5.0
        pair, truth = assemble(specs, scramble_seed=trial, conditioning_cap=cap)
        ib = truth.inertia_B
        if ib.rank == 0:
            continue
        hpl, hmi = 0, 0
        while hpl + hmi == 0:
            hpl = int(rng.integers(0, ib.n_plus + 1))
            hmi = int(rng.integers(0, ib.n_minus + 1))
        hp = np.sort(rng.uniform(-1.5, 1.5, size=hpl))
        hn = np.sort(rng.uniform(-1.5, 1.5, size=hmi))
        hat = _hat_pair(rng, hp, hn, trial + 31337)
        yield trial, pt.ProblemInstance(pair=pair, hat_pair=hat)


def scaled(problem, a, ahat):
    big, hat = problem.pair, problem.hat_pair
    return pt.ProblemInstance(
        pair=pt.pair_from_arrays(a * big.A.entries, big.B.entries),
        hat_pair=pt.pair_from_arrays(ahat * hat.A.entries, hat.B.entries),
    )


def _flags(spec):
    return {
        "has_jordan": spec.has_jordan,
        "isotropic_defect": spec.isotropic_defect,
        "has_complex": spec.has_complex,
    }


def outcome(problem):
    with pytest.MonkeyPatch.context() as patch:
        calls = count_eigen_kernels(patch)
        out = _outcome(problem)
    out["eigvalsh"] = calls.count("eigvalsh")
    return out


def _outcome(problem):
    try:
        res = infimum(problem)
    except PencilError as exc:
        return {"error": type(exc).__name__}
    out = {
        "verdict": res.verdict,
        "reason": res.reason,
        "detail": res.reason_detail,
        "value": res.value,
        "attainable": res.attainable,
        "routes": [res.analysis.route, res.hat_analysis.route],
    }
    if res.verdict == EXCLUDED_CONSTANT:
        return out
    out["spectrum"] = _flags(res.analysis)
    out["hat_spectrum"] = _flags(res.hat_analysis)
    if res.verdict == NEG_INFINITE:
        try:
            fam = build_witness(problem, res)
            rep = certify_unbounded(fam, -1e6, 1e4)
            out["witness"] = {
                "kind": fam.kind, "slope": fam.slope, "residual": rep.feas_residual,
            }
        except PencilError as exc:
            out["witness"] = {"error": type(exc).__name__, "message": str(exc)}
    return out


def replay():
    """One row per problem: its trial and the outcome of it and of each scaled copy."""
    rows = []
    for trial, prob in problems():
        row = {"trial": trial, "": outcome(prob)}
        for label, (a, ahat) in SCALES.items():
            row[label] = outcome(scaled(prob, a, ahat))
        rows.append(row)
    return rows


def record(path):
    """Write a replay to ``path``, one trial per line with sorted keys, so a
    diff of two records names the trials that moved."""
    rows = replay()
    lines = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    Path(path).write_text(f"[\n{lines}\n]\n")
    print(f"{len(rows)} problems, {len(rows) * len(SCALES)} scaled copies -> {path}")


def load(path):
    return json.loads(Path(path).read_text())


def _close(x, y, rtol):
    if x is None or y is None:
        return x is y
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def _diff(old, new):
    """The fields in which two outcomes differ."""
    out = []
    for key in ("error", "verdict", "reason", "detail", "attainable", "spectrum", "hat_spectrum"):
        if old.get(key) != new.get(key):
            out.append(f"{key}: {old.get(key)} -> {new.get(key)}")
    if not _close(old.get("value"), new.get("value"), VALUE_RTOL):
        out.append(f"value: {old.get('value')} -> {new.get('value')}")
    wo, wn = old.get("witness", {}), new.get("witness", {})
    for key in ("error", "kind"):
        if wo.get(key) != wn.get(key):
            out.append(f"witness {key}: {wo.get(key)} -> {wn.get(key)}")
    if not _close(wo.get("slope"), wn.get("slope"), SLOPE_RTOL):
        out.append(f"witness slope: {wo.get('slope')} -> {wn.get('slope')}")
    ro, rn = wo.get("residual"), wn.get("residual")
    if ro is not None and rn is not None and (
        max(ro, rn) > max(RESIDUAL_FACTOR * min(ro, rn), RESIDUAL_FLOOR)
    ):
        out.append(f"witness residual: {ro} -> {rn}")
    return out


def _flipped(base, copy, factor):
    if base.get("error") or copy.get("error"):
        return base.get("error") != copy.get("error")
    if (base["verdict"], base["reason"]) != (copy["verdict"], copy["reason"]):
        return True
    value = None if copy["value"] is None else copy["value"] / factor
    return not _close(base["value"], value, FLIP_RTOL)


def tally(rows):
    """(unscaled verdict counts, unscaled witnesses not built, certified
    residuals above BAD_RESIDUAL, scaled flips per scale label)."""
    base = [r[""] for r in rows]
    verdicts = Counter(o.get("verdict", o.get("error")) for o in base)
    witnesses = [o["witness"] for o in base if "witness" in o]
    unwitnessed = sum("error" in w for w in witnesses)
    bad = sum(w.get("residual", 0.0) > BAD_RESIDUAL for w in witnesses)
    flips = Counter(
        label
        for r in rows
        for label, (a, ahat) in SCALES.items()
        if _flipped(r[""], r[label], a * ahat)
    )
    return verdicts, unwitnessed, bad, flips


def summary(rows):
    verdicts, unwitnessed, bad, flips = tally(rows)
    return (
        f"verdicts {dict(verdicts)}; no witness {unwitnessed}; "
        f"residual > {BAD_RESIDUAL:g}: {bad}; scaled flips {sum(flips.values())} {dict(flips)}"
    )


def unwitnessed(rows):
    """The unscaled NoWitnessConstructibleErrors, counted by verdict reason
    and by the ``_rotation_witness`` part of their message."""
    by_reason, by_rotation = Counter(), Counter()
    for out in (r[""] for r in rows):
        if out.get("witness", {}).get("error") != "NoWitnessConstructibleError":
            continue
        by_reason[out["reason"]] += 1
        # build_witness joins "builder: message" parts with "; ".
        parts = out["witness"].get("message", "").split("; ")
        rotation = [p.split(": ", 1)[1] for p in parts if p.startswith("_rotation_witness: ")]
        by_rotation[rotation[0] if rotation else "not recorded"] += 1
    return f"no witness by reason {dict(by_reason)}; by rotation message {dict(by_rotation)}"


def route_counts(rows):
    """How the pairs of each scale label were solved: label -> {route: count},
    over the pair and the hat pair of every problem that was analysed."""
    out = {}
    for label in ("", *SCALES):
        count = Counter(str(r) for row in rows for r in row[label].get("routes", ()))
        out[label or "unscaled"] = dict(sorted(count.items()))
    return out


def routes(rows):
    out = {label: count or "not recorded" for label, count in route_counts(rows).items()}
    return f"routes {out}"


def eigvalsh_calls(rows):
    """The ``eigvalsh`` calls of each scale label's outcomes, summed."""
    out = {}
    for label in ("", *SCALES):
        counts = [row[label].get("eigvalsh") for row in rows]
        out[label or "unscaled"] = "not recorded" if None in counts else sum(counts)
    return f"eigvalsh calls {out}"


def compare(old, new):
    """Every difference between two replays (lists of rows), one line each."""
    if [r["trial"] for r in old] != [r["trial"] for r in new]:
        raise ValueError("the two records replay different problems")
    return [
        f"trial {ro['trial']} [{label or 'unscaled'}] {line}"
        for ro, rn in zip(old, new)
        for label in ("", *SCALES)
        for line in _diff(ro[label], rn[label])
    ]


def _print_comparison(old_path, new_path):
    """Print the differences of two files and a summary of each; returns the differences."""
    old, new = load(old_path), load(new_path)
    try:
        changed = compare(old, new)
    except ValueError as exc:
        sys.exit(str(exc))
    for line in changed:
        print(line)
    print(f"{len(changed)} differences")
    for label, rows in (("old", old), ("new", new)):
        print(f"{label}: {summary(rows)}")
        print(f"{label}: {unwitnessed(rows)}")
        print(f"{label}: {routes(rows)}; {eigvalsh_calls(rows)}")
    return changed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE", help="replay and write the outcomes as JSON")
    group.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print the differences")
    args = ap.parse_args(argv)
    if args.out:
        record(args.out)
    elif _print_comparison(*args.compare):
        sys.exit(1)


if __name__ == "__main__":
    main()

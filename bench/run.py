#!/usr/bin/env python3
"""pencil-tracemin benchmark: seeded, closed-loop, single-caller workloads.

    python3 bench/run.py --workload semidef-solve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics with the library untouched; its
times are scaled by a fixed reference block timed between operations, to
take out the changing speed of a shared host (see bench/README.md).
``--trace 1`` runs one untraced and one traced pass over the instance pool and
reports the per-layer metrics (see bench/README.md).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads: one caller on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import time
import types
from collections import Counter
from typing import NamedTuple

import numpy as np
import scipy

import workloads
from tracer import KERNELS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = "pencil_tracemin"

MIN_TIMINGS = 2  # per operation, before the time limit may end a run
SETUPS_PER_PASS = 2  # the pass uses the last pool; setup_s is the median of all
# Timings are given at the speed at which the reference block takes REF_S:
# its least time over 1500 repetitions on the 2-core development box.
REF_S = 2.8e-3

# Workloads listed in BENCHMARK.json.  The others run on request only.
# structure-mix: some of its operations fail today, and listed workloads must
# not fail.  semidef-solve: its layers all run in the two listed workloads,
# and the run time it would take is given to them, to steady their figures
# (see README.md).
LISTED = ("diverge-certify", "sample-verify")
ON_REQUEST = ("semidef-solve", "structure-mix")


def import_library():
    """Fresh import of the package from src/, discarding any earlier import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pt = importlib.import_module(PACKAGE)
    if os.path.dirname(os.path.dirname(os.path.abspath(pt.__file__))) != SRC:
        raise ImportError(f"{PACKAGE} resolved outside {SRC}: {pt.__file__}")
    return types.SimpleNamespace(
        pt=pt,
        **{m: importlib.import_module(f"{PACKAGE}.{m}")
           for m in ("cli", "genpairs", "matcore", "witness")},
    )


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


class Record(NamedTuple):
    latency: float  # seconds; in a timed run, scaled by the reference block
    status: str  # "ok" | "failed" | "wrong"
    detail: str | None  # exception or check message
    wall: float | None = None  # seconds, unscaled, in a timed run


_REF_RNG = np.random.default_rng(20230323)
_REF_H = _REF_RNG.standard_normal((20, 20))
_REF_H = _REF_H + _REF_H.T
_REF_C = _REF_RNG.standard_normal((4, 4)) + 1j * _REF_RNG.standard_normal((4, 4))


def reference():
    """Seconds taken by a fixed block of the kind of work the library does most.

    One half is a Python loop over small symmetric eigenproblems, like the
    definiteness search; the other half is the small complex QR, eigh,
    products and 2-norms of the feasible sampler and its residuals.  Timed
    around each operation and before each set-up of a timed run, it tracks
    how fast the shared host runs at that moment.
    """
    t0 = time.perf_counter()
    for j in range(60):
        np.linalg.eigvalsh(_REF_H - (0.01 * j) * np.eye(20))
    for j in range(20):
        q, _ = np.linalg.qr(_REF_C + j)
        g = q.conj().T @ _REF_C @ q
        w, v = np.linalg.eigh(g + g.conj().T)
        np.linalg.norm(v @ np.diag(w) - _REF_C, 2)
    return time.perf_counter() - t0


def run_one(workload, lib, inst, op_scope):
    """Time one operation, then check it; status is ok, failed or wrong."""
    t0 = time.perf_counter()
    try:
        with op_scope:
            out = workload.run(lib, inst)
    except Exception as exc:  # tallied by type: a failed operation, not a crash
        latency = time.perf_counter() - t0
        name = type(exc).__name__
        return Record(latency, "ok" if name in workload.allowed else "failed", f"{name}: {exc}")
    latency = time.perf_counter() - t0
    try:
        reason = workload.check(lib, inst, out)
    except Exception as exc:  # a malformed answer is a wrong answer
        reason = f"check raised {type(exc).__name__}: {exc}"
    return Record(latency, "wrong" if reason else "ok", reason)


def run_pass(workload, lib, pool, tracer=None):
    """One closed-loop pass over the pool: one record per operation."""
    return [
        run_one(workload, lib, inst, tracer.op(i) if tracer else contextlib.nullcontext())
        for i, inst in enumerate(pool)
    ]


def timed_pass(workload, lib, pool):
    """``run_pass`` with each latency scaled by the reference block timed around it.

    The reference is timed between operations, so each operation's scale
    comes from the mean of the timings just before and just after it.
    """
    records = []
    before = reference()
    for inst in pool:
        rec = run_one(workload, lib, inst, contextlib.nullcontext())
        after = reference()
        scale = REF_S / ((before + after) / 2)
        records.append(rec._replace(latency=rec.latency * scale, wall=rec.latency))
        before = after
    return records


def set_up(workload, seed, workdir):
    """Fresh import plus the pool and its files, timed; then one untimed warm-up.

    The time is scaled by the reference block timed just before it.  The
    previous pass's garbage is collected first, so that a full collection
    of it does not land inside the timed import.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()
    scale = REF_S / reference()
    t0 = time.perf_counter()
    lib = import_library()
    pool = workload.build(lib, seed, workdir)
    elapsed = time.perf_counter() - t0
    run_one(workload, lib, pool[0], contextlib.nullcontext())
    return elapsed * scale, lib, pool


def strides(reps):
    """Per operation, the k of "timed in every k-th pass", from its service time.

    An operation that takes k² times the pool's median service time joins
    every k-th pass.  Cheap operations are timed most often: a short timing
    catches the host at one moment, while a long operation averages over the
    host's changing speed within one timing.
    """
    svc = service_times(reps)
    mid = statistics.median(svc)
    return [max(1, round(math.sqrt(t / mid))) for t in svc]


def timed_run(workload, seed, workdir, seconds):
    """Passes over the pool, each after its own set-ups, for ``seconds``.

    The first pass times every operation; pass p after it times the
    operations whose stride, taken from the timings so far, divides p.  A
    pass starts only if it is expected to end in time, judged by the latest
    timings of its operations and set-ups; passes go on regardless until
    every operation was timed MIN_TIMINGS times.
    One untimed import comes first, so that the one-time import of numpy's
    and scipy's submodules lands in no set-up.  Returns the scaled set-up
    times, each operation's records, and the number of passes.
    """
    import_library()
    setups, reps = [], None
    start, p = time.perf_counter(), 0
    while True:
        for _ in range(SETUPS_PER_PASS):
            elapsed, lib, pool = set_up(workload, seed, workdir)
            setups.append(elapsed)
        if reps is None:
            reps = [[r] for r in timed_pass(workload, lib, pool)]
        else:
            members = [i for i, k in enumerate(steps) if p % k == 0]
            for i, r in zip(members, timed_pass(workload, lib, [pool[i] for i in members])):
                reps[i].append(r)
        steps = strides(reps)
        p += 1
        upcoming = [i for i, k in enumerate(steps) if p % k == 0]
        estimate = sum(reps[i][-1].wall for i in upcoming) + sum(setups[-SETUPS_PER_PASS:])
        if (min(map(len, reps)) >= MIN_TIMINGS
                and time.perf_counter() - start + estimate > seconds):
            return setups, reps, p


def service_times(reps):
    """Per operation, the median of its latencies.

    In a timed run the latencies are scaled by the reference block, so the
    median is taken over timings made at the host's changing speed; the
    scaling, not the median, removes the minutes-long slow stretches that
    other tenants of a shared host cause.
    """
    return [statistics.median(r.latency for r in rs) for rs in reps]


def mix_report(workload, reps):
    """Each order's share of service time, and the order found at p50 and p90."""
    keys = workloads.order_keys(workload.weights)
    svc = service_times(reps)
    total = sum(svc)
    share = {}
    for key, t in zip(keys, svc):
        share[str(key)] = share.get(str(key), 0.0) + t / total
    ranked = [key for _, key in sorted(zip(svc, keys), key=lambda p: p[0])]

    def at(fraction):  # the operation nearest the rank statistics.quantiles uses
        rank = round((len(ranked) + 1) * fraction) - 1
        return ranked[min(max(rank, 0), len(ranked) - 1)]

    return {"time_share": {k: round(v, 4) for k, v in share.items()},
            "p50_order": at(0.5), "p90_order": at(0.9)}


def unscaled(reps):
    """Wall-clock p50 and p90 of the per-operation medians, and the reference block's median time."""
    if reps[0][0].wall is None:  # a traced run is not scaled
        return None
    wall_ms = [statistics.median(r.wall for r in rs) * 1e3 for rs in reps]
    ref_ms = [REF_S * 1e3 * r.wall / r.latency for rs in reps for r in rs]
    return {"p50_ms": statistics.median(wall_ms), "p90_ms": statistics.quantiles(wall_ms, n=10)[-1],
            "reference_ms": statistics.median(ref_ms)}


def timings_per_order(workload, reps):
    """Per order, the fewest and most timings any of its operations got."""
    counts = {}
    for key, rs in zip(workloads.order_keys(workload.weights), reps):
        counts.setdefault(str(key), []).append(len(rs))
    return {k: [min(v), max(v)] for k, v in counts.items()}


def tally(records):
    counts = Counter(r.status for r in records)
    errors = Counter(r.detail.split(":", 1)[0] for r in records if r.status == "failed")
    wrong = [r.detail for r in records if r.status == "wrong"]
    return {
        "attempted": len(records),
        "failed": counts["failed"],
        "wrong": counts["wrong"],
        "failed_ratio": counts["failed"] / len(records),
        "wrong_ratio": counts["wrong"] / len(records),
        "exceptions": dict(errors),
        "wrong_examples": wrong[:5],
    }


def ops_per_s(reps):
    """Completed operations per second of busy time, from per-operation service times."""
    completed = sum(all(r.status != "failed" for r in rs) for rs in reps)
    return completed / sum(service_times(reps))


def end_to_end(reps, setup_times):
    lat_ms = [t * 1e3 for t in service_times(reps)]
    records = [r for rs in reps for r in rs]
    n = len(lat_ms)
    return {
        "ops_per_s": (ops_per_s(reps), "1/s", n),
        "latency_ms.p50": (statistics.median(lat_ms), "ms", n),
        "latency_ms.p90": (statistics.quantiles(lat_ms, n=10)[-1], "ms", n),
        "ok_ratio": (sum(r.status == "ok" for r in records) / len(records), "ratio", len(records)),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


# Per-layer metrics per operation: span name and which of calls / self_ms to report.
LAYER_SPANS = [
    ("definiteness.definiteness_interval", ("calls", "self_ms")),
    ("definiteness.lambda_min_shift", ("calls",)),
    ("spectral.deflate_common_nullspace", ("calls", "self_ms")),
    ("spectral.typed_spectrum", ("calls", "self_ms")),
    ("spectral.split_infinite", ("calls", "self_ms")),
    ("spectral.congruent_diagonalize", ("calls", "self_ms")),
    ("matcore.inertia", ("calls",)),
    ("matcore.check_feasibility", ("calls",)),
    ("matcore.spectral_norm", ("calls",)),
    ("matcore.load_problem", ("self_ms",)),
    ("tracemin.infimum", ("calls", "self_ms")),
    ("tracemin.minimizer", ("calls", "self_ms")),
    ("tracemin.FeasibleSampler.sample", ("calls", "self_ms")),
    ("tracemin.feasibility_residual", ("calls", "self_ms")),
    ("hyperbolic.sample_feasible", ("calls", "self_ms")),
    ("witness.build_witness", ("calls", "self_ms")),
    ("witness.certify_unbounded", ("self_ms",)),
    ("witness.evaluate_witness", ("calls",)),
    ("cli.main", ("self_ms",)),
] + [(f"kernel.{k}", ("calls",)) for k in ("eigvalsh", "eigh", "eig", "svd", "solve", "inv", "qr")]


def per_layer(tracer, setup_tracer, records, untraced):
    """Per-operation layer metrics of one traced pass (``records``)."""
    agg = tracer.aggregate()
    n = len(records)
    out = {}
    for span, kinds in LAYER_SPANS:
        calls, self_s = agg.get(span, (0, 0.0))
        if "calls" in kinds:
            out[f"{span}.calls"] = (calls / n, "calls/op", n)
        if "self_ms" in kinds:
            out[f"{span}.self_ms"] = (self_s * 1e3 / n, "ms/op", n)
    out["kernel.self_ms"] = (sum(agg.get(f"kernel.{k}", (0, 0.0))[1] for k in KERNELS) * 1e3 / n, "ms/op", n)
    out["kernel.n3_sum"] = (tracer.n3_sum / n, "n3/op-computed", n)
    out["kernel.repeat_ratio"] = (tracer.repeats / max(tracer.decompositions, 1), "ratio", tracer.decompositions)
    witness_ops = {s[2] for s in tracer.spans if s[3] == "witness.build_witness"}
    certified = sum(records[i].status == "ok" for i in witness_ops)
    out["witness.success_ratio"] = (certified / len(witness_ops) if witness_ops else 1.0, "ratio", len(witness_ops))
    calls, self_s = setup_tracer.aggregate().get("genpairs.assemble", (0, 0.0))
    out["genpairs.assemble.calls"] = (float(calls), "calls/setup", 1)
    out["genpairs.assemble.self_ms"] = (self_s * 1e3, "ms/setup", 1)
    out["trace.overhead_ratio"] = (ops_per_s([[r] for r in records])
                                   / ops_per_s([[r] for r in untraced]), "ratio", n)
    return out


def run_workload(args):
    workload = workloads.WORKLOADS[args.workload]
    workroot = os.path.join(BENCH_DIR, ".work", str(os.getpid()))
    try:
        if args.trace:
            _, lib, pool = set_up(workload, args.seed, workroot)
            untraced = run_pass(workload, lib, pool)
            with Tracer() as setup_tracer, setup_tracer.op("setup"):
                workload.build(lib, args.seed, workroot)
            with Tracer() as tracer:
                records = run_pass(workload, lib, pool, tracer)
            metrics = per_layer(tracer, setup_tracer, records, untraced)
            reps, passes = [[r] for r in records], 1
        else:
            setups, reps, passes = timed_run(workload, args.seed, workroot, args.seconds)
            metrics = end_to_end(reps, setups)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        if os.path.isdir(os.path.dirname(workroot)) and not os.listdir(os.path.dirname(workroot)):
            os.rmdir(os.path.dirname(workroot))

    outcome = tally([r for rs in reps for r in rs])
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mix": [list(w) for w in workload.weights],
        "mix_measured": mix_report(workload, reps),
        "unscaled": unscaled(reps),
        "pool": len(reps),
        "passes": passes,
        "timings_per_op": timings_per_order(workload, reps),
        "environment": environment(),
        "outcomes": outcome,
    }
    print(json.dumps(detail, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload.name:16s} {name:42s} {value:14.6g} {unit:15s} n={samples}")
    print(json.dumps({
        "correct": outcome["wrong"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory and imports stay separate."""
    code = 0
    for name in LISTED + ON_REQUEST:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=LISTED + ON_REQUEST + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

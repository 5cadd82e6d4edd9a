"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy
import numpy.linalg
import pytest
import scipy.linalg

import run
import workloads
from tracer import Tracer, _numpy_linalg_impl

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def _pool_head(name, lib, tmp_path, count, seed=5):
    workload = workloads.WORKLOADS[name]
    return workload, workload.build(lib, seed, str(tmp_path))[:count]


def _snapshot(lib):
    """Every attribute of the package modules and the kernel namespaces, by identity."""
    mods = [m for k, m in sys.modules.items() if k == run.PACKAGE or k.startswith(run.PACKAGE + ".")]
    mods += [numpy.linalg, _numpy_linalg_impl(), scipy.linalg]
    snap = {(m.__name__, a): id(v) for m in mods for a, v in vars(m).items()}
    for m in mods:
        for cname, cls in vars(m).items():
            if isinstance(cls, type) and cls.__module__.startswith(run.PACKAGE):
                snap.update({(cname, a): id(v) for a, v in vars(cls).items()})
    return snap


def _traced_calls(workload, lib, pool):
    with Tracer() as tracer:
        records = run.run_pass(workload, lib, pool, tracer)
    calls = {name: c for name, (c, _) in tracer.aggregate().items()}
    return calls, tracer.n3_sum, tracer.repeats, [r.status for r in records]


@pytest.mark.parametrize("name,count", [("diverge-certify", 20), ("sample-verify", 12),
                                        ("structure-mix", 30)])
def test_traced_counts_repeat_exactly(name, count, lib, tmp_path):
    workload, pool = _pool_head(name, lib, tmp_path, count)
    first = _traced_calls(workload, lib, pool)
    second = _traced_calls(workload, lib, pool)
    assert first == second
    assert first[0]["kernel.eigvalsh"] > 0 and first[0]["tracemin.infimum"] == len(pool)


@pytest.mark.parametrize("name", ["semidef-solve", *run.LISTED])
def test_listed_pools_hold_a_hundred_operations(name):
    assert sum(w for _, w in workloads.WORKLOADS[name].weights) >= 100


@pytest.mark.parametrize("name", [n for n, w in workloads.WORKLOADS.items() if w.p90_key])
def test_mixes_put_percentiles_inside_their_groups(name):
    workload = workloads.WORKLOADS[name]
    for key, fraction in ((workload.p50_key, 0.5), (workload.p90_key, 0.9)):
        assert min(workloads.percentile_margins(workload.weights, key, fraction)) >= 1


def test_strides_time_cheap_operations_most_often():
    reps = [[run.Record(t, "ok", None) for t in ts]
            for ts in ((0.01, 0.03, 0.01), (0.01,), (0.01,), (0.15, 0.17), (0.04,))]
    # Service times 10, 10, 10, 160 and 40 ms against a median of 10 ms.
    assert run.strides(reps) == [1, 1, 1, 4, 2]


def test_timed_pass_scales_by_the_reference(monkeypatch, lib, tmp_path):
    workload, pool = _pool_head("sample-verify", lib, tmp_path, 2)
    monkeypatch.setattr(run, "reference", lambda: 2 * run.REF_S)
    for rec in run.timed_pass(workload, lib, pool):
        assert rec.status == "ok" and rec.latency == pytest.approx(rec.wall / 2)


def test_untraced_path_leaves_library_and_kernels_untouched(lib, tmp_path):
    original_eigvalsh = numpy.linalg.eigvalsh
    original_infimum = lib.pt.infimum
    before = _snapshot(lib)
    workload, pool = _pool_head("sample-verify", lib, tmp_path, 4)
    run.run_pass(workload, lib, pool)
    assert _snapshot(lib) == before
    assert numpy.linalg.eigvalsh is original_eigvalsh
    assert lib.pt.infimum is original_infimum and lib.cli.infimum is original_infimum
    # The traced pass patches the same attributes and restores them on exit.
    with Tracer():
        assert numpy.linalg.eigvalsh is not original_eigvalsh
        assert lib.cli.infimum is not original_infimum
        assert lib.cli.infimum is lib.pt.infimum
    assert _snapshot(lib) == before


def test_norm_two_counts_as_svd():
    x = numpy.eye(3)
    with Tracer() as tracer:
        with tracer.op(0):
            numpy.linalg.norm(x, 2)
            numpy.linalg.svd(x)
            numpy.linalg.norm(x)  # Frobenius: no decomposition
    assert tracer.aggregate()["kernel.svd"][0] == 2
    assert tracer.n3_sum == 2 * 27


def test_wrong_reference_value_counts_as_wrong(lib, tmp_path):
    workload, pool = _pool_head("semidef-solve", lib, tmp_path, 1)
    problem, ref = pool[0]
    good = run.run_one(workload, lib, (problem, ref), contextlib.nullcontext())
    bad = run.run_one(workload, lib, (problem, ref + 1.0), contextlib.nullcontext())
    assert good.status == "ok" and bad.status == "wrong"
    outcome = run.tally([good, bad])
    assert outcome["wrong"] == 1 and outcome["wrong_ratio"] == 0.5


def _main(monkeypatch, *argv):
    monkeypatch.setattr(run, "MIN_TIMINGS", 1)
    monkeypatch.setattr(workloads.WORKLOADS["sample-verify"], "weights", ((2, 2), (4, 2)))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return buf.getvalue().splitlines()


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_are_declared(monkeypatch, trace, section):
    with open(BENCHMARK_JSON) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    lines = _main(monkeypatch, "--workload", "sample-verify", "--seed", "2",
                  "--seconds", "0", "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared
    env = json.loads(lines[0])["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "nproc", "blas_threads"}
    assert 1 <= env["blas_threads"] <= env["nproc"]


def test_listed_workloads_match_benchmark_json():
    with open(BENCHMARK_JSON) as fh:
        listed = [(w["name"], w["why"]) for w in json.load(fh)["workloads"]]
    assert listed == [(n, workloads.WORKLOADS[n].why) for n in run.LISTED]


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sample-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

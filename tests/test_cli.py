import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin import cli, tracemin
from pencil_tracemin.cli import main
from pencil_tracemin.definiteness import DefinitenessReport
from pencil_tracemin.genpairs import assemble, spec_from_json
from pencil_tracemin.matcore import load_problem, matrix_to_json, save_problem
from pencil_tracemin.tracemin import ExcludedCase, FeasibleSampler, PropernessReport, _objective

from conftest import count_eigen_kernels, diag_problem, golden_hat_matrix, pencil_solves
from reference import crawford_number


def write_problem(path, A, B, Ah, Bh):
    prob = pt.problem_from_arrays(A, B, Ah, Bh)
    save_problem(path, prob)
    return prob


@pytest.fixture
def golden_file(tmp_path):
    path = str(tmp_path / "golden.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        golden_hat_matrix(),
        np.diag([1.0, -1.0]),
    )
    return path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_golden_pair(tmp_path, capsys):
    path = str(tmp_path / "pair.json")
    pair = pt.pair_from_arrays(np.diag([1.0, 2.0]), np.diag([1.0, -1.0]))
    pt.matcore.save_pair(path, pair)
    code, rep = run_json(capsys, ["--json", "analyze", path])
    assert code == 0
    assert rep["inertia_B"] == [1, 0, 1]
    lo, hi = rep["definiteness"]["psd_interval"]
    assert lo == pytest.approx(-2.0, abs=1e-6)
    assert hi == pytest.approx(1.0, abs=1e-6)
    # The confirming evaluation: inside the interval, with its margin to the tolerance.
    assert lo <= rep["definiteness"]["psd_shift"] <= hi
    assert rep["definiteness"]["psd_lam_min"] >= -rep["definiteness"]["tolerance"]
    assert rep["definiteness"]["nsd_shift"] is None
    assert set(rep["definiteness"]) == {f.name for f in fields(DefinitenessReport)}
    assert rep["typed_spectrum"]["pos"][0]["value"] == pytest.approx(1.0, abs=1e-9)
    assert rep["typed_spectrum"]["neg"][0]["value"] == pytest.approx(-2.0, abs=1e-9)
    # A definite pair with nonsingular B is solved in its own coordinates.
    assert rep["typed_spectrum"]["route"] == "pair-cholesky"
    for key in ("pos", "neg"):
        for entry in rep["typed_spectrum"][key]:
            assert set(entry) == {"value", "jordan_pair"}
            assert entry["jordan_pair"] is False


@pytest.mark.parametrize(
    "A,B,eighs",
    [
        (np.diag([1.0, 3.0, -1.0]), np.diag([1.0, -1.0, 2.0]), 0),
        (np.diag([1.0, 3.0, -1.0]), np.diag([1.0, 0.0, -2.0]), 2),
        (np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 0.0, -2.0]), 1),
    ],
    ids=["nonsingular", "singular", "shared_null"],
)
def test_analyze_solves_the_pencil_once(tmp_path, capsys, monkeypatch, A, B, eighs):
    # The typed spectrum and the definiteness block come from one analysis.
    # The definite pair with nonsingular B is solved in its own coordinates,
    # with no eigh of B.  Otherwise, after the pair's own solve (its Cholesky
    # may pass, but B fails the nonsingularity certificate), B is decomposed
    # once: the common null vector is found inside N(B), A on N(B) takes one
    # more eigh only when N(B) keeps a direction, and the finite part is
    # solved once, by a Cholesky and its eigh.
    path = str(tmp_path / "pair.json")
    pair, _ = pt.random_congruence(pt.pair_from_arrays(A, B), 2, 4.0)
    pt.matcore.save_pair(path, pair)
    calls = count_eigen_kernels(monkeypatch)

    def marked(*args, _fn=pt.spectral.eigh_frame):
        calls.append("B frame")
        return _fn(*args)

    monkeypatch.setattr(pt.spectral, "eigh_frame", marked)
    code, rep = run_json(capsys, ["--json", "analyze", path])
    assert code == 0
    assert calls.count("eigh") == eighs + calls.count("cholesky"), calls
    if eighs:
        at = calls.index("B frame")
        assert calls[at + 1] == "eigh", calls
        after = calls[at + 2:]
        solves = [c for c in after if c in ("eigh", "eig", "cholesky", "cholesky failed")]
        assert solves == ["eigh"] * (eighs - 1) + ["cholesky", "eigh"], calls
    else:
        assert pencil_solves(calls) == 1 and "B frame" not in calls, calls
    assert (rep["typed_spectrum"]["route"] == "pair-cholesky") == (eighs == 0)
    assert rep["is_psd_pair"] == rep["definiteness"]["is_psd_pair"]
    assert len(rep["typed_spectrum"]["pos"]) + len(rep["typed_spectrum"]["neg"]) == int(
        np.sum(np.diag(B) != 0)
    )


def test_analyze_prints_the_crawford_bound(tmp_path, capsys):
    # A pair solved in its own coordinates prints a lower bound on its
    # Crawford number; one that falls back to its B-frame prints null.
    for B, route in ((np.diag([1.0, -1.0, 2.0]), "pair-cholesky"),
                     (np.diag([1.0, 0.0, -2.0]), "frame-cholesky")):
        path = str(tmp_path / "pair.json")
        pair, _ = pt.random_congruence(pt.pair_from_arrays(np.diag([1.0, 3.0, -1.0]), B), 2, 4.0)
        pt.matcore.save_pair(path, pair)
        code, rep = run_json(capsys, ["--json", "analyze", path])
        assert code == 0 and rep["typed_spectrum"]["route"] == route
        bound = rep["typed_spectrum"]["crawford_bound"]
        if route == "pair-cholesky":
            assert 0.0 < bound <= crawford_number(pair)
        else:
            assert bound is None


def test_minimize_solves_each_pencil_once(golden_file, tmp_path, capsys, monkeypatch):
    # The minimizer reads the frames of the infimum result the report prints.
    calls = count_eigen_kernels(monkeypatch)
    code, _ = run_json(capsys, ["--json", "minimize", golden_file, str(tmp_path / "x.json")])
    assert code == 0
    assert pencil_solves(calls) == 2, calls


def test_verify_analyses_each_pair_once(golden_file, capsys, monkeypatch):
    # The sampler reads the B-frames of the infimum result the report prints.
    calls = []

    def counted(*args, _fn=pt.tracemin.analyze_pair, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(pt.tracemin, "analyze_pair", counted)
    code, _ = run_json(capsys, ["--json", "verify", golden_file, "--samples", "20"])
    assert code == 0
    assert len(calls) == 2


def test_analyze_jordan_pair(tmp_path, capsys):
    # A Jordan pair at the boundary shift of a PSD pair, two opposite Jordan
    # blocks at one value, which leave the pair neither PSD nor NSD, and a
    # Jordan block beside a value of each type: the isotropic copies pair up
    # either way, on the eig route, as one Jordan copy of each type.
    path = str(tmp_path / "pair.json")
    boundary = pt.pair_from_arrays(
        np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    opposite, _ = pt.assemble(
        [pt.BlockSpec("Tr", p=2, alpha=0.3, eta=1), pt.BlockSpec("Tr", p=2, alpha=0.3, eta=-1)],
        scramble_seed=0, conditioning_cap=2.5,
    )
    beside, _ = pt.assemble(
        [pt.BlockSpec("Tr", p=2, alpha=0.3, eta=1), pt.BlockSpec("Tr", p=1, alpha=1.5, eta=1),
         pt.BlockSpec("Tr", p=1, alpha=-0.7, eta=-1)],
        scramble_seed=0, conditioning_cap=2.5,
    )
    for pair, value, psd in ((boundary, 0.0, True), (opposite, 0.3, False), (beside, 0.3, True)):
        pt.matcore.save_pair(path, pair)
        code, rep = run_json(capsys, ["--json", "analyze", path])
        assert code == 0
        assert rep["definiteness"]["is_psd_pair"] is psd
        assert rep["definiteness"]["is_nsd_pair"] is False
        assert rep["typed_spectrum"]["pos"][0]["jordan_pair"] is True
        assert rep["typed_spectrum"]["pos"][0]["value"] == pytest.approx(value, abs=1e-7)
        assert rep["typed_spectrum"]["route"] == "eig"
        for key in ("pos", "neg"):
            for entry in rep["typed_spectrum"][key]:
                assert set(entry) == {"value", "jordan_pair"}


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"A": {"n": 1, "entries": [1.0]}, "B": {"n": 1, "entries": [[1.0, 0.0]]}}',
        '[1, 2]',
        '{"A": {"n": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}, "B": {"n": 1, "entries": [[1, 0]]}}',
        '{"A": {"n": true, "entries": [[1, 0]]}, "B": {"n": 1, "entries": [[1, 0]]}}',
        '{"A": {"n": -1, "entries": [[1, 0]]}, "B": {"n": 1, "entries": [[1, 0]]}}',
        '{"A": {"n": 1, "entries": [[true, 0]]}, "B": {"n": 1, "entries": [[1, 0]]}}',
        '{"A": {"n": 1, "entries": [[1, 0]]}, "B": {"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}}',
        '{"A": {"entries": [[1, 0]]}, "B": {"n": 1, "entries": [[1, 0]]}}',
        '{"A": {"n": 1, "entries": [[1, 0]]}, "B": {"n": 1, "entries": [[1, 0]]}, '
        '"Ahat": {"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}, '
        '"Bhat": {"n": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}}',
    ],
)
def test_analyze_malformed_matrix_object(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    # A problem file, which carries a hat pair, is read by infimum.
    command = "infimum" if '"Ahat"' in text else "analyze"
    assert main([command, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_non_finite_entry(tmp_path, capsys):
    # json reads the NaN literal, so the check must sit in the library.
    path = tmp_path / "nan.json"
    path.write_text(
        '{"A": {"n": 1, "entries": [[NaN, 0.0]]}, "B": {"n": 1, "entries": [[1.0, 0.0]]}}'
    )
    assert main(["analyze", str(path)]) == 2
    assert "finite" in capsys.readouterr().err
    # Infinity - Infinity in the Hermiticity residual is NaN: no numpy warning
    # may precede the one error line.
    path = tmp_path / "inf.json"
    path.write_text(
        '{"A": {"n": 1, "entries": [[Infinity, 0.0]]}, "B": {"n": 1, "entries": [[1.0, 0.0]]}}'
    )
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


def test_infimum_entries_whose_norm_overflows(tmp_path, capsys):
    # Squares of these entries overflow, so |A|_F is infinite and a relative
    # gate such as |A - mu B| <= tol |A| would pass; the file is invalid input.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "A": matrix_to_json(1e154 * np.array([[2.0, 1.0], [1.0, 3.0]])),
        "B": matrix_to_json(np.diag([1.0, -1.0])),
        "Ahat": matrix_to_json([[0.5]]),
        "Bhat": matrix_to_json([[1.0]]),
    }))
    assert main(["infimum", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Frobenius norm" in err and err.count("\n") == 1


def test_infimum_finite_part_that_overflows(tmp_path, capsys):
    # Every entry and norm is finite, but B's eigenvalues of size 1e-160 scale
    # the finite part by 1e160: invalid input, with no numpy warning.
    path = tmp_path / "tiny_b.json"
    path.write_text(json.dumps({
        "A": matrix_to_json(np.diag([1e153, 2e153])),
        "B": matrix_to_json(np.diag([1e-160, -1e-160])),
        "Ahat": matrix_to_json([[1.0]]),
        "Bhat": matrix_to_json([[1.0]]),
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["infimum", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite part" in err and err.count("\n") == 1


def test_ill_conditioned_bhat_is_read_as_singular_by_the_zero_rule(tmp_path, capsys):
    # cond(Bhat) = 1e11 passes 1/rank_tol: 1e-11 counts as zero, and the
    # error names the rule that decided it, in the library and the CLI.
    A, B, Ahat, Bhat = np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), np.eye(2), np.diag([1.0, 1e-11])
    rule = "the zero rule |d| <= rank_tol * max|d|"
    with pytest.raises(pt.errors.EmptyFeasibleSetError, match=re.escape(rule)):
        pt.infimum(pt.problem_from_arrays(A, B, Ahat, Bhat))
    path = str(tmp_path / "singular_bhat.json")
    write_problem(path, A, B, Ahat, Bhat)
    assert main(["infimum", path]) == cli.EXIT_EMPTY_FEASIBLE == 5
    err = capsys.readouterr().err
    assert err.startswith("error: Bhat is judged singular") and rule in err


def test_infinite_tolerance_flag_is_invalid_input(golden_file, capsys):
    assert main(["--tol-psd", "inf", "infimum", golden_file]) == 2
    assert "psd_tol must be finite" in capsys.readouterr().err


def test_analyze_not_hermitian(tmp_path, capsys):
    path = tmp_path / "pair.json"
    obj = {
        "A": matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]])),
        "B": matrix_to_json(np.eye(2)),
    }
    path.write_text(json.dumps(obj))
    assert main(["analyze", str(path)]) == 3


def test_infimum_golden(golden_file, capsys):
    code, rep = run_json(capsys, ["--json", "infimum", golden_file])
    assert code == 0
    assert rep["infimum"]["verdict"] == "Finite"
    assert rep["infimum"]["value"] == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert set(rep["infimum"]["properness"]) == {f.name for f in fields(PropernessReport)}


def test_infimum_nsd_term_types_match_analyze(tmp_path, capsys):
    # The golden problem with all four matrices negated lands on the NSD
    # branch; each term carries the type that analyze gives its eigenvalue.
    A, B = -np.diag([1.0, 2.0]), -np.diag([1.0, -1.0])
    pair_path = str(tmp_path / "pair.json")
    pt.matcore.save_pair(pair_path, pt.pair_from_arrays(A, B))
    _, rep = run_json(capsys, ["--json", "analyze", pair_path])
    typed = {
        eig_type: [e["value"] for e in rep["typed_spectrum"][key]]
        for eig_type, key in (("positive", "pos"), ("negative", "neg"))
    }
    assert typed["positive"] == pytest.approx([-2.0], abs=1e-12)
    assert typed["negative"] == pytest.approx([1.0], abs=1e-12)

    path = str(tmp_path / "mirrored.json")
    write_problem(path, A, B, -golden_hat_matrix(), -np.diag([1.0, -1.0]))
    code, rep = run_json(capsys, ["--json", "infimum", path])
    assert code == 0 and rep["infimum"]["sign_case"] == "NSD_pairs"
    terms = rep["infimum"]["terms"]
    assert len(terms) == 2
    for term in terms:
        assert term["lambda"] == pytest.approx(typed[term["eig_type"]][0], abs=1e-12)


def test_infimum_mixed_exit_code(tmp_path, capsys):
    path = str(tmp_path / "mixed.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        np.diag([-1.0, -2.0]),
        np.diag([1.0, -1.0]),
    )
    code, rep = run_json(capsys, ["--json", "infimum", path])
    assert code == 4
    assert rep["infimum"]["verdict"] == "NegInfinite"
    assert rep["infimum"]["reason"] == "MixedSigns"


def test_infimum_excluded_zero(tmp_path, capsys):
    path = str(tmp_path / "zero.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        np.zeros((2, 2)),
        np.diag([1.0, -1.0]),
    )
    code, rep = run_json(capsys, ["--json", "infimum", path])
    assert code == 0
    assert rep["infimum"]["verdict"] == "ExcludedConstant"
    assert rep["infimum"]["value"] == 0.0


def test_infimum_empty_feasible(tmp_path, capsys):
    path = str(tmp_path / "empty.json")
    write_problem(
        path, np.diag([1.0, 2.0]), np.eye(2), np.diag([1.0]), np.diag([-1.0])
    )
    assert main(["--json", "infimum", path]) == 5


def test_minimize_golden(golden_file, tmp_path, capsys):
    out = str(tmp_path / "xopt.json")
    code, rep = run_json(capsys, ["--json", "minimize", golden_file, out])
    assert code == 0
    assert rep["minimizer"]["achieved"] == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert rep["minimizer"]["feasibility_residual"] <= 1e-8
    with open(out) as fh:
        X = pt.matcore.matrix_from_json(json.load(fh))
    assert X.shape == (2, 2)


def test_minimize_jordan_exit(tmp_path, capsys):
    path = str(tmp_path / "jordan.json")
    write_problem(
        path,
        np.array([[0.0, 0.3], [0.3, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.diag([1.0, 0.5]),
        np.diag([1.0, -1.0]),
    )
    assert main(["--json", "minimize", path, str(tmp_path / "x.json")]) == 6


def test_minimize_neg_infinite_exit(tmp_path, capsys):
    # The verdict is printed and no minimizer file is written.
    path, out = str(tmp_path / "mixed.json"), tmp_path / "x.json"
    write_problem(
        path, np.diag([1.0, 2.0]), np.diag([1.0, -1.0]), np.diag([-1.0, -2.0]), np.diag([1.0, -1.0])
    )
    code, rep = run_json(capsys, ["--json", "minimize", path, str(out)])
    assert code == 4
    assert rep["infimum"]["verdict"] == "NegInfinite"
    assert "minimizer" not in rep and not out.exists()


def test_minimize_rectangular_minimizer(tmp_path, capsys):
    # nhat = 1 < n = 3: X is 3 x 1, and its file carries the column count "m".
    path, out = str(tmp_path / "rect.json"), str(tmp_path / "x.json")
    prob = write_problem(path, np.diag([3.0, 1.0, 2.0]), np.eye(3), np.diag([2.0]), np.diag([1.0]))
    code, rep = run_json(capsys, ["--json", "minimize", path, out])
    assert code == 0
    assert rep["minimizer"]["achieved"] == pytest.approx(2.0, abs=1e-10)
    with open(out) as fh:
        obj = json.load(fh)
    assert (obj["n"], obj["m"]) == (3, 1)
    X = pt.matcore.matrix_from_json(obj)
    assert X.shape == (3, 1)
    assert pt.feasibility_residual(prob, X) <= 1e-12
    assert pt.tracemin._objective(prob, X) == pytest.approx(2.0, abs=1e-10)


def test_infimum_summary_lines_precede_the_report(golden_file, capsys):
    # Without --json the human summary comes first, then the same JSON report.
    assert main(["infimum", golden_file]) == 0
    out = capsys.readouterr().out
    summary, body = out[: out.index("{")], json.loads(out[out.index("{"):])
    value = body["infimum"]["value"]
    assert summary.splitlines() == ["verdict: Finite", f"value: {value!r}"]
    assert value == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_analyze_definite_b_prints_infinite_ends(tmp_path, capsys):
    # B = I leaves each interval unbounded on one side, printed as "-inf" / "inf".
    path = str(tmp_path / "pair.json")
    pt.matcore.save_pair(path, pt.pair_from_arrays(np.diag([1.0, 2.0]), np.eye(2)))
    code, rep = run_json(capsys, ["--json", "analyze", path])
    assert code == 0
    assert rep["is_psd_pair"] and rep["is_nsd_pair"]
    psd, nsd = rep["definiteness"]["psd_interval"], rep["definiteness"]["nsd_interval"]
    assert psd[0] == "-inf" and psd[1] == pytest.approx(1.0, abs=1e-12)
    assert nsd[0] == pytest.approx(2.0, abs=1e-12) and nsd[1] == "inf"


def test_witness_command(tmp_path, capsys):
    path = str(tmp_path / "mixed.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        np.diag([-1.0, -2.0]),
        np.diag([1.0, -1.0]),
    )
    code, rep = run_json(capsys, ["--json", "witness", path])
    assert code == 0
    w = rep["witness"]
    assert w["kind"] == "MixedSignSlope"
    assert w["certification"]["trace"] <= -1e6
    assert w["certification"]["feasibility_residual"] <= 1e-4


def test_witness_tmax_too_small(tmp_path, capsys):
    path = str(tmp_path / "mixed.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        np.diag([-1.0, -2.0]),
        np.diag([1.0, -1.0]),
    )
    assert main(["--json", "witness", path, "--threshold", "-1", "--tmax", "0"]) == 8


@pytest.mark.parametrize("threshold", ["-1e6", "-2.5e3"])
def test_witness_reads_a_negative_threshold_with_an_exponent(tmp_path, capsys, threshold):
    # The plain form, as the usage line shows it, not only "--threshold=-1e6".
    path = str(tmp_path / "mixed.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        np.diag([-1.0, -2.0]),
        np.diag([1.0, -1.0]),
    )
    code, rep = run_json(capsys, ["--json", "witness", path, "--threshold", threshold])
    assert code == 0
    assert rep["witness"]["certification"]["threshold"] == float(threshold)


@pytest.mark.parametrize("flags", [
    ["--threshold", "nan"], ["--threshold=-inf"],
    ["--tmax", "nan"], ["--tmax", "inf"], ["--tmax", "-1"],
])
def test_witness_rejects_bad_bounds(tmp_path, capsys, flags):
    path = str(tmp_path / "mixed.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        np.diag([-1.0, -2.0]),
        np.diag([1.0, -1.0]),
    )
    assert main(["--json", "witness", path, *flags]) == 2
    assert "must be finite" in capsys.readouterr().err


def test_witness_on_finite_problem(golden_file, capsys):
    code, rep = run_json(capsys, ["--json", "witness", golden_file])
    assert code == 0
    assert rep["witness"] is None


def test_verify_golden(golden_file, capsys):
    code, rep = run_json(
        capsys, ["--json", "--seed", "3", "verify", golden_file, "--samples", "200", "--spread", "2.0"]
    )
    assert code == 0
    s = rep["sampling"]
    assert s["lower_bound_ok"] is True
    assert s["min_trace"] >= np.sqrt(2.0) - 1e-6 * (1 + np.sqrt(2.0))


def test_verify_on_neg_infinite(tmp_path, capsys):
    path = str(tmp_path / "mixed.json")
    write_problem(
        path,
        np.diag([1.0, 2.0]),
        np.diag([1.0, -1.0]),
        np.diag([-1.0, -2.0]),
        np.diag([1.0, -1.0]),
    )
    code, rep = run_json(capsys, ["--json", "verify", path, "--samples", "100", "--spread", "2.0"])
    assert code == 0
    assert rep["infimum"]["verdict"] == "NegInfinite"
    assert "min_trace" in rep["sampling"] and "gap" not in rep["sampling"]


def test_verify_seed_reproducible(golden_file, capsys):
    code1 = main(["--json", "--seed", "11", "verify", golden_file, "--samples", "50"])
    out1 = capsys.readouterr().out
    code2 = main(["--json", "--seed", "11", "verify", golden_file, "--samples", "50"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


# min_trace and mean_trace of ``--seed 3 verify golden --samples 200`` from a
# loop of 200 single draws, one feasible point at a time, all from one
# default_rng(3), in the typed frames of the two definite pairs.
@pytest.mark.parametrize(
    "spread, min_trace, mean_trace",
    [("1.0", 1.4364000127024028, 4.198867413168647), ("2.0", 1.502959363690326, 12.552828965555301)],
    ids=["spread-1.0", "spread-2.0"],
)
def test_verify_golden_figures_pinned(golden_file, capsys, spread, min_trace, mean_trace):
    code, rep = run_json(
        capsys, ["--json", "--seed", "3", "verify", golden_file, "--samples", "200", "--spread", spread]
    )
    assert code == 0
    s = rep["sampling"]
    assert s["min_trace"] == pytest.approx(min_trace, rel=1e-12, abs=0)
    assert s["mean_trace"] == pytest.approx(mean_trace, rel=1e-12, abs=0)


def test_verify_output_independent_of_block_split(golden_file, capsys, monkeypatch):
    argv = ["--json", "--seed", "5", "verify", golden_file, "--samples", "10", "--spread", "2.0"]
    code, whole = run_json(capsys, argv)
    assert code == 0
    # Seven 2 x 2 samples per block: the same ten samples split 7 + 3.
    monkeypatch.setattr(cli, "SAMPLE_BLOCK_ENTRIES", 7 * 4)
    code, split = run_json(capsys, argv)
    assert code == 0
    assert split["sampling"] == whole["sampling"]


@pytest.mark.parametrize(
    "make",
    [
        # The equal-inertia problem of order 8 of the order-8 verify budget.
        lambda rng: diag_problem(
            rng.uniform(0.5, 2.0, 4), rng.uniform(-2.0, -0.5, 4),
            rng.uniform(0.5, 2.0, 4), rng.uniform(-2.0, -0.5, 4), scramble=(8, 9),
        ),
        # nhat = 1: the gap's one-row Bhat X^H samples take B sample by sample,
        # while the sampler's and the objective's right factors are one GEMM.
        lambda rng: diag_problem([0.5, 2.0, 3.0], [1.0, 1.5, 2.5], [0.8], [], scramble=(23, 24)),
    ],
    ids=["order_8", "nhat_1"],
)
def test_verify_output_independent_of_block_split_at_larger_shapes(tmp_path, capsys, monkeypatch, make):
    prob = make(np.random.default_rng(8))
    path = str(tmp_path / "problem.json")
    save_problem(path, prob)
    argv = ["--json", "--seed", "5", "verify", path, "--samples", "20", "--spread", "2.0"]
    code, whole = run_json(capsys, argv)
    assert code == 0
    # Blocks of seven samples (7 + 7 + 6), then of one sample each.
    for per_block in (7, 1):
        monkeypatch.setattr(cli, "SAMPLE_BLOCK_ENTRIES", per_block * prob.n**2)
        code, split = run_json(capsys, argv)
        assert code == 0
        assert split["sampling"] == whole["sampling"]


def test_verify_kernel_calls_independent_of_sample_count(golden_file, capsys, monkeypatch):
    # A per-sample loop would make kernel calls in proportion to --samples.
    counts = []
    for samples in ("50", "200"):
        calls = count_eigen_kernels(monkeypatch)
        code = main(["--json", "verify", golden_file, "--samples", samples])
        capsys.readouterr()
        assert code == 0
        counts.append({name: calls.count(name) for name in ("qr", "eigh", "svd")})
        counts[-1]["solves"] = pencil_solves(calls)
        monkeypatch.undo()
    assert counts[0] == counts[1], counts
    # The two pair-route solves make every eigh; the draws make no QR and no
    # eigh, and the residuals no SVD.
    assert counts[0]["qr"] == 0 and counts[0]["eigh"] == counts[0]["solves"] == 2, counts
    assert counts[0]["svd"] == 0, counts


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_bad_sample_count(golden_file, capsys, samples):
    code = main(["verify", golden_file, "--samples", samples])
    err = capsys.readouterr().err
    assert code == 2
    assert "--samples" in err


def test_verify_rejects_negative_seed(golden_file, capsys):
    code = main(["--seed", "-1", "verify", golden_file, "--samples", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "--seed" in err


def test_verify_accepts_seed_beyond_uint32(golden_file, capsys):
    # default_rng draws from any nonnegative integer: sample 0 is its first draw.
    code, rep = run_json(capsys, ["--json", "--seed", str(2**32), "verify", golden_file, "--samples", "1"])
    assert code == 0
    problem = load_problem(golden_file)
    X = FeasibleSampler(problem).sample(1.0, np.random.default_rng(2**32))
    assert rep["sampling"]["min_trace"] == pytest.approx(_objective(problem, X), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "spread, a_scale, b_diag, bh_diag",
    [
        ("nan", 1.0, (1.0, -1.0), (1.0, -1.0)),
        ("inf", 1.0, (1.0, -1.0), (1.0, -1.0)),
        ("-1", 1.0, (1.0, -1.0), (1.0, -1.0)),
        ("1e200", 1.0, (1.0, -1.0), (1.0, -1.0)),
        ("1.7e308", 1.0, (1.0, -1.0), (1.0, -1.0)),
        ("1e120", 1e100, (1.0, -1.0), (1.0, -1.0)),
        ("1e152", 1.0, (1e4, -1e4), (1e-4, -1e4)),
    ],
    ids=["nan", "inf", "-1", "1e200", "draw_overflow", "trace_overflow", "residual_overflow"],
)
def test_verify_rejects_bad_spread(tmp_path, capsys, spread, a_scale, b_diag, bh_diag):
    # Spread 1.7e308 overflows cosh theta + sinh theta in the sampler, and
    # 1e200 draws finite samples whose traces overflow.  With A scaled by
    # 1e100, spread 1e120 draws finite samples whose traces overflow; with B and
    # Bhat scaled apart, spread 1e152 draws finite samples and traces whose
    # constraint gaps overflow.  Each time the report is one line naming the
    # spread, with no numpy warning.
    path = str(tmp_path / "golden.json")
    write_problem(
        path,
        a_scale * np.diag([1.0, 2.0]),
        np.diag(b_diag),
        golden_hat_matrix(),
        np.diag(bh_diag),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", path, "--samples", "5", "--spread", spread])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "spread" in err and err.count("\n") == 1


def test_malformed_seed_variable_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PENCIL_TRACEMIN_SEED", "abc")
    code = main(["infimum", str(tmp_path / "missing.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: PENCIL_TRACEMIN_SEED must be an integer\n"


def test_seed_variable_read_on_every_call(golden_file, capsys, monkeypatch):
    # The parser is built once per process, so the variable must not be its default.
    seeds = []
    for value in ("5", "6"):
        monkeypatch.setenv("PENCIL_TRACEMIN_SEED", value)
        seeds.append(run_json(capsys, ["--json", "infimum", golden_file])[1]["seed"])
    seeds.append(run_json(capsys, ["--json", "--seed", "8", "infimum", golden_file])[1]["seed"])
    monkeypatch.delenv("PENCIL_TRACEMIN_SEED")
    seeds.append(run_json(capsys, ["--json", "infimum", golden_file])[1]["seed"])
    assert seeds == [5, 6, 8, 0]


def test_main_dispatches_through_module_globals(golden_file, monkeypatch):
    # main neither rebuilds the parser nor holds on to the command functions:
    # a wrapper set on cli.cmd_* after import still receives the call.
    calls = []
    monkeypatch.setattr(cli, "build_parser", None)
    monkeypatch.setattr(cli, "cmd_infimum", lambda args: calls.append(args.problem_file) or 0)
    assert main(["infimum", golden_file]) == 0
    assert calls == [golden_file]


def test_infimum_type_count_mismatch_exit_code(golden_file, capsys, monkeypatch):
    # Typed lists longer than the inertia of B allows exit like a kernel
    # failure, with a message instead of a traceback.
    def doubled(*args):
        a = pt.analyze_pair(*args)
        return replace(a, pos_values=np.concatenate([a.pos_values, a.pos_values]))

    monkeypatch.setattr(tracemin, "analyze_pair", doubled)
    code = main(["infimum", golden_file])
    err = capsys.readouterr().err
    assert code == cli.EXIT_KERNEL_FAILURE
    assert err.startswith("error: ") and "typed values" in err


@pytest.mark.parametrize("kernel", ["eigh"], ids=["every_call"])
def test_verify_kernel_failure_exit_code(golden_file, capsys, monkeypatch, kernel):
    # A LAPACK failure in the pencil solves' eigh exits with its own code and
    # a one-line message.
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, kernel, failing)
    code = main(["verify", golden_file, "--samples", "20"])
    err = capsys.readouterr().err
    assert code == 9
    assert err.startswith("error: ") and "did not converge" in err and err.count("\n") == 1


def test_gen_analyze_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "blocks": [
                    {"kind": "Tr", "p": 1, "alpha": 1.0, "eta": 1},
                    {"kind": "Tr", "p": 1, "alpha": -2.0, "eta": -1},
                ],
                "seed": 5,
                "cap": 4.0,
            }
        )
    )
    out_pair = str(tmp_path / "pair.json")
    code, rep = run_json(capsys, ["--json", "gen", str(spec_path), out_pair])
    assert code == 0
    truth = rep["generated"]["truth"]
    assert truth["psd"] is True and truth["nsd"] is False
    # The sidecar is the GroundTruth record, with what JSON cannot hold converted.
    specs = spec_from_json(json.loads(spec_path.read_text()))
    _, record = assemble(specs, scramble_seed=5, conditioning_cap=4.0)
    expected = {
        **asdict(record),
        "inertia_B": list(record.inertia_B.as_tuple()),
        "complex_values": [[z.real, z.imag] for z in record.complex_values],
    }
    with open(out_pair + ".truth.json", encoding="utf-8") as fh:
        assert json.load(fh) == json.loads(json.dumps(expected))

    code, rep = run_json(capsys, ["--json", "analyze", out_pair])
    assert code == 0
    assert rep["definiteness"]["is_psd_pair"] is True
    pos = [e["value"] for e in rep["typed_spectrum"]["pos"]]
    neg = [e["value"] for e in rep["typed_spectrum"]["neg"]]
    np.testing.assert_allclose(pos, truth["pos"], atol=1e-7)
    np.testing.assert_allclose(neg, truth["neg"], atol=1e-7)


def test_gen_rejects_empty_blocks(tmp_path, capsys):
    # No block, no 'blocks' list, or a block without a 'kind'.
    for obj in ({"blocks": []}, {"seed": 1}, {"blocks": [{"p": 1, "alpha": 1.0}]}):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        assert main(["--json", "gen", str(spec_path), str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec,field", [
    ({"seed": "x"}, "seed"),
    ({"cap": "5"}, "cap"),
    ({"cap": float("inf")}, "cap"),
    ({"cap": 10**400}, "cap"),
    ({"cap": 1.0}, "cap"),
    ({"blocks": [{"kind": "Tr", "p": 2.5, "alpha": 1.0, "eta": 1}]}, "p"),
    ({"blocks": [{"kind": "Tr", "p": 1, "alpha": 1e400, "eta": 1}]}, "alpha"),
    ({"blocks": [{"kind": "Tc", "p": 1, "alpha": 1.0, "beta": 1e400}]}, "beta"),
    ({"blocks": [{"kind": "Tr", "p": 1, "alpha": True, "eta": True}]}, "alpha"),
    ({"blocks": [{"kind": "Tr", "p": 1, "alpha": 1.0, "eta": 1.0}]}, "eta"),
], ids=["seed", "cap", "infinite-cap", "huge-int-cap", "unit-cap", "p", "infinite-alpha",
        "infinite-beta", "bool-alpha-eta", "float-eta"])
def test_gen_rejects_malformed_spec(tmp_path, capsys, spec, field):
    # 1e400 is written as Infinity; json reads either as inf.
    obj = {"blocks": [{"kind": "Tr", "p": 1, "alpha": 1.0, "eta": 1}], **spec}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    assert main(["--json", "gen", str(spec_path), str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "minimize", "gen"])
def test_directory_path_is_bad_input(tmp_path, golden_file, capsys, command):
    # A directory given as an input or an output file exits 2 with one error
    # line, not a traceback.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"blocks": [{"kind": "Tr", "p": 1, "alpha": 1.0, "eta": 1}]}))
    argv = {
        "analyze": ["analyze", str(tmp_path)],
        "minimize": ["minimize", golden_file, str(tmp_path)],
        "gen": ["gen", str(spec_path), str(tmp_path) + os.sep],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_tolerance_flag_override(golden_file, capsys):
    code, rep = run_json(capsys, ["--json", "--tol-psd", "1e-6", "infimum", golden_file])
    assert code == 0
    assert rep["tolerances"]["psd_tol"] == 1e-6
    assert rep["tolerances"]["rank_tol"] == 1e-10


def test_tolerance_defaults_are_the_tolerance_set(golden_file, capsys):
    code, rep = run_json(capsys, ["--json", "infimum", golden_file])
    assert code == 0
    assert rep["tolerances"] == asdict(pt.ToleranceSet())


def test_feas_tol_is_a_constant_not_a_tolerance(golden_file, capsys):
    # No library code reads feas_tol; the benchmark harness reads its value.
    assert pt.ToleranceSet().feas_tol == 1e-8
    with pytest.raises(TypeError):
        pt.ToleranceSet(feas_tol=1.0)
    with pytest.raises(SystemExit) as exc:
        main(["--tol-feas", "1e-8", "infimum", golden_file])
    assert exc.value.code == 2


def test_minimize_excluded_constant(tmp_path, capsys):
    # A = 2B: any feasible point achieves the constant objective.
    path = str(tmp_path / "excluded.json")
    write_problem(
        path,
        2.0 * np.diag([1.0, -1.0]),
        np.diag([1.0, -1.0]),
        np.diag([3.0, 1.0]),
        np.diag([1.0, -1.0]),
    )
    out = str(tmp_path / "x.json")
    code, rep = run_json(capsys, ["--json", "minimize", path, out])
    assert code == 0
    assert rep["infimum"]["verdict"] == "ExcludedConstant"
    assert set(rep["infimum"]["excluded"]) == {f.name for f in fields(ExcludedCase)}
    assert rep["minimizer"]["achieved"] == pytest.approx(4.0, abs=1e-9)
    assert rep["minimizer"]["feasibility_residual"] <= 1e-8


def test_import_loads_numpy_only():
    # In a fresh interpreter, so modules other tests imported cannot mask a
    # load: importing the package and its command line adds no third-party
    # package but numpy (the site hooks load theirs before).
    code = (
        "import sys\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "import pencil_tracemin, pencil_tracemin.cli\n"
        "added = {m.split('.')[0] for m in sys.modules} - before\n"
        "print(sorted(added - set(sys.stdlib_module_names)))\n"
    )
    src = os.path.join(os.path.dirname(pt.__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "['numpy', 'pencil_tracemin']"

import json
from dataclasses import asdict

import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin import cli
from pencil_tracemin.cli import main
from pencil_tracemin.matcore import matrix_to_json, save_problem

from conftest import count_eigen_kernels, golden_hat_matrix


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
    assert rep["typed_spectrum"]["pos"][0]["value"] == pytest.approx(1.0, abs=1e-9)
    assert rep["typed_spectrum"]["neg"][0]["value"] == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize(
    "B", [np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 0.0, -2.0])], ids=["nonsingular", "singular"]
)
def test_analyze_solves_the_pencil_once(tmp_path, capsys, monkeypatch, B):
    # The typed spectrum and the definiteness block come from one analysis.
    path = str(tmp_path / "pair.json")
    pair, _ = pt.random_congruence(pt.pair_from_arrays(np.diag([1.0, 3.0, -1.0]), B), 2, 4.0)
    pt.matcore.save_pair(path, pair)
    calls = count_eigen_kernels(monkeypatch)
    code, rep = run_json(capsys, ["--json", "analyze", path])
    assert code == 0
    assert calls.count("eig") == 1, calls
    assert rep["is_psd_pair"] == rep["definiteness"]["is_psd_pair"]
    assert len(rep["typed_spectrum"]["pos"]) + len(rep["typed_spectrum"]["neg"]) == int(
        np.sum(np.diag(B) != 0)
    )


def test_minimize_solves_each_pencil_once(golden_file, tmp_path, capsys, monkeypatch):
    # The minimizer reads the frames of the infimum result the report prints.
    calls = count_eigen_kernels(monkeypatch)
    code, _ = run_json(capsys, ["--json", "minimize", golden_file, str(tmp_path / "x.json")])
    assert code == 0
    assert calls.count("eig") == 2, calls


def test_analyze_jordan_pair(tmp_path, capsys):
    path = str(tmp_path / "pair.json")
    pair = pt.pair_from_arrays(
        np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    pt.matcore.save_pair(path, pair)
    code, rep = run_json(capsys, ["--json", "analyze", path])
    assert code == 0
    assert rep["definiteness"]["is_psd_pair"] is True
    assert rep["typed_spectrum"]["pos"][0]["jordan_pair"] is True
    assert rep["typed_spectrum"]["pos"][0]["value"] == pytest.approx(0.0, abs=1e-7)


def test_analyze_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"A": {"n": 1, "entries": [1.0]}, "B": {"n": 1, "entries": [[1.0, 0.0]]}}',
        '[1, 2]',
    ],
)
def test_analyze_malformed_matrix_object(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 2
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


# min_trace and mean_trace of ``--seed 3 verify golden --samples 200`` from the
# per-sample loop that drew one feasible point at a time.
@pytest.mark.parametrize(
    "spread, min_trace, mean_trace",
    [("1.0", 1.419652231073079, 5.333841541430911), ("2.0", 1.5029378449122741, 16.3300745438639)],
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


def test_verify_kernel_calls_independent_of_sample_count(golden_file, capsys, monkeypatch):
    # A per-sample loop would make kernel calls in proportion to --samples.
    counts = []
    for samples in ("50", "200"):
        calls = count_eigen_kernels(monkeypatch)
        code = main(["--json", "verify", golden_file, "--samples", samples])
        capsys.readouterr()
        assert code == 0
        counts.append({name: calls.count(name) for name in ("qr", "eigh", "svd")})
        monkeypatch.undo()
    assert counts[0] == counts[1], counts
    assert counts[0]["qr"] == 2, counts


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_bad_sample_count(golden_file, capsys, samples):
    code = main(["verify", golden_file, "--samples", samples])
    err = capsys.readouterr().err
    assert code == 2
    assert "--samples" in err


@pytest.mark.parametrize("stacked_only", [True, False], ids=["sampler", "every_call"])
def test_verify_kernel_failure_exit_code(golden_file, capsys, monkeypatch, stacked_only):
    # A LAPACK failure exits with its own code and a one-line message.
    eigh = np.linalg.eigh

    def failing(a, *args, **kwargs):
        if stacked_only and np.ndim(a) < 3:
            return eigh(a, *args, **kwargs)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    code = main(["verify", golden_file, "--samples", "20"])
    err = capsys.readouterr().err
    assert code == 9
    assert err.startswith("error: ") and "did not converge" in err


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

    code, rep = run_json(capsys, ["--json", "analyze", out_pair])
    assert code == 0
    assert rep["definiteness"]["is_psd_pair"] is True
    pos = [e["value"] for e in rep["typed_spectrum"]["pos"]]
    neg = [e["value"] for e in rep["typed_spectrum"]["neg"]]
    np.testing.assert_allclose(pos, truth["pos"], atol=1e-7)
    np.testing.assert_allclose(neg, truth["neg"], atol=1e-7)


def test_gen_rejects_empty_blocks(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"blocks": []}))
    assert main(["--json", "gen", str(spec_path), str(tmp_path / "o.json")]) == 2


def test_tolerance_flag_override(golden_file, capsys):
    code, rep = run_json(capsys, ["--json", "--tol-psd", "1e-6", "infimum", golden_file])
    assert code == 0
    assert rep["tolerances"]["psd_tol"] == 1e-6
    assert rep["tolerances"]["rank_tol"] == 1e-10


def test_tolerance_defaults_are_the_tolerance_set(golden_file, capsys):
    code, rep = run_json(capsys, ["--json", "infimum", golden_file])
    assert code == 0
    assert rep["tolerances"] == asdict(pt.ToleranceSet())


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
    assert rep["minimizer"]["achieved"] == pytest.approx(4.0, abs=1e-9)
    assert rep["minimizer"]["feasibility_residual"] <= 1e-8

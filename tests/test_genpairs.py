import numpy as np
import pytest

import pencil_tracemin as pt
from pencil_tracemin.errors import InvalidSpecError
from pencil_tracemin.genpairs import (
    BlockSpec,
    F_block,
    K_block,
    _block_b_inertia,
    _truth,
    assemble,
    block,
    spec_from_json,
)
from pencil_tracemin.spectral import INF_COUPLED, analyze_pair


def test_templates():
    np.testing.assert_array_equal(K_block(2, 0.3), [[0.0, 0.3], [0.3, 1.0]])
    np.testing.assert_array_equal(F_block(3), [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    # K_block: tau where i + j = p - 1, one where i + j = p, zero elsewhere.
    for p in (1, 3, 5):
        i, j = np.indices((p, p))
        for tau in (-0.7, 0.4 - 1.5j):
            K = K_block(p, tau)
            assert K.dtype == complex
            np.testing.assert_array_equal(
                K, np.where(i + j == p - 1, tau, np.where(i + j == p, 1.0, 0.0))
            )


def test_block_tr1():
    pair = block(BlockSpec("Tr", p=1, alpha=3.0, eta=1))
    np.testing.assert_array_equal(pair.A.entries, [[3.0]])
    np.testing.assert_array_equal(pair.B.entries, [[1.0]])


def test_block_tc1():
    pair = block(BlockSpec("Tc", p=1, alpha=0.0, beta=1.0))
    np.testing.assert_array_equal(pair.A.entries, [[0.0, 1j], [-1j, 0.0]])
    np.testing.assert_array_equal(pair.B.entries, [[0.0, 1.0], [1.0, 0.0]])


def test_block_tinf1():
    pair = block(BlockSpec("Tinf", p=1, eta=1))
    np.testing.assert_array_equal(pair.A.entries, [[1.0]])
    np.testing.assert_array_equal(pair.B.entries, [[0.0]])


def test_block_tc2_eigenvalues():
    # Tc with p = 2 carries the conjugate pair alpha +- i beta, each twice.
    pair = block(BlockSpec("Tc", p=2, alpha=0.5, beta=1.5))
    w = np.linalg.eigvals(np.linalg.solve(pair.B.entries, pair.A.entries))
    expected = [0.5 - 1.5j, 0.5 - 1.5j, 0.5 + 1.5j, 0.5 + 1.5j]
    # A double eigenvalue of a Jordan block is perturbed by about sqrt(eps).
    np.testing.assert_allclose(np.sort_complex(w), expected, atol=1e-6)


def test_assemble_two_tr_blocks():
    pair, truth = assemble(
        [BlockSpec("Tr", p=1, alpha=1.0, eta=1), BlockSpec("Tr", p=1, alpha=-2.0, eta=-1)],
        scramble_seed=5,
    )
    assert truth.pos == (1.0,)
    assert truth.neg == (-2.0,)
    assert truth.psd and not truth.nsd
    assert truth.inertia_B.as_tuple() == (1, 0, 1)
    spec = analyze_pair(pair)
    np.testing.assert_allclose(spec.pos_values, [1.0], rtol=1e-8)
    np.testing.assert_allclose(spec.neg_values, [-2.0], rtol=1e-8)


def test_assemble_jordan_block():
    _, truth = assemble([BlockSpec("Tr", p=2, alpha=0.4, eta=1)], scramble_seed=1, conditioning_cap=2.0)
    assert truth.psd and not truth.nsd
    assert not truth.diagonalizable
    assert truth.jordan_values == (0.4,)


def test_assemble_tc_not_semidefinite():
    _, truth = assemble([BlockSpec("Tc", p=1, alpha=0.0, beta=1.0)], scramble_seed=2)
    assert not truth.psd and not truth.nsd
    assert truth.diagonalizable


def test_inertia_additivity():
    rng = np.random.default_rng(10)
    kinds = [
        BlockSpec("Tr", p=1, alpha=2.0, eta=1),
        BlockSpec("Tr", p=2, alpha=-1.0, eta=-1),
        BlockSpec("Tinf", p=1, eta=1),
        BlockSpec("Tc", p=1, alpha=0.3, beta=0.8),
        BlockSpec("Ts", p=1),
        BlockSpec("To",),
    ]
    pair, truth = assemble(kinds, scramble_seed=9, conditioning_cap=3.0)
    assert pt.inertia(pair.B).as_tuple() == truth.inertia_B.as_tuple()



@pytest.mark.parametrize("kind", ["To", "Ts", "Tinf", "Tc", "Tr"])
def test_block_b_inertia_is_the_inertia_of_the_canonical_b(kind):
    for p in range(1, 6):
        for eta in (1, -1):
            spec = BlockSpec(kind, p=p, alpha=0.5, beta=1.0, eta=eta)
            assert _block_b_inertia(spec) == pt.inertia(block(spec).B).as_tuple(), spec


def _tr(p, eta, alpha):
    return BlockSpec("Tr", p=p, alpha=alpha, eta=eta)


# Derived by hand from the two rules: a Tr block's p copies of alpha carry the
# types of eta * F_p, and a side holds when no block rules it out and
# max(neg) <= min(pos) (psd) or max(pos) <= min(neg) (nsd).
_A, _B = 0.5, 0.2
EDGE_CASES = [
    # specs, pos, neg, jordan_values, psd, nsd, diagonalizable, coupled
    ([_tr(1, 1, _A), _tr(1, -1, _A)], (_A,), (_A,), (), True, True, True, False),
    ([_tr(2, 1, _A)], (_A,), (_A,), (_A,), True, False, False, False),
    ([_tr(2, -1, _A)], (_A,), (_A,), (_A,), False, True, False, False),
    ([_tr(2, 1, _A), _tr(1, 1, _B)], (_B, _A), (_A,), (_A,), False, False, False, False),
    ([_tr(2, -1, _A), _tr(1, 1, _B)], (_B, _A), (_A,), (_A,), False, True, False, False),
    ([_tr(3, 1, _A)], (_A, _A), (_A,), (), False, False, False, False),
    ([_tr(3, -1, _A)], (_A,), (_A, _A), (), False, False, False, False),
    ([BlockSpec("Tinf", eta=1), _tr(1, 1, _A)], (_A,), (), (), True, False, True, False),
    ([BlockSpec("Tinf", eta=-1), _tr(1, 1, _A)], (_A,), (), (), False, True, True, False),
    ([BlockSpec("Tinf", p=2)], (), (), (), False, False, False, True),
    ([BlockSpec("Ts")], (), (), (), False, False, False, True),
    ([BlockSpec("Tc", alpha=_A, beta=1.0)], (), (), (), False, False, True, False),
    ([BlockSpec("Tc", p=2, alpha=_A, beta=1.0)], (), (), (), False, False, False, False),
    ([BlockSpec("To")], (), (), (), True, True, True, False),
]


@pytest.mark.parametrize("specs, pos, neg, jordan, psd, nsd, diag, coupled", EDGE_CASES)
def test_truth_at_the_edges_of_the_semidefinite_interval(
    specs, pos, neg, jordan, psd, nsd, diag, coupled
):
    truth = _truth(specs)
    assert (truth.pos, truth.neg, truth.jordan_values) == (pos, neg, jordan)
    assert (truth.psd, truth.nsd) == (psd, nsd)
    assert (truth.diagonalizable, truth.coupled) == (diag, coupled)

def test_invalid_specs():
    with pytest.raises(InvalidSpecError):
        BlockSpec("Tq")
    with pytest.raises(InvalidSpecError):
        BlockSpec("Tc", p=1, alpha=0.0, beta=0.0)
    with pytest.raises(InvalidSpecError):
        BlockSpec("Tr", p=0)
    with pytest.raises(InvalidSpecError):
        assemble([])
    with pytest.raises(InvalidSpecError):
        spec_from_json({"blocks": []})


def test_spec_whose_kind_fails_its_own_comparison_is_invalid():
    # A numpy array as kind makes the membership test of BlockSpec raise
    # ValueError (an array's truth value is ambiguous), which spec_from_json
    # reports as InvalidSpecError.
    with pytest.raises(InvalidSpecError, match="truth value"):
        spec_from_json({"blocks": [{"kind": np.array(["Tr", "Tc"])}]})


def _random_specs(rng, max_order=10, semidefinite_bias=False):
    specs = []
    order = 0
    shift = float(rng.uniform(-1.0, 1.0))
    while order < 2 or (order < max_order and rng.random() < 0.7):
        room = max_order - order
        choices = ["Tr1"]
        if room >= 2:
            choices += ["Tr2", "Tc1", "To+Tr1"]
        if room >= 3:
            choices += ["Ts1", "Tinf2"]
        choices += ["Tinf1"]
        kind = rng.choice(choices)
        if semidefinite_bias and kind in ("Tc1", "Ts1", "Tinf2"):
            kind = "Tr1"
        if kind == "Tr1":
            eta = 1 if rng.random() < 0.5 else -1
            off = float(rng.uniform(0.1, 2.0))
            alpha = shift + off if eta > 0 else shift - off
            specs.append(BlockSpec("Tr", p=1, alpha=alpha, eta=eta))
            order += 1
        elif kind == "Tr2":
            specs.append(BlockSpec("Tr", p=2, alpha=shift, eta=1))
            order += 2
        elif kind == "Tc1":
            specs.append(BlockSpec("Tc", p=1, alpha=float(rng.uniform(-1, 1)), beta=float(rng.uniform(0.3, 1.5))))
            order += 2
        elif kind == "To+Tr1":
            specs.append(BlockSpec("To"))
            specs.append(BlockSpec("Tr", p=1, alpha=shift + 1.0, eta=1))
            order += 2
        elif kind == "Ts1":
            specs.append(BlockSpec("Ts", p=1))
            order += 3
        elif kind == "Tinf2":
            specs.append(BlockSpec("Tinf", p=2, eta=1 if rng.random() < 0.5 else -1))
            order += 2
        else:
            specs.append(BlockSpec("Tinf", p=1, eta=1 if rng.random() < 0.5 else -1))
            order += 1
    return specs


def test_analyzer_agreement_random_assemblies():
    # Generated pencils must match the analyzers: inertia, definiteness,
    # typed values (when the structure admits clean values), chained flag.
    rng = np.random.default_rng(77)
    checked_values = 0
    for trial in range(200):
        specs = _random_specs(rng)
        cap = 2.5 if any(s.kind == "Tr" and s.p == 2 for s in specs) else 6.0
        pair, truth = assemble(specs, scramble_seed=trial, conditioning_cap=cap)
        assert pt.inertia(pair.B).as_tuple() == truth.inertia_B.as_tuple()

        spec = analyze_pair(pair)
        verdict = pt.analysis_definiteness(spec)
        assert verdict.is_psd_pair == truth.psd, f"psd mismatch: {specs}"
        assert verdict.is_nsd_pair == truth.nsd, f"nsd mismatch: {specs}"

        if truth.coupled:
            assert spec.infinite_sign == INF_COUPLED
            continue
        if truth.complex_values:
            key = lambda z: (round(z.real, 6), round(z.imag, 6))
            got = sorted(spec.complex_values, key=key)
            want = sorted(truth.complex_values, key=key)
            assert len(got) == len(want)
            np.testing.assert_allclose(got, want, atol=1e-6)
        if truth.diagonalizable or truth.jordan_values:
            np.testing.assert_allclose(
                spec.pos_values, truth.pos, atol=1e-7 * (1 + np.max(np.abs(truth.pos or [0.0])))
            )
            np.testing.assert_allclose(
                spec.neg_values, truth.neg, atol=1e-7 * (1 + np.max(np.abs(truth.neg or [0.0])))
            )
            checked_values += 1
    assert checked_values >= 50

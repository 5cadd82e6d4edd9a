"""Seeded workloads: instance generators, the operation chain, and independent checks.

Each workload builds a pool of instances from the run seed: ``weights`` gives
how many instances of each order the pool holds, interleaved so that large
orders are spread over the pass.  A timed run times every instance of the
pool, so every run measures the stated mix exactly.  Pools hold at least 100
instances, so that ten or more lie beyond the p90 latency.

The mixes follow one rule.  README.md's metric table says which layer each
latency percentile should show, and at which order that layer weighs most:
``p50_key`` and ``p90_key`` name the order whose group must hold that
percentile.  Latency grows with the order,
so a pool sorted by latency is sorted by order, and ``percentile_margins``
gives how many operations lie between each percentile's rank and the edges
of its group.  Every listed mix keeps at least one on each side, so both
ranks the percentile interpolates between lie in the group
(``test_mixes_put_percentiles_inside_their_groups``); each run prints the
order found at p50 and p90 and each order's share of service time, so the
rule can be checked against measurement.

An operation is split in two: ``run`` is the timed call chain into the
library, ``check`` verifies its output against values known from the
construction and returns ``None`` or a one-line reason.  An exception raised
by ``run`` that the operation's contract does not allow counts as failed; a
returned answer that fails ``check`` counts as wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

THRESHOLD = -1e6  # certification target of a divergent family
T_MAX = 1e4
WITNESS_RESIDUAL = 1e-4  # feasibility bound on a certified witness
VALUE_RTOL = 1e-10  # closed form against the sorted-product reference
OBJECTIVE_RTOL = 1e-9  # minimizer objective against the reported value


def order_keys(weights):
    """Pool order: each key repeated weight times, spread evenly over the pass."""
    slots = [((k + 0.5) / w, str(key), key) for key, w in weights for k in range(w)]
    return [key for _, _, key in sorted(slots, key=lambda s: s[:2])]


def _typed_pair(lib, rng, pos, neg, cap):
    """Pair in a scrambled diagonal typed frame.

    A positive-type eigenvalue v sits on a +1 entry of B; a negative-type
    eigenvalue v sits as -v on a -1 entry, so that A x = v B x with x^H B x < 0.
    """
    pos, neg = np.asarray(pos, float), np.asarray(neg, float)
    A = np.diag(np.concatenate([pos, -neg])).astype(complex)
    B = np.diag(np.concatenate([np.ones(pos.size), -np.ones(neg.size)])).astype(complex)
    pair, _ = lib.pt.random_congruence(
        lib.pt.pair_from_arrays(A, B), int(rng.integers(2**32)), cap
    )
    return pair


def _fan(hat, big):
    """min over type-preserving alignments: descending hat list against ascending list."""
    hat = np.concatenate([np.asarray(hat, float), np.zeros(len(big) - len(hat))])
    return float(np.sort(hat)[::-1] @ np.sort(np.asarray(big, float)))


def sorted_product_value(big_pos, big_neg, hat_pos, hat_neg):
    """Closed-form infimum of a proper semidefinite problem, hat lists zero-padded."""
    return _fan(hat_pos, big_pos) + _fan(hat_neg, big_neg)


def _objective(problem, X):
    A, Ah = problem.pair.A.entries, problem.hat_pair.A.entries
    return float(np.real(np.trace(Ah @ X.conj().T @ A @ X)))


def _residual(problem, X):
    B, Bh = problem.pair.B.entries, problem.hat_pair.B.entries
    G = Bh @ X.conj().T @ B @ X - np.eye(problem.nhat)
    return float(np.max(np.linalg.svd(G, compute_uv=False)))


def _close(a, b, rtol, scale):
    return abs(a - b) <= rtol * (1.0 + abs(scale))


def _check_value(value, ref):
    if value is None or not _close(value, ref, VALUE_RTOL, ref):
        return f"value {value!r} != reference {ref!r}"
    return None


def _check_minimizer(problem, value, X):
    obj = _objective(problem, X)
    if not _close(obj, value, OBJECTIVE_RTOL, value):
        return f"minimizer objective {obj!r} != value {value!r}"
    res = _residual(problem, X)
    if not res <= problem.tolerances.feas_tol:
        return f"minimizer feasibility residual {res:.3e}"
    return None


def _check_witness(lib, problem, cert, family):
    X, _ = lib.witness.evaluate_witness(family, cert.t)
    trace, res = _objective(problem, X), _residual(problem, X)
    if not trace <= THRESHOLD:
        return f"witness trace {trace!r} above {THRESHOLD}"
    if not res <= WITNESS_RESIDUAL:
        return f"witness feasibility residual {res:.3e}"
    return None


def percentile_margins(weights, key, fraction):
    """Operations between the ``fraction`` percentile's rank and the edges of ``key``'s group.

    The pool is taken as sorted by order, in the order ``weights`` lists them.
    The rank is the 0-based position ``(N + 1) * fraction - 1`` that
    ``statistics.quantiles`` interpolates at.
    """
    rank = (sum(w for _, w in weights) + 1) * fraction - 1
    start = 0
    for k, w in weights:
        if k == key:
            return rank - start, start + w - 1 - rank
        start += w
    raise KeyError(key)


class Workload:
    name = ""
    why = ""
    weights = ()  # ((order key, instances in the pool), ...), ascending order
    p50_key = p90_key = None  # order whose group should hold each percentile
    allowed = ()  # exception type names the operation's contract allows

    def build(self, lib, seed, workdir):
        """The instance pool, from the seed alone.

        ``instance`` receives the order key, how many instances of that key
        came before (variants alternate on it) and a file path it may write.
        """
        rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        seen = {}
        pool = []
        for pos, key in enumerate(order_keys(self.weights)):
            k = seen[key] = seen.get(key, -1) + 1
            path = os.path.join(workdir, f"{self.name}-{pos:04d}.json")
            pool.append(self.instance(lib, rng, key, k, path))
        return pool

    def instance(self, lib, rng, key, k, path):
        raise NotImplementedError

    def run(self, lib, inst):
        raise NotImplementedError

    def check(self, lib, inst, out):
        raise NotImplementedError


class SemidefSolve(Workload):
    name = "semidef-solve"
    why = ("finite proper problems, orders 6/20/50/100 at 60:24:14:2 so p50 is Python-bound "
           "(n=6) and p90 LAPACK-bound (n=50); infimum then minimizer")
    # p50 at n=6, where Python overhead and repeated decompositions cost most;
    # p90 at n=50, where the definiteness search's eigvalsh calls are LAPACK-bound.
    # An n=100 operation costs about four n=50 ones; two keep that order in
    # every pass at about a third of the pass's service time.
    weights = ((6, 60), (20, 24), (50, 14), (100, 2))
    p50_key, p90_key = 6, 50

    def instance(self, lib, rng, n, k, path):
        npl, nmi = n // 2, n - n // 2
        shift = rng.uniform(-1.0, 1.0)
        bp = shift + rng.uniform(0.1, 3.0, npl)
        bn = shift + rng.uniform(-3.0, -0.1, nmi)
        if k % 2 == 0:  # case i: nhat = n, equal inertia
            hshift = rng.uniform(-1.0, 1.0)
            hp = hshift + rng.uniform(0.1, 2.0, npl)
            hn = hshift + rng.uniform(-2.0, -0.1, nmi)
        else:  # case iv: both inertias strictly smaller, semidefinite hat matrix
            hp = rng.uniform(0.05, 2.0, (npl + 1) // 2)
            hn = rng.uniform(-2.0, -0.05, (nmi + 1) // 2)
        problem = lib.pt.ProblemInstance(
            pair=_typed_pair(lib, rng, bp, bn, 6.0),
            hat_pair=_typed_pair(lib, rng, hp, hn, 6.0),
        )
        return problem, sorted_product_value(bp, bn, hp, hn)

    def run(self, lib, inst):
        problem, _ = inst
        res = lib.pt.infimum(problem)
        X, _ = lib.pt.minimizer(problem)
        return res, X

    def check(self, lib, inst, out):
        problem, ref = inst
        res, X = out
        if res.verdict != "Finite":
            return f"verdict {res.verdict} ({res.reason})"
        return _check_value(res.value, ref) or _check_minimizer(problem, res.value, X)


class DivergeCertify(Workload):
    name = "diverge-certify"
    why = ("mixed-sign NegInfinite problems, orders 20/40/80 at 68:20:12 so p90 is at n=80, "
           "where build_witness is ~30% of an operation; infimum, witness, certify")
    # p50 at n=20, where infimum (the definiteness search) is ~85 % of an
    # operation; p90 at n=80, where build_witness's gap search is ~30 %.
    weights = ((20, 68), (40, 20), (80, 12))
    p50_key, p90_key = 20, 80

    def instance(self, lib, rng, n, k, path):
        npl, nmi = n // 2, n - n // 2
        bp = rng.uniform(0.5, 2.0, npl)
        bn = rng.uniform(-2.0, -0.5, nmi)
        # Hat typed values of the opposing sign: the hat pair is NSD, the big pair PSD.
        hp = -rng.uniform(0.5, 2.0, npl)
        hn = rng.uniform(0.5, 2.0, nmi)
        return lib.pt.ProblemInstance(
            pair=_typed_pair(lib, rng, bp, bn, 6.0),
            hat_pair=_typed_pair(lib, rng, hp, hn, 6.0),
        )

    def run(self, lib, problem):
        res = lib.pt.infimum(problem)
        family = lib.pt.build_witness(problem, res)
        cert = lib.pt.certify_unbounded(family, THRESHOLD, T_MAX)
        return res, family, cert

    def check(self, lib, problem, out):
        res, family, cert = out
        if res.verdict != "NegInfinite":
            return f"verdict {res.verdict}"
        return _check_witness(lib, problem, cert, family)


class SampleVerify(Workload):
    name = "sample-verify"
    why = ("cli verify on equal-inertia problem files, orders 2/4/6/8 at 25 each, "
           "200 samples each; feasible sampling dominates, one infimum per operation")
    # Every order draws the same 200 samples, so no order is favoured: equal counts.
    weights = ((2, 25), (4, 25), (6, 25), (8, 25))
    samples = 200

    def instance(self, lib, rng, n, k, path):
        npl, nmi = n // 2, n - n // 2
        shift, hshift = rng.uniform(-1.0, 1.0, 2)
        bp = shift + rng.uniform(0.1, 3.0, npl)
        bn = shift + rng.uniform(-3.0, -0.1, nmi)
        hp = hshift + rng.uniform(0.1, 2.0, npl)
        hn = hshift + rng.uniform(-2.0, -0.1, nmi)
        problem = lib.pt.ProblemInstance(
            pair=self._assembled(lib, rng, bp, bn), hat_pair=self._assembled(lib, rng, hp, hn)
        )
        lib.matcore.save_problem(path, problem)
        return path, int(rng.integers(2**31)), sorted_product_value(bp, bn, hp, hn)

    @staticmethod
    def _assembled(lib, rng, pos, neg):
        """The same typed frame, built from Tr(1) canonical blocks by genpairs."""
        specs = [lib.genpairs.BlockSpec("Tr", p=1, alpha=float(v), eta=1) for v in pos]
        specs += [lib.genpairs.BlockSpec("Tr", p=1, alpha=float(v), eta=-1) for v in neg]
        pair, _ = lib.genpairs.assemble(specs, int(rng.integers(2**32)), 6.0)
        return pair

    def run(self, lib, inst):
        path, sample_seed, _ = inst
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(["--json", "--seed", str(sample_seed), "verify", path,
                                 "--samples", str(self.samples), "--spread", "2"])
        return code, buf.getvalue()

    def check(self, lib, inst, out):
        _, _, ref = inst
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report["sampling"].get("lower_bound_ok") is not True:
            return f"sampled trace below the value: {report['sampling']}"
        return _check_value(report["infimum"]["value"], ref)


class StructureMix(Workload):
    name = "structure-mix"
    why = ("genpairs assemblies of order <= 10 with random compatible hat pairs; "
           "every structure branch, Python-overhead bound")
    weights = (("assembly", 400),)
    allowed = ("EmptyFeasibleSetError",)

    def instance(self, lib, rng, key, k, path):
        ib = None
        while ib is None or ib.rank == 0:  # B = 0 admits no hat pair at all
            specs = self._specs(lib, rng)
            cap = 2.5 if any(s.kind == "Tr" and s.p == 2 for s in specs) else 5.0
            pair, truth = lib.genpairs.assemble(specs, int(rng.integers(2**32)), cap)
            ib = truth.inertia_B
        hpl = hmi = 0
        while hpl + hmi == 0:
            hpl = int(rng.integers(0, ib.n_plus + 1))
            hmi = int(rng.integers(0, ib.n_minus + 1))
        hp = np.sort(rng.uniform(-1.5, 1.5, hpl))
        hn = np.sort(rng.uniform(-1.5, 1.5, hmi))
        hat = _typed_pair(lib, rng, hp, hn, 5.0)
        return lib.pt.ProblemInstance(pair=pair, hat_pair=hat), truth

    @staticmethod
    def _specs(lib, rng, max_order=10):
        """Random direct sum of canonical blocks, as in the full-generality criterion."""
        Spec = lib.genpairs.BlockSpec
        sign = lambda: 1 if rng.random() < 0.5 else -1
        specs, order = [], 0
        shift = float(rng.uniform(-1.0, 1.0))
        while order < 1 or (order < max_order and rng.random() < 0.75):
            room = max_order - order
            choices = ["Tr1", "Tr1", "Tr1", "Tinf1"]
            if room >= 2:
                choices += ["Tr2", "Tc1", "Tinf2", "To+Tr1"]
            if room >= 3:
                choices += ["Ts1"]
            kind = choices[int(rng.integers(len(choices)))]
            if kind == "Tr1":
                eta = sign()
                specs.append(Spec("Tr", p=1, alpha=shift + eta * float(rng.uniform(0.1, 2.0)), eta=eta))
                order += 1
            elif kind == "Tr2":
                specs.append(Spec("Tr", p=2, alpha=shift, eta=sign()))
                order += 2
            elif kind == "Tc1":
                specs.append(Spec("Tc", p=1, alpha=float(rng.uniform(-1, 1)),
                                  beta=float(rng.uniform(0.3, 1.5))))
                order += 2
            elif kind == "Tinf2":
                specs.append(Spec("Tinf", p=2, eta=sign()))
                order += 2
            elif kind == "To+Tr1":
                specs += [Spec("To"), Spec("Tr", p=1, alpha=shift + 1.0, eta=1)]
                order += 2
            elif kind == "Ts1":
                specs.append(Spec("Ts", p=1))
                order += 3
            else:
                specs.append(Spec("Tinf", p=1, eta=sign()))
                order += 1
        return specs

    def run(self, lib, inst):
        problem, _ = inst
        res = lib.pt.infimum(problem)
        if res.verdict == "Finite" and res.attainable == "Yes":
            return res, lib.pt.minimizer(problem)[0]
        if res.verdict == "NegInfinite":
            family = lib.pt.build_witness(problem, res)
            return res, (family, lib.pt.certify_unbounded(family, THRESHOLD, T_MAX))
        return res, None

    def check(self, lib, inst, out):
        problem, truth = inst
        res, extra = out
        if res.verdict == "Finite":
            if not (truth.psd or truth.nsd):
                return "Finite verdict on a pair that is not semidefinite"
            if extra is not None:
                return _check_minimizer(problem, res.value, extra)
        elif res.verdict == "NegInfinite":
            family, cert = extra
            return _check_witness(lib, problem, cert, family)
        return None


WORKLOADS = {w.name: w for w in (SemidefSolve(), DivergeCertify(), SampleVerify(), StructureMix())}

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and runtime budget is asserted here at
its stated value.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from cubekern import embedding, harness, kernels, learners, scheme
from cubekern.kernels import HypercubePoint
from cubekern.learners import ABSOLUTE, HINGE
from cubekern.scheme import BetaCoeffs, LayerParams


class _Criterion:
    def __init__(self, number, description, budget_seconds):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, passed, detail=""):
        elapsed = time.perf_counter() - self.start
        tag = "PASS" if passed else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        print(f"[{tag}] criterion {self.number}: {self.description} ({elapsed:.1f}s){suffix}")
        assert passed, f"criterion {self.number} failed{suffix}"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget ({elapsed:.1f}s)"
        )


def test_criterion_1_vertex_kernels():
    crit = _Criterion(1, "vertex kernels on (n,p)=(4,2)", 1.0)
    layer = LayerParams(4, 2)
    verts = scheme.vertex_betas(layer)
    expected = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.5, 3.0]])
    ok = bool(np.abs(verts - expected).max() <= 1e-9)
    for row in verts:
        gram = scheme.oracle_gram(BetaCoeffs(layer, row)).matrix
        ok = ok and np.linalg.eigvalsh(gram).min() >= -1e-9
        ok = ok and np.abs(np.diag(gram) - 1.0).max() <= 1e-12
    crit.finish(ok)


def test_criterion_2_spectral_sweep():
    crit = _Criterion(2, "spectral formulas vs dense oracle, n <= 8", 60.0)
    worst = 0.0
    for n in range(1, 9):
        for p in range(n // 2 + 1):
            layer = LayerParams(n, p)
            delta = scheme.delta_matrix(layer)
            dims = scheme.eigen_multiplicities(layer)
            for ell in range(p + 1):
                beta = np.zeros(p + 1)
                beta[ell] = 1.0
                gram = scheme.oracle_gram(BetaCoeffs(layer, beta))
                observed = scheme.oracle_eigenvalues(gram)
                flat_obs = np.sort(np.repeat([v for v, _ in observed], [d for _, d in observed]))
                flat_pred = np.sort(np.repeat(delta[:, ell], dims))
                scale = max(1.0, float(np.abs(flat_pred).max()))
                worst = max(worst, float(np.abs(flat_obs - flat_pred).max()) / scale)
    crit.finish(worst <= 1e-8, f"worst relative deviation {worst:.2e}")


def test_criterion_3_characterization_equivalence():
    crit = _Criterion(3, "is_admissible vs dense PSD oracle, 1000 draws per layer", 120.0)
    rng = np.random.default_rng(0)
    disagreements = 0
    total = 0
    for n in range(1, 9):
        for p in range(n // 2 + 1):
            layer = LayerParams(n, p)
            verts = scheme.vertex_betas(layer)
            points = scheme.enumerate_layer(layer).astype(np.int64)
            ip = points @ points.T
            binom_cols = np.array(
                [[scheme.binomial(k, ell) for ell in range(p + 1)] for k in range(p + 1)]
            )
            for trial in range(1000):
                if trial % 2 == 0:
                    beta = rng.normal(size=p + 1)
                else:
                    lam = rng.random(p + 1)
                    lam = lam / lam.sum() * rng.uniform(0.0, 1.3)
                    beta = lam @ verts
                fast = bool(scheme.is_admissible(BetaCoeffs(layer, beta), tol=1e-8))
                table = binom_cols @ beta
                matrix = table[ip]
                eigs = np.linalg.eigvalsh(matrix)
                scale = max(1.0, float(np.abs(eigs).max()))
                slow = bool(eigs.min() >= -1e-8 * scale and matrix[0, 0] <= 1.0 + 1e-8)
                disagreements += fast != slow
                total += 1
    crit.finish(disagreements == 0, f"{total} draws, {disagreements} disagreements")


def test_criterion_4_universal_containment():
    crit = _Criterion(4, "vertex-mixture identity and (p+1)-norm bound", 30.0)
    rng = np.random.default_rng(1)
    ok = True
    for n, p in ((6, 2), (6, 3), (8, 3)):
        layer = LayerParams(n, p)
        verts = scheme.vertex_betas(layer)
        rows = scheme.enumerate_layer(layer).astype(np.int64)
        tables = [
            np.array([sum(verts[t, e] * scheme.binomial(k, e) for e in range(p + 1)) for k in range(p + 1)])
            for t in range(p + 1)
        ]
        for _ in range(200):
            m = int(rng.integers(2, 16))
            pts = rows[rng.integers(0, rows.shape[0], size=m)]
            ip = pts @ pts.T
            grams = [table[ip] for table in tables]
            lam = rng.random(p + 1)
            lam /= lam.sum()
            alpha = rng.normal(size=m)
            quads = np.array([float(alpha @ g @ alpha) for g in grams])
            mixed = float(lam @ quads)
            direct = float(alpha @ sum(l * g for l, g in zip(lam, grams)) @ alpha)
            scale = max(1.0, abs(mixed), abs(direct))
            ok = ok and abs(mixed - direct) <= 1e-10 * scale
            lhs = float(((p + 1) * lam) ** 2 @ quads)
            rhs = (p + 1) ** 2 * direct
            ok = ok and lhs <= rhs + 1e-10 * max(1.0, abs(rhs))
    crit.finish(ok)


def test_criterion_5_mkl_saddle_certificates():
    crit = _Criterion(5, "duality gaps and monotone traces on 20 random instances", 300.0)
    rng = np.random.default_rng(2)
    worst_rel_gap = 0.0
    monotone = True
    for i in range(20):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(1, n // 2 + 1))
        m = int(rng.integers(10, 41))
        lam = float(10 ** rng.uniform(-2.0, -0.3))
        loss = HINGE if i % 2 == 0 else ABSOLUTE
        rows = scheme.enumerate_layer(LayerParams(n, p))
        pts = [HypercubePoint.from_array(rows[j]) for j in rng.integers(0, rows.shape[0], size=m)]
        if loss is HINGE:
            labels = rng.integers(0, 2, size=m) * 2.0 - 1.0
        else:
            labels = rng.uniform(-1.0, 1.0, size=m)
        problem = learners.MklLayerProblem(
            learners.layer_vertex_grams(pts, p), labels, lam=lam, loss=loss
        )
        sol = learners.mkl_layer_solve(problem, outer_iters=300)
        rel = sol.gap / (1.0 + abs(sol.objective))
        worst_rel_gap = max(worst_rel_gap, rel)
        monotone = monotone and bool(np.all(np.diff(sol.trace) <= 1e-12))
    crit.finish(
        worst_rel_gap <= 1e-4 and monotone,
        f"worst relative gap {worst_rel_gap:.2e}, traces monotone: {monotone}",
    )


def test_criterion_6_conjunction_exactness():
    crit = _Criterion(6, "analytic conjunction model: exact labels, exact norm", 10.0)
    ok = True
    n, s, m = 16, 4, 500
    for size in (1, 2, 3, 4):
        report = harness.bench_conjunction(n, s, size, m, "sparse-analytic", 1.0, 0.1, seed=size)
        ok = ok and report["test_losses"]["zero_one"] == 0.0
        model = kernels.analytic_weights(n, s, report["config"]["literals"])
        ok = ok and abs(model.norm_sq() - math.comb(s, size)) <= 1e-9
    crit.finish(ok)


def test_criterion_7_universal_svm_learns_conjunction():
    crit = _Criterion(7, "universal-kernel SVM on a realizable conjunction", 120.0)
    report = harness.bench_conjunction(
        16, 4, 2, 500, "universal", B=4.0, eps=0.05, seed=0, epochs=600
    )
    ok = report["train_losses"]["hinge"] <= 0.05 and report["test_losses"]["hinge"] <= 0.1
    crit.finish(
        ok,
        f"train hinge {report['train_losses']['hinge']:.4f}, test hinge {report['test_losses']['hinge']:.4f}",
    )


def test_criterion_8_rademacher_bound_dominance():
    crit = _Criterion(8, "Monte-Carlo Rademacher estimate below the closed-form bound", 120.0)
    ok = True
    details = []
    for cfg_seed, (n, m, B) in enumerate(((8, 100, 1.0), (8, 200, 1.0), (16, 200, 1.0))):
        rng = np.random.default_rng(cfg_seed)
        pts = [HypercubePoint(n, int(rng.integers(0, 1 << n))) for _ in range(m)]
        est = learners.rademacher_estimate(pts, B=B, trials=200, seed=cfg_seed)
        ok = ok and est.mean + 2 * est.stderr <= est.bound
        details.append(f"(n={n},m={m}): {est.mean:.4f}+2*{est.stderr:.4f} <= {est.bound:.4f}")
    crit.finish(ok, "; ".join(details))


def test_criterion_9_embedding_accuracy():
    crit = _Criterion(9, "embedding accuracy over 20 seeds and lifted-kernel deviation", 180.0)
    n, eps = 5, 0.1
    accepted = 0
    pair_rng = np.random.default_rng(3)
    worst_dev = 0.0
    first_pair = None
    for seed in range(20):
        try:
            pair = embedding.build_pair(n, eps, seed=seed)
        except RuntimeError:
            continue
        accepted += 1
        if first_pair is None:
            first_pair = pair
        for _ in range(1000):
            x, y = pair_rng.random(n), pair_rng.random(n)
            dev = abs(float(x @ y) - pair.table_inner(x, y) / pair.t)
            worst_dev = max(worst_dev, dev)
    ok = accepted >= 19 and worst_dev <= eps
    # lifted normalized quadratic kernel ((a/n)+1)^2/4 on an accepted build
    g = embedding.poly_g([0.25, 0.5 / n, 0.25 / n**2], lipschitz=1.0 / n, domain_max=float(n))
    lifted = embedding.lift_kernel(g, first_pair)
    worst_lift = 0.0
    for _ in range(500):
        x, y = pair_rng.random(n), pair_rng.random(n)
        u = embedding.embed(first_pair, 1, x)
        v = embedding.embed(first_pair, 2, y)
        worst_lift = max(worst_lift, abs(lifted.evaluate(u, v) - float(g(np.array(x @ y)))))
    ok = ok and worst_lift <= 2 * g.lipschitz * eps
    crit.finish(
        ok,
        f"{accepted}/20 builds accepted, worst ip deviation {worst_dev:.4f}, "
        f"worst lift deviation {worst_lift:.5f} vs 2L*eps={2 * g.lipschitz * eps:.5f}",
    )


def test_criterion_10_verify_suite_and_fault_injection():
    crit = _Criterion(10, "verify suite exits 0 clean and names injected faults", 600.0)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cubekern.cli", "verify", *argv],
            capture_output=True,
            text=True,
        )

    clean = run("--json")
    ok = clean.returncode == 0 and json.loads(clean.stdout)["passed"] is True
    expected_checks = {
        "delta_sign": "spectral_correctness",
        "vertex_norm": "vertex_validity",
        "conjunction_alpha": "conjunction_exactness",
        "stale_lower_bound": "mkl_saddle",
        "stale_step_gram": "mkl_saddle",
        "unnormalized_beta": "mkl_saddle",
    }
    for fault, check_name in expected_checks.items():
        proc = run("--max-n", "4", "--trials", "20", "--fault", fault, "--json")
        verdict = json.loads(proc.stdout)
        ok = ok and proc.returncode == 1
        ok = ok and len(verdict["failures"]) == 1
        failure = verdict["failures"][0]
        ok = ok and failure["check"] == check_name
        ok = ok and failure["module"] != "" and failure["params"] != {}
    crit.finish(ok)

import itertools
import math

import numpy as np
import numpy.ma  # noqa: F401 -- np.unique imports it on first use; loaded here, no tracemalloc bound counts it
import pytest

from cubekern import embedding, kernels, learners
from cubekern.scheme import LayerParams


def canonical_layers(max_n, min_n=1):
    """All (n, p) with p <= n/2 up to max_n."""
    out = []
    for n in range(min_n, max_n + 1):
        for p in range(n // 2 + 1):
            out.append(LayerParams(n, p))
    return out


def layer_points(n, p):
    """Weight-p bit tuples of length n, lexicographic (independent of library code)."""
    return [x for x in itertools.product((0, 1), repeat=n) if sum(x) == p]


def explicit_basis_matrices(n, p):
    """D and binomial-basis matrices built from scratch for oracle comparisons."""
    pts = layer_points(n, p)
    m = len(pts)
    ips = np.array([[sum(a * b for a, b in zip(x, y)) for y in pts] for x in pts])
    d_mats = [(ips == ell).astype(float) for ell in range(p + 1)]
    b_mats = [np.vectorize(lambda k, e=ell: float(math.comb(k, e)))(ips) for ell in range(p + 1)]
    return d_mats, b_mats


def per_point(problem):
    """The layer problem with one class-form row per point: its distinct form
    ``(where, ip, table)`` expanded to ``(arange(m), ip[where][:, where], table)``.
    The MKL oracles below take this form, so they do not rely on the merge."""
    where, ip = problem.where, problem.ip
    grams = (np.arange(problem.m), ip[np.ix_(where, where)], problem.table)
    return learners.MklLayerProblem(grams, problem.labels, problem.lam, problem.loss)


def layer_dual_objective(problem, beta) -> float:
    """The outer objective G(beta) = sup_alpha G(alpha, beta) at a fixed beta,
    by the inner ascent from zero to tolerance 1e-10 in at most 200,000 steps,
    on the per-point form."""
    dense = per_point(problem)
    kb = dense.combine(beta)
    alpha, _, _ = learners._inner_max(dense, kb, np.zeros(dense.m), 1e-10, 200_000)
    return learners._dual_value(*dense.terms, kb, alpha, dense.where)


def duality_gap(problem, beta, alphas) -> float:
    """|primal - dual| at a candidate (beta, alpha); +inf if alpha infeasible.

    The primal is evaluated at ``w = sum_i alpha_i phi(x_i)``; the dual uses
    the conjugate at ``-lam m alpha`` (see the learners module docstring).
    Both are taken on the per-point form.
    """
    alpha = np.asarray(alphas, dtype=float)
    lo, hi = learners._alpha_box(*problem.terms)
    slack = 1e-9 * (1.0 + float(np.abs(hi - lo).max()))
    if np.any(alpha < lo - slack) or np.any(alpha > hi + slack):
        return math.inf
    dense = per_point(problem)
    kb, terms, rows = dense.combine(beta), dense.terms, dense.where
    return abs(learners._primal_value(*terms, kb, alpha, rows) - learners._dual_value(*terms, kb, alpha, rows))


def dense_subgradient(loss, z, y):
    """The stock losses' subgradients on arrays: hinge ``-y`` where ``y z < 1``
    (else 0), absolute ``sign(z - y)``."""
    return np.where(y * z < 1.0, -y, 0.0) if loss.name == "hinge" else np.sign(z - y)


def pegasos_oracle(spec, points, labels, lam, epochs, seed, loss):
    """Pegasos in lazily scaled form on the dense Gram of every training point,
    repeated points included: ``(a_bar, objective, gap)`` for the arguments of
    ``learners.pegasos_train``, the same pick stream and the same additions."""
    y = np.asarray(labels, dtype=float)
    m = len(points)
    k = kernels.gram(spec, points)
    steps = epochs * m
    picks = np.random.default_rng(seed).integers(0, m, size=steps)
    weight = np.cumsum(1.0 / np.arange(steps, 0, -1))[::-1] / (lam * steps)
    z, a_bar = np.zeros(m), np.zeros(m)
    for t, i in enumerate(picks, start=1):
        g = dense_subgradient(loss, z[i] / (lam * (t - 1)) if t > 1 else 0.0, y[i])
        if g:
            z -= g * k[i]
            a_bar[i] -= g * weight[t - 1]
    objective = learners._primal_value(loss, y, lam, k, a_bar, np.arange(m))
    alpha = np.clip(a_bar, *learners._alpha_box(loss, y, lam))
    return a_bar, objective, objective - learners._dual_value(loss, y, lam, k, alpha, np.arange(m))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def nested_v1_pair_file(pair, path):
    """A pair file in the version-1 layout: the header with the row width nb,
    then per coordinate and role the K packed threshold rows 1[c <= i]."""
    k, nb = pair.grid.shape[0], (pair.t + 7) // 8
    with open(path, "wb") as fh:
        fh.write(embedding._HEADER.pack(b"JKEM", 1, pair.n, pair.t, pair.epsilon, pair.seed, k, nb))
        for coord in pair.coords:
            for cells in coord.cells:
                for i in range(k):
                    fh.write(np.packbits(cells <= i, bitorder="little").tobytes())

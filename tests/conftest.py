import itertools
import math

import numpy as np
import numpy.ma  # noqa: F401 -- np.unique imports it on first use; loaded here, no tracemalloc bound counts it
import pytest

from cubekern import embedding, kernels, learners, scheme
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


def class_vertex_grams(points, weight):
    """``learners.layer_vertex_grams`` as a ``ClassForm`` ``(where, ip, table)``, whatever the layer's p."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_SUBSET_MAX_P", -1)
        return learners.layer_vertex_grams(points, weight)


def subset_vertex_grams(points, weight):
    """``learners.layer_vertex_grams`` as a ``SubsetForm`` that steps on its subset
    sums (no dense Gram), whatever the layer's p and size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_SUBSET_MAX_P", 64)
        mp.setattr(learners, "_BLOCK_ELEMS", 0)
        return learners.layer_vertex_grams(points, weight)


def per_point(problem):
    """The layer problem in class form with one row per point, ``(arange(m),
    ip, table)``.  A subset-form problem's inner products are read off its
    slots (two rows share 2^ip subsets) and its tables are ``d_from_p`` of
    its vertex coefficients.  The MKL oracles below take this form, so they
    rely on neither the merge of repeated points nor the subset sums."""
    grams = problem.vertex_grams
    if isinstance(grams, learners.SubsetForm):
        rows = [set(r) for r in grams.slots.tolist()]
        ip = np.array([[len(a & b).bit_length() - 1 for b in rows] for a in rows], dtype=np.uint8)
        where, table = grams.where, np.array([scheme.d_from_p(b) for b in grams.betas])
    else:
        where, ip, table = grams
    grams = learners.ClassForm(np.arange(problem.m), ip[np.ix_(where, where)], table)
    return learners.MklLayerProblem(grams, problem.labels, problem.lam, problem.loss)


def dense_gram(problem, beta):
    """``K_beta`` over the problem's points, from :func:`per_point`'s class form."""
    _, ip, table = per_point(problem).vertex_grams
    return (np.asarray(beta, dtype=float) @ table)[ip]


def primal_value(loss, y, lam, k, alpha) -> float:
    """The primal at ``w = sum_i alpha_i phi(x_i)`` on a dense per-point Gram
    ``k``, from the learners module docstring: ``(lam/2) alpha' k alpha +
    mean_i loss((k alpha)_i, y_i)``."""
    z = k @ alpha
    return 0.5 * lam * float(alpha @ z) + float(np.mean(loss.value(z, y)))


def dual_value(loss, y, lam, k, alpha) -> float:
    """The dual of the learners module docstring on a dense per-point Gram
    ``k``: ``-(lam/2) alpha' k alpha - (1/m) sum_i conj(-lam m alpha_i, y_i)``,
    with the stock losses' conjugate ``conj(a, y) = a y`` on the box."""
    conj = (-lam * len(y) * alpha) * y
    return -0.5 * lam * float(alpha @ k @ alpha) - float(np.mean(conj))


def dense_dual_solve(k, y, lam, loss, tol=1e-12, max_iter=200_000):
    """``(objective, gap)`` on a dense per-point Gram, independently of the
    solvers: projected gradient ascent on the dual with momentum restarted
    whenever it points back (step ``1/(lam ||k||_2)``), run until the primal
    minus the dual is at most ``tol (1 + |objective|)``."""
    lo, hi = learners._alpha_box(loss, y, lam)
    step = 1.0 / (lam * max(float(np.linalg.eigvalsh(k)[-1]), 1e-12))
    alpha = v = np.zeros(len(y))
    theta = 1.0
    for _ in range(max_iter):
        nxt = np.clip(v + step * lam * (y - k @ v), lo, hi)
        primal = primal_value(loss, y, lam, k, nxt)
        gap = primal - dual_value(loss, y, lam, k, nxt)
        if gap <= tol * (1.0 + abs(primal)):
            return primal, gap
        if float((nxt - alpha) @ (v - nxt)) > 0.0:
            v, theta = nxt, 1.0
        else:
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            v = nxt + ((theta - 1.0) / theta_next) * (nxt - alpha)
            theta = theta_next
        alpha = nxt
    raise AssertionError(f"the dense solve stopped at gap {gap:.3g}")


def layer_dual_objective(problem, beta) -> float:
    """The outer objective G(beta) = sup_alpha G(alpha, beta) at a fixed beta,
    from :func:`dense_dual_solve` to tolerance 1e-12 on the per-point form:
    the dual value it reached, within 1e-12 (1 + |G|) below G."""
    primal, gap = dense_dual_solve(dense_gram(problem, beta), *problem.terms[1:], problem.loss)
    return primal - gap


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
    kb, terms = dense_gram(problem, beta), problem.terms
    return abs(primal_value(*terms, kb, alpha) - dual_value(*terms, kb, alpha))


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
    objective = primal_value(loss, y, lam, k, a_bar)
    alpha = np.clip(a_bar, *learners._alpha_box(loss, y, lam))
    return a_bar, objective, objective - dual_value(loss, y, lam, k, alpha)


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

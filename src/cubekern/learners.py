"""Convex-loss training over layer kernels.

Four solvers live here:

* :func:`sdca_solve` -- stochastic dual coordinate ascent (Shalev-Shwartz &
  Zhang 2013) on the dual below over a fixed PSD Gram, stopped once the
  duality gap, recomputed after each epoch, is at most ``_SDCA_TOL (1 +
  |objective|)``.  ``train_on_cube`` runs it on a lifted Gram.
* :func:`pegasos_train` -- kernelized stochastic subgradient descent on the
  regularized objective ``lam/2 ||w||^2 + mean_i loss(<w, phi(x_i)>, y_i)``
  with step ``1/(lam t)`` and iterate averaging, in lazily scaled
  representer form (Shalev-Shwartz, Singer, Srebro & Cotter 2011, sec. 4)
  over the Gram of the distinct training points.  Its ``gap`` is the primal
  at the averaged iterate minus the dual there, clipped to the box below.
* :func:`mkl_layer_solve` -- the layer-wise multiple-kernel program
  ``inf_beta sup_alpha G(alpha, beta)``, beta on the capped simplex ``{beta
  >= 0, sum beta <= 1}`` and ``K_beta = sum_t beta_t K_t`` over the vertex
  Grams: the closed-form group-lasso step on beta (Xu, Jin, King & Lyu 2010),
  one SDCA epoch per step, stopped once its certified saddle gap is at most
  ``_SADDLE_TOL (1 + |objective|)``, then SDCA polishes the alphas at the best beta.
* :func:`rademacher_estimate` -- Monte-Carlo empirical Rademacher
  complexity of the class of bounded-norm classifiers under *any*
  admissible layer kernel, with the closed-form bound ``sqrt(2 e B^2 ln(n) / m)``.

The first three pose a :class:`MklLayerProblem` over a form and read its
``objective`` and ``gap`` off :func:`_bounds`, the one place the primal and
the dual below are computed; ``sdca_solve`` and the polish run the one SDCA
driver, :func:`_sdca_run`.  A fixed Gram is the one-vertex form :class:`_Gram`
(``beta = (1,)``); a layer's vertex Grams (:func:`layer_vertex_grams`) come in
one of two forms over its distinct points.  Each form answers the same questions
-- a point's margin ``(K_beta c)_r``, the diagonal, a step at one point,
``K_beta c`` and every vertex quad ``c' K_t c``, ``c = bincount(where, alpha)``:

* :class:`SubsetForm`, for ``p <= _SUBSET_MAX_P``.  ``C(<x,y>, l)`` counts the
  l-subsets x and y share, so with ``W[T] = sum of c_r over rows covering T``
  and ``coef = beta @ vertex_betas``, ``(K_beta c)_r = sum_{T in x_r}
  coef_|T| W[T]`` and ``c' K_t c = vertex_betas[t] @ bincount(sizes, W^2)``.
  ``W`` does not depend on beta; a layer of ``u * u <= _BLOCK_ELEMS`` rows
  steps SDCA on its :class:`ClassForm`, a margin one read and not 2^p.
* :class:`ClassForm` ``(where, ip, table)``: ``ip`` the uint8 inner products
  of the distinct points and ``table[t]`` vertex t's value table, so ``K_beta
  = (beta @ table)[ip]``: a :class:`_Gram` whose ``k`` :meth:`ClassForm.at` mixes.

Duality convention.  For fixed ``beta`` the dual of the primal program is

    sup_alpha  -(lam/2) alpha' K_beta alpha
               - (1/m) sum_i conj(-lam m alpha_i, y_i)

where ``conj`` is the Fenchel conjugate of the loss in its first argument.
With this scaling the primal optimizer is literally ``w = sum_i alpha_i
phi(x_i)``, so one coefficient vector serves the dual objective and the
representer-form predictions, and the duality gap certifies the inner
``sup``.  A loss is its value and its conjugate box (:class:`LossSpec`): the
conjugate is linear, ``conj(a, y) = a y``, on that box, so ``loss(z, y) =
sup_a a (z - y)`` over it, and every solver reads the dual term and Pegasos'
subgradient off the box:

    hinge     loss(z,y) = max(0, 1 - y z),  y in {-1,+1}:  a y in [-1, 0]
    absolute  loss(z,y) = |z - y|:                         |a| <= 1

Every trainer here, and ``embedding.train_on_cube``, first calls
:func:`_dual_problem`, which refuses in order a loss not a :class:`LossSpec`
(``TypeError``), no points, a bad ``lam``, a bad epoch cap, and labels that
are not one finite value per point, -1 or +1 under the hinge loss.

Solvers are single-threaded state machines per problem instance; a layer's
form carries the solver's working state, so layer problems that run
concurrently need forms of their own.  Returned models are immutable.
"""

from __future__ import annotations

import math
import mmap
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .kernels import _BLOCK_ELEMS, KernelSpec, TrainedModel, _mirrored, mix_vertices, points_to_bits
from .kernels import _subset_layout, _subset_sums, gram, inner_product_blocks
from .scheme import LayerParams, vertex_betas, vertex_tables

__all__ = [
    "LossSpec",
    "HINGE",
    "ABSOLUTE",
    "get_loss",
    "regularization_weight",
    "hinge_labels",
    "pegasos_train",
    "sdca_solve",
    "SubsetForm",
    "ClassForm",
    "MklLayerProblem",
    "MklSolution",
    "mkl_layer_solve",
    "mkl_train",
    "RademacherEstimate",
    "rademacher_estimate",
    "layer_vertex_grams",
]


@dataclass(frozen=True)
class LossSpec:
    """A 1-Lipschitz convex loss ``value(z, y) = sup_a a (z - y)``, the sup over the box ``conjugate_domain(y)``."""

    name: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    conjugate_domain: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


HINGE = LossSpec(
    name="hinge",
    value=lambda z, y: np.maximum(0.0, 1.0 - y * z),
    conjugate_domain=lambda y: (np.minimum(-y, 0.0), np.maximum(-y, 0.0)),
)

ABSOLUTE = LossSpec(
    name="absolute",
    value=lambda z, y: np.abs(z - y),
    conjugate_domain=lambda y: (-np.ones_like(y), np.ones_like(y)),
)

_LOSSES = {"hinge": HINGE, "absolute": ABSOLUTE, "abs": ABSOLUTE}


def get_loss(name: str) -> LossSpec:
    try:
        return _LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from hinge, absolute") from None


def _positive(name: str, value: float) -> float:
    """``value``, after checking that it is a finite positive number."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {type(value).__name__} {value!r}")
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_count(name: str, value, minimum: int = 0) -> None:
    """Refuse a count ``value`` that is not an integer of at least ``minimum``, by ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def regularization_weight(n: int, B: float, epsilon: float, lam: float | None = None) -> float:
    """The weight ``lam = epsilon / (n B^2)`` of the regularized problem for
    norm-``B`` classifiers on ``{0,1}^n`` learned to accuracy ``epsilon``.

    ``n`` must be at least 1, ``B`` finite and positive and ``epsilon`` in
    (0, 1); an explicit ``lam``, when given, is returned in place of the
    formula once it is checked to be finite and positive.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _positive("B", B)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return epsilon / (n * B * B) if lam is None else _positive("lam", lam)


def hinge_labels(labels) -> tuple[np.ndarray, str]:
    """Labels for hinge training: ``{0,1}`` mapped to ``{-1,+1}``, ``{-1,+1}``
    kept; returns them with a note that names the mapping."""
    labels = np.asarray(labels, dtype=float)
    vals = set(np.unique(labels).tolist())
    if vals <= {0.0, 1.0}:
        return 2.0 * labels - 1.0, "mapped {0,1} -> {-1,+1}"
    if vals <= {-1.0, 1.0}:
        return labels, "labels already in {-1,+1}"
    raise ValueError("hinge training expects labels in {0,1} or {-1,+1}")


def _alpha_box(loss: LossSpec, y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The dual box ``-lam m alpha_i in dom conj(., y_i)``, as bounds on alpha."""
    lo_a, hi_a = loss.conjugate_domain(y)
    c = lam * y.shape[0]
    return -hi_a / c, -lo_a / c


def _dual_problem(labels, m: int, lam: float, loss: LossSpec, epochs=None) -> tuple:
    """``(y, (lo, hi))``: the labels as floats and their :func:`_alpha_box`, once the contract holds."""
    if not isinstance(loss, LossSpec):
        raise TypeError(f"loss must be a LossSpec (see get_loss), got {type(loss).__name__}")
    if m == 0:
        raise ValueError("empty dataset")
    _positive("lam", lam)
    if epochs is not None:
        check_count("epochs", epochs)
    y = np.asarray(labels, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"labels have shape {y.shape}, expected ({m},) to match the points")
    if not np.all(np.isfinite(y)):
        raise ValueError("labels must be finite")
    if loss.name == "hinge" and not np.all(np.abs(y) == 1.0):
        raise ValueError("hinge-loss labels must be -1 or +1")
    return y, _alpha_box(loss, y, lam)


def _corner(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The box corner toward the labels, where a dual linear in alpha (a zero kernel) peaks."""
    return np.clip(np.where(y > 0, hi, np.where(y < 0, lo, 0.0)), lo, hi)


# ---------------------------------------------------------------------------
# Pegasos

_PICK_CHUNK = 1 << 12  # Pegasos steps whose picks and weights are Python lists at once


def pegasos_train(
    spec: KernelSpec,
    points,
    labels,
    lam: float,
    epochs: int = 100,
    seed: int = 0,
    loss: LossSpec = HINGE,
) -> TrainedModel:
    """Kernelized SGD with step 1/(lam t); returns the averaged iterate.

    ``spec`` must be a :class:`KernelSpec`; any other object raises a
    ``TypeError`` before a point is packed.  Runs ``T = epochs * m`` steps;
    the sampled index stream is drawn from ``default_rng(seed)``, so
    identical seeds give identical models.

    The iterate ``a_t = (1 - 1/t) a_{t-1} - g_t e_i / (lam t)`` is kept as
    ``lam t a_t = c_t``: only ``z = K c`` is stored, the margin at step t is
    the picked point's entry of ``z`` over ``lam (t-1)`` (zero at step 1),
    the subgradient ``g_t`` is the end of its conjugate box that the margin
    points to (``hi`` above ``y_i``, ``lo`` below, 0 on a tie), and a hit
    (``g != 0``) costs one Gram row: under both shipped losses ``g = +-1``, so
    the row is subtracted from or added to ``z`` in place, bit for bit
    ``z -= g * k[u]`` with no temporary.  A kernel value depends only
    on the two points, so the Gram and ``z`` have one row per distinct point
    (``_MAX_GRAM_POINTS`` caps their number).  The average ``(1/T) sum_t
    a_t`` is built in closed form: a hit at step s adds ``-g (H_T -
    H_{s-1}) / (lam T)`` to its coordinate, ``H`` the harmonic numbers.  ``report["gap"]`` is the
    :func:`_bounds` primal at that average minus its dual at the average clipped to the
    conjugate box; it is an upper bound on the objective's distance from the
    optimum when the Gram is PSD.
    """
    if not isinstance(spec, KernelSpec):
        raise TypeError(f"pegasos_train needs a KernelSpec, got {type(spec).__name__}")
    m = len(points)
    y, (lo, hi) = _dual_problem(labels, m, lam, loss, epochs)
    masks, where = np.unique(points_to_bits(points, spec.n), return_inverse=True)
    k = gram(spec, masks)
    rng = np.random.default_rng(seed)
    steps = epochs * m
    picks = rng.integers(0, m, size=steps)
    # weight[s-1] = (H_T - H_{s-1}) / (lam T), summed from the smallest term up
    # so that the weights of late hits keep their relative precision; built in
    # place, so it and the picks hold 16 bytes per step
    weight = np.arange(steps, 0, -1, dtype=float)
    np.reciprocal(weight, out=weight)
    np.cumsum(weight, out=weight)
    weight = weight[::-1]
    weight /= lam * steps
    y_of, row_of = y.tolist(), where.tolist()
    lo_of, hi_of = (v.tolist() for v in loss.conjugate_domain(y))
    z = np.zeros(k.shape[0])  # K @ c over the Gram's rows, c the running sum of -g e_i
    z_at, add, sub = z.item, np.add, np.subtract
    a_bar = [0.0] * m
    for s in range(0, steps, _PICK_CHUNK):  # Python lists of one chunk at a time
        chunk = slice(s, s + _PICK_CHUNK)
        scale = lam * np.arange(s, min(s + _PICK_CHUNK, steps))  # lam (t - 1), bit for bit
        for i, w_t, d in zip(picks[chunk].tolist(), weight[chunk].tolist(), scale.tolist()):
            u, y_i = row_of[i], y_of[i]
            margin = z_at(u) / d if d else 0.0  # d = 0 only at t = 1, where z = 0
            g = hi_of[i] if margin > y_i else lo_of[i] if margin < y_i else 0.0  # argmax of a (margin - y_i)
            if g:
                if g == 1.0 or g == -1.0:  # z - 1.0 k[u] is z - k[u] exactly: one ufunc, no temporary
                    (sub if g > 0.0 else add)(z, k[u], out=z)
                else:  # a box end other than -1, 0, 1 (a custom LossSpec)
                    z -= g * k[u]
                a_bar[i] -= g * w_t
    a_bar = np.array(a_bar)
    problem = MklLayerProblem(_Gram(where, k), y, lam, loss)
    objective = _bounds(problem, a_bar, _ONE)[0]
    report = {
        "algo": "pegasos",
        "loss": loss.name,
        "lambda": lam,
        "objective": objective,
        "iters": steps,
        "seed": seed,
        "gap": objective - _bounds(problem, np.clip(a_bar, lo, hi), _ONE)[1],
    }
    return TrainedModel(spec, tuple(points), a_bar, report)


# ---------------------------------------------------------------------------
# Dual coordinate ascent

_SDCA_TOL = 1e-4  # SDCA stops once gap <= _SDCA_TOL (1 + |objective|)
_STALL_EPOCHS = 50  # a polish whose best gap did not fall over this many epochs stops
_ONE = np.ones(1)  # the beta of a one-vertex form


class _Gram:
    """A PSD Gram ``k`` over u rows, point i on row ``where[i]``, as a one-vertex
    form, used at ``beta = (1,)``: :meth:`load` sets ``c = bincount(where,
    alpha)``, :meth:`at` sets the margins ``z = k @ c`` that each step updates."""

    def __init__(self, where: np.ndarray, k: np.ndarray):
        self.where, self.k, self.rows, self.vertices = where, k, len(k), 1
        self.diag, self.c = np.diagonal(k).tolist(), np.zeros(len(k))

    def load(self, alpha) -> None:
        self.c, self._kc = np.bincount(self.where, alpha, self.rows), None

    def at(self, beta: np.ndarray) -> _Gram:
        self.z, self._kc = self.k @ self.c, None
        self.margin = self.z.item  # called once per step: no Python frame
        return self

    def step(self, r: int, delta: float) -> None:
        self.z += delta * self.k[r]

    def kc(self) -> np.ndarray:
        if self._kc is None:  # once per load or mix: the quads and the loss both read it
            self._kc = self.k @ self.c
        return self._kc

    def quads(self) -> np.ndarray:
        return np.array([self.c @ self.kc()])


def _point_lists(where, y, lo, hi) -> tuple:
    """``(row, y, lo, hi, corner)`` per point, as the Python lists :func:`_sdca_epoch` reads."""
    return tuple(v.tolist() for v in (where, y, lo, hi, _corner(y, lo, hi)))


def _sdca_epoch(op, alpha: list, order: list, points: tuple) -> None:
    """One SDCA pass over the points in ``order``, in place on ``alpha`` and ``op``.

    ``points`` is :func:`_point_lists`.  The step ``alpha_i <- clip(alpha_i +
    (y_i - op.margin(r)) / op.diag[r], box_i)``, r point i's row, maximizes
    the dual over alpha_i; a row whose diagonal is not positive (a zero row,
    in a PSD Gram) sends alpha_i to :func:`_corner`.  The clip's two plain ``if``s give
    ``min(max(x, lo), hi)`` bit for bit, NaN, ``-0.0`` and ``lo > hi`` too (``elif`` would not).
    """
    row_of, y_of, lo_of, hi_of, corner_of = points
    diag, margin, step = op.diag, op.margin, op.step
    for i in order:
        r = row_of[i]
        if diag[r] > 0.0:
            new = alpha[i] + (y_of[i] - margin(r)) / diag[r]
            if new < lo_of[i]:
                new = lo_of[i]
            if new > hi_of[i]:
                new = hi_of[i]
        else:
            new = corner_of[i]
        delta = new - alpha[i]
        if delta:
            alpha[i] = new
            step(r, delta)


def _bounds(problem: MklLayerProblem, a: np.ndarray, beta: np.ndarray) -> tuple:
    """``(primal, dual, lower, quads)`` at alphas ``a`` in the box, the problem's form at
    beta and loaded with a: the fixed-beta programs' values, ``lower = lam a.y - (lam/2)
    max(0, max_t quads_t)`` and every ``a' K_t a``.  The dual is linear in beta, so its
    least value over the capped simplex, ``lower``, sits at a vertex or at 0."""
    loss, y, lam = problem.terms
    op = problem.vertex_grams
    op.load(a)
    quads = op.quads()
    quad, linear = float(beta @ quads), lam * float(a @ y)
    primal = 0.5 * lam * quad + float(np.mean(loss.value(op.kc()[problem.where], y)))
    return primal, linear - 0.5 * lam * quad, linear - 0.5 * lam * max(0.0, float(quads.max())), quads


def _sdca_run(problem: MklLayerProblem, a, beta, rng, tol: float, cap: int, lower=(-math.inf, None), stall=False):
    """SDCA epochs on ``problem`` from alphas ``a`` at a fixed ``beta``, each in ``rng.permutation(m)``,
    until the :func:`_bounds` gap ``primal - dual`` is at most ``tol (1 + |primal|)``, after ``cap``
    epochs or, with ``stall``, once the best gap (least primal so far minus dual) did not fall over the
    last ``_STALL_EPOCHS`` epochs.  Returns ``(a, primal, dual, lower, epochs, converged)``, ``lower``
    the best ``(lower bound, alphas)`` of it and every iterate."""
    points = _point_lists(problem.where, problem.labels, *problem.box)
    problem.vertex_grams.load(a)
    gram, alpha, epochs, best, gaps = problem.vertex_grams.at(beta), a.tolist(), 0, math.inf, []
    while True:
        a = np.array(alpha)
        primal, dual, low, _ = _bounds(problem, a, beta)
        if low > lower[0]:
            lower = (low, a)
        target, best = tol * (1.0 + abs(primal)), min(best, primal)
        gaps = gaps[-_STALL_EPOCHS:] + [best - dual]  # the best gaps of the last window
        if primal - dual <= target or epochs == cap or stall and len(gaps) > _STALL_EPOCHS and gaps[0] <= gaps[-1]:
            return a, primal, dual, lower, epochs, primal - dual <= target
        epochs += 1
        _sdca_epoch(gram, alpha, rng.permutation(problem.m).tolist(), points)


def sdca_solve(
    k,
    where,
    labels,
    lam: float,
    loss: LossSpec = HINGE,
    max_epochs: int = 100,
    seed: int = 0,
) -> tuple[np.ndarray, dict]:
    """Stochastic dual coordinate ascent (Shalev-Shwartz & Zhang 2013) on the
    dual of the module docstring, for a PSD Gram ``k`` over u rows and point i
    on row ``where[i]``; returns one alpha per point and a report.

    It runs :func:`_sdca_run` on ``k`` as a :class:`_Gram` from zero alphas,
    its permutations drawn from ``default_rng(seed)``, so identical seeds give
    identical alphas; the :func:`_bounds` gap, recomputed from ``k`` before the
    first epoch and after each, stops it once at most ``_SDCA_TOL (1 + |objective|)``.

    The report holds ``objective`` (the primal at the alphas), that ``gap``,
    the ``epochs`` run and ``converged``, which is False when ``max_epochs``
    ran out before the gap was small enough.
    """
    where = np.asarray(where)
    m = where.size
    y = _dual_problem(labels, m, lam, loss, max_epochs)[0]
    k = np.asarray(k, dtype=float)
    if k.ndim != 2:
        raise ValueError(f"the Gram must be a square 2-d array, got shape {k.shape}")
    u = k.shape[0]
    rows_ok = where.shape == (m,) and where.dtype.kind in "iu" and np.all((where >= 0) & (where < u))
    if k.shape != (u, u) or not rows_ok:
        raise ValueError(f"the Gram must be square and `where` must index its {u} rows as 1-d integers")
    if not np.isfinite(k).all():
        raise ValueError("the Gram must be finite")
    problem = MklLayerProblem(_Gram(where, k), y, lam, loss)
    run = _sdca_run(problem, np.zeros(m), _ONE, np.random.default_rng(seed), _SDCA_TOL, max_epochs)
    a, objective, dual, _, epochs, converged = run
    report = {
        "algo": "sdca",
        "loss": loss.name,
        "lambda": lam,
        "objective": objective,
        "gap": objective - dual,
        "epochs": epochs,
        "converged": converged,
        "seed": seed,
    }
    return a, report


# ---------------------------------------------------------------------------
# MKL over one layer

# The subset form's cap on p: its sums err by at most 32 eps 3^p sum|c| in K c and
# 32 eps 3^p (sum|c|)^2 in a quad (the term-magnitude bound with |g| <= 1), 4.7e-11
# sum|c| at p = 8, where a row's 2^p slots take 2 KiB.
_SUBSET_MAX_P = 8
_SADDLE_TOL = 1e-3  # the beta steps stop once saddle_gap <= _SADDLE_TOL (1 + |objective|)
_BETA_FLOOR = 1e-6  # the least weight a beta step reads, so that a vertex one step drops can return
_POLISH_TOL = 1e-6  # the polish stops once the inner gap <= _POLISH_TOL (1 + |objective|)
_POLISH_STEPS = 2_000_000  # SDCA steps the polish may take: _POLISH_STEPS // m epochs


class SubsetForm:
    """A layer's vertex Grams as subset sums, and an SDCA operator on them.

    Point i is row ``where[i]``, ``slots[r]`` row r's 2^p subsets as indices
    into the layer's sorted distinct subsets (``kernels._subset_layout``),
    ``sizes`` their sizes and ``betas`` the vertices' binomial-basis
    coefficients.  :meth:`load` fills ``c`` and ``W`` from the alphas, :meth:`at`
    takes ``coef`` from beta, and a step at row r adds to its 2^p slots.  A ``gram``,
    the layer's :class:`ClassForm` that ``dense`` builds on first use, is returned by
    :meth:`at` mixed at ``c``: SDCA steps on it, while :meth:`kc` and :meth:`quads` read ``W``.
    """

    def __init__(self, where: np.ndarray, slots: np.ndarray, sizes: np.ndarray, betas: np.ndarray, dense=None):
        self.where, self.slots, self.sizes, self.betas, self._dense = where, slots, sizes, betas, dense
        self.rows, self.vertices = len(slots), len(betas)
        self.cols = np.bitwise_count(np.arange(slots.shape[1]))
        self.choose = np.bincount(self.cols).astype(float)  # C(p, l) subsets of size l per row
        self.w = np.zeros(len(sizes))

    def __iter__(self):  # the arrays it is built from
        return iter((self.where, self.slots, self.sizes, self.betas))

    @cached_property
    def gram(self) -> ClassForm | None:
        return None if self._dense is None else self._dense()

    def load(self, alpha) -> None:
        self.c = np.bincount(self.where, alpha, self.rows)
        self.w = _subset_sums(self.slots, self.c, len(self.sizes))

    def at(self, beta: np.ndarray) -> SubsetForm | ClassForm:
        coef = beta @ self.betas
        self.coef = coef[self.cols]
        self.diag = [float(coef @ self.choose)] * self.rows
        if self.gram is None:
            return self
        self.gram.c = self.c
        return self.gram.at(beta)

    def margin(self, r: int) -> float:
        return float(self.w[self.slots[r]] @ self.coef)

    def step(self, r: int, delta: float) -> None:
        self.w[self.slots[r]] += delta

    def kc(self) -> np.ndarray:
        return self.w[self.slots] @ self.coef

    def quads(self) -> np.ndarray:
        return self.betas @ np.bincount(self.sizes, self.w * self.w, len(self.betas))


class ClassForm(_Gram):
    """A layer's vertex Grams by inner-product class, and an SDCA operator on them.

    Point i is row ``where[i]``, ``ip`` the rows' (u, u) inner products and
    ``table[t]`` vertex t's value table, so ``K_beta = (beta @ table)[ip]``;
    :meth:`at` mixes it in place into ``k``, the Gram of the :class:`_Gram` it
    is, kept on pages of its own so that mixing never grows the heap.  A table
    that is not finite, an ``ip`` that is not a symmetric integer matrix
    indexing it and a vertex Gram whose diagonal is above 1 are refused by name.
    """

    def __init__(self, where: np.ndarray, ip: np.ndarray, table: np.ndarray):
        ip, table = np.asarray(ip), np.asarray(table)
        u = len(ip)
        if ip.shape != (u, u) or not np.array_equal(ip, ip.T):
            raise ValueError(f"inner-product matrix must be symmetric of shape {(u, u)}, got {ip.shape}")
        q = table.shape[1] if table.ndim == 2 else 0
        if not np.issubdtype(ip.dtype, np.integer) or ip.min() < 0 or ip.max() >= q:
            raise ValueError(f"inner-product classes must be integers indexing a (vertices, {q}) table")
        if (bad := np.argwhere(~np.isfinite(table))).size:
            t, k = bad[0].tolist()
            raise ValueError(f"vertex tables must be finite, got table[{t}, {k}] = {table[t, k]}")
        diag = table[:, np.diag(ip)].max(axis=1)
        if diag.max() > 1.0 + 1e-9:
            raise ValueError(f"vertex Gram {int(diag.argmax())} has diagonal above 1")
        self.where, self.ip, self.table = np.asarray(where), ip, table.astype(float)
        self.rows, self.vertices = u, len(table)
        self.c, self.k = np.zeros(u), np.frombuffer(mmap.mmap(-1, 8 * u * u)).reshape(u, u)

    def __iter__(self):  # the arrays it is built from
        return iter((self.where, self.ip, self.table))

    def at(self, beta: np.ndarray) -> _Gram:
        np.take(beta @ self.table, self.ip, out=self.k, mode="clip")  # ip indexes the table
        self.diag = np.diagonal(self.k).tolist()
        return super().at(beta)

    def quads(self) -> np.ndarray:
        """Every c' K_t c as table @ s: s_k sums c_r c_s where ip[r, s] = k, in row blocks."""
        ip, c = self.ip, self.c
        s = np.zeros(self.table.shape[1])
        step = max(1, _BLOCK_ELEMS // max(len(ip), 1))  # row blocks bound both u x u temporaries
        for r in range(0, len(ip), step):
            rows = slice(r, r + step)
            s += np.bincount(ip[rows].ravel(), weights=np.outer(c[rows], c).ravel(), minlength=len(s))
        return self.table @ s


@dataclass
class MklLayerProblem:
    """A layer's dual program: ``vertex_grams`` is a :class:`SubsetForm` or a
    :class:`ClassForm` (:func:`layer_vertex_grams`), or a fixed Gram as a one-vertex
    :class:`_Gram`, whose working state the solver overwrites.  Labels and alphas
    stay one per point: a repeated point may carry both labels."""

    vertex_grams: SubsetForm | ClassForm | _Gram
    labels: np.ndarray
    lam: float
    loss: LossSpec = HINGE
    box: tuple = field(init=False, repr=False, compare=False)  # (lo, hi) from _dual_problem

    def __post_init__(self):
        if np.ndim(self.labels) == 0:
            raise ValueError("labels must be a 1-d vector, got shape ()")
        m = len(self.labels)
        self.labels, self.box = _dual_problem(self.labels, m, self.lam, self.loss)
        where, u = np.asarray(self.vertex_grams.where), self.vertex_grams.rows
        if where.shape != (m,) or where.dtype.kind not in "iu" or np.any((where < 0) | (where >= u)):
            raise ValueError(f"point rows `where` must be {m} integers indexing the {u} rows of the vertex Grams")
        self.where = where

    @property
    def m(self) -> int:
        return self.labels.shape[0]

    @property
    def terms(self) -> tuple:
        """``(loss, labels, lam)``: the primal, the dual and the box need these."""
        return self.loss, self.labels, self.lam


@dataclass
class MklSolution:
    beta: np.ndarray  # the best upper bound's point of {beta >= 0, sum beta <= 1}
    alphas: np.ndarray  # polished at beta
    objective: float  # primal value at (beta, alphas): the upper bound reported
    gap: float  # |primal - dual| at (beta, alphas): the inner gap
    trace: np.ndarray  # best upper bound after each beta step
    lower: float  # best lower bound D(alpha) seen, the polish's iterates included
    lower_alphas: np.ndarray  # the alphas it was taken at
    inner_converged: bool  # the polish reached _POLISH_TOL
    outer_iters: int  # beta steps run
    inner_iters: int  # SDCA epochs over every step and the polish

    @property
    def saddle_gap(self) -> float:
        """``objective - lower``, at least the distance of either bound from the saddle value."""
        return self.objective - self.lower

    @property
    def converged(self) -> bool:
        return self.saddle_gap <= _SADDLE_TOL * (1.0 + abs(self.objective))


def _beta_step(beta: np.ndarray, quads: np.ndarray) -> np.ndarray:
    """Group-lasso MKL's beta (Xu, Jin, King & Lyu 2010): ``beta_t`` proportional to ``||w_t||
    = beta_t sqrt(a' K_t a)``, a beta_t below ``_BETA_FLOOR`` read as the floor and a quad below 0
    by rounding as 0; beta itself when every norm is 0."""
    w = np.maximum(beta, _BETA_FLOOR) * np.sqrt(np.maximum(quads, 0.0))
    return w / w.sum() if w.sum() > 0.0 else beta


def mkl_layer_solve(problem: MklLayerProblem, outer_iters: int = 500) -> MklSolution:
    """Saddle solve of the layer MKL program, certified by its two bounds.

    From the uniform beta, each step runs one :func:`_sdca_epoch` at beta and
    moves beta by :func:`_beta_step` on the new alphas' ``a' K_t a``.  Any beta on
    the capped simplex gives valid bounds.  It stops once the best
    :func:`_bounds` are within ``_SADDLE_TOL (1 + |upper|)``, or after
    ``outer_iters`` steps; :func:`_sdca_run` then polishes the alphas at the best
    upper bound's beta to an inner gap of ``_POLISH_TOL (1 + |objective|)``, in at
    most ``_POLISH_STEPS // m`` epochs or until its best gap stalls, its iterates counting
    for the lower bound too.  Epochs visit the points in permutations drawn from ``default_rng(0)``.
    """
    check_count("outer_iters", outer_iters)
    op, m = problem.vertex_grams, problem.m
    points = _point_lists(problem.where, problem.labels, *problem.box)
    rng = np.random.default_rng(0)
    beta, alpha, zero = np.full(op.vertices, 1.0 / op.vertices), [0.0] * m, np.zeros(m)
    upper, lower = (math.inf, beta, zero), (-math.inf, zero)
    op.load(zero)  # a form keeps the state of its last load
    trace = []
    for _ in range(outer_iters):
        _sdca_epoch(op.at(beta), alpha, rng.permutation(m).tolist(), points)
        a = np.array(alpha)
        primal, _, low, quads = _bounds(problem, a, beta)
        if primal < upper[0] - 1e-12 * (1.0 + abs(primal)):  # rounding alone moves no best point
            upper = (primal, beta, a)
        if low > lower[0]:
            lower = (low, a)
        trace.append(upper[0])
        if upper[0] - lower[0] <= _SADDLE_TOL * (1.0 + abs(upper[0])):
            break
        beta = _beta_step(beta, quads)
    _, beta, a = upper
    run = _sdca_run(problem, a, beta, rng, _POLISH_TOL, _POLISH_STEPS // m, lower, stall=True)
    a, primal, dual, lower, polish, polished = run
    steps = len(trace)
    return MklSolution(beta, a, primal, abs(primal - dual), np.array(trace), *lower, polished, steps, steps + polish)


# ---------------------------------------------------------------------------
# MKL over the whole cube


def layer_vertex_grams(points, weight: int) -> SubsetForm | ClassForm:
    """Vertex-kernel Grams of points of one weight, in the form their canonical layer p selects.

    Point i is distinct point ``where[i]`` on the canonical layer p (weights
    above n/2 are complemented first).  When ``p <= _SUBSET_MAX_P`` the
    result is a :class:`SubsetForm` over the u distinct points and ``u * 2^p``
    slots; its ``gram``, the SDCA operator, is the layer's class form (built by the
    first :meth:`SubsetForm.at`) when ``u * u <= _BLOCK_ELEMS``, and None above.
    Otherwise it is a :class:`ClassForm`: ``ip`` is the (u, u) uint8
    inner-product matrix of the u distinct points and row t of the (p+1, p+1)
    ``table`` is vertex t's value table, so vertex t's Gram is ``table[t][ip]``.
    """
    if len(points) == 0:
        raise ValueError("at least one point required")
    n = points[0].n
    masks = points_to_bits(points, n)
    if np.any(np.bitwise_count(masks) != weight):
        raise ValueError(f"all points must have weight {weight}")
    masks, where = np.unique(_mirrored(masks, weight, n), return_inverse=True)
    layer = LayerParams(n, weight).canonical()

    def dense() -> ClassForm:
        ip = np.empty((masks.size, masks.size), dtype=np.uint8)
        for rows, cols, block in inner_product_blocks(masks, masks):
            ip[rows, cols] = block
        return ClassForm(where, ip, vertex_tables(layer))

    if layer.p > _SUBSET_MAX_P:
        return dense()
    _, slots, sizes = _subset_layout(masks, layer.p)
    return SubsetForm(where, slots, sizes, vertex_betas(layer), dense if masks.size**2 <= _BLOCK_ELEMS else None)


def _layers(points):
    """``(n, layers)`` of a non-empty point list, each point checked once, by its index;
    ``layers`` yields ``(weight, indices, layer_vertex_grams(...))`` per occupied weight, ascending."""
    n = getattr(points[0], "n", 1)  # a first entry that is not a point is named by points_to_bits
    weights = np.bitwise_count(points_to_bits(points, n))
    groups = {w: np.flatnonzero(weights == w) for w in np.unique(weights).tolist()}
    return n, ((w, idx, layer_vertex_grams([points[i] for i in idx], w)) for w, idx in groups.items())


def mkl_train(
    points,
    labels,
    B: float,
    epsilon: float,
    loss: LossSpec = HINGE,
    outer_iters: int = 500,
    lam_override: float | None = None,
) -> TrainedModel:
    """Layer-decomposed MKL: partition by weight, solve each layer alone.

    The regularization weight is :func:`regularization_weight` of
    ``(n, B, epsilon, lam_override)``.  The returned model stores, per
    occupied weight, the vertex mixture selected by that layer's solution;
    cross-layer kernel values are zero so the combined predictions coincide
    with the per-layer ones.  Its report holds ``lambda``, the summed layer
    ``objective``, the largest inner ``gap`` and, under ``per_layer`` keyed
    by weight as a string in ascending order, each layer's beta, objective,
    inner and saddle gaps, both convergence flags, beta steps
    (``outer_steps``) and SDCA epochs (``inner_iters``).
    """
    m = len(points)
    if m == 0:
        raise ValueError("empty dataset")  # before _layers reads points[0]
    check_count("outer_iters", outer_iters)  # before the first layer's vertex Grams
    n, layers = _layers(points)
    lam = regularization_weight(n, B, epsilon, lam_override)
    y = _dual_problem(labels, m, lam, loss)[0]
    per_layer = {}
    spec_layers = {}
    alphas = np.zeros(m)
    for w, idx, grams in layers:
        problem = MklLayerProblem(grams, y[idx], lam, loss)
        sol = mkl_layer_solve(problem, outer_iters=outer_iters)
        per_layer[str(w)] = {
            "beta": sol.beta.tolist(),
            "objective": sol.objective,
            "gap": sol.gap,
            "saddle_gap": sol.saddle_gap,
            "converged": sol.converged,
            "outer_steps": sol.outer_iters,
            "inner_converged": sol.inner_converged,
            "inner_iters": sol.inner_iters,
        }
        alphas[idx] = sol.alphas
        spec_layers[w] = mix_vertices(LayerParams(n, w).canonical(), sol.beta)
    spec = KernelSpec(n, "direct_sum", spec_layers)
    report = {
        "algo": "mkl",
        "loss": loss.name,
        "lambda": lam,
        "objective": sum(layer["objective"] for layer in per_layer.values()),
        "seed": None,
        "gap": max(layer["gap"] for layer in per_layer.values()),
        "iters": outer_iters,
        "per_layer": per_layer,
    }
    return TrainedModel(spec, tuple(points), alphas, report)


# ---------------------------------------------------------------------------
# Rademacher complexity


@dataclass(frozen=True)
class RademacherEstimate:
    mean: float
    stderr: float
    trials: int
    bound: float  # sqrt(2 e B^2 ln(n) / m)
    layer_share: dict  # weight -> mean of the per-layer sup quadratic form


def rademacher_estimate(points, B: float, trials: int = 200, seed: int = 0) -> RademacherEstimate:
    """Monte-Carlo Rademacher complexity of norm-B classifiers, any layer kernel.

    Per sign draw the supremum over the kernel polytope of
    ``sigma' K sigma`` is attained at a vertex, so the estimate is
    ``(B/m) sqrt(sum_layers max_t sigma' K_t sigma)``; ties in the max go to
    the lowest vertex index (the value is unaffected).  Also reports the
    closed-form bound ``sqrt(2 e B^2 ln(n) / m)``, which needs n >= 2.
    """
    _positive("B", B)
    check_count("trials", trials, 1)
    m = len(points)
    if m == 0:
        raise ValueError("empty sample")
    n, layers = _layers(points)
    if n < 2:
        raise ValueError(f"the bound sqrt(2 e B^2 ln(n) / m) needs n >= 2, got n={n}")
    layer_data = list(layers)
    rng = np.random.default_rng(seed)
    vals = np.empty(trials)
    share = {w: 0.0 for w, _, _ in layer_data}
    for trial in range(trials):
        sigma = rng.integers(0, 2, size=m) * 2.0 - 1.0
        total = 0.0
        for w, idx, op in layer_data:
            op.load(sigma[idx])
            q = max(float(op.quads().max()), 0.0)
            share[w] += q / trials
            total += q
        vals[trial] = (B / m) * math.sqrt(total)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    bound = math.sqrt(2.0 * math.e * B * B * math.log(n) / m)
    return RademacherEstimate(mean, stderr, trials, bound, share)

"""Convex-loss training over layer kernels.

Four solvers live here:

* :func:`sdca_solve` -- stochastic dual coordinate ascent (Shalev-Shwartz &
  Zhang 2013) on the dual below over a fixed PSD Gram: one exact,
  box-clipped coordinate step per point per epoch, and a stop once the
  duality gap, recomputed after each epoch, is at most ``_SDCA_TOL (1 +
  |objective|)``.  ``train_on_cube`` runs it on a lifted Gram.
* :func:`pegasos_train` -- kernelized stochastic subgradient descent on the
  regularized objective ``lam/2 ||w||^2 + mean_i loss(<w, phi(x_i)>, y_i)``
  with step ``1/(lam t)`` and iterate averaging, in lazily scaled
  representer form (Shalev-Shwartz, Singer, Srebro & Cotter 2011, sec. 4):
  the iterate is ``a_t = c_t / (lam t)`` with ``c`` a sum of subgradient
  signs, so a step that violates no margin touches no m-vector; its Gram
  is always taken over the distinct training points.  Its
  ``gap`` is the primal at the averaged iterate minus the dual at that
  iterate clipped to the conjugate box below.
* :func:`mkl_layer_solve` -- the layer-wise multiple-kernel program
  ``inf_{beta in simplex} sup_alpha G(alpha, beta)`` where the kernel is a
  sub-convex combination ``K_beta = sum_t beta_t K_t`` of the vertex Grams.
  The outer loop is projected subgradient descent on the capped simplex
  ``{beta >= 0, sum beta <= 1}``; the inner loop is accelerated projected
  gradient ascent (FISTA with gradient restart) over the box carved out by
  the loss conjugate, with the certified step
  ``1/(lam max_i sum_j |K_beta[i, j]|)`` (see :func:`_inner_max`).
* :func:`rademacher_estimate` -- Monte-Carlo empirical Rademacher
  complexity of the class of bounded-norm classifiers under *any*
  admissible layer kernel, together with the closed-form bound
  ``sqrt(2 e B^2 ln(n) / m)``.

Vertex Grams are kept in inner-product-class form over a layer's distinct
points: :func:`layer_vertex_grams` gives ``(where, ip, table)``, point i being
distinct point ``where[i]``, ``ip`` their uint8 inner products and
``table[t]`` vertex t's value table; ``table[t][ip]`` is never built.  With
``c = bincount(where, alpha)``, MKL and Rademacher use ``K_beta = (beta @
table)[ip]``, ``K alpha = (K_beta c)[where]`` and ``alpha' K_t alpha =
(table @ s)[t]``, ``s_k`` the sum of ``c_r c_s`` over pairs with ``ip = k``.

Duality convention.  For fixed ``beta`` the dual of the primal program is

    sup_alpha  -(lam/2) alpha' K_beta alpha
               - (1/m) sum_i conj(-lam m alpha_i, y_i)

where ``conj`` is the Fenchel conjugate of the loss in its first argument.
With this scaling the primal optimizer is literally ``w = sum_i alpha_i
phi(x_i)``, so a single coefficient vector serves both the dual objective
and the representer-form predictions, and the duality gap
|primal - dual| -> 0 certifies the saddle.  A loss is its value and its
conjugate box (:class:`LossSpec`): the conjugate is linear, ``conj(a, y) = a
y``, on that box, so ``loss(z, y) = sup_a a (z - y)`` over it, and every
solver reads the dual term and Pegasos' subgradient off the box:

    hinge     loss(z,y) = max(0, 1 - y z),  y in {-1,+1}:  a y in [-1, 0]
    absolute  loss(z,y) = |z - y|:                         |a| <= 1

Every trainer here, and ``embedding.train_on_cube``, first calls
:func:`_dual_problem`, which refuses in order a loss not a :class:`LossSpec`
(``TypeError``), no points, a bad ``lam``, a bad epoch cap, and labels that
are not one finite value per point, -1 or +1 under the hinge loss.

Solvers are single-threaded state machines per problem instance; distinct
layer problems share only immutable class data and may run concurrently.
Returned models are immutable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .kernels import _BLOCK_ELEMS, KernelSpec, TrainedModel, _mirrored, mix_vertices, points_to_bits
from .kernels import gram, inner_product_blocks
from .scheme import LayerParams, vertex_tables

__all__ = [
    "LossSpec",
    "HINGE",
    "ABSOLUTE",
    "get_loss",
    "regularization_weight",
    "hinge_labels",
    "pegasos_train",
    "sdca_solve",
    "MklLayerProblem",
    "MklSolution",
    "MklTrainResult",
    "mkl_layer_solve",
    "mkl_train",
    "RademacherEstimate",
    "rademacher_estimate",
    "project_capped_simplex",
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
    if not isinstance(value, numbers.Integral):
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
    (``g != 0``) costs one Gram row.  A kernel value depends only
    on the two points, so the Gram and ``z`` have one row per distinct point
    (``_MAX_GRAM_POINTS`` caps their number).  The average ``(1/T) sum_t
    a_t`` is built in closed form: a hit at step s adds ``-g (H_T -
    H_{s-1}) / (lam T)`` to its coordinate, ``H`` the harmonic numbers.  ``report["gap"]`` is the
    primal at that average minus the dual at the average clipped to the
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
    a_bar = np.zeros(m)
    for s in range(0, steps, _PICK_CHUNK):  # Python lists of one chunk at a time
        chunk = zip(picks[s : s + _PICK_CHUNK].tolist(), weight[s : s + _PICK_CHUNK].tolist())
        for t, (i, w_t) in enumerate(chunk, start=s + 1):
            u, y_i = row_of[i], y_of[i]
            margin = z.item(u) / (lam * (t - 1)) if t > 1 else 0.0
            g = hi_of[i] if margin > y_i else lo_of[i] if margin < y_i else 0.0  # argmax of a (margin - y_i)
            if g:
                z -= g * k[u]
                a_bar[i] -= g * w_t
    objective = _primal_value(loss, y, lam, k, a_bar, where)
    alpha = np.clip(a_bar, lo, hi)
    report = {
        "algo": "pegasos",
        "loss": loss.name,
        "lambda": lam,
        "objective": objective,
        "iters": steps,
        "seed": seed,
        "gap": objective - _dual_value(loss, y, lam, k, alpha, where),
    }
    return TrainedModel(spec, tuple(points), a_bar, report)


# ---------------------------------------------------------------------------
# Dual coordinate ascent

_SDCA_TOL = 1e-4  # SDCA stops once gap <= _SDCA_TOL (1 + |objective|)


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

    Each epoch visits the points once, in ``rng.permutation(m)`` with ``rng =
    default_rng(seed)``, so identical seeds give identical alphas.  The dual is
    ``lam (alpha . y - c' k c / 2)``, ``c = bincount(where, alpha)``, so the
    step ``alpha_i <- clip(alpha_i + (y_i - z[r]) / k[r, r], box_i)``, ``r =
    where[i]``, maximizes it over alpha_i; ``z = k @ c`` gains ``delta k[r]``
    when alpha_i moves by ``delta``.  A row whose diagonal is not positive (a
    zero row, in a PSD Gram) sends alpha_i to :func:`_corner`.  The gap
    ``_primal_value - _dual_value``, recomputed from ``k`` before the first
    epoch and after each, stops the run once at most ``_SDCA_TOL (1 + |objective|)``.

    The report holds ``objective`` (the primal at the alphas), that ``gap``,
    the ``epochs`` run and ``converged``, which is False when ``max_epochs``
    ran out before the gap was small enough.
    """
    where = np.asarray(where)
    m = where.size
    y, (lo, hi) = _dual_problem(labels, m, lam, loss, max_epochs)
    k = np.asarray(k, dtype=float)
    if k.ndim != 2:
        raise ValueError(f"the Gram must be a square 2-d array, got shape {k.shape}")
    u = k.shape[0]
    rows_ok = where.shape == (m,) and where.dtype.kind in "iu" and np.all((where >= 0) & (where < u))
    if k.shape != (u, u) or not rows_ok:
        raise ValueError(f"the Gram must be square and `where` must index its {u} rows as 1-d integers")
    if not np.isfinite(k).all():
        raise ValueError("the Gram must be finite")
    y_of, row_of, lo_of, hi_of, corner_of = (v.tolist() for v in (y, where, lo, hi, _corner(y, lo, hi)))
    diag = np.diagonal(k).tolist()
    alpha = [0.0] * m
    z = np.zeros(u)
    rng = np.random.default_rng(seed)
    epochs = 0
    while True:
        a = np.array(alpha)
        objective = _primal_value(loss, y, lam, k, a, where)
        gap = objective - _dual_value(loss, y, lam, k, a, where)
        converged = gap <= _SDCA_TOL * (1.0 + abs(objective))
        if converged or epochs == max_epochs:
            break
        epochs += 1
        for i in rng.permutation(m).tolist():
            r = row_of[i]
            if diag[r] > 0.0:
                new = min(max(alpha[i] + (y_of[i] - z.item(r)) / diag[r], lo_of[i]), hi_of[i])
            else:
                new = corner_of[i]
            delta = new - alpha[i]
            if delta:
                alpha[i] = new
                z += delta * k[r]
    report = {
        "algo": "sdca",
        "loss": loss.name,
        "lambda": lam,
        "objective": objective,
        "gap": gap,
        "epochs": epochs,
        "converged": converged,
        "seed": seed,
    }
    return a, report


# ---------------------------------------------------------------------------
# MKL over one layer


@dataclass
class MklLayerProblem:
    """Fixed data for the per-layer saddle program; ``vertex_grams`` is the
    class form ``(where, ip, table)`` of :func:`layer_vertex_grams`.  Labels
    and alphas stay one per point: a repeated point may carry both labels."""

    vertex_grams: tuple
    labels: np.ndarray
    lam: float
    loss: LossSpec = HINGE
    box: tuple = field(init=False, repr=False, compare=False)  # (lo, hi) from _dual_problem

    def __post_init__(self):
        where, ip, table = map(np.asarray, self.vertex_grams)
        if np.ndim(self.labels) == 0:
            raise ValueError("labels must be a 1-d vector, got shape ()")
        m, u = len(self.labels), len(ip)
        self.labels, self.box = _dual_problem(self.labels, m, self.lam, self.loss)
        if ip.shape != (u, u) or not np.array_equal(ip, ip.T):
            raise ValueError(f"inner-product matrix must be symmetric of shape {(u, u)}, got {ip.shape}")
        if where.shape != (m,) or where.dtype.kind not in "iu" or np.any((where < 0) | (where >= u)):
            raise ValueError(f"point rows `where` must be {m} integers indexing the {u} rows of ip")
        q = table.shape[1] if table.ndim == 2 else 0
        if not np.issubdtype(ip.dtype, np.integer) or ip.min() < 0 or ip.max() >= q:
            raise ValueError(f"inner-product classes must be integers indexing a (vertices, {q}) table")
        diag = table[:, np.diag(ip)].max(axis=1)
        if diag.max() > 1.0 + 1e-9:
            raise ValueError(f"vertex Gram {int(diag.argmax())} has diagonal above 1")
        self.where, self.ip, self.table = where, ip, table.astype(float)

    @property
    def m(self) -> int:
        return self.labels.shape[0]

    @property
    def terms(self) -> tuple:
        """``(loss, labels, lam)``: the primal, the dual and the box need these, as in Pegasos."""
        return self.loss, self.labels, self.lam

    def combine(self, beta: np.ndarray) -> np.ndarray:
        """K_beta = sum_t beta_t K_t over the distinct points, one lookup of the mixed table."""
        return (np.asarray(beta, dtype=float) @ self.table)[self.ip]


def _vertex_quads(ip: np.ndarray, table: np.ndarray, alpha, where) -> np.ndarray:
    """Every alpha' K_t alpha as table @ s: s_k sums c_r c_s where ip[r, s] = k, c = bincount(where, alpha)."""
    c = np.bincount(where, alpha, len(ip))
    s = np.zeros(table.shape[1])
    step = max(1, _BLOCK_ELEMS // max(len(ip), 1))  # row blocks bound both u x u temporaries
    for r in range(0, len(ip), step):
        rows = slice(r, r + step)
        s += np.bincount(ip[rows].ravel(), weights=np.outer(c[rows], c).ravel(), minlength=table.shape[1])
    return table @ s


@dataclass
class MklSolution:
    beta: np.ndarray  # point of {beta >= 0, sum beta <= 1}
    alphas: np.ndarray
    objective: float  # primal value at (beta, alphas)
    gap: float  # |primal - dual| at the returned point
    trace: np.ndarray  # best-so-far outer objective, one entry per iteration
    inner_converged: bool  # the final polish's flag; capped outer steps do not count
    outer_iters: int
    inner_iters: int  # inner steps over every outer step and the polish


def project_capped_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a finite vector onto {x >= 0, sum x <= 1}."""
    if (bad := np.flatnonzero(~np.isfinite(v))).size:
        raise ValueError(f"project_capped_simplex needs finite entries, got v[{bad[0]}] = {v[bad[0]]}")
    w = np.maximum(v, 0.0)
    if w.sum() <= 1.0:
        return w
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _dual_value(loss: LossSpec, y: np.ndarray, lam: float, k: np.ndarray, alpha, where) -> float:
    conj = (-lam * y.shape[0] * alpha) * y  # the linear conjugate conj(a, y) = a y
    c = np.bincount(where, alpha, k.shape[0])
    return -0.5 * lam * float(c @ k @ c) - float(np.mean(conj))


def _primal_value(loss: LossSpec, y: np.ndarray, lam: float, k: np.ndarray, alpha, where) -> float:
    c = np.bincount(where, alpha, k.shape[0])
    kc = k @ c
    return 0.5 * lam * float(c @ kc) + float(np.mean(loss.value(kc[where], y)))


def _inner_max(
    problem: MklLayerProblem,
    kb: np.ndarray,
    alpha0: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, bool, int]:
    """FISTA ascent for sup_alpha G(alpha, beta) at fixed beta (Beck & Teboulle 2009).

    ``kb`` is over the distinct points.  Each step is ``x+ = clip(v + grad/(lam L))``
    from the extrapolated point v, with one matvec ``(kb @ bincount(where, v))[where]``
    and ``L = max_r sum_s |kb[r, s]| count_s >= ||K_beta||_2``, ``count_s`` the
    points on row s; the first, from ``v = x``, is a plain projected gradient step.
    Momentum restarts (``theta = 1``, ``v = x+``) when ``(x+ - x).(v - x+) > 0``
    (O'Donoghue & Candes 2015).  Stops when ``lam L ||v - x+||``, the
    projected-gradient norm at v, is at most ``tol``.
    """
    lam, y, where, u = problem.lam, problem.labels, problem.where, kb.shape[0]
    lo, hi = problem.box
    alpha = np.clip(alpha0, lo, hi)
    top = float((np.abs(kb) @ np.bincount(where, minlength=u)).max())
    if top <= 1e-300:  # kernel zero to working precision: the dual is linear
        return _corner(y, lo, hi), True, 0
    step = 1.0 / (lam * top)
    v, theta = alpha, 1.0
    for it in range(1, max_iter + 1):
        nxt = np.clip(v + step * (lam * (y - (kb @ np.bincount(where, v, u))[where])), lo, hi)
        if float(np.linalg.norm((v - nxt) / step)) <= tol:
            return nxt, True, it
        move = nxt - alpha
        if float(move @ (v - nxt)) > 0.0:
            v, theta = nxt, 1.0
        else:
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            v = nxt + ((theta - 1.0) / theta_next) * move
            theta = theta_next
        alpha = nxt
    return alpha, False, max_iter


_INNER_TOL = 1e-8  # projected-gradient norm at which the inner ascent stops
_INNER_MAX_ITER = 100_000  # inner steps of the final polish; outer steps take at most 5,000


def mkl_layer_solve(problem: MklLayerProblem, outer_iters: int = 500) -> MklSolution:
    """Saddle solve of the layer MKL program with a best-so-far certificate.

    Outer: projected subgradient descent on the capped simplex with step
    ``1/sqrt(k)``; the subgradient at the inner optimizer has components
    ``-(lam/2) alpha' K_t alpha``.  Inner: the restarted accelerated ascent
    :func:`_inner_max` to ``_INNER_TOL``, warm-started, at most 5,000 steps per
    outer iteration.  The returned solution is the best beta seen, with its
    alpha re-polished (up to ``_INNER_MAX_ITER`` steps) and the duality gap
    computed there; ``inner_iters`` counts the inner steps of all of it.
    """
    check_count("outer_iters", outer_iters)
    q = problem.table.shape[0]
    beta = np.full(q, 1.0 / q)
    alpha = np.zeros(problem.m)
    best = (math.inf, beta.copy(), alpha.copy())
    trace = np.empty(outer_iters)
    loop_cap = min(_INNER_MAX_ITER, 5000)  # full budget is spent on the final polish
    inner_iters = 0
    for k in range(1, outer_iters + 1):
        kb = problem.combine(beta)
        alpha, _, iters = _inner_max(problem, kb, alpha, _INNER_TOL, loop_cap)
        inner_iters += iters
        val = _dual_value(*problem.terms, kb, alpha, problem.where)
        if val < best[0]:
            best = (val, beta.copy(), alpha.copy())
        trace[k - 1] = best[0]
        subg = -0.5 * problem.lam * _vertex_quads(problem.ip, problem.table, alpha, problem.where)
        beta = project_capped_simplex(beta - subg / math.sqrt(k))
    _, beta_star, alpha_star = best
    kb = problem.combine(beta_star)
    alpha_star, polished, iters = _inner_max(problem, kb, alpha_star, _INNER_TOL, _INNER_MAX_ITER)
    primal = _primal_value(*problem.terms, kb, alpha_star, problem.where)
    dual = _dual_value(*problem.terms, kb, alpha_star, problem.where)
    return MklSolution(
        beta=beta_star,
        alphas=alpha_star,
        objective=primal,
        gap=abs(primal - dual),
        trace=trace,
        inner_converged=polished,
        outer_iters=outer_iters,
        inner_iters=inner_iters + iters,
    )


# ---------------------------------------------------------------------------
# MKL over the whole cube


def layer_vertex_grams(points, weight: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex-kernel Grams of points of one weight, in class form ``(where, ip, table)``.

    Point i is distinct point ``where[i]`` on the canonical layer p (weights
    above n/2 are complemented first), ``ip`` is the (u, u) uint8 inner-product
    matrix of the u distinct points and row t of the (p+1, p+1) ``table`` is
    vertex t's value table, so vertex t's Gram is ``table[t][ip]``.
    """
    if len(points) == 0:
        raise ValueError("at least one point required")
    n = points[0].n
    masks = points_to_bits(points, n)
    if np.any(np.bitwise_count(masks) != weight):
        raise ValueError(f"all points must have weight {weight}")
    masks, where = np.unique(_mirrored(masks, weight, n), return_inverse=True)
    ip = np.empty((masks.size, masks.size), dtype=np.uint8)
    for rows, cols, block in inner_product_blocks(masks, masks):
        ip[rows, cols] = block
    return where, ip, vertex_tables(LayerParams(n, weight).canonical())


def _layers(points):
    """``(n, layers)`` of a non-empty point list, each point checked once, by its index;
    ``layers`` yields ``(weight, indices, layer_vertex_grams(...))`` per occupied weight, ascending."""
    n = getattr(points[0], "n", 1)  # a first entry that is not a point is named by points_to_bits
    weights = np.bitwise_count(points_to_bits(points, n))
    groups = {w: np.flatnonzero(weights == w) for w in np.unique(weights).tolist()}
    return n, ((w, idx, layer_vertex_grams([points[i] for i in idx], w)) for w, idx in groups.items())


@dataclass
class MklTrainResult:
    lam: float
    per_layer: dict  # weight -> MklSolution
    model: TrainedModel
    objective: float  # sum of layer objectives

    def layer_report(self) -> dict:
        """Per layer (keyed by weight as a string): beta, objective, gap, convergence, inner steps."""
        return {
            str(w): {
                "beta": s.beta.tolist(),
                "objective": s.objective,
                "gap": s.gap,
                "inner_converged": s.inner_converged,
                "inner_iters": s.inner_iters,
            }
            for w, s in self.per_layer.items()
        }


def mkl_train(
    points,
    labels,
    B: float,
    epsilon: float,
    loss: LossSpec = HINGE,
    outer_iters: int = 500,
    lam_override: float | None = None,
) -> MklTrainResult:
    """Layer-decomposed MKL: partition by weight, solve each layer alone.

    The regularization weight is :func:`regularization_weight` of
    ``(n, B, epsilon, lam_override)``.  The combined model stores, per
    occupied weight, the vertex mixture selected by that layer's solution;
    cross-layer kernel values are zero so the combined predictions coincide
    with the per-layer ones.
    """
    m = len(points)
    if m == 0:
        raise ValueError("empty dataset")  # before _layers reads points[0]
    check_count("outer_iters", outer_iters)  # before the first layer's vertex Grams
    n, layers = _layers(points)
    lam = regularization_weight(n, B, epsilon, lam_override)
    y = _dual_problem(labels, m, lam, loss)[0]
    per_layer: dict[int, MklSolution] = {}
    spec_layers = {}
    alphas = np.zeros(m)
    total = 0.0
    for w, idx, grams in layers:
        problem = MklLayerProblem(grams, y[idx], lam, loss)
        sol = mkl_layer_solve(problem, outer_iters=outer_iters)
        per_layer[w] = sol
        alphas[idx] = sol.alphas
        total += sol.objective
        spec_layers[w] = mix_vertices(LayerParams(n, w).canonical(), sol.beta)
    spec = KernelSpec(n, "direct_sum", spec_layers)
    model = TrainedModel(
        spec,
        tuple(points),
        alphas,
        report={
            "algo": "mkl",
            "loss": loss.name,
            "lambda": lam,
            "objective": total,
            "seed": None,
            "gap": max(sol.gap for sol in per_layer.values()),
            "iters": outer_iters,
        },
    )
    return MklTrainResult(lam, per_layer, model, total)


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
        for w, idx, (where, ip, table) in layer_data:
            q = max(float(_vertex_quads(ip, table, sigma[idx], where).max()), 0.0)
            share[w] += q / trials
            total += q
        vals[trial] = (B / m) * math.sqrt(total)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    bound = math.sqrt(2.0 * math.e * B * B * math.log(n) / m)
    return RademacherEstimate(mean, stderr, trials, bound, share)

"""Randomized bit embeddings of [0,1]^n that preserve inner products.

The construction embeds each coordinate separately: values are rounded
down to a grid of step ``eps_int / 3`` (with 1.0 appended so the right
endpoint is exact).  Each role draws one uniform vector ``U`` in
``[0,1)^t`` per coordinate and keeps only its ``uint16`` cell vector
``c = searchsorted(grid, U, side="right")``.  The row of grid value
``v = grid[i]`` is ``1[c <= i] = 1[U < v]``: ``t`` Bernoulli(v) bits, and
the rows of one role are nested thresholds (row i is a subset of row
i+1).  For grid values ``u, v`` the dot product of a role-1 and a role-2
row is Binomial(t, uv) and concentrates around ``t u v``, so with
``t = ceil(c_t * ln(1/eps_int) / eps_int^2)`` the scaled inner product of
two embedded coordinates tracks the real product within ``eps_int``.

A cube embedder uses per-coordinate accuracy ``eps / n`` and concatenates
the coordinate embeddings; summing the per-coordinate errors gives
``|<x, y> - <Psi_1(x), Psi_2(y)> / t| <= eps``.

Instead of trusting the concentration argument, every interval embedder is
*certified at build time*: the full grid-pair inner-product table,
``#{b : c1_b <= i, c2_b <= j}`` at ``(i, j)``, is the 2-D cumulative
histogram of the two cell vectors (exactly the popcount of the rows), and
the build is retried with a fresh substream until the worst grid-pair
deviation is within ``eps_int``, up to a bounded number of retries.  A
loaded pair file is certified again.  Bit rows are built one at a time and
only where bits are asked for (``EmbeddedPoint.bits``, ``packed``).  An
embedded point is held as its grid cells, and every lifted Gram is read
from these certified tables.

Kernel lifting: a scalar kernel ``g`` on inner products (L-Lipschitz on
``[0, n]``) lifts to embedded points as ``g(<u, v> / t)``; the lifted value
differs from ``g(<x, y>)`` by at most ``L * eps`` for certified pairs.

An ``EmbeddedModel`` with a profile of degree <= 1 on ``[0, >= n]`` sums its
support into an ``(n, K)`` array once and scores a query with n lookups,
exact up to float summation order: a single query is n bisections of the
grid and n list reads in Python floats, a batch is n column gathers, and
both add their n terms left to right; other profiles read the tables per
query.

Two maps (role 1 and role 2) are needed because same-role inner products
are biased whenever both arguments hit the same grid cell (a row dotted
with itself counts ones, not squared ones); only role-1-vs-role-2 products
are certified, and same-role products are rejected.

Builds are single-threaded (one PRNG substream per coordinate and
attempt); once built, pairs are immutable and embedding/lifting are pure
and thread-safe.
"""

from __future__ import annotations

import math
import operator
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import learners
from .kernels import _checked_alphas

__all__ = [
    "IntervalEmbedderPair",
    "CubeEmbedderPair",
    "EmbeddedPoint",
    "StronglyEuclideanG",
    "poly_g",
    "LiftedKernel",
    "build_pair",
    "embed",
    "lift_kernel",
    "EmbeddedModel",
    "train_on_cube",
    "save_pair",
    "load_pair",
    "required_bits",
]

DEFAULT_CT = 8.0
WIDTH_CAP = 10**7
BUILD_RETRIES = 10


def required_bits(epsilon: float, c_t: float = DEFAULT_CT) -> int:
    """Bits per coordinate for one interval embedder of accuracy epsilon."""
    return math.ceil(c_t * math.log(1.0 / epsilon) / epsilon**2)


def _interval_grid(eps_int: float) -> np.ndarray:
    """Multiples of eps_int/3 covering [0,1], extended to include 1.0 exactly;
    read-only, so a copy taken of it (``EmbeddedModel``'s list) cannot go stale."""
    step = eps_int / 3.0
    count = int(math.floor(1.0 / step + 1e-9))
    grid = step * np.arange(count + 1)
    if grid[-1] >= 1.0:
        grid[-1] = 1.0
    else:
        grid = np.append(grid, 1.0)
    grid.flags.writeable = False
    return grid


@dataclass
class IntervalEmbedderPair:
    """Certified pair of random maps from a grid on [0,1] to {0,1}^t."""

    t: int
    grid: np.ndarray
    cells: tuple[np.ndarray, np.ndarray]  # per role: (t,) uint16, searchsorted(grid, U)
    attempt: int
    pair_inner: np.ndarray = field(default=None, init=False, repr=False)  # derived (K, K) int64, role1 x role2

    def ensure_pair_inner(self) -> np.ndarray:
        """#{bits b : c1_b <= i, c2_b <= j}, a 2-D cumulative histogram of the cells."""
        if self.pair_inner is None:
            k1 = self.grid.shape[0] + 1
            hist = np.bincount(self.cells[0] * np.int64(k1) + self.cells[1], minlength=k1 * k1)
            self.pair_inner = hist.reshape(k1, k1).cumsum(0).cumsum(1)[:-1, :-1]
        return self.pair_inner

    def max_deviation(self) -> float:
        """Worst |u*v - <psi_1(u), psi_2(v)>/t| over all ordered grid pairs."""
        ip = self.ensure_pair_inner()
        target = np.outer(self.grid, self.grid)
        return float(np.abs(target - ip / self.t).max())

    @property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """Per role, the (K, ceil(t/8)) uint8 bit rows, little-endian within a row;
        built again, one row at a time, on every access."""
        k = self.grid.shape[0]
        return tuple(np.array([np.packbits(c <= i, bitorder="little") for i in range(k)]) for c in self.cells)

    def row_int(self, role: int, idx: int) -> int:
        return int.from_bytes(np.packbits(self.cells[role - 1] <= idx, bitorder="little"), "little")


def _check_unit(v: np.ndarray) -> None:
    """Refuse coordinates outside [0, 1], give or take 1e-12, NaN included."""
    ok = (v >= -1e-12) & (v <= 1.0 + 1e-12)
    if not ok.all():
        raise ValueError(f"coordinates must lie in [0, 1], got {v[~ok][0]}")


def _grid_cells(grid: np.ndarray, step: float, u: np.ndarray) -> np.ndarray:
    """``searchsorted(grid, u, side="right")`` for u in [0, 1) on the grid of
    ``_interval_grid``: the guess ``trunc(u * (1 / step)) + 1``, capped at the
    last cell, is off by at most one where rounding meets a grid point, and
    one exact comparison each way against ``grid`` mends that."""
    c = (u * (1.0 / step)).astype(np.uint16) + 1
    np.minimum(c, grid.shape[0] - 1, out=c)
    c -= grid[c - 1] > u
    c += grid[c] <= u
    return c


def _build_interval_pair(eps_int: float, t: int, seed: int, coord: int) -> IntervalEmbedderPair:
    grid = _interval_grid(eps_int)
    for attempt in range(BUILD_RETRIES):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(coord, attempt)))
        cells = tuple(_grid_cells(grid, eps_int / 3.0, rng.random(t)) for _role in (1, 2))
        pair = IntervalEmbedderPair(t, grid, cells, attempt)
        last_dev = pair.max_deviation()
        if last_dev <= eps_int:
            return pair
    raise RuntimeError(
        f"interval embedder failed its self-check {BUILD_RETRIES} times "
        f"(coord {coord}, accuracy {eps_int:.3g}, worst deviation {last_dev:.3g})"
    )


@dataclass
class CubeEmbedderPair:
    """Coordinate-wise concatenation of certified interval embedders."""

    n: int
    epsilon: float
    t: int
    seed: int
    coords: list[IntervalEmbedderPair]

    @property
    def width(self) -> int:
        return self.n * self.t

    @property
    def grid(self) -> np.ndarray:
        return self.coords[0].grid

    def grid_indices(self, x) -> np.ndarray:
        """Round each coordinate of a vector or an (m, n) batch down to its grid
        cell; reject out-of-range input."""
        v = np.asarray(x, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.n:
            raise ValueError(f"expected a length-{self.n} vector, got shape {v.shape}")
        _check_unit(v)
        cells = np.searchsorted(self.grid, np.clip(v, 0.0, 1.0), side="right") - 1
        cells.flags.writeable = False
        return cells

    def cell_inner(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """<Psi_1(x), Psi_2(y)> for (m1, n) cells x and (m2, n) cells y, from the tables."""
        out = np.zeros((rows.shape[0], cols.shape[0]), dtype=np.int64)
        for c, coord in enumerate(self.coords):
            out += coord.ensure_pair_inner()[rows[:, c][:, None], cols[:, c]]
        return out

    def sym_inner(self, cells: np.ndarray) -> np.ndarray:
        """(P + P^T) / 2 with P = cell_inner(cells, cells); every entry is certified."""
        ip = self.cell_inner(cells, cells)
        return (ip + ip.T) / 2.0

    def table_inner(self, x, y) -> int:
        """Exact <Psi_1(x), Psi_2(y)> via the certified per-coordinate tables."""
        return int(self.cell_inner(self.grid_indices([x]), self.grid_indices([y]))[0, 0])


def build_pair(n: int, epsilon: float, seed: int = 0, c_t: float = DEFAULT_CT) -> CubeEmbedderPair:
    """Build a certified cube embedder with per-coordinate accuracy epsilon/n.

    ``t = required_bits(epsilon/n, c_t)`` bits per role, ``c_t`` finite and
    positive; a width ``n t`` above ``WIDTH_CAP`` is refused before sampling,
    and each coordinate is drawn up to ``BUILD_RETRIES`` times.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < c_t < math.inf:
        raise ValueError(f"c_t must be a finite positive number, got {c_t}")
    eps_int = epsilon / n
    t = required_bits(eps_int, c_t)
    if n * t > WIDTH_CAP:
        feasible = _smallest_feasible_eps(n, c_t)
        raise ValueError(
            f"embedded width n*t = {n * t} exceeds the cap {WIDTH_CAP}; "
            f"smallest feasible epsilon for n={n} is about {feasible:.4g}"
        )
    coords = [_build_interval_pair(eps_int, t, seed, c) for c in range(n)]
    return CubeEmbedderPair(n, epsilon, t, seed, coords)


def _smallest_feasible_eps(n: int, c_t: float) -> float:
    lo, hi = 1e-6, 1.0 - 1e-9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if n * required_bits(mid / n, c_t) > WIDTH_CAP:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True, eq=False)
class EmbeddedPoint:
    """A real vector embedded by one role of a pair, held as its (n,) grid cells."""

    pair: CubeEmbedderPair = field(repr=False)
    role: int
    cells: np.ndarray

    @property
    def bits(self) -> int:
        """The n*t-bit row: coordinate c's fixed row for its cell, shifted to bit c*t."""
        coords, t = self.pair.coords, self.pair.t
        return sum(coords[c].row_int(self.role, int(a)) << (c * t) for c, a in enumerate(self.cells))

    def to_string(self) -> str:
        """The bit row as a bitstring; character i is bit i."""
        return format(self.bits, f"0{self.pair.width}b")[::-1]


def embed(pair: CubeEmbedderPair, role: int, x) -> EmbeddedPoint | list[EmbeddedPoint]:
    """Embed a real vector under role 1 or 2: round it to its grid cells.

    An (m, n) batch gives a list of m points, rounded with one searchsorted.
    """
    if role not in (1, 2):
        raise ValueError("role must be 1 or 2")
    cells = pair.grid_indices(x)
    if cells.ndim == 1:
        return EmbeddedPoint(pair, role, cells)
    return [EmbeddedPoint(pair, role, row) for row in cells]


# ---------------------------------------------------------------------------
# Scalar kernels of the inner product and their lift


@dataclass(frozen=True)
class StronglyEuclideanG:
    """A scalar kernel profile g on [0, domain_max], with a declared Lipschitz bound.

    Represented as polynomial coefficients in the inner product (ascending
    order); :func:`poly_g` verifies the declared constant on a dense grid.
    """

    domain_max: float
    lipschitz: float
    coeffs: tuple = ()

    def __call__(self, a):
        a = np.clip(np.asarray(a, dtype=float), 0.0, self.domain_max)
        return np.polynomial.polynomial.polyval(a, np.asarray(self.coeffs))


def poly_g(coeffs, lipschitz: float, domain_max: float) -> StronglyEuclideanG:
    """Polynomial profile; verifies max |g'| on a dense grid of [0, domain_max].

    The coefficients must be a non-empty 1-d sequence of finite numbers,
    ``domain_max`` finite and positive and ``lipschitz`` finite and
    non-negative; each is refused by name otherwise.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"coeffs must be a non-empty 1-d sequence, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError(f"coeffs must be finite, got {c.tolist()}")
    if not 0.0 < domain_max < math.inf:
        raise ValueError(f"domain_max must be positive and finite, got {domain_max}")
    if not 0.0 <= lipschitz < math.inf:
        raise ValueError(f"lipschitz must be non-negative and finite, got {lipschitz}")
    if c.size >= 2:
        deriv = np.polynomial.polynomial.polyder(c)
        grid = np.linspace(0.0, domain_max, 4097)
        slope = float(np.abs(np.polynomial.polynomial.polyval(grid, deriv)).max())
    else:
        slope = 0.0
    if slope > lipschitz * (1.0 + 1e-6):
        raise ValueError(
            f"declared Lipschitz constant {lipschitz:.6g} violated: observed slope {slope:.6g}"
        )
    return StronglyEuclideanG(domain_max, lipschitz, coeffs=tuple(float(v) for v in c))


def _check_profile(g) -> None:
    if not isinstance(g, StronglyEuclideanG):
        raise TypeError(f"g must be a StronglyEuclideanG profile (see poly_g), got {type(g).__name__}")


@dataclass(frozen=True)
class LiftedKernel:
    """k(x, y) = g(<Psi_1(x), Psi_2(y)> / t), read from the pair's certified tables."""

    g: StronglyEuclideanG
    pair: CubeEmbedderPair

    def __post_init__(self):
        _check_profile(self.g)

    def _lift(self, ip: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(np.clip(ip / self.pair.t, 0.0, self.pair.n)), dtype=float)

    def _cells(self, points) -> tuple[int | None, np.ndarray]:
        """The role shared by embedded points (None if there are none) and their cells."""
        if any(p.pair is not self.pair or p.role != points[0].role for p in points):
            raise ValueError("points must share one role and this kernel's pair")
        cells = np.array([p.cells for p in points], dtype=np.intp).reshape(-1, self.pair.n)
        return (points[0].role if len(points) else None), cells

    def evaluate(self, u: EmbeddedPoint, v: EmbeddedPoint) -> float:
        return float(self.cross_gram([u], [v])[0, 0])

    def cross_gram(self, rows, cols) -> np.ndarray:
        """Role-1 rows x role-2 columns (the reverse gives the transpose); same-role raises."""
        (row_role, r), (col_role, c) = self._cells(rows), self._cells(cols)
        if row_role is not None and row_role == col_role:
            raise ValueError(f"role-{row_role} x role-{row_role} products are not certified")
        if row_role == 2 or col_role == 1:
            return self._lift(self.pair.cell_inner(c, r).T)
        return self._lift(self.pair.cell_inner(r, c))

    def gram(self, points) -> np.ndarray:
        """g((P + P^T) / 2t), P_ij = <Psi_1(x_i), Psi_2(x_j)>, whatever the points' role."""
        return self._lift(self.pair.sym_inner(self._cells(points)[1]))


def lift_kernel(g: StronglyEuclideanG, pair: CubeEmbedderPair) -> LiftedKernel:
    return LiftedKernel(g, pair)


# ---------------------------------------------------------------------------
# End-to-end training on real inputs


@dataclass(frozen=True, eq=False)
class EmbeddedModel:
    """f(x) = sum_i alpha_i g(<Psi_1(x_i), Psi_2(x)> / t) over the role-1 support.

    Training used the symmetrised cross-role Gram; ``report`` holds its worst
    deviation from the grid-rounded inner products (``gram_max_deviation``),
    its minimum eigenvalue (``gram_min_eigenvalue``; it need not be PSD) and
    the amount ``gram_diagonal_shift = max(0, -gram_min_eigenvalue)`` added to
    its diagonal before training.  ``alphas`` are checked as ``TrainedModel``'s.

    A profile ``g = c0 + c1 a`` with ``g.domain_max >= n`` is scored from a
    summary built once, here: ``f(x) = c0 sum(alpha) + sum_c w_c[x_c]`` with
    ``w_c = (c1 / t) alpha @ T_c[s_c, :]`` (``T_c`` coordinate c's table, ``s_c``
    the support's cells).  Table entries lie in ``[0, t]``, so no clip of
    ``g(S / t)`` binds and the summary is within ``1e-12 (1 + sum|alpha| (|c0|
    + n |c1|))`` of ``alphas @ kernel.cross_gram``; other profiles are scored
    from the tables bit for bit like it.

    On the summary, ``predict(x)`` works in Python floats after one
    ``asarray``: per coordinate a range check, a clip to ``[0, 1]`` and a
    ``bisect_right`` on the grid's list pick ``w_c[x_c]`` from ``w``'s rows,
    a few microseconds for n = 5, about a quarter of a one-row batch.
    ``predict_many`` gathers the same terms a column at a time.  Both add the
    n terms left to right and then add ``c0 sum(alpha)`` (``_in_order``), so
    ``predict(x)`` is ``predict_many([x])[0]`` exactly.  A row sum of the
    ``(m, n)`` terms would agree for n < 8 but sums pairwise from n = 8 on;
    the two orders differ by at most ``n eps (|c0 sum(alpha)| + sum_c
    |w_c[x_c]|)``, ``eps`` the float64 machine epsilon, well inside the bound
    above.  The model is frozen and the grid read-only, so the summary and
    its lists cannot go stale.
    """

    kernel: LiftedKernel
    support: tuple
    alphas: np.ndarray
    report: dict
    _cells: np.ndarray = field(init=False, repr=False)
    # (c0 sum(alpha), (n, K) w, grid as a list, w as a list of rows) or None
    _summary: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alphas", _checked_alphas(self.alphas, len(self.support)))
        role, cells = self.kernel._cells(self.support)
        if role != 1:
            raise ValueError("the support must be embedded with role 1")
        object.__setattr__(self, "_cells", cells)
        g, pair, summary = self.kernel.g, self.kernel.pair, None
        if 1 <= len(g.coeffs) <= 2 and g.domain_max >= pair.n:
            c0, c1 = (*g.coeffs, 0.0)[:2]
            w = np.array([self.alphas @ co.ensure_pair_inner()[cells[:, c]] for c, co in enumerate(pair.coords)])
            w *= c1 / pair.t
            w.flags.writeable = False
            summary = (float(c0 * self.alphas.sum()), w, pair.grid.tolist(), w.tolist())
        object.__setattr__(self, "_summary", summary)

    @property
    def pair(self) -> CubeEmbedderPair:
        return self.kernel.pair

    def predict_many(self, xs) -> np.ndarray:
        """Predict an (m, n) batch, embedded with role 2; ``[]`` is an empty batch.
        n column gathers from the summary, or the table sums of
        ``kernel.cross_gram`` on support cells stacked once."""
        v = np.asarray(xs, dtype=float)
        if v.shape == (0,):
            v = v.reshape(0, self.pair.n)
        if v.ndim != 2 or v.shape[1] != self.pair.n:
            raise ValueError(f"expected an (m, {self.pair.n}) batch, got shape {v.shape}")
        cells = self.pair.grid_indices(v)
        if self._summary is not None:
            const, w = self._summary[:2]
            return const + _in_order([w_c[col] for w_c, col in zip(w, cells.T)])
        return self.alphas @ self.kernel._lift(self.pair.cell_inner(self._cells, cells))

    def predict(self, x) -> float:
        """Predict one length-n vector, embedded with role 2."""
        v = np.asarray(x, dtype=float)
        if v.shape != (self.pair.n,):
            raise ValueError(f"expected a length-{self.pair.n} vector, got shape {v.shape}")
        if self._summary is None:
            return float(self.predict_many(v[None, :])[0])
        const, _, grid, rows = self._summary
        terms = []
        for a, w_c in zip(v.tolist(), rows):
            if not -1e-12 <= a <= 1.0 + 1e-12:  # _check_unit's test, NaN included
                raise ValueError(f"coordinates must lie in [0, 1], got {a}")
            # the clip to [0, 1]: grid[-1] is 1.0, so a above 1 already lands in the last cell
            terms.append(w_c[bisect_right(grid, a if a > 0.0 else 0.0) - 1])
        return const + _in_order(terms)


def _in_order(terms):
    """``((0.0 + t_0) + t_1) + ...``: the one order in which both of
    ``EmbeddedModel``'s summary paths add their terms, floats or columns.
    It is numpy's row sum for fewer than 8 terms, down to the sign of a
    zero, which the leading ``0.0`` sets."""
    return reduce(operator.add, terms, 0.0)


def train_on_cube(
    points,
    labels,
    g: StronglyEuclideanG,
    B: float,
    epsilon: float,
    seed: int = 0,
    loss: learners.LossSpec = learners.HINGE,
    epochs: int = 200,
    lam_override: float | None = None,
) -> EmbeddedModel:
    """Embed a real-valued sample as role 1 and train by dual coordinate
    ascent (``learners.sdca_solve``, at most ``epochs`` epochs, one row per
    point) on the symmetrised cross-role Gram of the lifted kernel
    ``g(<u, v>/t)``, with its diagonal raised by ``max(0, -lambda_min)`` so
    that it trains on a PSD matrix; the off-diagonal entries stay certified.
    The report's ``gap``, ``epochs`` and ``converged`` are the solver's: the
    gap certifies the diagonal-shifted problem, not the unshifted one."""
    _check_profile(g)
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2:
        raise ValueError("points must be an (m, n) array")
    _check_unit(xs)
    m, n = xs.shape
    lam = learners.regularization_weight(n, B, epsilon, lam_override)
    labels = learners._dual_problem(labels, m, lam, loss, epochs)[0]
    pair = build_pair(n, epsilon, seed=seed)
    support = tuple(embed(pair, 1, xs))
    kernel = lift_kernel(g, pair)
    cells = kernel._cells(support)[1]
    sym = pair.sym_inner(cells)
    gram = kernel._lift(sym)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    shift = max(0.0, -min_eig)
    gram[np.diag_indices(m)] += shift
    alphas, report = learners.sdca_solve(gram, np.arange(m), labels, lam, loss, epochs, seed)
    u = pair.grid[cells]
    report.update(
        gram_max_deviation=float(np.abs(sym / pair.t - u @ u.T).max()),
        gram_min_eigenvalue=min_eig,
        gram_diagonal_shift=shift,
    )
    return EmbeddedModel(kernel, support, alphas, report)


# ---------------------------------------------------------------------------
# Binary pair format

_MAGIC = b"JKEM"
_REBUILD = "rebuild it with `cubekern embed build`"
_HEADER = struct.Struct("<4sIIIdQII")  # magic, version, n, t, eps, seed, K, bytes per stored value


def save_pair(pair: CubeEmbedderPair, path: str) -> None:
    """Write the header {magic, version 2, n, t, eps, seed, K, 2}, each
    coordinate's build attempt, then per coordinate its role-1 and role-2 cell
    vectors, all as little-endian ``u16``: ``40 + 2n + 4nt`` bytes."""
    attempts = np.array([coord.attempt for coord in pair.coords], dtype="<u2")
    cells = np.array([coord.cells for coord in pair.coords], dtype="<u2")  # (n, 2, t)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 2, pair.n, pair.t, pair.epsilon, pair.seed, pair.grid.shape[0], 2))
        fh.write(attempts.tobytes() + cells.tobytes())


def load_pair(path: str) -> CubeEmbedderPair:
    """Read a pair file, refusing each malformed field by name, and certify every coordinate again."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: {len(header)} bytes is shorter than the {_HEADER.size}-byte header")
        magic, version, n, t, eps, seed, k, width = _HEADER.unpack(header)
        if magic != _MAGIC or version != 2:
            raise ValueError(f"not a version-2 embedder file: {path}; {_REBUILD}")
        if n < 1 or t < 1 or not 3.0 * n / 0xFFFF < eps < 1.0:  # 16-bit cells must address the grid
            raise ValueError(f"{path}: n = {n}, t = {t}, eps = {eps}; need n, t >= 1 and 3n/65535 < eps < 1")
        if k != len(grid := _interval_grid(eps / n)):
            raise ValueError(f"{path}: K = {k}, but the grid of eps/n = {eps / n:.6g} has {len(grid)} values")
        if width != 2:
            raise ValueError(f"{path}: value width {width} bytes, expected 2")
        body = fh.read()
    if len(body) != 2 * n + 4 * n * t:
        raise ValueError(f"{path}: {_HEADER.size + len(body)} bytes, not 40 + 2n + 4nt for n = {n}, t = {t}")
    attempts, cells = np.frombuffer(body, "<u2", n), np.frombuffer(body, "<u2", offset=2 * n).reshape(n, 2, t)
    coords = []
    for c in range(n):
        if attempts[c] >= BUILD_RETRIES or cells[c].max() > k:
            raise ValueError(
                f"{path}: coordinate {c}: build attempt {attempts[c]} must be below {BUILD_RETRIES} "
                f"and every cell at most K = {k}, got {cells[c].max()}; {_REBUILD}"
            )
        coords.append(IntervalEmbedderPair(t, grid, tuple(cells[c]), int(attempts[c])))
        if (dev := coords[-1].max_deviation()) > eps / n:
            raise ValueError(
                f"{path}: coordinate {c}: worst grid-pair deviation {dev:.4g} "
                f"exceeds eps/n = {eps / n:.4g}; {_REBUILD}"
            )
    return CubeEmbedderPair(n, eps, t, seed, coords)

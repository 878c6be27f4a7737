"""Exact combinatorics and spectral algebra of set-symmetric kernels on a
hypercube layer, plus brute-force oracles for small instances.

A *layer* ``S_{p,n}`` is the set of 0/1 vectors of length ``n`` with exactly
``p`` ones.  A kernel on a layer whose value depends only on the inner
product of its arguments corresponds to a *set-symmetric* matrix; the space
of such matrices is the classical Johnson association scheme, a commutative
algebra with completely known spectra.

Everything here is written in the binomial basis

    b_l(x, y) = C(<x, y>, l),        l = 0, ..., p

(each ``b_l`` is PSD: it is the Gram of the degree-``l`` monomial feature
map).  A coefficient vector ``beta`` of length ``p + 1`` describes the
kernel ``k = sum_l beta_l * b_l``.

Spectral facts used throughout (valid for ``p <= n/2``):

* every set-symmetric matrix on ``S_{p,n}`` has the same eigenspaces
  ``V_0, ..., V_p`` with ``dim V_j = C(n, j) - C(n, j - 1)``;
* the eigenvalue of ``b_l`` on ``V_j`` is
  ``C(n - l - j, p - l) * C(p - j, l - j)`` for ``j <= l`` and 0 otherwise.

Those eigenvalues form the upper-triangular matrix returned by
:func:`delta_matrix`, so a kernel with coefficients ``beta`` is PSD iff
``delta @ beta >= 0`` entrywise, and its diagonal value is
``<eta, beta>`` with ``eta_l = C(p, l)``.  Admissible kernels (PSD with
diagonal at most 1) therefore form a polytope with ``p + 1`` vertices,
given in closed form by :func:`vertex_betas`.  Every number here is
evaluated exactly, from integer closed forms and the stored floats (each
an integer over a power of two), and rounded once.

The oracle functions at the bottom (:func:`oracle_gram`,
:func:`oracle_eigenvalues`) build the explicit ``C(n,p) x C(n,p)`` matrices
and eigendecompose them densely; they exist so that every formula above can
be cross-checked on small instances, and they are deliberately independent
of the formula-based code paths.

Index convention: all coefficient vectors are 0-based, so index ``l``
multiplies ``C(<x,y>, l)``; the constant kernel is ``beta = e_0``.

Every type here is immutable after construction and every operation is a
pure function, so everything can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LayerParams",
    "BetaCoeffs",
    "ExplicitGram",
    "AdmissibilityReport",
    "binomial",
    "delta_matrix",
    "eta_vector",
    "eigen_multiplicities",
    "eigen_profile",
    "is_admissible",
    "vertex_betas",
    "vertex_tables",
    "p_from_d",
    "d_from_p",
    "enumerate_layer",
    "oracle_gram",
    "oracle_eigenvalues",
]

#: largest dimension supported by the bit-vector point type in `kernels`
MAX_N = 64

#: largest dimension for which explicit-Gram oracles are allowed
MAX_ORACLE_N = 12

#: relative PSD tolerance used by admissibility checks
DEFAULT_PSD_TOL = 1e-9


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LayerParams:
    """A hypercube layer: dimension ``n`` and Hamming weight ``p``."""

    n: int
    p: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"dimension n={self.n} outside supported range [1, {MAX_N}]")
        if not 0 <= self.p <= self.n:
            raise ValueError(f"layer weight p={self.p} outside [0, {self.n}]")

    @property
    def is_canonical(self) -> bool:
        """True when ``p <= n/2``, the form required by all spectral operations."""
        return 2 * self.p <= self.n

    def complement(self) -> "LayerParams":
        return LayerParams(self.n, self.n - self.p)

    def canonical(self) -> "LayerParams":
        """This layer if ``p <= n/2``, else its complement ``(n, n - p)``."""
        return self if self.is_canonical else self.complement()

    def size(self) -> int:
        return math.comb(self.n, self.p)


@dataclass(frozen=True, eq=False)
class BetaCoeffs:
    """Coordinates of a layer kernel in the binomial basis ``b_l``; compared and
    hashed by identity."""

    layer: LayerParams
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen(self.beta))
        if self.beta.shape != (self.layer.p + 1,):
            raise ValueError(
                f"beta has length {self.beta.shape[0]}, expected p+1={self.layer.p + 1}"
            )
        if not np.all(np.isfinite(self.beta)):
            raise ValueError(f"beta must be finite, got {self.beta.tolist()}")


@dataclass(frozen=True)
class ExplicitGram:
    """Dense kernel matrix over an explicitly enumerated layer (oracle side)."""

    layer: LayerParams
    points: np.ndarray  # (C(n,p), n) uint8, rows in lexicographic bit order
    matrix: np.ndarray  # (C(n,p), C(n,p)) float


@dataclass(frozen=True)
class AdmissibilityReport:
    """PSD-plus-diagonal certificate for a candidate beta."""

    ok: bool
    profile: np.ndarray  # the p+1 eigenvalues delta @ beta
    diagonal: float  # <eta, beta> = k(x, x)
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def binomial(r: int, k: int) -> float:
    """Binomial coefficient C(r, k), correctly rounded to a float; 0 for k < 0 or k > r."""
    if k < 0 or k > r:
        return 0.0
    return float(math.comb(r, k))


def _require_canonical(layer: LayerParams, op: str) -> None:
    if not layer.is_canonical:
        raise ValueError(
            f"{op} requires the canonical form p <= n/2, got (n={layer.n}, p={layer.p}); "
            "complement the layer first"
        )


def _scaled(values) -> tuple[list[int], int]:
    """Finite floats as integer numerators over one power-of-two denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    return [num * (den // d) for num, d in ratios], den


def _ratio(num: int, den: int) -> float:
    """``num / den`` correctly rounded; an infinity past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _rounded(nums, den: int) -> np.ndarray:
    return np.array([_ratio(num, den) for num in nums], dtype=float)


def _differences(d: list[int]) -> list[int]:
    """Newton's forward differences ``c_r = sum_{l <= r} (-1)^(r-l) C(r, l) d_l``."""
    out = []
    while d:
        out.append(d[0])
        d = [b - a for a, b in zip(d, d[1:])]
    return out


@functools.cache
def _delta_rows(layer: LayerParams) -> tuple[tuple[int, ...], ...]:
    """The exact integer rows of :func:`delta_matrix`, cached per layer."""
    n, p = layer.n, layer.p
    return tuple(
        (0,) * j + tuple(math.comb(n - ell - j, p - ell) * math.comb(p - j, ell - j) for ell in range(j, p + 1))
        for j in range(p + 1)
    )


def delta_matrix(layer: LayerParams) -> np.ndarray:
    """Upper-triangular (p+1)x(p+1) matrix mapping beta to the layer eigenvalues.

    Entry (j, l) is the eigenvalue of the basis kernel ``b_l`` on the j-th
    common eigenspace: ``C(n-l-j, p-l) * C(p-j, l-j)`` for ``j <= l``, an
    integer correctly rounded to a float.
    """
    _require_canonical(layer, "delta_matrix")
    return np.array(_delta_rows(layer), dtype=float)


def eta_vector(layer: LayerParams) -> np.ndarray:
    """Linear functional giving the kernel diagonal: eta_l = C(p, l)."""
    p = layer.p
    return np.array([binomial(p, ell) for ell in range(p + 1)])


def eigen_multiplicities(layer: LayerParams) -> np.ndarray:
    """Dimensions of the common eigenspaces: C(n,j) - C(n,j-1), j = 0..p.

    Exact integers; they sum to C(n, p).
    """
    n, p = layer.n, layer.p
    dims = [math.comb(n, j) - (math.comb(n, j - 1) if j >= 1 else 0) for j in range(p + 1)]
    return np.array(dims, dtype=np.int64)


def eigen_profile(beta: BetaCoeffs) -> np.ndarray:
    """The p+1 distinct eigenvalues ``delta @ beta`` of the kernel with
    coefficients ``beta``, exact over the stored floats and rounded once."""
    return is_admissible(beta).profile


def is_admissible(beta: BetaCoeffs, tol: float = DEFAULT_PSD_TOL) -> AdmissibilityReport:
    """Check PSD-ness and the unit diagonal bound of a candidate kernel.

    The eigenvalues ``delta @ beta`` and the diagonal ``<eta, beta>`` are
    exact over the stored floats.  Those may be roundings of an admissible
    beta (a vertex's zero eigenvalues come out as tiny numbers of either
    sign), so each bound gains their half-ulp radius,
    ``1/2 sum_l delta_jl ulp(beta_l)`` for eigenvalue j and
    ``1/2 sum_l C(p, l) ulp(beta_l)`` for the diagonal.  Admissible iff
    every eigenvalue plus its radius is at least
    ``-tol * max(1, ||delta @ beta||_inf)`` and the diagonal minus its
    radius is at most ``1 + tol``.  The report rounds the exact values once.
    """
    layer = beta.layer
    _require_canonical(layer, "is_admissible")
    p = layer.p
    coeffs = beta.beta.tolist()
    nums, den = _scaled(coeffs + [math.ulp(b) / 2 for b in coeffs])
    rows = _delta_rows(layer) + (tuple(math.comb(p, ell) for ell in range(p + 1)),)
    values = [sum(map(operator.mul, row, nums[: p + 1])) for row in rows]
    radii = [sum(map(operator.mul, row, nums[p + 1 :])) for row in rows]
    profile = _rounded(values[:-1], den)
    diagonal = _ratio(values[-1], den)
    tol_num, tol_den = float(tol).as_integer_ratio()
    scale = max(den, *map(abs, values[:-1]))  # den * max(1, ||delta @ beta||_inf)
    for j in range(p + 1):
        if (values[j] + radii[j]) * tol_den < -tol_num * scale:
            return AdmissibilityReport(
                False, profile, diagonal, violation=f"negative eigenvalue at index {j}"
            )
    if (values[-1] - radii[-1] - den) * tol_den > tol_num * den:
        return AdmissibilityReport(
            False, profile, diagonal, violation=f"diagonal bound: k(x,x)={diagonal:.6g} > 1"
        )
    return AdmissibilityReport(True, profile, diagonal)


@functools.cache
def _vertex_rows(layer: LayerParams) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(den, rows)``: entry k of row i is ``den * P_{p-k}(i) / v_{p-k}`` (see :func:`vertex_betas`)."""
    n, p = layer.n, layer.p
    valency = [math.comb(p, j) * math.comb(n - p, j) for j in range(p + 1)]
    den = math.lcm(*valency)
    rows = []
    for i in range(p + 1):
        # P_j(i) is a convolution over h of these two integer rows
        signed = [(-1) ** h * math.comb(i, h) for h in range(i + 1)]
        pairs = [math.comb(p - i, t) * math.comb(n - p - i, t) for t in range(p + 1)]
        eberlein = [sum(map(operator.mul, signed, pairs[j::-1])) for j in range(p + 1)]
        rows.append(tuple(eberlein[p - k] * (den // valency[p - k]) for k in range(p + 1)))
    return den, tuple(rows)


@functools.cache
def vertex_betas(layer: LayerParams) -> np.ndarray:
    """The p+1 extreme points of the admissible-kernel polytope, one per row.

    Vertex i has diagonal 1 and its one nonzero eigenvalue on ``V_i``; its
    value at inner product ``k = p - j`` is ``P_j(i) / v_j`` (Delsarte 1973,
    sec. 4), with the Eberlein polynomial and valency

        P_j(i) = sum_h (-1)^h C(i, h) C(p - i, j - h) C(n - p - i, j - h)
        v_j    = C(p, j) C(n - p, j).

    Row i is that table's Newton differences, exact and rounded once.  The
    result is cached per layer and read-only.
    """
    _require_canonical(layer, "vertex_betas")
    den, rows = _vertex_rows(layer)
    return _frozen([_rounded(_differences(list(row)), den) for row in rows])


@functools.cache
def vertex_tables(layer: LayerParams) -> np.ndarray:
    """Row i is vertex i's value table ``P_{p-k}(i) / v_{p-k}`` (:func:`vertex_betas`), rounded once."""
    _require_canonical(layer, "vertex_tables")
    den, rows = _vertex_rows(layer)
    return _frozen([_rounded(row, den) for row in rows])


def d_from_p(p_coeffs) -> np.ndarray:
    """A layer kernel's value table: binomial-basis coefficients rewritten in
    the intersection-indicator basis.

    With ``D_l`` the 0/1 matrix of pairs with intersection exactly ``l``,
    ``b_r = sum_{l >= r} C(l, r) D_l``, so the D-coefficient at ``l`` is
    ``d_l = sum_{r <= l} C(l, r) c_r = g(l)``, the value at inner product ``l``
    (zero-pad ``c`` for larger ones).  Each entry is the exact value over the
    input floats, correctly rounded.
    """
    c, den = _scaled(np.asarray(p_coeffs, dtype=float).tolist())
    return _rounded([sum(math.comb(ell, r) * c[r] for r in range(ell + 1)) for ell in range(len(c))], den)


def p_from_d(d_coeffs) -> np.ndarray:
    """Inverse of :func:`d_from_p`, a value table's coefficients (Newton's
    forward differences): c_r = sum_{l <= r} (-1)^(r-l) C(r, l) d_l, exact
    over the input floats and correctly rounded."""
    nums, den = _scaled(np.asarray(d_coeffs, dtype=float).tolist())
    return _rounded(_differences(nums), den)


def enumerate_layer(layer: LayerParams) -> np.ndarray:
    """All weight-p bit vectors of length n, lexicographic, as a uint8 matrix."""
    n, p = layer.n, layer.p
    if n > MAX_ORACLE_N:
        raise ValueError(f"explicit enumeration refused for n={n} > {MAX_ORACLE_N}")
    rows = [bits for bits in itertools.product((0, 1), repeat=n) if sum(bits) == p]
    return np.array(rows, dtype=np.uint8)


def oracle_gram(beta: BetaCoeffs) -> ExplicitGram:
    """Explicit dense kernel matrix: entry (i, j) = sum_l beta_l * C(<x_i, x_j>, l).

    Brute-force ground truth for n <= 12; independent of the spectral code.
    """
    layer = beta.layer
    points = enumerate_layer(layer)
    ip = (points.astype(np.int64) @ points.T.astype(np.int64)).astype(np.intp)
    # value table over every possible inner product 0..p
    table = np.array(
        [sum(beta.beta[ell] * binomial(k, ell) for ell in range(layer.p + 1)) for k in range(layer.p + 1)]
    )
    return ExplicitGram(layer, points, table[ip])


def oracle_eigenvalues(gram: ExplicitGram | np.ndarray) -> list[tuple[float, int]]:
    """Dense symmetric eigendecomposition, clustered into (value, multiplicity).

    Values are sorted descending; eigenvalues closer than 1e-8 times the
    spectral norm are merged into one cluster.
    """
    matrix = gram.matrix if isinstance(gram, ExplicitGram) else np.asarray(gram, dtype=float)
    w = np.linalg.eigvalsh(matrix)[::-1]
    scale = float(np.abs(w).max(initial=0.0))
    tol = 1e-8 * max(scale, 1e-300)
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[start] - w[i] > tol:
            block = w[start:i]
            clusters.append((float(block.mean()), len(block)))
            start = i
    return clusters

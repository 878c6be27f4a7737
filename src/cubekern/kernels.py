"""Full-hypercube kernels assembled from admissible layer kernels.

A :class:`KernelSpec` stores one layer kernel per occupied Hamming weight
and evaluates as a direct sum: points of different weight have kernel value
0, and layers with weight above ``n/2`` are handled by complementing both
inputs (which maps the layer onto its mirror below ``n/2``, where the
spectral machinery of :mod:`cubekern.scheme` applies).  A layer kernel is
stored only as its certified binomial-basis coefficients
(:class:`~cubekern.scheme.BetaCoeffs`); the spec derives each layer's value
table from them once, so every scorer reads the same numbers.

Included constructions:

* :func:`universal_kernel` -- per layer, the uniform average of the polytope
  vertices; its RKHS contains every bounded-norm classifier realizable by
  any admissible layer kernel, at the cost of a factor ``p + 1`` in norm.
* :func:`mix_vertices` -- an arbitrary sub-convex combination of vertices.
* :func:`conjunction_kernel` -- truncated binomial-basis sum
  ``(1/N) * sum_{t<=T} C(<x,y>, t)`` used to fit Boolean conjunctions.
* :func:`sparse_conjunction_kernel` -- the single basis kernel
  ``C(<x,y>, l) / C(s, l)`` whose RKHS represents any l-literal conjunction
  over weight-s points exactly, with squared norm ``C(s, l)``
  (see :func:`analytic_weights`).

The ``sparse_conjunction`` kind is evaluated on the raw inner product with
no weight gating: its feature map (scaled degree-l monomials) is defined on
the whole cube, and the exact-representation identity needs kernel values
between the weight-l indicator and weight-s data points.

Every Gram and every prediction is computed by one core.  Points are packed
once into an (m,) uint64 array of bit masks (:func:`points_to_bits`;
n <= 64) and grouped by the layer that scores them, with groups above n/2
complemented by XOR with the all-ones mask.  Inner products are popcounts
of ANDed masks, taken in bounded blocks as uint8 (:func:`inner_product_blocks`).
Each block indexes the layer's (p+1)-entry value table: :func:`cross_gram`
writes the values into its output, so the float Gram is the only m x m
array it builds.  A :class:`TrainedModel` groups its support once, at
construction, so prediction packs and groups only the queries; it scores
a layer either by summing table values against its alphas block by block
or, on a low-weight layer with many support rows, from the support's
subset weights (2^p lookups per query).  When a 2^n table fits one block
(n <= 18), building the model also scores every mask of such a layer once,
C(n, p) * 2^p lookups (a whole build takes about 0.7 ms at n = 16, p = 4
and 65-120 ms at n = 18, p = 8 on one x86-64 core), and stores the scores, so
a query of the layer is one table read.  Neither path builds a support x
query matrix, and every temporary is bounded by the block size.

Kernel specs and models are immutable and thread-safe; Gram construction is
deterministic given identical inputs.
"""

from __future__ import annotations

import math
import mmap
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .scheme import BetaCoeffs, LayerParams, _frozen, _rounded, _scaled, d_from_p, is_admissible, vertex_betas

__all__ = [
    "HypercubePoint",
    "KernelSpec",
    "TrainedModel",
    "make_layer_kernel",
    "complement_layer_kernel",
    "mix_vertices",
    "universal_kernel",
    "conjunction_kernel",
    "sparse_conjunction_kernel",
    "analytic_weights",
    "gram",
    "cross_gram",
    "points_to_bits",
    "inner_product_blocks",
]


@dataclass(frozen=True)
class HypercubePoint:
    """A point of {0,1}^n held as a bit mask (coordinate i at bit i)."""

    n: int
    bits: int
    weight: int = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bit mask out of range for dimension")
        object.__setattr__(self, "weight", self.bits.bit_count())

    @classmethod
    def from_string(cls, s: str) -> "HypercubePoint":
        """Parse a bitstring; character i is coordinate i."""
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"not a bitstring: {s!r}")
        return cls(len(s), int(s[::-1], 2))

    @classmethod
    def from_indices(cls, n: int, indices) -> "HypercubePoint":
        """The point with ones at ``indices``; numpy integers are read as ints,
        so ``1 << i`` cannot wrap at 64 bits."""
        mask = 0
        for i in indices.tolist() if isinstance(indices, np.ndarray) else indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for n={n}")
            mask |= 1 << i
        return cls(n, mask)

    @classmethod
    def from_array(cls, arr) -> "HypercubePoint":
        """The point of a 1-d array of 0/1 entries; entry i is coordinate i."""
        a = np.asarray(arr)
        if a.ndim != 1 or not np.isin(a, (0, 1)).all():
            raise ValueError(f"from_array needs a 1-d array of 0/1 entries, got {a.tolist()!r}")
        return cls.from_indices(a.shape[0], np.flatnonzero(a).tolist())

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def inner(self, other: "HypercubePoint") -> int:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return (self.bits & other.bits).bit_count()

    def complement(self) -> "HypercubePoint":
        return HypercubePoint(self.n, ~self.bits & ((1 << self.n) - 1))


def make_layer_kernel(layer: LayerParams, beta) -> BetaCoeffs:
    """Certified layer kernel; rejects inadmissible coefficients by name."""
    coeffs = BetaCoeffs(layer, np.asarray(beta, dtype=float))
    report = is_admissible(coeffs)
    if not report:
        raise ValueError(
            f"inadmissible kernel on (n={layer.n}, p={layer.p}): {report.violation}"
        )
    return coeffs


def complement_layer_kernel(kernel: BetaCoeffs) -> BetaCoeffs:
    """The same kernel function expressed on the complementary layer.

    Complementing both arguments maps inner products by ``k -> k + s``,
    ``s = n - 2p'``, and ``g(k + s) = sum_l beta_l sum_r C(k, r) C(s, l - r)``
    (Vandermonde), so ``beta'_r = sum_{l >= r} C(s, l - r) beta_l`` for
    ``r <= p'``, exact over the stored floats and rounded once.
    """
    layer = kernel.layer
    comp = layer.complement()
    shift = layer.n - 2 * comp.p  # inner products on `layer` minus those on `comp`
    if shift < 0:
        raise ValueError("complement_layer_kernel expects p >= n/2 to mirror downward")
    nums, den = _scaled(kernel.beta.tolist())
    beta = [
        sum(math.comb(shift, ell - r) * nums[ell] for ell in range(r, len(nums))) for r in range(comp.p + 1)
    ]
    return make_layer_kernel(comp, _rounded(beta, den))


def mix_vertices(layer: LayerParams, lambdas) -> BetaCoeffs:
    """Sub-convex combination of the vertex kernels: beta = sum_i lambda_i beta^(i),
    exact over the floats of the weights and of the vertices, rounded once."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (layer.p + 1,):
        raise ValueError(f"expected {layer.p + 1} mixture weights, got {lam.shape}")
    if not np.isfinite(lam).all():
        raise ValueError(f"mixture weights must be finite, got {lam.tolist()}")
    if lam.min(initial=0.0) < -1e-12:
        raise ValueError("negative mixture weight")
    if lam.sum() > 1.0 + 1e-12:
        raise ValueError(f"mixture weights sum to {lam.sum():.6g} > 1")
    weights, wden = _scaled(np.clip(lam, 0.0, None).tolist())
    verts, vden = _scaled(vertex_betas(layer).ravel().tolist())
    q = layer.p + 1
    beta = [sum(map(operator.mul, weights, verts[ell::q])) for ell in range(q)]
    return make_layer_kernel(layer, _rounded(beta, wden * vden))


_KINDS = ("direct_sum", "universal", "conjunction", "sparse_conjunction")


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """A full hypercube kernel: one layer kernel per occupied weight.

    ``per_layer`` holds each layer's certified :class:`BetaCoeffs`, its only
    stored form.  Layers stored under a weight above ``n/2`` hold the kernel
    of the mirrored layer and are evaluated on complemented inputs.  Absent
    layers evaluate to 0.  ``kind`` is one of ``direct_sum``, ``universal``,
    ``conjunction`` or ``sparse_conjunction`` (which has exactly one layer);
    any other raises a ``ValueError``.  ``tables[w]``, derived here once, is
    the read-only value table ``d_from_p(beta)`` over inner products
    ``k = 0..p``; the weight-free ``sparse_conjunction`` layer's beta is
    zero-padded first, so its table covers ``k = 0..n``; weights that share one
    layer object share one table.  ``per_layer`` is a read-only copy.  Specs
    compare and hash by identity.
    """

    n: int
    kind: str
    per_layer: MappingProxyType[int, BetaCoeffs]
    tables: MappingProxyType[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; choose from {', '.join(_KINDS)}")
        layers = dict(self.per_layer)
        sparse = self.kind == "sparse_conjunction"
        if sparse and len(layers) != 1:
            raise ValueError(f"a sparse_conjunction spec has one layer, got {len(layers)}")
        by_object = {}  # universal_kernel shares one layer object between w and n - w
        for w, lk in layers.items():
            if not 0 <= w <= self.n:
                raise ValueError(f"layer weight {w} outside [0, {self.n}]")
            expected = w if sparse else LayerParams(self.n, w).canonical().p
            if lk.layer.n != self.n or lk.layer.p != expected:
                raise ValueError(
                    f"layer {w}: stored kernel is for (n={lk.layer.n}, p={lk.layer.p}), "
                    f"expected (n={self.n}, p={expected})"
                )
            if id(lk) not in by_object:  # the weight-free sparse layer is read at every k = 0..n
                by_object[id(lk)] = _frozen(d_from_p(np.pad(lk.beta, (0, self.n - w if sparse else 0))))
        tables = {w: by_object[id(lk)] for w, lk in layers.items()}
        object.__setattr__(self, "per_layer", MappingProxyType(layers))
        object.__setattr__(self, "tables", MappingProxyType(tables))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x: HypercubePoint, y: HypercubePoint) -> float:
        if x.n != self.n or y.n != self.n:
            raise ValueError(f"point dimension mismatch with kernel (n={self.n})")
        if self.kind == "sparse_conjunction":
            (g,) = self.tables.values()
            return float(g[x.inner(y)])
        if x.weight != y.weight or x.weight not in self.tables:
            return 0.0
        if 2 * x.weight > self.n:
            k = x.complement().inner(y.complement())
        else:
            k = x.inner(y)
        return float(self.tables[x.weight][k])

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "layers": [
                {"p": w, "beta": [float(b) for b in lk.beta]}
                for w, lk in sorted(self.per_layer.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "KernelSpec":
        """The spec of a :meth:`to_json_dict` object; a malformed one raises a
        ``ValueError``, naming the entry of ``layers`` at fault."""
        if not isinstance(obj, dict):
            raise ValueError(f"kernel spec must be a JSON object, got {type(obj).__name__}")
        try:
            n, kind, layers = _json_int(obj["n"], "kernel spec 'n'"), str(obj["kind"]), obj["layers"]
        except KeyError as exc:
            raise ValueError(f"kernel spec is missing key {exc}") from None
        if not isinstance(layers, list):
            raise ValueError("kernel spec 'layers' must be a list of layer objects")
        per_layer = {}
        for i, entry in enumerate(layers):
            where = f"kernel spec layers[{i}]"
            if not isinstance(entry, dict):
                raise ValueError(f"{where} is not an object")
            try:
                w, beta = _json_int(entry["p"], "'p'"), np.asarray(entry["beta"], dtype=float)
                if kind == "sparse_conjunction":
                    layer = _sparse_layer(n, w, beta)
                else:
                    layer = make_layer_kernel(LayerParams(n, w).canonical(), beta)
            except KeyError as exc:
                raise ValueError(f"{where} is missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: {exc}") from None
            if w in per_layer:
                raise ValueError(f"{where}: weight p={w} appears twice")
            per_layer[w] = layer
        return cls(n, kind, per_layer)


def _json_int(value, what: str) -> int:
    """``value`` as an int; a non-integral number is refused, not truncated."""
    if isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _sparse_layer(n: int, s: int, beta) -> BetaCoeffs:
    """The coefficients of a weight-free kernel on layer s, certified admissible
    there when that layer is canonical (2s <= n)."""
    coeffs = BetaCoeffs(LayerParams(n, s), beta)
    return make_layer_kernel(coeffs.layer, coeffs.beta) if coeffs.layer.is_canonical else coeffs


def points_to_bits(points, n: int) -> np.ndarray:
    """Pack dimension-``n`` hypercube points into an (m,) uint64 array of bit masks."""
    if not 1 <= n <= 64:
        raise ValueError(f"bit-mask packing needs 1 <= n <= 64, got n={n}")
    points = list(points)
    bits = [pt.bits for pt in points if type(pt) is HypercubePoint and pt.n == n]
    if len(bits) != len(points):  # a subclass passes; anything else is named by its index
        for i, pt in enumerate(points):
            if not isinstance(pt, HypercubePoint):
                raise TypeError(f"points[{i}] is not a HypercubePoint (got {type(pt).__name__})")
            if pt.n != n:
                raise ValueError(f"point dimension mismatch: points[{i}] has n={pt.n}, expected n={n}")
        bits = [pt.bits for pt in points]
    return np.array(bits, dtype=np.uint64)


def _packed(points, n: int) -> np.ndarray:
    """Masks of a point list, or an already packed mask array checked against ``n``."""
    if isinstance(points, np.ndarray) and points.dtype == np.uint64:
        if points.ndim != 1 or np.any(points > np.uint64((1 << n) - 1)):
            raise ValueError(f"packed masks are not a 1-d array of n={n} bit masks")
        return points
    return points_to_bits(points, n)


def _mirrored(masks: np.ndarray, weight: int, n: int) -> np.ndarray:
    """Masks of a layer above n/2 complemented onto the mirror layer, else unchanged."""
    return masks ^ np.uint64((1 << n) - 1) if 2 * weight > n else masks


_BLOCK_ELEMS = 1 << 18  # entries per block: bounds every temporary of the lookup and of the MKL quads
_MAX_GRAM_POINTS = 20000  # a dense Gram of this many points is 3 GiB of floats


def inner_product_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(rows, cols, ip)`` covering every pair of ``a`` and ``b``.

    ``a`` and ``b`` are uint64 mask arrays, ``rows`` and ``cols`` slices of
    them, and ``ip[i, j] = popcount(a[rows][i] & b[cols][j])`` is a uint8
    block of at most ``_BLOCK_ELEMS`` entries however many columns there
    are.  Callers push each block through a value table, so no m x m
    integer matrix is built.
    """
    for c in range(0, b.size, _BLOCK_ELEMS):
        cols = slice(c, c + _BLOCK_ELEMS)
        step = max(1, _BLOCK_ELEMS // b[cols].size)
        for r in range(0, a.size, step):
            rows = slice(r, r + step)
            yield rows, cols, np.bitwise_count(a[rows, None] & b[cols])


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Dense symmetric kernel matrix over at most ``_MAX_GRAM_POINTS`` points
    (or their packed masks); more raise a ``ValueError``."""
    m = len(points)
    if m > _MAX_GRAM_POINTS:
        raise ValueError(f"refusing to build a {m}x{m} Gram matrix (cap {_MAX_GRAM_POINTS})")
    masks = _packed(points, spec.n)
    return cross_gram(spec, masks, masks)


def _groups(spec: KernelSpec, masks: np.ndarray, values: np.ndarray) -> dict:
    """Masks grouped by the layer of ``spec`` that scores them.

    Maps a layer's weight to ``(values, masks)`` of its points: ``values``
    is a per-point array (indices, or a model's alphas) and the masks are
    mirrored onto the canonical layer.  Points of a weight with no layer
    are dropped; the ``sparse_conjunction`` kind is one weight-free group.
    """
    if spec.kind == "sparse_conjunction":
        return {w: (values, masks) for w in spec.per_layer}
    weights = np.bitwise_count(masks)
    out = {}
    for w in np.unique(weights).tolist():
        if w in spec.per_layer:
            idx = np.flatnonzero(weights == w)
            out[w] = (values[idx], _mirrored(masks[idx], w, spec.n))
    return out


def cross_gram(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Kernel values between two point lists, by weight group.

    Either side may be given as the uint64 masks of :func:`points_to_bits`,
    so a caller that scores many batches against one support packs it once.
    A group holding every row and column (one layer, ``sparse_conjunction``)
    is written block by block by slice; interleaved groups scatter by ``np.ix_``.
    """
    xr, xc = _packed(rows, spec.n), _packed(cols, spec.n)
    out = np.zeros((xr.size, xc.size))
    row_groups = _groups(spec, xr, np.arange(xr.size))
    for w, (ci, b) in _groups(spec, xc, np.arange(xc.size)).items():
        if w in row_groups:
            ri, a = row_groups[w]
            g, whole = spec.tables[w], ri.size == xr.size and ci.size == xc.size
            for rs, cs, ip in inner_product_blocks(a, b):
                if whole:  # every ip is at most the table's top index, so "clip" clips nothing
                    np.take(g, ip, out=out[rs, cs], mode="clip")  # "raise" would buffer the view
                else:
                    out[np.ix_(ri[rs], ci[cs])] = g[ip]
    return out


def universal_kernel(n: int) -> KernelSpec:
    """The layer-wise uniform vertex mixture, one kernel per layer.

    For each weight the canonical form p' = min(p, n-p) is used, so mirrored
    layers share their table.  Every admissible layer kernel is a sub-convex
    vertex combination, so a classifier of norm B under any such kernel
    lives in this kernel's RKHS with norm at most (p'+1) B.  Preprocessing
    is O(p'^3) per layer; evaluation is a table lookup.

    The two single-point layers (weights 0 and n) carry the constant-1
    kernel, which keeps k(x, x) = 1 and complement consistency exact on the
    whole cube.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"n={n} outside supported range [1, 64]")
    cache: dict[LayerParams, BetaCoeffs] = {}
    per_layer: dict[int, BetaCoeffs] = {}
    for p in range(0, n + 1):
        layer = LayerParams(n, p).canonical()
        if layer not in cache:
            cache[layer] = mix_vertices(layer, np.full(layer.p + 1, 1.0 / (layer.p + 1)))
        per_layer[p] = cache[layer]
    return KernelSpec(n, "universal", per_layer)


def conjunction_kernel(n: int, p: int, epsilon: float, t_scale: float = 1.0) -> KernelSpec:
    """Truncated binomial-basis kernel for conjunction fitting on layer p.

    Uses T = ceil(t_scale * sqrt(n) * ln(1/epsilon)) basis terms (clamped to
    p) and normalizes by N = sum_{t<=T} C(p, t) so the diagonal is exactly 1.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 <= t_scale < math.inf:
        raise ValueError(f"t_scale must be finite and non-negative, got {t_scale}")
    if not 0 <= p <= n:
        raise ValueError(f"layer weight p={p} outside [0, {n}]")
    depth = min(p, math.ceil(t_scale * math.sqrt(n) * math.log(1.0 / epsilon)))
    norm = sum(math.comb(p, t) for t in range(depth + 1))
    beta = np.zeros(p + 1)
    beta[: depth + 1] = 1.0 / norm
    if 2 * p > n:
        lk = complement_layer_kernel(BetaCoeffs(LayerParams(n, p), beta))
    else:
        lk = make_layer_kernel(LayerParams(n, p), beta)
    return KernelSpec(n, "conjunction", {p: lk})


def sparse_conjunction_kernel(n: int, s: int, ell: int) -> KernelSpec:
    """Single-basis kernel C(<x,y>, ell) / C(s, ell), weight-free evaluation."""
    if not 0 <= ell <= s:
        raise ValueError(f"literal count ell={ell} outside [0, s={s}]")
    if s > n:
        raise ValueError(f"sparsity s={s} exceeds dimension n={n}")
    beta = np.zeros(s + 1)
    beta[ell] = 1.0 / math.comb(s, ell)
    return KernelSpec(n, "sparse_conjunction", {s: _sparse_layer(n, s, beta)})


# What a subset layer costs, in support rows of the block path (4-7 ns each):
# a layer takes it when cost * 2^p <= rows.  A sorted-keys lookup is a binary
# search, about 12 rows, paid 2^p times per query.  A dense layer answers a
# query with one read and pays only its build, C(n, p) * 2^p row-sum lookups,
# so with cost the price of one build lookup in rows it costs no more than one
# block-path pass over the layer's C(n, p) points.  That price measured
# 2.8-3.5 at p = 6-8 (n = 16-18) with the sort-free fill, against 3.4-4.6 for
# the sorted one on the same host, and 3 lies within it.  Below p = 6 the
# table's fixed cost (its pages, the layer's masks) weighs more, but the whole
# build stays under 3 ms at n = 16.  The worst the dense gate admits,
# 3 * 4^p <= 2^18, is p = 8: about 35 ms at n = 16 and 65-120 ms at n = 18.
_SUBSET_COST = 12
_DENSE_COST = 3


def _submasks(masks: np.ndarray, p: int) -> np.ndarray:
    """The (rows, 2^p) uint64 submasks of weight-p masks.

    Row order: the lowest set bit is peeled p times, and peel j fills columns
    ``2^j .. 2^(j+1) - 1`` with the submasks found so far with that bit set,
    so column j of every row holds a submask of ``popcount(j)`` bits.
    """
    subs = np.empty((masks.size, 1 << p), dtype=np.uint64)
    subs[:, 0], rest = 0, masks.copy()
    for j in range(p):
        low = rest & (~rest + np.uint64(1))
        rest ^= low
        np.bitwise_or(subs[:, : 1 << j], low[:, None], out=subs[:, 1 << j : 2 << j])
    return subs


def _subset_layout(masks: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(keys, slots, sizes)`` of weight-p masks: the sorted distinct submasks,
    each mask's :func:`_submasks` as ``searchsorted`` indices into them (one
    array of the submasks' size besides them), and each key's size."""
    subs = _submasks(masks, p)
    keys = np.unique(subs)
    return keys, np.searchsorted(keys, subs), np.bitwise_count(keys)


def _subset_sums(slots: np.ndarray, c: np.ndarray, size: int) -> np.ndarray:
    """``W[T]``, the sum of ``c_r`` over the rows r whose slots hold key T, for ``size`` keys."""
    return np.bincount(slots.ravel(), np.repeat(c, slots.shape[1]), minlength=size)


def _layer_masks(n: int, p: int) -> np.ndarray:
    """Every weight-p mask of n bits, as uint64, built coordinate by coordinate:
    ``masks[j]`` holds the weight-j masks of the coordinates added so far, so
    no 2^n temporary is made."""
    masks = [np.zeros(1, dtype=np.uint64)] + [np.empty(0, dtype=np.uint64)] * p
    for i in range(n):
        for j in range(min(i + 1, p), 0, -1):
            masks[j] = np.concatenate([masks[j], masks[j - 1] | np.uint64(1 << i)])
    return masks[p]


@dataclass(frozen=True)
class _SubsetWeights:
    """A layer's support as weights on the subsets it covers.

    ``g(k) = sum_l c_l C(k, l)`` with ``c`` the layer's ``beta``, and
    ``C(<s, x>, l)`` counts the l-subsets s and x share, so ``sum_i alpha_i g(<s_i, x>)`` is
    ``sum_{T ⊆ x} wts[T]`` with ``wts[T] = c_|T| * sum_{i: T ⊆ s_i} alpha_i``
    (:func:`_subset_layout`, :func:`_subset_sums`).  A score is one gather
    and a row sum, ``table[slot(subs)].sum(axis=1)``.
    When ``1 << n <= _BLOCK_ELEMS`` the table is dense: ``2^n`` floats
    (8 * 2^n bytes) indexed by the submask itself, and ``keys`` is None.
    :meth:`build` adds the alphas into it at the support's submasks in
    :func:`_subset_sums`' order, multiplies the entries it marked by ``c_|T|``
    (no sort, the same weights bit for bit, zero off the support), then
    scores every weight-p mask x by that gather and row sum and writes the
    score at ``table[x]``.  This works in place: the one weight-p subset of
    x is x itself, so no other row reads that entry.  A query is then one
    read, ``table[x]``; the entries below weight p are build scratch that
    no query reads, and those above it stay zero.  The scoring is C(n, p) *
    2^p lookups, paid once per layer: measured on one x86-64 core, a whole
    build takes about 0.7 ms at n = 16, p = 4, 5 ms at n = 16, p = 6, 43-53 ms
    (by host speed) at n = 18, p = 7 and 65-120 ms at n = 18, p = 8, the
    largest layer the dense gate (``_DENSE_COST``) admits.
    Otherwise ``keys`` are the sorted submasks of the support, the table is
    their weights followed by one 0.0, and a binary search (about 40 ns)
    sends a submask not among the keys to that trailing zero.  Both forms
    sum the same values in the same order for each query, so they score bit
    for bit alike.
    """

    p: int
    keys: np.ndarray | None
    table: np.ndarray

    @classmethod
    def build(cls, alphas: np.ndarray, masks: np.ndarray, kernel: BetaCoeffs) -> "_SubsetWeights":
        n, p = kernel.layer.n, kernel.layer.p
        if 1 << n <= _BLOCK_ELEMS:
            # zeroed pages of its own: taken from the heap just after a large
            # Gram is freed, the table can keep the heap from shrinking and
            # cost peak RSS several times its size
            table = np.frombuffer(mmap.mmap(-1, 8 << n))
            subs, covered = _submasks(masks, p).ravel(), np.zeros(1 << n, dtype=bool)
            np.add.at(table, subs, np.repeat(alphas, 1 << p))  # _subset_sums, in its order
            covered[subs] = True
            del subs
            keys = np.flatnonzero(covered)
            table[keys] *= kernel.beta[np.bitwise_count(keys)]
            # a weight-p entry is read only by its own row, so each score can
            # overwrite it in place
            layer = _layer_masks(n, p)
            step = max(1, _BLOCK_ELEMS >> p)
            for start in range(0, layer.size, step):
                rows = layer[start : start + step]
                table[rows] = table[_submasks(rows, p)].sum(axis=1)
            return cls(p, None, table)
        keys, slots, sizes = _subset_layout(masks, p)
        return cls(p, keys, np.append(_subset_sums(slots, alphas, keys.size) * kernel.beta[sizes], 0.0))

    def scores(self, masks: np.ndarray) -> np.ndarray:
        """``sum_{T ⊆ x} wts[T]`` for each weight-p mask x: one read of a dense
        table, else in row chunks of at most ``_BLOCK_ELEMS`` submasks."""
        if self.keys is None:
            return self.table[masks]
        out = np.empty(masks.size)
        step = max(1, _BLOCK_ELEMS >> self.p)
        for start in range(0, masks.size, step):
            slot = _submasks(masks[start : start + step], self.p)
            idx = np.searchsorted(self.keys, slot)
            idx[self.keys[np.minimum(idx, self.keys.size - 1)] != slot] = self.keys.size
            out[start : start + step] = self.table[idx].sum(axis=1)
        return out


def _checked_alphas(alphas, count: int) -> np.ndarray:
    """``alphas`` as a read-only float vector: 1-d, finite, one per support point."""
    a = np.array(alphas, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"alphas must be a 1-d vector, got shape {a.shape}")
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"alphas must be finite, got alphas[{bad[0]}] = {a[bad[0]]}")
    if a.shape[0] != count:
        raise ValueError(f"support and alphas length mismatch: {count} points, {a.shape[0]} alphas")
    a.flags.writeable = False
    return a


def _read_only(val):
    """A read-only copy of report data: mappings become ``MappingProxyType``, lists tuples."""
    if isinstance(val, Mapping):
        return MappingProxyType({key: _read_only(v) for key, v in val.items()})
    return tuple(map(_read_only, val)) if isinstance(val, (list, tuple)) else val


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """A classifier in representer form: f(x) = sum_i alpha_i k(x_i, x).

    ``spec`` must be a :class:`KernelSpec`; any other object raises a
    ``TypeError``.  ``alphas`` must be a finite 1-d vector, one entry per
    support point.  The support is packed once, here, its repeated points
    merged, zero alphas dropped and the rest grouped by layer.  A layer on
    canonical weight p with ``rows`` support points is scored from the
    support's subset weights (:class:`_SubsetWeights`) when
    ``cost * 2^p <= rows`` and ``rows * 2^p <= _BLOCK_ELEMS``: one read per
    query of a dense ``2^n`` table that holds the layer's scores when
    ``1 << n <= _BLOCK_ELEMS`` (8 * 2^n bytes per layer, filled here at
    C(n, p) * 2^p lookups, up to about 65-120 ms at n = 18, p = 8), with
    ``cost = _DENSE_COST``; else 2^p lookups per query into the sorted
    keys, with ``cost = _SUBSET_COST``.  Other layers sum table values
    against the alphas block by block (one step per support row); a
    ``sparse_conjunction`` spec, whose queries come in every weight, always
    takes the blocks.  Neither path builds a support x query matrix.
    ``predict`` reads a dense subset layer's one entry without packing and
    is otherwise ``predict_many([x])[0]``, so the two agree exactly and refuse
    what :func:`points_to_bits` refuses.  Models compare
    and hash by identity.  ``report`` is kept as a read-only copy
    (:func:`_read_only`), so a certificate cannot be edited after training.
    """

    spec: KernelSpec
    support: tuple
    alphas: np.ndarray
    report: Mapping = field(default_factory=dict)
    _support_groups: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.spec, KernelSpec):
            raise TypeError(f"a TrainedModel needs a KernelSpec, got {type(self.spec).__name__}")
        object.__setattr__(self, "support", tuple(self.support))
        a = _checked_alphas(self.alphas, len(self.support))
        object.__setattr__(self, "alphas", a)
        object.__setattr__(self, "report", _read_only(self.report))
        # each distinct support point is scored once, with its alphas summed
        masks, where = np.unique(points_to_bits(self.support, self.spec.n), return_inverse=True)
        merged = np.bincount(where, weights=a, minlength=masks.size)
        scored = merged != 0.0
        groups = _groups(self.spec, masks[scored], merged[scored])
        cost = _DENSE_COST if 1 << self.spec.n <= _BLOCK_ELEMS else _SUBSET_COST
        if self.spec.kind != "sparse_conjunction":  # its queries come in every weight
            for w, (alphas, support) in groups.items():
                p = self.spec.per_layer[w].layer.p
                if cost << p <= support.size and support.size << p <= _BLOCK_ELEMS:
                    groups[w] = _SubsetWeights.build(alphas, support, self.spec.per_layer[w])
        object.__setattr__(self, "_support_groups", groups)

    def _layer_scores(self, w: int, masks: np.ndarray) -> np.ndarray:
        """Scores of query masks, mirrored onto layer w, against the support's group there."""
        group = self._support_groups[w]
        if isinstance(group, _SubsetWeights):
            return group.scores(masks)
        alphas, support = group
        g = self.spec.tables[w]
        out = np.zeros(masks.size)
        for rs, cs, ip in inner_product_blocks(support, masks):
            out[cs] += alphas[rs] @ g[ip]
        return out

    def predict(self, x: HypercubePoint) -> float:
        n = self.spec.n
        if isinstance(x, HypercubePoint) and x.n == n:  # a sparse_conjunction spec has no subset layer
            group = self._support_groups.get(x.weight)
            if isinstance(group, _SubsetWeights) and group.keys is None:
                return float(group.table[x.bits ^ ((1 << n) - 1) if 2 * x.weight > n else x.bits])
        return float(self.predict_many([x])[0])

    def predict_many(self, points) -> np.ndarray:
        masks = points_to_bits(points, self.spec.n)
        out = np.zeros(masks.size)
        for w, (ci, b) in _groups(self.spec, masks, np.arange(masks.size)).items():
            if w in self._support_groups:
                out[ci] = self._layer_scores(w, b)
        return out

    def norm_sq(self) -> float:
        """||w||^2 = alpha^T K alpha over the support points."""
        return float(self.alphas @ self.predict_many(self.support))


def analytic_weights(n: int, s: int, literals) -> TrainedModel:
    """Closed-form conjunction model: alpha = C(s, l) at the literal indicator.

    Under :func:`sparse_conjunction_kernel` the prediction is
    ``C(<c, x>, l)``, exactly the {0,1} value of the conjunction on weight-s
    data, and the squared model norm is ``C(s, l)``.
    """
    literals = sorted(set(int(i) for i in literals))
    ell = len(literals)
    spec = sparse_conjunction_kernel(n, s, ell)
    indicator = HypercubePoint.from_indices(n, literals)
    alpha = np.array([float(math.comb(s, ell))])
    return TrainedModel(
        spec,
        (indicator,),
        alpha,
        report={"kind": "sparse_conjunction_analytic", "s": s, "literals": literals},
    )

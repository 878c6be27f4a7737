"""Properties of the bit-mask kernel core (packing, popcount inner products,
table lookup) and of the models that use it.

Core claims:
    - cross_gram equals KernelSpec.evaluate entry by entry for direct-sum
      and sparse-conjunction specs, on n from 1 to 64, on mixed weights
      above and below n/2, absent layers, and empty row or column lists
    - cross_gram and gram accept the packed masks of points_to_bits in place
      of point lists and give the same values
    - a weight group that holds every row and every column (one layer,
      mirrored or not, or a sparse_conjunction spec) is written by slice,
      and cross_gram and gram equal both the np.ix_ scatter of every block
      and evaluate byte for byte, interleaved groups and a layer that leaves
      columns out included, with blocks whole and split; on 1,000 weight-4
      points of n = 16 gram's traced peak is at most the scatter's
    - a batch prediction equals alphas @ cross_gram within
      1e-12 * (1 + sum |alpha|), for direct-sum, universal and
      sparse-conjunction specs, repeated support points and zero alphas,
      query weights no support point has, and empty query lists; norm_sq
      equals the dense alpha^T K alpha to the same relative tolerance
    - prediction builds no support x query matrix: scoring 4,000 queries
      against a 4,000-point support traces under 8 MiB of allocation, and
      so do building and scoring a subset-path model of 3,000 points
    - a layer scored from the support's subset weights matches
      alphas @ cross_gram within a bound on the binomial basis' rounding,
      for random, mix_vertices and conjunction tables, mirrored layers,
      repeated points, zero alphas, models with layers on both paths and
      queries split into chunks; on a model shaped like mkl-cube's, layers
      3, 6 and 12 all take that path, layer 6 as a dense table; a direct-sum
      layer built by hand from its beta scores the same on both paths; one
      row's submasks match the batch enumeration, and the in-place
      enumeration matches one np.hstack per peel byte for byte for p = 0 to
      8, on 64-bit masks with bit 63 set
    - a dense table's sort-free weights, and the scores built from them,
      equal the sorted layout's _subset_sums times beta byte for byte, the
      -0.0 of a negative beta times alphas that cancel included
    - a subset layer's dense table (2^n floats, when 1 << n <= _BLOCK_ELEMS)
      and its sorted keys score bit for bit alike, on n = 5 to 32 around the
      n = 18 gate, and a query that misses every key scores exactly 0.0;
      building and scoring four dense subset layers of n = 18 takes under
      10 MiB, their tables plus the traced peak, and one layer of p = 8,
      the largest the dense gate admits, under 18 MiB
    - a layer of n <= 12 with _DENSE_COST * 2^p <= rows < _SUBSET_COST * 2^p
      distinct support rows (below and above n/2, with repeated points and
      zero alphas) takes the dense form, and every mask of it scores within
      the binomial rounding bound of alphas @ cross_gram, bit for bit as the
      sorted keys score it, and as predict_many([x])[0] does; with one row
      fewer than _DENSE_COST * 2^p it keeps the block path
    - every mask of a dense subset layer (n <= 12, below and above n/2)
      scores bit for bit as the sorted keys of the same support score it,
      in a batch and one point at a time
    - a single prediction on a dense subset layer reads one table entry: a
      weight above n/2 reads its mirror's, a weight with no support group
      scores 0.0, and a non-point or a point of the wrong dimension raises
      the TypeError or ValueError of points_to_bits, message and all
    - a single prediction equals the batch prediction of the same point,
      and predict(x) == predict_many([x])[0] exactly on both paths
    - a model takes only a KernelSpec: any other spec, a lifted kernel
      included, is refused with a TypeError; models compare and hash by
      identity
    - save_model -> load_model keeps every prediction bit for bit, on n from
      1 to 64
    - bad input is rejected by name: wrong dimensions, masks out of range,
      widths above 64 bits, an entry that is not a HypercubePoint (by index
      and type, the first bad one; a subclass packs), and alphas that are not a finite 1-d vector, also when
      read from a model file
"""

import json
import math
import os
import tempfile
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubekern import embedding, harness, kernels
from cubekern.kernels import HypercubePoint, KernelSpec, TrainedModel
from cubekern.scheme import BetaCoeffs, LayerParams, p_from_d

DIMS = st.sampled_from([1, 2, 5, 16, 63, 64])
PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def point_sets(draw, n, weights, max_size=8):
    """A list of points whose weights come from ``weights``."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        w = draw(st.sampled_from(weights))
        coords = draw(st.permutations(range(n)))[:w]
        out.append(HypercubePoint.from_indices(n, coords))
    return out


@st.composite
def specs_and_points(draw, dims=DIMS, admissible=False):
    """A kernel spec on n in ``dims`` and row and column point lists.

    A universal spec is always ``universal_kernel(n)``.  Otherwise the layers
    are arbitrary uncertified ``BetaCoeffs`` by default: packing, inner
    products, weight gating and the complement do not depend on table values.
    A direct-sum layer's beta is ``p_from_d`` of a random table; a
    sparse-conjunction beta_l is N(0, 1) / C(n, l), which keeps its table,
    zero-padded to k = n, O(s) in size.  With ``admissible`` the spec comes
    from the library's constructors (needed where a model file rebuilds its
    layers through the admissibility check).
    """
    n = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse_conjunction", "direct_sum", "universal"]))
    if kind == "universal":
        spec = kernels.universal_kernel(n)
        weights = list(range(n + 1))
    elif kind == "sparse_conjunction":
        s, ell = draw(st.integers(0, n).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s))))
        if admissible:
            spec = kernels.sparse_conjunction_kernel(n, s, ell)
        else:
            beta = rng.normal(size=s + 1) / [math.comb(n, ell) for ell in range(s + 1)]
            spec = KernelSpec(n, "sparse_conjunction", {s: BetaCoeffs(LayerParams(n, s), beta)})
        weights = [draw(st.integers(0, n)) for _ in range(3)]
    else:
        layer_weights = draw(st.lists(st.integers(0, n), min_size=1, max_size=3, unique=True))
        per_layer = {}
        for w in layer_weights:
            layer = LayerParams(n, min(w, n - w))
            if admissible:
                lam = rng.random(layer.p + 1)
                per_layer[w] = kernels.mix_vertices(layer, lam / lam.sum())
            else:
                per_layer[w] = BetaCoeffs(layer, p_from_d(rng.normal(size=layer.p + 1)))
        spec = KernelSpec(n, "direct_sum", per_layer)
        # one weight no layer covers, so absent layers are exercised too
        weights = layer_weights + [draw(st.integers(0, n))]
    rows = draw(point_sets(n, weights))
    cols = draw(point_sets(n, weights))
    return spec, rows, cols


@st.composite
def conjunction_specs_and_points(draw):
    """A conjunction_kernel spec on a layer below or above n/2, and points on it and off it."""
    n = draw(st.integers(1, 64))
    p = draw(st.integers(0, n))
    spec = kernels.conjunction_kernel(n, p, draw(st.floats(0.01, 0.9)))
    return spec, draw(point_sets(n, [p])), draw(point_sets(n, [p, draw(st.integers(0, n))]))


@st.composite
def model_cases(draw, specs=specs_and_points()):
    """A spec, a support with repeated points and zero alphas, and queries."""
    spec, support, queries = draw(specs)
    if support:
        support = support + draw(st.lists(st.sampled_from(support), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas = rng.normal(size=len(support)) * (rng.random(len(support)) < 0.8)
    return spec, support, alphas, queries


def brute_force(spec, rows, cols):
    vals = [[spec.evaluate(x, y) for y in cols] for x in rows]
    return np.array(vals).reshape(len(rows), len(cols))


def scatter_cross_gram(spec, rows, cols):
    """``kernels.cross_gram`` with every block scattered through ``np.ix_``: the reference
    that the library's slice path for a group holding every row and column must equal."""
    xr, xc = kernels.points_to_bits(rows, spec.n), kernels.points_to_bits(cols, spec.n)
    out = np.zeros((xr.size, xc.size))
    row_groups = kernels._groups(spec, xr, np.arange(xr.size))
    for w, (ci, b) in kernels._groups(spec, xc, np.arange(xc.size)).items():
        if w in row_groups:
            ri, a = row_groups[w]
            for rs, cs, ip in kernels.inner_product_blocks(a, b):
                out[np.ix_(ri[rs], ci[cs])] = spec.tables[w][ip]
    return out


def random_points(n, weights, m, seed):
    rng = np.random.default_rng(seed)
    return [HypercubePoint.from_indices(n, rng.permutation(n)[: rng.choice(weights)].tolist()) for _ in range(m)]


GRAM_CASES = {  # spec, rows, cols
    "one group": (kernels.universal_kernel(9), random_points(9, [3], 30, 1), random_points(9, [3], 17, 2)),
    "mirrored layer": (kernels.universal_kernel(10), random_points(10, [7], 25, 3), random_points(10, [7], 9, 4)),
    "interleaved groups": (kernels.universal_kernel(7), random_points(7, range(8), 40, 5), random_points(7, range(8), 21, 6)),
    "one layer, columns off it": (  # the group holds every row but not every column
        kernels.conjunction_kernel(8, 3, 0.1), random_points(8, [3], 20, 7), random_points(8, [3, 2, 5], 14, 8)
    ),
    "sparse_conjunction": (
        kernels.sparse_conjunction_kernel(8, 3, 2), random_points(8, range(9), 30, 9), random_points(8, range(9), 12, 10)
    ),
}


class TestGramAssembly:
    """gram and cross_gram write a one-group block by slice and equal the np.ix_ scatter bit for bit."""

    @pytest.mark.parametrize("block", [None, 12])
    @pytest.mark.parametrize("name", sorted(GRAM_CASES))
    def test_equals_the_scatter_and_evaluate_bit_for_bit(self, monkeypatch, name, block):
        # 12-entry blocks split the columns into chunks, the last one partial
        if block is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block)
        spec, rows, cols = GRAM_CASES[name]
        for a, b in ((rows, cols), (cols, rows), (rows, rows)):
            got = kernels.cross_gram(spec, a, b)
            assert got.tobytes() == scatter_cross_gram(spec, a, b).tobytes()
            assert got.tobytes() == brute_force(spec, a, b).tobytes()
        assert kernels.gram(spec, rows).tobytes() == brute_force(spec, rows, rows).tobytes()

    def test_the_slice_path_allocates_no_more_than_the_scatter(self):
        # stated before measuring: on 1,000 weight-4 points of n = 16, one group, the
        # traced peak of gram is at most that of the np.ix_ scatter.  Both peak at the
        # 7.6 MiB output plus the 2 MiB uint64 AND block of inner_product_blocks
        # (10.17 MiB); the scatter's g[ip] comes once that block is freed
        spec, pts = kernels.universal_kernel(16), random_points(16, [4], 1000, 11)
        kernels.gram(spec, pts[:2])  # one-time caches, untraced
        peaks = []
        for build in (kernels.gram, lambda spec, pts: scatter_cross_gram(spec, pts, pts)):
            tracemalloc.start()
            try:
                build(spec, pts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


@PROPERTY
@given(specs_and_points())
def test_cross_gram_matches_evaluate(case):
    spec, rows, cols = case
    want = brute_force(spec, rows, cols)
    assert np.array_equal(kernels.cross_gram(spec, rows, cols), want)
    packed = kernels.points_to_bits(rows, spec.n), kernels.points_to_bits(cols, spec.n)
    assert np.array_equal(kernels.cross_gram(spec, *packed), want)
    assert np.array_equal(kernels.gram(spec, packed[0]), brute_force(spec, rows, rows))


@PROPERTY
@given(model_cases())
def test_prediction_matches_cross_gram(case):
    spec, support, alphas, queries = case
    model = TrainedModel(spec, support, alphas)
    tol = 1e-12 * (1.0 + np.abs(alphas).sum())
    want = alphas @ kernels.cross_gram(spec, support, queries)
    got = model.predict_many(queries)
    assert got.shape == (len(queries),)
    assert np.abs(got - want).max(initial=0.0) <= tol
    assert model.predict_many([]).shape == (0,)
    dense = alphas @ kernels.gram(spec, support) @ alphas
    assert abs(model.norm_sq() - dense) <= tol * (1.0 + np.abs(alphas).sum())


def test_prediction_builds_no_support_by_query_matrix():
    # a 4,000 x 4,000 float matrix alone would be 122 MiB
    rng = np.random.default_rng(0)
    support, queries = ([HypercubePoint(16, int(b)) for b in rng.integers(0, 1 << 16, 4000)] for _ in "ab")
    model = TrainedModel(kernels.universal_kernel(16), support, rng.normal(size=4000))
    want = model.alphas @ kernels.cross_gram(model.spec, support, queries)
    tracemalloc.start()
    try:
        got = model.predict_many(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.abs(got - want).max() <= 1e-12 * (1.0 + np.abs(model.alphas).sum())


def test_small_blocks_split_rows_and_columns(monkeypatch):
    rng = np.random.default_rng(1)
    spec = kernels.universal_kernel(5)
    support, queries = ([HypercubePoint(5, int(b)) for b in rng.integers(0, 32, 40)] for _ in "ab")
    model = TrainedModel(spec, support, rng.normal(size=40))
    want_gram, want_pred = kernels.cross_gram(spec, support, queries), model.predict_many(queries)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 3)  # fewer than a layer's columns
    assert np.array_equal(kernels.cross_gram(spec, support, queries), want_gram)
    assert np.abs(model.predict_many(queries) - want_pred).max() <= 1e-12 * (1.0 + np.abs(model.alphas).sum())


def subset_tolerance(spec, alphas):
    """Bound on |subset-path score - alphas @ cross_gram|, fixed before running.

    A layer's subset weights carry its beta c, the Newton differences of g
    up to rounding, and a score sums c_l C(k, l) over submasks, so the
    rounding scales with sum_l |c_l| C(p, l).  |c_l| is taken as the sum of its terms'
    magnitudes, sum_j C(l, j) |g_j|: the terms cancel where a table is
    smooth (mix_vertices tables at p >= 8), and that cancellation, not |c_l|,
    sets the rounding.  32 eps times that, times sum |alpha|, over the worst layer.
    """
    worst = 0.0
    for table in spec.tables.values():
        g = np.abs(table)
        p = len(g) - 1
        terms = [sum(math.comb(l, j) * g[j] for j in range(l + 1)) for l in range(p + 1)]
        worst = max(worst, sum(math.comb(p, l) * terms[l] for l in range(p + 1)))
    return 32 * np.finfo(float).eps * worst * np.abs(alphas).sum()


def subset_layers(model):
    return sorted(w for w, grp in model._support_groups.items() if isinstance(grp, kernels._SubsetWeights))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(
        model_cases(),
        model_cases(specs_and_points(st.just(16))),
        model_cases(specs_and_points(st.sampled_from([2, 5, 16, 32]), admissible=True)),
        model_cases(conjunction_specs_and_points()),
    ),
    st.sampled_from([1 << 18, 64, 8]),
    st.integers(1, 40),
)
def test_subset_path_matches_cross_gram(monkeypatch, case, build_elems, score_elems):
    # every layer that fits build_elems takes the subset path; larger ones keep
    # the block path, so one model can hold both; score_elems splits the queries
    spec, support, alphas, queries = case
    monkeypatch.setattr(kernels, "_SUBSET_COST", 0)
    monkeypatch.setattr(kernels, "_DENSE_COST", 0)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", build_elems)
    model = TrainedModel(spec, support, alphas)
    want = alphas @ kernels.cross_gram(spec, support, queries)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMS", score_elems)
    got = model.predict_many(queries)
    assert got.shape == (len(queries),)
    assert np.abs(got - want).max(initial=0.0) <= subset_tolerance(spec, alphas)
    for x in queries:
        assert model.predict(x) == model.predict_many([x])[0]
    if spec.kind == "sparse_conjunction":
        assert subset_layers(model) == []


def test_submasks_of_one_row_match_the_batch_enumeration():
    for mask in (0, 0b1011, (1 << 63) | (1 << 40) | 0b101, ((1 << 12) - 1) << 52):
        p = mask.bit_count()
        row = kernels._submasks(np.array([mask], dtype=np.uint64), p)
        assert np.array_equal(kernels._submasks(np.array([mask, mask], dtype=np.uint64), p), np.vstack([row, row]))
        subs, s = {0}, mask
        while s:
            subs.add(s)
            s = (s - 1) & mask
        assert row.shape == (1, 1 << p) and set(row[0].tolist()) == subs


def hstack_submasks(masks, p):
    """The submask enumeration by one ``np.hstack`` per peel: the reference for ``kernels._submasks``."""
    subs = np.zeros((masks.size, 1), dtype=np.uint64)
    rest = masks.copy()
    for _ in range(p):
        low = rest & (~rest + np.uint64(1))
        rest ^= low
        subs = np.hstack([subs, subs | low[:, None]])
    return subs


@pytest.mark.parametrize("p", range(9))
def test_submasks_fill_in_place_as_the_hstack_enumeration(p):
    # weight-p masks of 64 bits, every other one with bit 63 set, and no rows at all
    rng = np.random.default_rng(p)
    bits = [[63] * (i % 2 and p > 0) + rng.choice(63, p - (i % 2 and p > 0), replace=False).tolist() for i in range(25)]
    masks = np.array([sum(1 << b for b in row) for row in bits], dtype=np.uint64)
    for rows in (masks, masks[:0]):
        got, want = kernels._submasks(rows, p), hstack_submasks(rows, p)
        assert got.dtype == want.dtype and got.shape == want.shape == (rows.size, 1 << p)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def sorted_layout_dense_table(alphas, masks, kernel):
    """A dense subset table whose weights come from the sorted layout, ``_subset_sums``
    times beta at ``_subset_layout``'s keys, scored in place as ``_SubsetWeights.build`` does."""
    n, p = kernel.layer.n, kernel.layer.p
    keys, slots, sizes = kernels._subset_layout(masks, p)
    table = np.zeros(1 << n)
    table[keys] = kernels._subset_sums(slots, alphas, keys.size) * kernel.beta[sizes]
    layer = kernels._layer_masks(n, p)
    step = max(1, kernels._BLOCK_ELEMS >> p)
    for start in range(0, layer.size, step):
        rows = layer[start : start + step]
        table[rows] = table[kernels._submasks(rows, p)].sum(axis=1)
    return table


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_dense_table_weights_match_the_sorted_layout_sign_of_zero_included(n, p, seed):
    # every beta negative, and alphas in pairs a, -a on adjacent rows, so the empty set's
    # weight sums to exactly 0.0 and times its beta is -0.0
    rng = np.random.default_rng(seed)
    p = min(p, n // 2)
    layer = kernels._layer_masks(n, p)
    pairs = min(8, max(1, layer.size // 2))
    masks = rng.choice(layer, 2 * pairs, replace=layer.size < 2 * pairs)  # p = 0 has one mask
    alphas = np.repeat(rng.normal(size=masks.size // 2), 2) * np.tile([1.0, -1.0], masks.size // 2)
    kernel = BetaCoeffs(LayerParams(n, p), -np.abs(rng.normal(size=p + 1)))
    built = kernels._SubsetWeights.build(alphas, masks, kernel)
    assert built.keys is None
    assert built.table.tobytes() == sorted_layout_dense_table(alphas, masks, kernel).tobytes()
    if p > 0:  # the empty set is below weight p, so its weight is kept: -0.0
        assert built.table[0] == 0.0 and math.copysign(1.0, built.table[0]) == -1.0


def test_layers_take_the_path_their_size_selects():
    # the shape of an mkl-cube model: distinct support rows on layers 3, 6 and
    # 12 of n = 16 (12 is mirrored onto p = 4); n = 16 tables are dense, so a
    # layer takes the subset path when 3 * 2^p <= rows: layer 6 at 192 <= 290
    rng = np.random.default_rng(3)
    universal = kernels.universal_kernel(16)
    spec = KernelSpec(16, "direct_sum", {w: universal.per_layer[w] for w in (3, 6, 12)})
    support = []
    for w, rows in ((3, 200), (6, 290), (12, 260)):
        layer = [b for b in range(1 << 16) if b.bit_count() == w]
        support += [HypercubePoint(16, b) for b in rng.choice(layer, rows, replace=False).tolist()]
    model = TrainedModel(spec, support, rng.normal(size=len(support)))
    assert subset_layers(model) == [3, 6, 12]
    assert all(model._support_groups[w].keys is None for w in (3, 6, 12))
    queries = [HypercubePoint(16, b) for b in rng.integers(0, 1 << 16, 3000).tolist()]
    want = model.alphas @ kernels.cross_gram(spec, support, queries)
    assert np.abs(model.predict_many(queries) - want).max() <= subset_tolerance(spec, model.alphas)


def test_hand_built_layer_scores_the_same_on_both_paths(monkeypatch):
    # a layer is its beta alone: the subset path reads beta, the block path
    # the spec's table derived from it, so both score the same kernel
    rng = np.random.default_rng(6)
    layer = LayerParams(12, 4)
    spec = KernelSpec(12, "direct_sum", {w: BetaCoeffs(layer, rng.normal(size=5)) for w in (4, 8)})
    draw = lambda m, w: [HypercubePoint.from_indices(12, rng.permutation(12)[:w]) for _ in range(m)]
    support, queries, alphas = draw(100, 4) + draw(100, 8), draw(50, 4) + draw(50, 8), rng.normal(size=200)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_DENSE_COST", 1 << 12)  # more than any layer has rows
        blocks = TrainedModel(spec, support, alphas)
    monkeypatch.setattr(kernels, "_SUBSET_COST", 0)
    monkeypatch.setattr(kernels, "_DENSE_COST", 0)
    subsets = TrainedModel(spec, support, alphas)
    assert subset_layers(blocks) == [] and subset_layers(subsets) == [4, 8]
    want = blocks.predict_many(queries)
    assert np.abs(subsets.predict_many(queries) - want).max() <= subset_tolerance(spec, alphas)
    assert np.abs(want - alphas @ kernels.cross_gram(spec, support, queries)).max() <= 1e-12 * (
        1.0 + np.abs(alphas).sum()
    )


def test_subset_path_builds_and_scores_in_bounded_memory():
    rng = np.random.default_rng(4)
    draw = lambda m: [HypercubePoint.from_indices(16, rng.permutation(16)[:4]) for _ in range(m)]
    support, queries, alphas = draw(3000), draw(4000), rng.normal(size=3000)
    spec = kernels.universal_kernel(16)
    tracemalloc.start()
    try:
        model = TrainedModel(spec, support, alphas)
        got = model.predict_many(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert subset_layers(model) == [4]
    want = alphas @ kernels.cross_gram(spec, support, queries)
    assert np.abs(got - want).max() <= subset_tolerance(spec, alphas)


def test_dense_subset_layers_at_the_gate_build_and_score_in_bounded_memory():
    # n = 18 is the largest n whose layers get dense 2^n tables (2 MiB each):
    # four subset layers hold 8 MiB, and no temporary of building or scoring
    # exceeds one _BLOCK_ELEMS block of floats, another 2 MiB.  The tables
    # have pages of their own, which tracemalloc does not see, so their bytes
    # are counted apart from the traced peak.
    rng = np.random.default_rng(8)
    draw = lambda m, w: [HypercubePoint.from_indices(18, rng.permutation(18)[:w]) for _ in range(m)]
    spec = kernels.universal_kernel(18)
    support = draw(100, 2) + draw(300, 3) + draw(600, 4) + draw(300, 15)
    queries = draw(500, 2) + draw(500, 3) + draw(500, 4) + draw(500, 15)
    alphas = rng.normal(size=len(support))
    tracemalloc.start()
    try:
        model = TrainedModel(spec, support, alphas)
        got = model.predict_many(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tables = [model._support_groups[w] for w in subset_layers(model)]
    assert subset_layers(model) == [2, 3, 4, 15] and all(t.keys is None for t in tables)
    assert peak + sum(t.table.nbytes for t in tables) < 10 * 2**20
    want = alphas @ kernels.cross_gram(spec, support, queries)
    assert np.abs(got - want).max() <= subset_tolerance(spec, alphas)


def test_the_largest_dense_layer_the_gate_admits_builds_and_scores_in_bounded_memory():
    # 3 * 4^p <= 2^18 admits p = 8 at n = 18 with 768 to 1,024 rows.  The
    # support's rows * 2^p submasks then fill most of one _BLOCK_ELEMS block
    # (2 MiB of 8-byte entries).  The dense fill holds the submasks, the
    # alphas' repeat and a 2^n bool mark (a quarter block); scoring the layer
    # holds three blocks once the submasks are freed.  So no more than four
    # blocks, 8 MiB, are traced at once (the sorted layout held the same, and
    # np.unique with its inverse 12.1 MiB).  The table's 2 MiB are mapped
    # pages, not traced.
    rng = np.random.default_rng(12)
    layer = kernels._layer_masks(18, 8)
    support = [HypercubePoint(18, b) for b in rng.choice(layer, 900, replace=False).tolist()]
    queries = [HypercubePoint(18, b) for b in rng.choice(layer, 500).tolist()]
    spec = KernelSpec(18, "direct_sum", {8: kernels.universal_kernel(18).per_layer[8]})
    alphas = rng.normal(size=900)
    tracemalloc.start()
    try:
        model = TrainedModel(spec, support, alphas)
        got = model.predict_many(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert subset_layers(model) == [8] and model._support_groups[8].keys is None
    assert peak <= 8 * 2**20
    want = alphas @ kernels.cross_gram(spec, support, queries)
    assert np.abs(got - want).max() <= subset_tolerance(spec, alphas)


# (n, p) of n <= 12 whose layer holds at least _DENSE_COST * 2^p masks
DENSE_BAND_LAYERS = [
    (n, p) for n in range(2, 13) for p in range(1, n // 2 + 1) if math.comb(n, p) >= kernels._DENSE_COST << p
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(DENSE_BAND_LAYERS), st.booleans(), st.integers(0, 2**32 - 1))
def test_layers_only_the_dense_gate_admits_score_within_the_bound(monkeypatch, layer_shape, mirrored, seed):
    # `rows` distinct support points with nonzero alphas, where
    # _DENSE_COST * 2^p <= rows < _SUBSET_COST * 2^p: only the dense gate
    # admits the layer.  Some points repeat with alphas that keep their sum,
    # and others carry a zero alpha or alphas that cancel, so the layer's
    # rows are the distinct points whose alphas do not sum to zero.
    n, p = layer_shape
    rng = np.random.default_rng(seed)
    w = n - p if mirrored else p
    spec = KernelSpec(n, "direct_sum", {w: BetaCoeffs(LayerParams(n, p), rng.normal(size=p + 1))})
    layer = [HypercubePoint(n, b) for b in range(1 << n) if b.bit_count() == w]
    lo = kernels._DENSE_COST << p
    rows = int(rng.integers(lo, min(kernels._SUBSET_COST << p, len(layer) + 1)))
    order = rng.permutation(len(layer))
    kept, spare = [layer[i] for i in order[:rows]], [layer[i] for i in order[rows : rows + 2]]
    repeats = [kept[i] for i in rng.choice(rows, 5, replace=False)]
    support = kept + repeats + [x for x in spare for _ in "ab"]
    extra = [0.0, 0.0, 1.5, -1.5][: 2 * len(spare)]  # spare[0] weighs zero, spare[1]'s alphas cancel
    alphas = np.concatenate([rng.normal(size=rows + 5), extra])
    model = TrainedModel(spec, support, alphas)
    group = model._support_groups[w]
    assert isinstance(group, kernels._SubsetWeights) and group.keys is None
    got = model.predict_many(layer)
    assert np.abs(got - alphas @ kernels.cross_gram(spec, support, layer)).max() <= subset_tolerance(spec, alphas)
    for j, x in enumerate(layer):
        assert model.predict(x) == model.predict_many([x])[0] == got[j]
    # the sorted keys of the same merged support, forced by a block below 2^n
    masks, where = np.unique(kernels.points_to_bits(support, n), return_inverse=True)
    merged = np.bincount(where, weights=alphas)
    assert np.count_nonzero(merged) == rows
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_BLOCK_ELEMS", (1 << n) - 1)
        keyed = kernels._SubsetWeights.build(
            merged[merged != 0.0], kernels._mirrored(masks[merged != 0.0], w, n), spec.per_layer[w]
        )
        assert keyed.keys is not None
        queries = kernels._mirrored(kernels.points_to_bits(layer, n), w, n)
        assert keyed.scores(queries).tobytes() == got.tobytes()
    # one row fewer than the dense gate asks for keeps the block path
    fewer = TrainedModel(spec, kept[: lo - 1], alphas[: lo - 1])
    assert isinstance(fewer._support_groups[w], tuple)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from([5, 16, 18, 19, 32]), st.integers(0, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_dense_and_sorted_subset_tables_score_bit_for_bit_alike(monkeypatch, n, p, weigh_empty_set, seed):
    # The same support in three models: on the top span = min(n, 18)
    # coordinates of n itself (dense up to n = 18, sorted above), and on a
    # layer of span coordinates, once dense and once sorted by lowering
    # _BLOCK_ELEMS below 2^span at build time.  A shift keeps the order in
    # which a row's submasks are enumerated, so all three gather the same
    # values in the same order.  The last query shares no coordinate with the
    # support; when the empty set carries no weight it scores exactly 0.0.
    rng = np.random.default_rng(seed)
    span = min(n, 18)
    p = min(p, span // 2)
    beta = rng.normal(size=p + 1)
    if not weigh_empty_set:
        beta[0] = 0.0
    window = lambda coords: [int(c) for c in rng.choice(coords, p, replace=False)]
    size = rng.integers(1, min(40, ((1 << span) - 1) >> p) + 1)
    support = [window(span - p) for _ in range(size)]  # the top p coordinates are kept free
    queries = [window(span) for _ in range(30)] + [list(range(span - p, span))]
    alphas = rng.normal(size=size)
    default = kernels._BLOCK_ELEMS
    monkeypatch.setattr(kernels, "_SUBSET_COST", 0)
    monkeypatch.setattr(kernels, "_DENSE_COST", 0)

    def model(dim, block_elems):
        points = lambda sets: [HypercubePoint.from_indices(dim, [c + dim - span for c in s]) for s in sets]
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block_elems)
        spec = KernelSpec(dim, "direct_sum", {p: BetaCoeffs(LayerParams(dim, p), beta)})
        m = TrainedModel(spec, points(support), alphas)
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", default)
        assert subset_layers(m) == [p]
        return m, points(queries)

    forms = [model(n, default), model(span, default), model(span, (1 << span) - 1)]
    assert [m._support_groups[p].keys is None for m, _ in forms] == [n <= 18, True, False]
    scores = [m.predict_many(q) for m, q in forms]
    assert all(got.tobytes() == scores[0].tobytes() for got in scores)
    if not weigh_empty_set:
        assert scores[0][-1] == 0.0
    for m, q in forms:
        for x in q:
            assert m.predict(x) == m.predict_many([x])[0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 12), st.integers(0, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_every_mask_of_a_dense_layer_scores_as_the_sorted_form(monkeypatch, n, p, mirrored, seed):
    # A dense table holds a score at every mask of its layer, computed when
    # the model is built.  Every point of the layer, not a sample of queries,
    # must score as the sorted keys of the same support score it, with no
    # tolerance: the bytes compare, in a batch and one point at a time.
    rng = np.random.default_rng(seed)
    p = min(p, n // 2)
    w = n - p if mirrored else p
    spec = KernelSpec(n, "direct_sum", {w: BetaCoeffs(LayerParams(n, p), rng.normal(size=p + 1))})
    layer = [HypercubePoint(n, b) for b in range(1 << n) if b.bit_count() == w]
    size = rng.integers(1, min(40, ((1 << n) - 1) >> p) + 1)
    support = [layer[i] for i in rng.integers(0, len(layer), size)]
    alphas = rng.normal(size=size)
    monkeypatch.setattr(kernels, "_SUBSET_COST", 0)
    monkeypatch.setattr(kernels, "_DENSE_COST", 0)
    dense = TrainedModel(spec, support, alphas)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_BLOCK_ELEMS", (1 << n) - 1)
        keyed = TrainedModel(spec, support, alphas)
    assert dense._support_groups[w].keys is None and keyed._support_groups[w].keys is not None
    want = keyed.predict_many(layer)
    assert dense.predict_many(layer).tobytes() == want.tobytes()
    assert np.array([dense.predict(x) for x in layer]).tobytes() == want.tobytes()


def test_single_prediction_on_a_dense_layer_refuses_what_packing_refuses(monkeypatch):
    monkeypatch.setattr(kernels, "_SUBSET_COST", 0)
    monkeypatch.setattr(kernels, "_DENSE_COST", 0)
    model = TrainedModel(kernels.universal_kernel(8), [HypercubePoint.from_indices(8, [0, 1])], [1.0])
    assert subset_layers(model) == [2] and model._support_groups[2].keys is None
    lookalike = SimpleNamespace(n=8, bits=3, weight=2)
    non_points = [(lookalike, TypeError), ("11000000", TypeError)]
    for bad, error in non_points + [(HypercubePoint(9, 3), ValueError), (HypercubePoint(7, 3), ValueError)]:
        with pytest.raises(error) as packing:
            kernels.points_to_bits([bad], 8)
        with pytest.raises(error) as single:
            model.predict(bad)
        assert str(single.value) == str(packing.value)


def test_single_prediction_reads_the_mirror_entry_and_zero_off_the_support(monkeypatch):
    # layer 7 of n = 10 is scored on its mirror, p = 3: a query reads the entry
    # of its complement, and its own weight-7 entry is never written
    monkeypatch.setattr(kernels, "_SUBSET_COST", 0)
    monkeypatch.setattr(kernels, "_DENSE_COST", 0)
    rng = np.random.default_rng(11)
    universal = kernels.universal_kernel(10)
    spec = KernelSpec(10, "direct_sum", {w: universal.per_layer[w] for w in (3, 7)})
    draw = lambda m: [HypercubePoint.from_indices(10, rng.permutation(10)[:7]) for _ in range(m)]
    support = draw(20)
    model = TrainedModel(spec, support, rng.normal(size=20))
    assert subset_layers(model) == [7] and model._support_groups[7].keys is None
    table = model._support_groups[7].table
    for x in support + draw(20):
        assert model.predict(x) == table[x.complement().bits] == model.predict_many([x])[0]
        assert table[x.bits] == 0.0
    for w in (3, 4):  # a layer with no support, and a weight with no layer
        x = HypercubePoint.from_indices(10, range(w))
        assert model.predict(x) == 0.0 and model.predict_many([x])[0] == 0.0


@PROPERTY
@given(specs_and_points(), st.integers(0, 2**32 - 1))
def test_single_prediction_equals_batch(case, seed):
    spec, support, queries = case
    alphas = np.random.default_rng(seed).normal(size=len(support))
    model = TrainedModel(spec, support, alphas)
    batch = model.predict_many(queries)
    assert batch.shape == (len(queries),)
    for j, x in enumerate(queries):
        assert model.predict(x) == model.predict_many([x])[0]
        assert model.predict(x) == pytest.approx(batch[j], rel=1e-12, abs=1e-12)


@PROPERTY
@given(specs_and_points(admissible=True), st.integers(0, 2**32 - 1))
def test_saved_model_predicts_the_same(case, seed):
    spec, support, queries = case
    alphas = np.random.default_rng(seed).normal(size=len(support))
    model = TrainedModel(spec, support, alphas, report={"algo": "test"})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        harness.save_model(model, path)
        loaded = harness.load_model(path)
    assert np.array_equal(loaded.predict_many(queries), model.predict_many(queries))


def test_only_a_kernel_spec_is_accepted():
    # a lifted kernel scores embedded points through embedding.EmbeddedModel
    pair = embedding.build_pair(1, 0.5, seed=0)
    lifted = embedding.lift_kernel(embedding.poly_g([1.0, 1.0], 1.0, 1.0), pair)
    for spec in (object(), lifted):
        with pytest.raises(TypeError, match="a TrainedModel needs a KernelSpec, got"):
            TrainedModel(spec, [HypercubePoint.from_string("1100")], [1.0])


def test_models_compare_and_hash_by_identity():
    spec, support = kernels.universal_kernel(4), [HypercubePoint.from_string("1100")]
    model, twin = TrainedModel(spec, support, [1.0]), TrainedModel(spec, support, [1.0])
    assert model == model and model != twin
    assert hash(model) == hash(model) and len({model, twin}) == 2


class TestPacking:
    def test_masks_and_dtype(self):
        pts = [HypercubePoint.from_string("1100"), HypercubePoint.from_string("0001")]
        masks = kernels.points_to_bits(pts, 4)
        assert masks.dtype == np.uint64 and masks.tolist() == [3, 8]
        assert kernels.points_to_bits([], 4).shape == (0,)
        full = HypercubePoint(64, 2**64 - 1)
        assert kernels.points_to_bits([full], 64).tolist() == [2**64 - 1]

    def test_width_above_64_rejected(self):
        with pytest.raises(ValueError, match="n <= 64"):
            kernels.points_to_bits([HypercubePoint(65, 1)], 65)

    def test_dimension_mismatch(self):
        spec = kernels.universal_kernel(4)
        good, bad = HypercubePoint.from_string("1100"), HypercubePoint.from_string("110")
        with pytest.raises(ValueError, match="dimension"):
            kernels.cross_gram(spec, [good], [bad])
        with pytest.raises(ValueError, match="dimension"):
            kernels.cross_gram(spec, [bad], [])
        with pytest.raises(ValueError, match="dimension"):
            TrainedModel(spec, [bad], [1.0])

    def test_entry_that_is_not_a_point_named(self):
        model = TrainedModel(kernels.universal_kernel(4), [HypercubePoint.from_string("1100")], [1.0])
        with pytest.raises(TypeError, match="points\\[0\\] is not a HypercubePoint \\(got str\\)"):
            model.predict_many(["1100"])
        with pytest.raises(TypeError, match="points\\[1\\] is not a HypercubePoint \\(got int\\)"):
            kernels.points_to_bits([HypercubePoint.from_string("1100"), 3], 4)

    def test_a_subclass_packs_and_the_first_bad_entry_is_named(self):
        class Marked(HypercubePoint):
            pass

        good, short = HypercubePoint.from_string("1100"), HypercubePoint.from_string("110")
        assert kernels.points_to_bits(iter([good, Marked(4, 9)]), 4).tolist() == [3, 9]
        with pytest.raises(ValueError, match="points\\[1\\] has n=3, expected n=4"):
            kernels.points_to_bits([good, short, "1100"], 4)
        with pytest.raises(TypeError, match="points\\[1\\] is not a HypercubePoint \\(got str\\)"):
            kernels.points_to_bits([Marked(4, 1), "1100", short], 4)

    def test_packed_masks_validated(self):
        spec = kernels.universal_kernel(4)
        with pytest.raises(ValueError, match="n=4 bit masks"):
            kernels.cross_gram(spec, np.array([16], dtype=np.uint64), [])
        with pytest.raises(ValueError, match="n=4 bit masks"):
            kernels.gram(spec, np.zeros((2, 2), dtype=np.uint64))

    def test_row_blocks_cover_every_row(self, monkeypatch):
        # 5 columns give 2-row blocks; 30 columns, more than a block holds, give
        # column chunks of 12, 12 and 6 with 1, 1 and 2 rows
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 12)
        a = np.arange(20, dtype=np.uint64)
        for width, shapes in ((5, {(2, 5)}), (30, {(1, 12), (2, 6)})):
            b = np.arange(width, dtype=np.uint64)
            ip, seen = np.zeros((a.size, b.size), dtype=np.uint8), np.zeros((a.size, b.size), dtype=int)
            for rows, cols, blk in kernels.inner_product_blocks(a, b):
                assert blk.dtype == np.uint8 and blk.shape in shapes
                ip[rows, cols] = blk
                seen[rows, cols] += 1
            want = [[bin(int(x) & int(y)).count("1") for y in b] for x in a]
            assert (seen == 1).all() and ip.tolist() == want


class TestModelAlphas:
    SPEC = kernels.universal_kernel(4)
    SUPPORT = [HypercubePoint.from_string("1100"), HypercubePoint.from_string("0110")]

    @pytest.mark.parametrize(
        "alphas, match",
        [
            ([[1.0], [2.0]], "a 1-d vector, got shape \\(2, 1\\)"),
            (1.0, "a 1-d vector, got shape \\(\\)"),
            ([1.0, math.nan], "finite, got alphas\\[1\\] = nan"),
            ([math.inf, 1.0], "finite, got alphas\\[0\\] = inf"),
            ([1.0, -math.inf], "finite, got alphas\\[1\\] = -inf"),
        ],
        ids=["2-d", "0-d", "nan", "inf", "-inf"],
    )
    def test_refused_at_construction(self, alphas, match):
        with pytest.raises(ValueError, match="alphas must be " + match):
            TrainedModel(self.SPEC, self.SUPPORT, alphas)

    @pytest.mark.parametrize("alphas", [[1.0, math.nan], [[1.0, 2.0]]], ids=["nan", "2-d"])
    def test_refused_from_a_model_file(self, tmp_path, alphas):
        path = tmp_path / "model.json"
        harness.save_model(TrainedModel(self.SPEC, self.SUPPORT, [1.0, 2.0]), str(path))
        obj = json.loads(path.read_text())
        obj["alphas"] = alphas
        path.write_text(json.dumps(obj))  # json writes NaN, and json.load reads it back
        with pytest.raises(ValueError, match="alphas must be"):
            harness.load_model(str(path))

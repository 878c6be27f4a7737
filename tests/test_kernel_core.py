"""Properties of the bit-mask kernel core (packing, popcount inner products,
table lookup) and of the models that use it.

Core claims:
    - cross_gram equals KernelSpec.evaluate entry by entry for direct-sum
      and sparse-conjunction specs, on n from 1 to 64, on mixed weights
      above and below n/2, absent layers, and empty row or column lists
    - cross_gram and gram accept the packed masks of points_to_bits in place
      of point lists and give the same values
    - a batch prediction equals alphas @ cross_gram within
      1e-12 * (1 + sum |alpha|), for direct-sum, universal and
      sparse-conjunction specs, repeated support points and zero alphas,
      query weights no support point has, and empty query lists; norm_sq
      equals the dense alpha^T K alpha to the same relative tolerance
    - prediction builds no support x query matrix: scoring 4,000 queries
      against a 4,000-point support traces under 8 MiB of allocation
    - a single prediction equals the batch prediction of the same point
    - a model over a lifted kernel (embedded points of a real pair) still predicts
    - save_model -> load_model keeps every prediction
    - bad input is rejected by name: wrong dimensions, masks out of range,
      widths above 64 bits, an entry that is not a HypercubePoint (by index
      and type), and alphas that are not a finite 1-d vector, also when
      read from a model file
"""

import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekern import embedding, harness, kernels
from cubekern.kernels import HypercubePoint, KernelSpec, TrainedModel
from cubekern.scheme import LayerParams

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

    By default the value tables are arbitrary: packing, inner products,
    weight gating and the complement do not depend on table values.  With
    ``admissible`` the spec comes from the library's constructors (needed
    where a model file rebuilds its layers through the admissibility check).
    """
    n = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse_conjunction", "direct_sum", "universal"]))
    if kind == "universal":
        if admissible or n <= 16:
            spec = kernels.universal_kernel(n)
        else:
            tables = {p: rng.normal(size=p + 1) for p in range(n // 2 + 1)}
            per_layer = {
                w: kernels.LayerKernel(LayerParams(n, min(w, n - w)), np.zeros(1), tables[min(w, n - w)])
                for w in range(n + 1)
            }
            spec = KernelSpec(n, "universal", per_layer)
        weights = list(range(n + 1))
    elif kind == "sparse_conjunction":
        s, ell = draw(st.integers(0, n).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s))))
        if admissible:
            spec = kernels.sparse_conjunction_kernel(n, s, ell)
        else:
            lk = kernels.LayerKernel(LayerParams(n, s), np.zeros(s + 1), rng.normal(size=n + 1))
            spec = KernelSpec(n, "sparse_conjunction", {s: lk})
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
                per_layer[w] = kernels.LayerKernel(
                    layer, np.zeros(layer.p + 1), rng.normal(size=layer.p + 1)
                )
        spec = KernelSpec(n, "direct_sum", per_layer)
        # one weight no layer covers, so absent layers are exercised too
        weights = layer_weights + [draw(st.integers(0, n))]
    rows = draw(point_sets(n, weights))
    cols = draw(point_sets(n, weights))
    return spec, rows, cols


@st.composite
def model_cases(draw):
    """A spec, a support with repeated points and zero alphas, and queries."""
    spec, support, queries = draw(specs_and_points())
    if support:
        support = support + draw(st.lists(st.sampled_from(support), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas = rng.normal(size=len(support)) * (rng.random(len(support)) < 0.8)
    return spec, support, alphas, queries


def brute_force(spec, rows, cols):
    vals = [[spec.evaluate(x, y) for y in cols] for x in rows]
    return np.array(vals).reshape(len(rows), len(cols))


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


# Model files rebuild each layer through the admissibility check, which
# rejects some layers near n/2 by rounding once n is about 48 or more
# (universal_kernel(63) is one), so the round trip is drawn at n <= 16.
@PROPERTY
@given(specs_and_points(st.sampled_from([1, 2, 5, 16]), admissible=True), st.integers(0, 2**32 - 1))
def test_saved_model_predicts_the_same(case, seed):
    spec, support, queries = case
    alphas = np.random.default_rng(seed).normal(size=len(support))
    model = TrainedModel(spec, support, alphas, report={"algo": "test"})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        harness.save_model(model, path)
        loaded = harness.load_model(path)
    assert np.array_equal(loaded.predict_many(queries), model.predict_many(queries))


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.floats(0.2, 0.5), st.integers(0, 2**16), st.data())
def test_lifted_kernel_model_predicts(n, eps, seed, data):
    pair = embedding.build_pair(n, eps, seed=seed)
    kernel = embedding.lift_kernel(embedding.poly_g([1.0, 1.0], 1.0, float(n)), pair)
    vectors = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    support = [embedding.embed(pair, 1, x) for x in data.draw(st.lists(vectors, min_size=1, max_size=5))]
    queries = [embedding.embed(pair, 2, x) for x in data.draw(st.lists(vectors, max_size=5))]
    alphas = np.arange(1.0, len(support) + 1.0)
    model = TrainedModel(kernel, support, alphas)
    want = [sum(a * kernel.evaluate(s, q) for a, s in zip(alphas, support)) for q in queries]
    assert model.predict_many(queries) == pytest.approx(want, rel=1e-12)


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

    def test_packed_masks_validated(self):
        spec = kernels.universal_kernel(4)
        with pytest.raises(ValueError, match="n=4 bit masks"):
            kernels.cross_gram(spec, np.array([16], dtype=np.uint64), [])
        with pytest.raises(ValueError, match="n=4 bit masks"):
            kernels.gram(spec, np.zeros((2, 2), dtype=np.uint64))

    def test_row_blocks_cover_every_row(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 12)
        a = np.arange(20, dtype=np.uint64)
        b = np.arange(5, dtype=np.uint64)
        blocks = list(kernels.inner_product_blocks(a, b))
        assert [s for s, _ in blocks] == list(range(0, 20, 2))
        ip = np.vstack([blk for _, blk in blocks])
        want = [[bin(int(x) & int(y)).count("1") for y in b] for x in a]
        assert ip.dtype == np.uint8 and ip.tolist() == want


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

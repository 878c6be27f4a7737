"""The benchmark's checks pass on the program's outputs and fail on injected faults."""

import numpy as np
import pytest

import checks
from cubekern import embedding, harness, kernels, learners


def test_comb_table_and_masks():
    assert checks.comb_table([1.0, 2.0, 3.0], 3).tolist() == [1.0, 3.0, 8.0, 16.0]
    assert checks.masks(["1000", "0101"]).tolist() == [1, 10]


@pytest.fixture(scope="module")
def pegasos_model():
    data = harness.gen_conjunction_dataset(8, [1, 4], "sparse", 5, 60, 0.1, 3)
    hold = harness.gen_conjunction_dataset(8, [1, 4], "sparse", 5, 30, 0.1, 4)
    spec = kernels.universal_kernel(8)
    model = learners.pegasos_train(spec, list(data.points), 2 * data.labels - 1, 0.01, epochs=5)
    return model, list(hold.points)


def recompute(model, hold):
    betas = {w: lk.beta for w, lk in model.spec.per_layer.items()}
    sup = checks.masks(pt.to_string() for pt in model.support)
    qry = checks.masks(pt.to_string() for pt in hold)
    return checks.direct_sum_predictions(betas, 8, sup, model.alphas, qry)


def test_predictions_recomputed_on_the_complement_path(pegasos_model):
    model, hold = pegasos_model  # weight 5 > n/2: the complement path
    batch = model.predict_many(hold)
    assert np.abs(batch).max() > 0
    assert checks.close("batch", batch, recompute(model, hold)) == []


def test_perturbed_alpha_is_caught(pegasos_model):
    model, hold = pegasos_model
    alphas = np.array(model.alphas)
    alphas[np.argmax(np.abs(alphas))] *= 1.001
    bad = kernels.TrainedModel(model.spec, model.support, alphas)
    assert checks.close("batch", model.predict_many(hold), recompute(bad, hold))


def test_queries_must_match_batch():
    batch = np.array([0.5, -0.25, 1.0])
    assert checks.check_queries_match_batch({0: 0.5, 2: 1.0}, batch) == []
    assert checks.check_queries_match_batch({0: 0.5, 1: -0.2500001}, batch)


def test_accuracy_floor_and_majority():
    assert checks.check_accuracy(88, 100, 70, noise_rate=0.1) == []
    assert checks.check_accuracy(79, 100, 70, noise_rate=0.1)  # below 1 - eta - slack
    assert checks.check_accuracy(95, 100, 95, noise_rate=0.0)  # no better than a constant


@pytest.fixture(scope="module")
def mkl_layer():
    n, w = 8, 3
    data = harness.gen_conjunction_dataset(n, [0, 2], "uniform_layer", w, 40, 0.1, 7)
    y = 2 * data.labels - 1
    result = learners.mkl_train(list(data.points), y, B=4.0, epsilon=0.05, outer_iters=60)
    sol = result.per_layer[w]
    reported = {"objective": sol.objective, "gap": sol.gap}
    mix = result.model.spec.per_layer[w].beta
    pts = checks.masks(pt.to_string() for pt in data.points)
    return dict(
        weight=w, n=n, pts=pts, alpha=np.array(sol.alphas), y=y, lam=result.lam,
        mix_beta=np.array(mix), vertex_weights=np.array(sol.beta), reported=reported,
    )


def test_mkl_certificate_passes(mkl_layer):
    assert checks.check_mkl_layer(**mkl_layer) == []


def test_mkl_alpha_outside_box_is_caught(mkl_layer):
    case = dict(mkl_layer)
    alpha = case["alpha"].copy()
    alpha[0] = 2.0 * case["y"][0] / (case["lam"] * alpha.size)
    case["alpha"] = alpha
    assert any("conjugate box" in f for f in checks.check_mkl_layer(**case))


def test_mkl_perturbed_alpha_breaks_gap(mkl_layer):
    case = dict(mkl_layer)
    case["alpha"] = case["alpha"] * 0.7
    failures = checks.check_mkl_layer(**case)
    assert any("gap" in f for f in failures)


def test_mkl_wrong_vertex_weights_are_caught(mkl_layer):
    case = dict(mkl_layer)
    case["vertex_weights"] = case["vertex_weights"] + 0.01
    assert any("diagonal" in f or "simplex" in f for f in checks.check_mkl_layer(**case))


def test_hinge_gap_matches_library(mkl_layer):
    c = mkl_layer
    gram = checks.layer_gram(c["pts"], c["pts"], c["n"], c["weight"], c["mix_beta"])
    primal, gap = checks.hinge_gap(gram, c["alpha"], c["y"], c["lam"])
    assert primal == pytest.approx(c["reported"]["objective"], rel=1e-9)
    assert gap == pytest.approx(c["reported"]["gap"], abs=1e-9)


@pytest.fixture(scope="module")
def small_pair():
    return embedding.build_pair(2, 0.5, seed=5)


def test_pair_tables_recounted(small_pair):
    failures, tables = checks.check_pair_tables(small_pair.coords, small_pair.t, 0.25)
    assert failures == []
    assert np.array_equal(tables[1], small_pair.coords[1].pair_inner)


def test_wrong_pair_table_entry_is_caught(small_pair):
    coord = small_pair.coords[0]
    saved = coord.pair_inner.copy()
    try:
        coord.pair_inner[1, 2] += 1
        failures, _ = checks.check_pair_tables(small_pair.coords, small_pair.t, 0.25)
    finally:
        coord.pair_inner = saved
    assert failures == ["coord 0: certified pair table differs from the recount"]


def test_pair_table_counts_bits_beyond_a_chunk():
    rng = np.random.default_rng(0)
    t = 8 * 3 + 5
    a = np.packbits(rng.random((4, t)) < 0.5, axis=1, bitorder="little")
    b = np.packbits(rng.random((3, t)) < 0.5, axis=1, bitorder="little")
    bits_a = np.unpackbits(a, axis=1, count=t, bitorder="little").astype(int)
    bits_b = np.unpackbits(b, axis=1, count=t, bitorder="little").astype(int)
    assert np.array_equal(checks.pair_table(a, b, t, chunk_bytes=2), bits_a @ bits_b.T)


def test_lifted_values_checked(small_pair):
    g = embedding.poly_g([1.0, 1.0], lipschitz=1.0, domain_max=2.0)
    rng = np.random.default_rng(1)
    sup, qry = rng.random((6, 2)), rng.random((4, 2))
    kernel = embedding.lift_kernel(g, small_pair)
    lifted = kernel.cross_gram(
        [embedding.embed(small_pair, 1, x) for x in sup], [embedding.embed(small_pair, 2, x) for x in qry]
    )
    _, tables = checks.check_pair_tables(small_pair.coords, small_pair.t, 0.25)
    grid = np.asarray(small_pair.coords[0].grid)
    ip = checks.lifted_inner(tables, grid, sup, qry)
    args = (ip, small_pair.t, lambda a: 1.0 + np.clip(a, 0, 2), 1.0, 0.5, grid, sup, qry)
    assert checks.check_lifted(lifted, *args) == []
    off = lifted.copy()
    off[2, 1] += 2.0  # beyond L * (eps + rounding)
    assert len(checks.check_lifted(off, *args)) == 3

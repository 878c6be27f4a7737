"""Trainers, saddle solver, duality gaps, Rademacher estimates.

Core claims:
    - a loss is exactly its name, value and conjugate box, and both stock
      losses satisfy Fenchel-Young against the linear conjugate a y on it
    - duality_gap (a test helper) reproduces hand values at alpha = 0 and
      degenerate kernels
    - pegasos hits the 1-d closed-form optimum, collapses under huge
      regularization, decouples across layers, is bit-reproducible, and
      tracks an independent feature-space primal oracle within 2% with a
      nonnegative gap at least its distance from that oracle, replays the
      exact step-1/(lam t) recursion (in rationals, ties included, on the
      dyadic kernel <x, y>/2 of {0,1}^4), takes no step on an absolute-loss
      tie (margin == y, a zero label at step 1), and
      rejects label-length mismatches, non-finite labels and hinge labels
      other than -1/+1 by name
    - pegasos keeps z over distinct points and its alphas equal the dense
      loop over every point (tests/conftest.py) bit for bit, with objective
      and gap within 1e-12 (1 + |objective|), for universal, conjunction and
      sparse-conjunction specs, both losses, repeated points with differing
      labels and weights above n/2; 3,000 weight-4 points of n = 16 train
      under 25 MiB of traced allocation, and 25,000 (above the Gram cap)
      train at all; a spec that is not a KernelSpec is refused with a
      TypeError before a point is packed or a Gram is built
    - pegasos walks its pick stream in chunks, bit for bit like the dense
      loop across chunk boundaries: 100,000 steps trace under 24 bytes a
      step plus 1 MiB
    - a Pegasos hit with g = +-1 adds or subtracts its Gram row in place, and
      alphas and report equal a loop that multiplies (z -= g * k[u], a_bar[i]
      -= g * w_t) byte for byte: both losses, repeated points with conflicting
      labels, absolute-loss labels other than +-1, universal specs whose
      weight groups interleave, and a loss whose box ends are +-1/2
    - dual coordinate ascent (sdca_solve on the Gram of the distinct
      points, n <= 8, repeated points with conflicting labels, both losses)
      stops with a gap of at most _SDCA_TOL (1 + |objective|), its
      objective equals the per-point primal at its alphas and lies within
      that gap of an independent dense solve run to 1e-12; one step is the
      exact coordinate maximizer; it is deterministic per seed, sends the
      alphas of zero Gram rows to the box corner toward their label,
      reports converged=False at its epoch cap after running every epoch of
      it (it has no stall rule), and names an empty dataset,
      bad labels, a bad lam, bad epochs, a Gram that is not finite, not
      2-d (a 0-d scalar too) or that `where` does not fit, and a `where`
      that is not a 1-d integer array
    - layer_vertex_grams names an empty point list
    - the class form (where, ip, table) of the vertex Grams: ip is the
      popcount of the distinct mirrored masks, ip[where][:, where] that of
      every pair of points, table the exact vertex tables; its operator's
      K_beta and every alpha' K_t alpha equal their dense forms, and a
      non-square or non-symmetric ip, a class outside the table, a
      non-finite table entry, a vertex diagonal above 1, a where of the
      wrong length, type or range, and labels that are not a 1-d vector (a
      0-d scalar too), not finite or, under the hinge loss, not -1/+1 are
      rejected by name; the quads of 10,000 weight-4 points of n = 16 take
      at most 10 MiB of traced allocation and match the unblocked sum
    - the subset and class forms agree on every margin, K_beta c, K_ii and
      vertex quad, before and after a step at one point, within the
      term-magnitude bound 32 eps 3^p stated in TestOperatorForms
    - the layer solver on the distinct form matches the per-point class
      form (tests/conftest.py) on repeated points with conflicting labels,
      both losses, to 1e-7 (1 + |objective|) in objective and trace and 1e-6
      in beta; 10,000 weight-4 points of n = 16 train through mkl_train
      under 160 MiB of traced allocation, and 10,000 of n = 64 in 30 s and
      150 MiB of peak RSS
    - the layer MKL solver certifies saddles: its lower bound is D at the
      alphas it names, at most the least G(beta) over a grid of betas, which
      is at most its upper bound, the dense primal at the returned point; it
      keeps a monotone best-upper trace, reduces to a fixed-kernel SVM on one
      vertex, and its outer objective is convex along simplex segments; its
      inner convergence flag is the final polish's, not spoiled by a capped
      run of beta steps, and inner_iters counts every SDCA epoch
    - the inner ascent is SDCA on the layer's operator: a step on point i
      alone moves alpha_i by y_i / K_ii with K_ii at most the top eigenvalue
      of K_beta, no single epoch and no call of 2-50 epochs lowers the dual,
      its dual lies within its certified gap below the optimum plain
      projected gradient finds, to 1e-9 relative (a pinned ill-conditioned
      draw included); every draw whose least nonzero eigenvalue is at least
      1e-5 of the largest certifies within 20,000 epochs, and on every draw
      each side's dual is at most the other's primal; a kernel that is zero
      to working precision gives the box corner
    - the SDCA step's clip is two plain ifs, byte for byte min(max(x, lo),
      hi): on every quadruple (alpha, y, lo, hi) of signed zeros,
      subnormals, +-1, infinities and NaN, lo > hi included, and over epochs
      on PSD Grams with zero rows and on layer forms, boxes with lo == hi
      and zero diagonals among them
    - the polish stops when its best gap stalls: at a beta with one weight
      in [1e-6, 1e-3] its run under a 2,000-epoch budget stops at the first
      window of _STALL_EPOCHS epochs over which the best gap of the run
      without the rule did not fall, and converges exactly when that run
      does, with the same alphas; a layer whose gap cannot close
      (a stale step Gram, a halved conjugate box) stops after one window of
      _STALL_EPOCHS epochs and says so
    - the beta step keeps beta on the capped simplex: a layer certified at its
      first step returns the start untouched, no entry goes negative and no
      sum exceeds 1
    - mkl_train decomposes across layers and uses lambda = eps/(n B^2),
      and rejects label-length mismatches and hinge labels other than -1/+1;
      it and rademacher_estimate name a point of another dimension or one
      that is not a HypercubePoint by its index
    - regularization_weight is the one home of lambda = eps/(n B^2): it
      rejects a B that is not finite and positive and an eps outside (0, 1),
      with or without an explicit lam, which must itself be finite and
      positive, as must the lam of pegasos_train and MklLayerProblem;
      hinge_labels maps {0,1} to {-1,+1}, keeps {-1,+1} and names the rest
    - negative or non-integer Pegasos epochs and MKL outer steps (of
      mkl_layer_solve and mkl_train) are rejected by name; zero of either
      still runs
    - the Rademacher estimator matches closed forms and sits below the
      analytic bound, gives the same estimate on either form within the
      stated quad tolerance, runs 200 trials on 10,000 points of n = 64 in
      5 s, and rejects an empty sample, n = 1, a B that is
      not finite and positive and a trial count that is not an integer of
      at least 1
    - one input contract: pegasos_train, sdca_solve, MklLayerProblem,
      mkl_train and embedding.train_on_cube raise the same exception, with
      the same message, for a loss given by name, no points, a lam of nan
      or of "1", a bad epoch cap (where they take one), labels of the wrong
      shape, a NaN label and a label of 0.5 under the hinge loss, before any
      of them builds a Gram, vertex Grams or an embedder; mkl_train refuses
      a bad outer_iters before it builds any layer's vertex Grams
    - layer_vertex_grams names mixed weights, mkl_train an empty dataset and
      rademacher_estimate a B that is not a number
"""

import dataclasses
import itertools
import math
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import class_vertex_grams, dense_dual_solve, dense_gram, dense_subgradient, dual_value, duality_gap
from conftest import layer_dual_objective, layer_points, pegasos_oracle, per_point, primal_value, subset_vertex_grams

from cubekern import embedding, harness, kernels, learners, scheme
from cubekern.kernels import HypercubePoint
from cubekern.scheme import LayerParams
from cubekern.learners import ABSOLUTE, HINGE, MklLayerProblem


def pts_from_tuples(rows):
    return [HypercubePoint.from_array(np.array(r)) for r in rows]


def feature_space_primal(k_mat, y, lam, loss, iters=150_000):
    """Independent primal oracle: deterministic subgradient descent on w in an
    explicit feature space obtained from a square-root factor of the Gram."""
    w_eig, v_eig = np.linalg.eigh(np.asarray(k_mat, dtype=float))
    feats = v_eig * np.sqrt(np.clip(w_eig, 0.0, None))
    m = feats.shape[0]
    v = np.zeros(feats.shape[1])
    v_bar = np.zeros_like(v)
    for t in range(1, iters + 1):
        z = feats @ v
        grad = lam * v + feats.T @ dense_subgradient(loss, z, y) / m
        v -= grad / (lam * t)
        v_bar += (v - v_bar) / t
    z = feats @ v_bar
    return 0.5 * lam * float(v_bar @ v_bar) + float(np.mean(loss.value(z, y)))


def scalar_grid_optimum(k_xx, y, lam, loss):
    """1-d grid oracle for a single-point training set: minimize over a."""
    grid = np.linspace(-5.0, 5.0, 200001)
    obj = 0.5 * lam * grid**2 * k_xx + loss.value(grid * k_xx, np.full_like(grid, y))
    i = int(np.argmin(obj))
    return grid[i], obj[i]


class TestLosses:
    def test_hinge_values(self):
        assert HINGE.value(np.array(0.0), np.array(1.0)) == 1.0
        assert HINGE.value(np.array(2.0), np.array(1.0)) == 0.0

    def test_absolute_values(self):
        assert ABSOLUTE.value(np.array(0.5), np.array(-1.0)) == 1.5

    def test_bounded_at_zero(self):
        for loss in (HINGE, ABSOLUTE):
            for y in (-1.0, 1.0):
                assert loss.value(np.array(0.0), np.array(y)) <= 1.0

    @pytest.mark.parametrize("loss", [HINGE, ABSOLUTE], ids=lambda l: l.name)
    @pytest.mark.parametrize("y", [-1.0, 1.0])
    def test_fenchel_young(self, loss, y):
        lo, hi = loss.conjugate_domain(np.array([y]))
        grid = np.linspace(float(lo[0]), float(hi[0]), 4001)
        for z in np.linspace(-3.0, 3.0, 121):
            direct = float(loss.value(np.array(z), np.array(y)))
            via = float(np.max(grid * z - grid * y))  # the linear conjugate conj(a, y) = a y
            assert abs(direct - via) <= 1e-6

    def test_a_loss_is_its_value_and_conjugate_box(self):
        assert [f.name for f in dataclasses.fields(learners.LossSpec)] == ["name", "value", "conjugate_domain"]

    def test_get_loss(self):
        assert learners.get_loss("abs") is ABSOLUTE
        with pytest.raises(ValueError):
            learners.get_loss("squared")


def two_point_problem(lam=0.1, loss=HINGE):
    pts = [HypercubePoint.from_string("1100"), HypercubePoint.from_string("0011")]
    grams = learners.layer_vertex_grams(pts, 2)
    return MklLayerProblem(grams, np.array([1.0, -1.0]), lam=lam, loss=loss)


class TestDualityGap:
    def test_origin_hand_value(self):
        problem = two_point_problem()
        gap = duality_gap(problem, np.full(3, 1 / 3), np.zeros(2))
        assert gap == pytest.approx(1.0)  # F = 1 (hinge at 0), G = 0

    def test_zero_kernel_loss_only(self):
        pts = [HypercubePoint.from_string("1100"), HypercubePoint.from_string("0011")]
        where, ip, table = class_vertex_grams(pts, 2)
        y = np.array([1.0, -1.0])
        problem = MklLayerProblem(learners.ClassForm(where, ip, 0.0 * table), y, lam=0.1, loss=HINGE)
        alpha = np.array([2.0, -2.0])  # feasible: alpha_i y_i in [0, 1/(lam m)] = [0, 5]
        gap = duality_gap(problem, np.full(3, 1 / 3), alpha)
        assert gap == pytest.approx(abs(1.0 - 0.1 * float(y @ alpha)))

    def test_infeasible_alpha_flagged(self):
        problem = two_point_problem()
        assert duality_gap(problem, np.full(3, 1 / 3), np.array([100.0, 0.0])) == math.inf


class TestPegasos:
    def test_single_point_near_closed_form(self):
        spec = kernels.universal_kernel(4)
        x = HypercubePoint.from_string("1100")
        model = learners.pegasos_train(spec, [x], np.array([1.0]), lam=1.0, epochs=5000, seed=0)
        a_star, _ = scalar_grid_optimum(1.0, 1.0, 1.0, HINGE)
        assert a_star == pytest.approx(1.0, abs=1e-4)  # the grid oracle itself
        assert 0.9 <= model.predict(x) <= 1.1

    def test_huge_lambda_collapses(self):
        spec = kernels.universal_kernel(4)
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        model = learners.pegasos_train(spec, pts, y, lam=1e6, epochs=50, seed=1)
        assert np.abs(model.alphas).max() <= 1e-4
        assert np.abs(model.predict_many(pts)).max() <= 1e-3

    def test_antipodal_layers_decouple(self):
        spec = kernels.universal_kernel(6)
        pts = [HypercubePoint.from_string("110000"), HypercubePoint.from_string("001111")]
        y = np.array([1.0, -1.0])
        model = learners.pegasos_train(spec, pts, y, lam=0.01, epochs=3000, seed=0)
        preds = model.predict_many(pts)
        hinge = np.maximum(0.0, 1.0 - y * preds).mean()
        assert hinge < 0.05

    def test_seed_determinism_bitwise(self):
        spec = kernels.universal_kernel(5)
        pts = pts_from_tuples(layer_points(5, 2))[:8]
        y = np.array([1.0, -1.0] * 4)
        m1 = learners.pegasos_train(spec, pts, y, lam=0.1, epochs=40, seed=7)
        m2 = learners.pegasos_train(spec, pts, y, lam=0.1, epochs=40, seed=7)
        assert np.array_equal(m1.alphas, m2.alphas)
        m3 = learners.pegasos_train(spec, pts, y, lam=0.1, epochs=40, seed=8)
        assert not np.array_equal(m1.alphas, m3.alphas)

    @pytest.mark.parametrize("loss", [HINGE, ABSOLUTE], ids=lambda l: l.name)
    def test_matches_feature_space_oracle(self, rng, loss):
        spec = kernels.universal_kernel(6)
        rows = layer_points(6, 2)
        pts = pts_from_tuples([rows[i] for i in rng.integers(0, len(rows), size=8)])
        y = rng.integers(0, 2, size=8) * 2.0 - 1.0
        lam = 0.5
        model = learners.pegasos_train(spec, pts, y, lam=lam, epochs=4000, seed=3, loss=loss)
        oracle = feature_space_primal(kernels.gram(spec, pts), y, lam, loss)
        assert model.report["objective"] <= oracle * 1.02 + 1e-9
        assert model.report["objective"] >= oracle * 0.98 - 1e-9
        # the oracle is a primal value, so it is at least the optimum the dual bounds
        assert model.report["gap"] >= model.report["objective"] - oracle - 1e-9
        assert model.report["gap"] >= 0.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda m: st.tuples(
                st.lists(st.integers(0, 15), min_size=1, max_size=3),
                st.lists(st.integers(0, 2), min_size=m, max_size=m),
                st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m),
            )
        ),
        st.integers(-3, 2),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([HINGE, ABSOLUTE]),
    )
    def test_lazy_form_replays_the_exact_recursion(self, data, lam_exp, epochs, seed, loss):
        # k = <x, y>/2 on all of {0,1}^4, points drawn from a pool of at most
        # three, so duplicate points (and exact margin ties) are common; every
        # Gram entry is dyadic, as is lam = 2^lam_exp, so the float margins are exact
        pool, rows, labels = data
        spec = kernels.sparse_conjunction_kernel(4, 2, 1)
        points = [HypercubePoint(4, pool[r % len(pool)]) for r in rows]
        k = kernels.gram(spec, points)
        m, lam = len(rows), Fraction(2) ** lam_exp
        model = learners.pegasos_train(
            spec, points, np.array(labels, dtype=float), float(lam), epochs=epochs, seed=seed, loss=loss
        )
        # step 1/(lam t) on a_{t-1} with margin K[i] . a_{t-1}, and the running mean
        a, a_bar = [Fraction(0)] * m, [Fraction(0)] * m
        picks = np.random.default_rng(seed).integers(0, m, size=epochs * m).tolist()
        for t, i in enumerate(picks, start=1):
            z, y = sum(Fraction(k[i, j]) * a[j] for j in range(m)), labels[i]
            g = (-y if y * z < 1 else 0) if loss is HINGE else (z > y) - (z < y)
            a = [v * (1 - Fraction(1, t)) for v in a]
            a[i] -= g / (lam * t)
            a_bar = [u + (v - u) / t for u, v in zip(a_bar, a)]
        want = np.array([float(v) for v in a_bar])
        assert np.abs(model.alphas - want).max() <= 1e-12 * np.abs(want).max()

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            learners.pegasos_train(kernels.universal_kernel(4), [], np.array([]), lam=1.0)

    @pytest.mark.parametrize("spec", [object(), SimpleNamespace(n=4, gram=lambda pts: np.eye(len(pts)))])
    def test_only_a_kernel_spec_is_accepted(self, monkeypatch, spec):
        # refused before a point is packed or a Gram is built
        calls = []
        monkeypatch.setattr(learners, "points_to_bits", lambda *args: calls.append("pack"))
        monkeypatch.setattr(learners, "gram", lambda *args: calls.append("gram"))
        pts = pts_from_tuples(layer_points(4, 2))
        with pytest.raises(TypeError, match="pegasos_train needs a KernelSpec, got"):
            learners.pegasos_train(spec, pts, np.array([1.0, -1.0] * 3), lam=1.0)
        assert calls == []

    def test_label_length_mismatch(self):
        pts = pts_from_tuples(layer_points(4, 2))
        with pytest.raises(ValueError, match="labels have shape"):
            learners.pegasos_train(kernels.universal_kernel(4), pts, np.ones(5), lam=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_labels(self, bad):
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0, bad, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="finite"):
            learners.pegasos_train(kernels.universal_kernel(4), pts, y, lam=1.0)

    def test_hinge_labels_must_be_pm1(self):
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0, 0.5, -1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="hinge-loss labels"):
            learners.pegasos_train(kernels.universal_kernel(4), pts, y, lam=1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_lam_must_be_finite_and_positive(self, lam):
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0] * 3)
        with pytest.raises(ValueError, match=f"lam must be positive and finite, got {lam}"):
            learners.pegasos_train(kernels.universal_kernel(4), pts, y, lam=lam)
        with pytest.raises(ValueError, match=f"lam must be positive and finite, got {lam}"):
            MklLayerProblem(learners.layer_vertex_grams(pts, 2), y, lam=lam)

    @pytest.mark.parametrize("epochs", [2.5, np.float64(3.0), "3"])
    def test_non_integral_epochs_rejected(self, epochs):
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0] * 3)
        with pytest.raises(ValueError, match="epochs must be an integer, got"):
            learners.pegasos_train(kernels.universal_kernel(4), pts, y, lam=1.0, epochs=epochs)
        model = learners.pegasos_train(kernels.universal_kernel(4), pts, y, lam=1.0, epochs=np.int64(3))
        assert model.report["iters"] == 18

    def test_negative_epochs_rejected(self):
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0] * 3)
        with pytest.raises(ValueError, match="epochs must be non-negative, got -2"):
            learners.pegasos_train(kernels.universal_kernel(4), pts, y, lam=1.0, epochs=-2)
        model = learners.pegasos_train(kernels.universal_kernel(4), pts, y, lam=1.0, epochs=0)
        assert model.report["iters"] == 0 and not np.any(model.alphas)


@st.composite
def pegasos_problems(draw, max_n=11):
    """A universal, conjunction or sparse-conjunction spec on n <= max_n, points
    drawn with repeats from a pool of at most six (weights below, at and
    above n/2), independent labels, and the solver's other arguments."""
    n = draw(st.integers(2, max_n))
    p = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["universal", "conjunction", "sparse_conjunction"]))
    if kind == "universal":
        spec = kernels.universal_kernel(n)
    elif kind == "conjunction":
        spec = kernels.conjunction_kernel(n, p, 0.1)
    else:
        spec = kernels.sparse_conjunction_kernel(n, p, draw(st.integers(0, p)))
    weights = sorted({p, n - p, n // 2, (n + 1) // 2})
    pool = [
        HypercubePoint.from_indices(n, draw(st.permutations(range(n)))[: draw(st.sampled_from(weights))])
        for _ in range(draw(st.integers(1, 6)))
    ]
    m = draw(st.integers(1, 24))
    points = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(m)]
    loss = draw(st.sampled_from([HINGE, ABSOLUTE]))
    values = [-1.0, 1.0] if loss is HINGE else [-1.0, -0.5, 0.0, 1.0]
    labels = np.array(draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)))
    lam = 2.0 ** draw(st.integers(-6, 1))
    return spec, points, labels, lam, draw(st.integers(1, 6)), draw(st.integers(0, 2**32 - 1)), loss


def assert_matches_oracle(model, want):
    a_bar, objective, gap = want
    assert np.array_equal(model.alphas, a_bar)
    tol = 1e-12 * (1.0 + abs(objective))
    assert abs(model.report["objective"] - objective) <= tol
    assert abs(model.report["gap"] - gap) <= tol


class TestPegasosDistinctPoints:
    @settings(max_examples=150, deadline=None)
    @given(pegasos_problems())
    def test_alphas_are_the_dense_loop_bit_for_bit(self, problem):
        spec, points, labels, lam, epochs, seed, loss = problem
        model = learners.pegasos_train(spec, points, labels, lam, epochs=epochs, seed=seed, loss=loss)
        assert_matches_oracle(model, pegasos_oracle(*problem))

    @staticmethod
    def weight4_points(m, seed):
        rng = np.random.default_rng(seed)
        pts = [HypercubePoint.from_indices(16, rng.permutation(16)[:4].tolist()) for _ in range(m)]
        return pts, rng.integers(0, 2, size=m) * 2.0 - 1.0

    def test_peak_memory_is_a_gram_of_distinct_points(self):
        # a dense Gram of all 3,000 points would be 69 MiB; the 1,820 points of
        # the layer give at most 25 MiB, and 3,000 draws hit about 1,500 of them
        pts, y = self.weight4_points(3000, 0)
        spec = kernels.universal_kernel(16)
        tracemalloc.start()
        try:
            model = learners.pegasos_train(spec, pts, y, 1e-3, epochs=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * 2**20
        assert model.report["iters"] == 6000

    def test_pick_stream_is_walked_in_chunks(self):
        # 100,000 steps over 4 points: the picks and the weights hold 16 bytes
        # a step, so the traced peak stays under 24 bytes a step plus 1 MiB;
        # whole-length Python lists of both took about 50-75 bytes a step.  A
        # one-epoch run first pays the one-time imports and caches untraced.
        pts = pts_from_tuples(layer_points(4, 2))[:4]
        y = np.array([1.0, -1.0, 1.0, -1.0])
        spec = kernels.universal_kernel(4)
        learners.pegasos_train(spec, pts, y, 1e-2, epochs=1, seed=0)
        tracemalloc.start()
        try:
            model = learners.pegasos_train(spec, pts, y, 1e-2, epochs=25_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.report["iters"] == 100_000
        assert peak <= 24 * 100_000 + 2**20

    @pytest.mark.parametrize("chunk", [1, 7, 50])
    def test_chunks_replay_the_dense_loop_bit_for_bit(self, monkeypatch, chunk):
        # 50 steps walked in chunks of 1, of 7 (the last one partial) and of 50
        monkeypatch.setattr(learners, "_PICK_CHUNK", chunk)
        rows = layer_points(6, 2)
        pts = pts_from_tuples([rows[i] for i in (0, 3, 3, 7, 11, 0, 14, 2, 9, 3)])
        problem = (kernels.universal_kernel(6), pts, np.array([1.0, -1.0] * 5), 0.1, 5, 11, HINGE)
        spec, points, labels, lam, epochs, seed, loss = problem
        model = learners.pegasos_train(spec, points, labels, lam, epochs=epochs, seed=seed, loss=loss)
        assert_matches_oracle(model, pegasos_oracle(*problem))

    def test_absolute_loss_ties_take_no_step(self):
        # the first pick's label is 0 and its margin 0, so step 1 is a tie
        # (margin == y), whose subgradient is 0 and not an end of the box
        rows = layer_points(6, 2)
        pts = pts_from_tuples([rows[i] for i in (0, 3, 3, 7, 11, 0)])
        labels = np.array([1.0, -0.5, 0.5, 1.0, -1.0, 0.5])
        spec, lam, epochs, seed = kernels.universal_kernel(6), 0.1, 5, 4
        labels[np.random.default_rng(seed).integers(0, len(pts), size=epochs * len(pts))[0]] = 0.0
        problem = (spec, pts, labels, lam, epochs, seed, ABSOLUTE)
        model = learners.pegasos_train(spec, pts, labels, lam, epochs=epochs, seed=seed, loss=ABSOLUTE)
        assert_matches_oracle(model, pegasos_oracle(*problem))
        # with every label 0 every step is a tie, and no coefficient moves
        model = learners.pegasos_train(spec, pts, np.zeros(6), lam, epochs=epochs, seed=seed, loss=ABSOLUTE)
        assert not np.any(model.alphas)

    def test_point_count_above_the_gram_cap_trains(self):
        pts, y = self.weight4_points(25_000, 1)
        assert len(pts) > kernels._MAX_GRAM_POINTS
        model = learners.pegasos_train(kernels.universal_kernel(16), pts, y, 1e-3, epochs=1, seed=0)
        assert model.report["iters"] == 25_000
        assert np.isfinite(model.report["gap"]) and model.report["gap"] >= -1e-9


def multiply_step_pegasos(spec, points, labels, lam, epochs, seed, loss):
    """``learners.pegasos_train`` with every hit written ``z -= g * k[u]`` and ``a_bar[i] -=
    g * w_t`` on a numpy ``a_bar``: the reference that the in-place ``+-`` row of the
    library must reproduce bit for bit.  Returns ``(a_bar, report)``."""
    m = len(points)
    y, (lo, hi) = learners._dual_problem(labels, m, lam, loss, epochs)
    masks, where = np.unique(kernels.points_to_bits(points, spec.n), return_inverse=True)
    k = kernels.gram(spec, masks)
    steps = epochs * m
    picks = np.random.default_rng(seed).integers(0, m, size=steps)
    weight = np.cumsum(1.0 / np.arange(steps, 0, -1))[::-1] / (lam * steps)
    lo_of, hi_of = loss.conjugate_domain(y)
    z, a_bar = np.zeros(k.shape[0]), np.zeros(m)
    for t, i in enumerate(picks.tolist(), start=1):
        u = where[i]
        margin = z.item(u) / (lam * (t - 1)) if t > 1 else 0.0
        g = float(hi_of[i] if margin > y[i] else lo_of[i] if margin < y[i] else 0.0)
        if g:
            z -= g * k[u]
            a_bar[i] -= g * weight[t - 1]
    problem = MklLayerProblem(learners._Gram(where, k), y, lam, loss)
    objective = learners._bounds(problem, a_bar, learners._ONE)[0]
    dual = learners._bounds(problem, np.clip(a_bar, lo, hi), learners._ONE)[1]
    report = {"algo": "pegasos", "loss": loss.name, "lambda": lam, "objective": objective}
    return a_bar, {**report, "iters": steps, "seed": seed, "gap": objective - dual}


# a loss whose box ends are +-1/2: its hits take the multiply, not the in-place row
HALF_ABSOLUTE = learners.LossSpec(
    name="half-absolute",
    value=lambda z, y: 0.5 * np.abs(z - y),
    conjugate_domain=lambda y: (np.full_like(y, -0.5), np.full_like(y, 0.5)),
)


class TestPegasosStepBits:
    """A hit with ``g = +-1`` subtracts or adds its Gram row in place, bit for bit ``z -= g * k[u]``."""

    @staticmethod
    def assert_bitwise(problem):
        spec, points, labels, lam, epochs, seed, loss = problem
        model = learners.pegasos_train(spec, points, labels, lam, epochs=epochs, seed=seed, loss=loss)
        a_bar, report = multiply_step_pegasos(*problem)
        assert model.alphas.tobytes() == a_bar.tobytes()
        assert dict(model.report) == report
        return model

    @pytest.mark.parametrize("loss", [HINGE, ABSOLUTE, HALF_ABSOLUTE], ids=lambda loss: loss.name)
    def test_repeated_points_with_conflicting_labels(self, loss):
        # points 0 and 3 come twice, with both labels; under the absolute losses the
        # labels include 0 and +-1/2, so the margin meets both sides of them
        rows = layer_points(6, 2)
        pts = pts_from_tuples([rows[i] for i in (0, 3, 3, 7, 11, 0, 14, 2)])
        labels = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0]
        if loss is not HINGE:
            labels = [1.0, -0.5, 0.5, 0.0, -1.0, 0.25, -1.0, 1.0]
        model = self.assert_bitwise((kernels.universal_kernel(6), pts, np.array(labels), 0.05, 8, 3, loss))
        assert np.any(model.alphas)

    @pytest.mark.parametrize("loss", [HINGE, ABSOLUTE], ids=lambda loss: loss.name)
    def test_a_universal_spec_over_interleaved_weights(self, loss):
        # weights 1 to 6 of n = 7, shuffled, so the Gram's groups interleave and
        # weights above n/2 take their mirror's table
        rng = np.random.default_rng(7)
        pts = [HypercubePoint.from_indices(7, rng.permutation(7)[: 1 + j % 6].tolist()) for j in range(40)]
        pts = [pts[j] for j in rng.permutation(40)] + pts[:5]
        labels = rng.choice([-1.0, 1.0], size=45) if loss is HINGE else rng.normal(size=45)
        self.assert_bitwise((kernels.universal_kernel(7), pts, labels, 1e-2, 6, 11, loss))

    @settings(max_examples=60, deadline=None)
    @given(pegasos_problems(), st.booleans())
    def test_any_problem_matches_the_multiply_step(self, problem, half):
        if half and problem[-1] is ABSOLUTE:
            problem = problem[:-1] + (HALF_ABSOLUTE,)
        self.assert_bitwise(problem)


def capped_simplex_point(raw) -> np.ndarray:
    """Non-negative ``raw`` scaled onto the capped simplex {beta >= 0, sum beta <= 1} when it sums above 1."""
    raw = np.asarray(raw, dtype=float)
    return raw / max(1.0, float(raw.sum()))


def distinct_sdca(spec, points, labels, lam, epochs, seed, loss=HINGE):
    """``sdca_solve`` on the Gram of the distinct points under ``spec``."""
    masks, where = np.unique(kernels.points_to_bits(points, spec.n), return_inverse=True)
    return learners.sdca_solve(kernels.gram(spec, masks), where, labels, lam, loss, epochs, seed)


class TestSdca:
    @settings(max_examples=150, deadline=None)
    @given(pegasos_problems(max_n=8))
    def test_stops_within_its_gap_of_a_dense_solve(self, problem):
        spec, points, labels, lam, _, seed, loss = problem
        alphas, report = distinct_sdca(spec, points, labels, lam, 10_000, seed, loss)
        objective, gap = report["objective"], report["gap"]
        assert report["converged"] and report["algo"] == "sdca"
        assert -1e-12 * (1.0 + abs(objective)) <= gap <= learners._SDCA_TOL * (1.0 + abs(objective))
        # every point has its own row here: the merged Gram gave the same objective
        k = kernels.gram(spec, points)
        per_point = primal_value(loss, labels, lam, k, alphas)
        assert per_point == pytest.approx(objective, rel=1e-12, abs=1e-12)
        dense, dense_gap = dense_dual_solve(k, labels, lam, loss)
        assert abs(objective - dense) <= gap + dense_gap + 1e-12 * (1.0 + abs(objective))

    def test_deterministic_per_seed(self):
        spec = kernels.universal_kernel(6)
        pts = pts_from_tuples(layer_points(6, 2))[:12]
        y = np.array([1.0, -1.0, -1.0] * 4)
        (a1, r1), (a2, r2), (a3, _) = (distinct_sdca(spec, pts, y, 0.05, 100, s) for s in (7, 7, 8))
        assert a1.tobytes() == a2.tobytes() and r1 == r2
        assert r1["converged"] and r1["epochs"] > 1
        assert not np.array_equal(a1, a3)

    def test_one_step_is_exact(self):
        # one point, k = 2, lam = 1/4: the dual (alpha - alpha^2) / 4 peaks at
        # alpha = 1/2 inside the box [0, 4], and one step lands on it
        alphas, report = learners.sdca_solve(np.array([[2.0]]), [0], [1.0], 0.25, HINGE, max_epochs=10)
        assert alphas.tolist() == [0.5]
        assert (report["epochs"], report["gap"], report["converged"]) == (1, 0.0, True)

    def test_zero_rows_take_the_box_corner(self):
        # row 0 of the Gram is zero: the dual is linear in the alphas of the
        # points on it, which go to the corner of their box toward their label
        k = np.array([[0.0, 0.0], [0.0, 1.0]])
        where = np.array([0, 1, 0, 1, 0])
        y = np.array([1.0, 1.0, -1.0, -1.0, 0.0])
        alphas, report = learners.sdca_solve(k, where, y, 0.5, ABSOLUTE, max_epochs=100, seed=0)
        assert alphas[[0, 2, 4]].tolist() == [0.4, -0.4, 0.0]  # the box is |alpha| <= 1/(lam m)
        assert report["converged"]
        # a zero Gram: one epoch reaches the corner, where primal and dual meet exactly
        alphas, report = learners.sdca_solve(np.zeros((2, 2)), where[:4], y[:4], 0.5, HINGE, max_epochs=100)
        assert alphas.tolist() == [0.5, 0.5, -0.5, -0.5]
        assert (report["epochs"], report["gap"], report["converged"]) == (1, 0.0, True)

    def test_an_unconverged_run_spends_its_whole_epoch_budget(self):
        # a near rank-one Gram whose gap closes slowly: sdca_solve has no stall rule, so it
        # runs all 200 epochs it is given and returns the alphas of the last
        rng = np.random.default_rng(9)
        f = rng.normal(size=(6, 2)) * np.array([1.0, 1e-3])
        k, y = f @ f.T + 1.0, rng.choice([-1.0, 1.0], size=6)
        alphas, report = learners.sdca_solve(k, np.arange(6), y, 1e-3, HINGE, max_epochs=200)
        assert (report["epochs"], report["converged"]) == (200, False)
        problem = MklLayerProblem(learners._Gram(np.arange(6), k), y, 1e-3, HINGE)
        assert alphas.tobytes() == sdca_epochs(problem, learners._ONE, np.zeros(6), 200).tobytes()

    def test_epoch_cap_reports_unconverged(self):
        spec = kernels.universal_kernel(6)
        pts = pts_from_tuples(layer_points(6, 2))[:12]
        y = np.array([1.0, -1.0, -1.0] * 4)
        _, capped = distinct_sdca(spec, pts, y, 0.05, 1, 7)
        assert (capped["epochs"], capped["converged"]) == (1, False)
        assert capped["gap"] > learners._SDCA_TOL * (1.0 + abs(capped["objective"]))
        alphas, none = distinct_sdca(spec, pts, y, 0.05, 0, 7)
        assert (none["epochs"], none["converged"]) == (0, False)
        assert not np.any(alphas)

    @pytest.mark.parametrize(
        "change, match",
        [
            ({"where": [], "labels": []}, "empty dataset"),
            ({"labels": np.ones(5)}, "labels have shape"),
            ({"labels": np.array([1.0, -1.0, 0.5, -1.0, 1.0, -1.0])}, "hinge-loss labels"),
            ({"lam": math.nan}, "lam must be positive and finite, got nan"),
            ({"max_epochs": -2}, "epochs must be non-negative, got -2"),
            ({"max_epochs": 2.5}, "epochs must be an integer, got 2.5"),
            ({"k": np.eye(3)[:2]}, "the Gram must be square"),
            ({"where": [0, 1, 2, 3, 4, 0]}, "`where` must index its 3 rows"),
            ({"where": [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]}, "`where` must index its 3 rows as 1-d integers"),
            ({"where": [[0, 1, 2], [0, 1, 2]]}, "`where` must index its 3 rows as 1-d integers"),
            ({"k": np.diag([1.0, math.nan, 1.0])}, "the Gram must be finite"),
        ],
    )
    def test_bad_arguments_named(self, change, match):
        args = {"k": np.eye(3), "where": [0, 1, 2, 0, 1, 2], "labels": np.array([1.0, -1.0] * 3), "lam": 1.0}
        args.update(change)
        with pytest.raises(ValueError, match=match):
            learners.sdca_solve(**args)

    def test_zero_d_gram_named(self):
        with pytest.raises(ValueError, match=r"the Gram must be a square 2-d array, got shape \(\)"):
            learners.sdca_solve(np.float64(1.0), [0], [1.0], 1.0)


@st.composite
def layer_samples(draw, max_n=16):
    """Points of one weight on n <= max_n: below, at and above n/2, or a single-point layer."""
    n = draw(st.integers(1, max_n))
    w = draw(st.sampled_from(sorted({0, n, n // 2, (n + 1) // 2, draw(st.integers(0, n))})))
    m = draw(st.integers(1, 12))
    pts = [HypercubePoint.from_indices(n, draw(st.permutations(range(n)))[:w]) for _ in range(m)]
    return n, w, pts


class TestClassForm:
    @settings(max_examples=100, deadline=None)
    @given(layer_samples())
    def test_ip_is_popcount_of_mirrored_masks(self, case):
        n, w, pts = case
        where, ip, table = class_vertex_grams(pts, w)
        mirror = [x.complement() if 2 * w > n else x for x in pts]
        assert ip.dtype == np.uint8
        assert ip.shape == (len(set(mirror)),) * 2 and where.shape == (len(pts),)
        assert np.array_equal(ip[np.ix_(where, where)], [[x.inner(y) for y in mirror] for x in mirror])
        assert table.shape == (min(w, n - w) + 1,) * 2
        assert np.array_equal(table, scheme.vertex_tables(LayerParams(n, min(w, n - w))))

    @settings(max_examples=100, deadline=None)
    @given(layer_samples(), st.integers(0, 2**32 - 1))
    def test_combine_and_quads_match_dense(self, case, seed):
        n, w, pts = case
        rng = np.random.default_rng(seed)
        op = class_vertex_grams(pts, w)
        where, ip, table = op
        beta = capped_simplex_point(rng.random(table.shape[0]))
        alpha = rng.normal(size=len(pts))
        dense = [t[ip][np.ix_(where, where)] for t in table]
        want = sum(b * g for b, g in zip(beta, dense))
        op.at(beta)
        got = op.k[np.ix_(where, where)]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        op.load(alpha)
        quads = op.quads()
        want = np.array([alpha @ g @ alpha for g in dense])
        assert np.allclose(quads, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_quads_of_ten_thousand_points_stay_in_row_blocks(self):
        # u x u temporaries (np.outer(c, c), bincount's intp copy of ip) would be
        # 25 MiB each at u ~ 1,800; the quads agree with that unblocked form
        # within 1e-12 max_k |table[t, k]| (sum |c|)^2, a bound fixed beforehand
        rng = np.random.default_rng(0)
        pts = [HypercubePoint.from_indices(16, rng.choice(16, 4, replace=False)) for _ in range(10_000)]
        op = class_vertex_grams(pts, 4)
        where, ip, table = op
        alpha = rng.normal(size=len(pts))
        tracemalloc.start()
        try:
            op.load(alpha)
            quads = op.quads()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ip) > 1_700 and peak <= 10 * 2**20
        c = np.bincount(where, alpha, len(ip))
        want = table @ np.bincount(ip.ravel(), weights=np.outer(c, c).ravel(), minlength=table.shape[1])
        assert (np.abs(quads - want) <= 1e-12 * np.abs(table).max(axis=1) * np.abs(c).sum() ** 2).all()

    def test_bad_class_form_rejected(self):
        where, ip, table = class_vertex_grams(pts_from_tuples(layer_points(5, 2))[:4], 2)
        y = np.array([1.0, -1.0, 1.0, -1.0])
        skew = ip.copy()
        skew[0, 1] += 1
        high = ip.copy()
        high[0, 0] = table.shape[1]
        big = table.copy()
        big[1, 2] = 1.5
        cases = [
            ((where, ip[:, :3], table), "symmetric of shape"),
            ((where, skew, table), "symmetric of shape"),
            ((where, high, table), "classes"),
            ((where, ip.astype(float), table), "classes"),
            ((where, ip, table[:, :2]), "classes"),
            ((where, ip, big), "vertex Gram 1 has diagonal above 1"),
            ((where[:3], ip, table), "point rows `where` must be 4 integers"),
            ((where + 1, ip, table), "point rows `where` must be 4 integers"),
            ((where - 1, ip, table), "point rows `where` must be 4 integers"),
            ((where.astype(float), ip, table), "point rows `where` must be 4 integers"),
        ]
        for grams, match in cases:
            with pytest.raises(ValueError, match=match):
                MklLayerProblem(learners.ClassForm(*grams), y, lam=0.1)

    def test_empty_point_list_named(self):
        with pytest.raises(ValueError, match="at least one point required"):
            learners.layer_vertex_grams([], 2)

    @pytest.mark.parametrize(
        "labels, loss, match",
        [
            ([1.0, 0.0, 1.0, 0.0], HINGE, "hinge-loss labels must be -1 or \\+1"),
            ([1.0, -1.0, math.nan, -1.0], HINGE, "labels must be finite"),
            ([0.5, 0.0, math.nan, -1.0], ABSOLUTE, "labels must be finite"),
        ],
    )
    def test_bad_labels_rejected(self, labels, loss, match):
        grams = learners.layer_vertex_grams(pts_from_tuples(layer_points(5, 2))[:4], 2)
        with pytest.raises(ValueError, match=match):
            MklLayerProblem(grams, np.array(labels), lam=0.1, loss=loss)

    def test_zero_d_labels_named(self):
        grams = learners.layer_vertex_grams(pts_from_tuples(layer_points(5, 2))[:4], 2)
        with pytest.raises(ValueError, match=r"labels must be a 1-d vector, got shape \(\)"):
            MklLayerProblem(grams, 1.0, 0.1)


class TestMklLayerSolve:
    def test_two_point_example_gap(self):
        sol = learners.mkl_layer_solve(two_point_problem(lam=0.1), outer_iters=300)
        assert sol.gap <= 1e-4 * (1.0 + abs(sol.objective))
        assert sol.inner_converged

    def test_all_positive_labels_bounded_by_zero_classifier(self):
        pts = pts_from_tuples(layer_points(4, 2))
        problem = MklLayerProblem(
            learners.layer_vertex_grams(pts, 2), np.ones(len(pts)), lam=0.2, loss=HINGE
        )
        sol = learners.mkl_layer_solve(problem, outer_iters=150)
        assert sol.objective <= 1.0 + 1e-9

    def test_monotone_best_so_far(self, rng):
        pts = pts_from_tuples(layer_points(6, 3))[:14]
        y = rng.integers(0, 2, size=14) * 2.0 - 1.0
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, 3), y, lam=0.05)
        sol = learners.mkl_layer_solve(problem, outer_iters=200)
        assert np.all(np.diff(sol.trace) <= 1e-12)
        # the form carries the solver's state: a second solve must start afresh
        again = learners.mkl_layer_solve(problem, outer_iters=200)
        assert np.array_equal(again.alphas, sol.alphas) and np.array_equal(again.trace, sol.trace)

    def test_single_vertex_reduces_to_fixed_kernel_svm(self):
        # weight-n points live on the single-point layer: one vertex, beta in [0,1]
        n = 6
        pts = [HypercubePoint.from_string("1" * n)] * 8
        y = np.array([1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
        lam = 0.5
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, n), y, lam=lam)
        sol = learners.mkl_layer_solve(problem, outer_iters=100)
        spec = kernels.universal_kernel(n)
        model = learners.pegasos_train(spec, pts, y, lam=lam, epochs=5000, seed=0)
        assert sol.objective == pytest.approx(model.report["objective"], rel=0.02)

    @pytest.mark.parametrize("loss", [HINGE, ABSOLUTE], ids=lambda l: l.name)
    def test_outer_objective_convex_on_segments(self, rng, loss):
        pts = pts_from_tuples(layer_points(6, 2))[:10]
        y = rng.integers(0, 2, size=10) * 2.0 - 1.0
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, 2), y, lam=0.1, loss=loss)
        for _ in range(5):
            b1 = capped_simplex_point(rng.random(3))
            b2 = capped_simplex_point(rng.random(3))
            g1 = layer_dual_objective(problem, b1)
            g2 = layer_dual_objective(problem, b2)
            for theta in (0.25, 0.5, 0.75):
                mid = layer_dual_objective(problem, theta * b1 + (1 - theta) * b2)
                assert mid <= theta * g1 + (1 - theta) * g2 + 1e-6

    def test_gap_level_matches_duality_gap_fn(self):
        problem = two_point_problem(lam=0.3, loss=ABSOLUTE)
        sol = learners.mkl_layer_solve(problem, outer_iters=200)
        assert duality_gap(problem, sol.beta, sol.alphas) == pytest.approx(sol.gap, abs=1e-12)

    def test_objective_matches_feature_space_oracle(self, rng):
        # at the returned beta, the saddle objective must equal the primal
        # optimum of the fixed-kernel problem, recomputed independently
        pts = pts_from_tuples(layer_points(6, 2))[:10]
        y = rng.integers(0, 2, size=10) * 2.0 - 1.0
        lam = 0.2
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, 2), y, lam=lam)
        sol = learners.mkl_layer_solve(problem, outer_iters=150)
        oracle = feature_space_primal(dense_gram(problem, sol.beta), y, lam, HINGE)
        assert sol.objective == pytest.approx(oracle, rel=0.01)

    def test_inner_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(learners, "_POLISH_TOL", 0.0)
        monkeypatch.setattr(learners, "_POLISH_STEPS", 40)  # 5 epochs of 8 points
        pts = pts_from_tuples(layer_points(6, 2)[:8])
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, 2), np.array([1.0, -1.0] * 4), lam=0.01)
        sol = learners.mkl_layer_solve(problem, outer_iters=3)
        assert sol.inner_converged is False and sol.inner_iters == sol.outer_iters + 5

    def test_a_repeated_point_with_nearly_equal_labels_polishes_to_tolerance(self):
        # two copies of one point whose absolute-loss labels differ by 0.009: the
        # dual rises along their difference so slowly that single-point SDCA
        # steps need about 16,000 epochs (1,000 left a relative gap of 2.1e-3);
        # the polish's step budget covers them
        pts = [HypercubePoint.from_indices(7, [i]) for i in (0, 2, 0, 1)]
        labels = np.array([-0.412, 0.556, -0.421, 0.79])
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, 1), labels, lam=0.00227, loss=ABSOLUTE)
        sol = learners.mkl_layer_solve(problem, outer_iters=300)
        assert sol.inner_converged and sol.gap <= learners._POLISH_TOL * (1.0 + abs(sol.objective))
        assert sol.gap == pytest.approx(duality_gap(problem, sol.beta, sol.alphas), abs=1e-12)

    def test_negative_outer_iters_rejected(self):
        problem = two_point_problem()
        with pytest.raises(ValueError, match="outer_iters must be non-negative, got -1"):
            learners.mkl_layer_solve(problem, outer_iters=-1)
        pts = pts_from_tuples(layer_points(4, 2))
        with pytest.raises(ValueError, match="outer_iters must be non-negative"):
            learners.mkl_train(pts, np.array([1.0, -1.0] * 3), B=1.0, epsilon=0.1, outer_iters=-3)
        sol = learners.mkl_layer_solve(problem, outer_iters=0)
        assert sol.trace.size == 0 and sol.inner_converged

    def test_non_integral_outer_iters_rejected(self):
        pts = pts_from_tuples(layer_points(4, 2))
        with pytest.raises(ValueError, match="outer_iters must be an integer, got 2.5"):
            learners.mkl_layer_solve(two_point_problem(), outer_iters=2.5)
        with pytest.raises(ValueError, match="outer_iters must be an integer, got 2.5"):
            learners.mkl_train(pts, np.array([1.0, -1.0] * 3), B=1.0, epsilon=0.1, outer_iters=2.5)

    def test_capped_outer_step_does_not_mark_polished_solution(self, monkeypatch):
        epochs = []
        sdca_epoch = learners._sdca_epoch
        monkeypatch.setattr(learners, "_sdca_epoch", lambda *a: epochs.append(a[2]) or sdca_epoch(*a))
        pts = pts_from_tuples(layer_points(6, 2)[:8])
        problem = MklLayerProblem(
            learners.layer_vertex_grams(pts, 2), np.array([1.0, -1.0] * 4), lam=0.05
        )
        sol = learners.mkl_layer_solve(problem, outer_iters=2)
        assert sol.outer_iters == sol.trace.size == 2  # the cap stops the beta steps short of their tolerance
        assert sol.converged is False and sol.saddle_gap > learners._SADDLE_TOL * (1.0 + abs(sol.objective))
        assert sol.inner_converged is True  # the polish of the returned point converges
        assert sol.gap == pytest.approx(duality_gap(problem, sol.beta, sol.alphas))
        assert sol.gap <= learners._POLISH_TOL * (1.0 + abs(sol.objective))
        assert sol.inner_iters == len(epochs) > 2  # two steps' epochs and the polish's
        assert all(sorted(order) == list(range(8)) for order in epochs)


@st.composite
def repeated_point_problems(draw):
    """A layer problem on n <= 8 under either loss whose points repeat, some
    copies with the opposite label."""
    _, w, pts = draw(layer_samples(max_n=8))
    y = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(pts), max_size=len(pts)))
    for i, flip in draw(st.lists(st.tuples(st.integers(0, len(pts) - 1), st.booleans()), min_size=1, max_size=8)):
        pts.append(pts[i])
        y.append(-y[i] if flip else y[i])
    loss = draw(st.sampled_from([HINGE, ABSOLUTE]))
    lam = draw(st.floats(1e-2, 1.0))
    return MklLayerProblem(learners.layer_vertex_grams(pts, w), np.array(y), lam=lam, loss=loss)


class TestDistinctForm:
    # Stated before running: both forms take the same steps up to rounding
    # order, so the objective and every trace entry agree to 1e-7 (1 + |value|)
    # and beta to 1e-6 in every coordinate.
    @settings(max_examples=40, deadline=None)
    @given(repeated_point_problems())
    def test_layer_solve_matches_the_per_point_form(self, problem):
        dense = per_point(problem)
        assert dense.vertex_grams.ip.shape == (problem.m, problem.m)
        assert problem.vertex_grams.rows < problem.m
        got = learners.mkl_layer_solve(problem, outer_iters=20)
        want = learners.mkl_layer_solve(dense, outer_iters=20)
        assert abs(got.objective - want.objective) <= 1e-7 * (1.0 + abs(want.objective))
        assert np.all(np.abs(got.trace - want.trace) <= 1e-7 * (1.0 + np.abs(want.trace)))
        assert np.abs(got.beta - want.beta).max() <= 1e-6


class TestSaddleCertificate:
    # Stated before running: G(beta) = sup_alpha G(alpha, beta) is taken from
    # dense_dual_solve at a gap of 1e-12 (1 + |G|), and the checks allow 1e-9
    # (1 + |value|): the reported lower bound is at most the least G over a
    # grid of betas (0, the uniform point, the vertices, their midpoints and
    # the returned beta), and that least G is at most the reported upper bound,
    # which is the dense primal at the returned point.
    @settings(max_examples=30, deadline=None)
    @given(repeated_point_problems(), st.integers(1, 60))
    def test_lower_bound_below_the_grid_minimum_below_the_upper_bound(self, problem, steps):
        sol = learners.mkl_layer_solve(problem, outer_iters=steps)
        q = len(sol.beta)
        eye = np.eye(q)
        midpoints = [(eye[s] + eye[t]) / 2 for s in range(q) for t in range(s)]
        grid = [np.zeros(q), np.full(q, 1.0 / q), *eye, *midpoints, sol.beta]
        least = min(layer_dual_objective(problem, beta) for beta in grid)
        upper = primal_value(*problem.terms, dense_gram(problem, sol.beta), sol.alphas)
        assert sol.objective == pytest.approx(upper, rel=1e-9, abs=1e-9)
        assert sol.lower <= least + 1e-9 * (1.0 + abs(least))
        assert least <= sol.objective + 1e-9 * (1.0 + abs(sol.objective))
        assert sol.saddle_gap == sol.objective - sol.lower >= -1e-9 * (1.0 + abs(sol.objective))
        # the lower bound is D at the alphas it names, which lie in the box
        a, (lo, hi) = sol.lower_alphas, problem.box
        assert np.all((a >= lo) & (a <= hi))
        _, ip, table = per_point(problem).vertex_grams
        quads = [a @ t[ip] @ a for t in table]
        lower = problem.lam * float(a @ problem.labels) - 0.5 * problem.lam * max(0.0, *quads)
        assert sol.lower == pytest.approx(lower, rel=1e-9, abs=1e-12)
        assert sol.converged == (sol.saddle_gap <= learners._SADDLE_TOL * (1.0 + abs(sol.objective)))
        assert sol.outer_iters == sol.trace.size <= steps and np.all(np.diff(sol.trace) <= 0.0)


class TestOperatorForms:
    # Stated before running: with c the row sums of alpha, s = sum |c| and
    # e = 32 eps 3^p (the term-magnitude bound with every |g| <= 1), the subset
    # and class forms agree on every margin z_r and every entry of K_beta c
    # within e s, on every K_ii within e and on every vertex quad within e s^2,
    # before and after a step at one point.  A step adds delta to state built
    # from the old c, so until the next load its margins carry the rounding of
    # those terms: there s is sum |c| before the step plus |delta|.
    @settings(max_examples=100, deadline=None)
    @given(layer_samples(max_n=10), st.integers(0, 2**32 - 1))
    def test_forms_agree_within_the_term_magnitude_bound(self, case, seed):
        _, w, pts = case
        rng = np.random.default_rng(seed)
        sub, cls = subset_vertex_grams(pts, w), class_vertex_grams(pts, w)
        where = sub.where
        assert np.array_equal(where, cls.where) and sub.rows == cls.rows
        p = len(sub.betas) - 1
        e = 32 * np.finfo(float).eps * 3.0**p
        beta = capped_simplex_point(rng.random(p + 1))
        alpha = rng.normal(size=len(pts))
        forms = [sub, cls]
        for form in forms:
            form.load(alpha)
        ops = [form.at(beta) for form in forms]  # the operators an SDCA epoch steps on
        s = float(np.abs(np.bincount(where, alpha)).sum())
        assert np.all(np.abs(np.subtract(*(op.diag for op in ops))) <= e)
        assert np.all(np.abs(sub.kc() - cls.kc()) <= e * s)
        assert np.all(np.abs(sub.quads() - cls.quads()) <= e * s * s)
        i, delta = int(rng.integers(len(pts))), float(rng.normal())
        for op in ops:
            op.step(int(where[i]), delta)
        alpha[i] += delta
        for r in range(sub.rows):
            assert abs(ops[0].margin(r) - ops[1].margin(r)) <= e * (s + abs(delta))
        s = float(np.abs(np.bincount(where, alpha)).sum())
        for form in forms:
            form.load(alpha)
        ops = [form.at(beta) for form in forms]
        for r in range(sub.rows):
            assert abs(ops[0].margin(r) - ops[1].margin(r)) <= e * s
        assert np.all(np.abs(sub.kc() - cls.kc()) <= e * s)
        assert np.all(np.abs(sub.quads() - cls.quads()) <= e * s * s)

    # Stated before running: from the same alphas the two operators' margins differ
    # by at most e S and their diagonals by at most e (the bounds above), with S =
    # sum_i max(|lo_i|, |hi_i|) >= sum |c| while every alpha stays in its box.  Every
    # vertex Gram has a unit diagonal, so d = sum beta >= 1/2 and |K_rs| <= d.  A step
    # adds at most e (1 + 2 d S) / d^2 to its alpha's difference, and the differences
    # made so far move a margin by at most d times their sum, so after one epoch of m
    # steps the alphas agree within 2^m e (1 + 2 d S) / d^2.
    @settings(max_examples=100, deadline=None)
    @given(
        layer_samples(max_n=10), st.integers(0, 4), st.sampled_from([HINGE, ABSOLUTE]), st.integers(0, 2**32 - 1)
    )
    def test_an_epoch_on_the_dense_gram_matches_the_subset_sums(self, case, repeats, loss, seed):
        _, w, sample = case
        rng = np.random.default_rng(seed)
        pts = sample + [sample[i] for i in rng.integers(len(sample), size=repeats)]
        forms = [learners.layer_vertex_grams(pts, w), subset_vertex_grams(pts, w)]
        assert forms[0].gram is not None and forms[1].gram is None
        m, p = len(pts), len(forms[0].betas) - 1
        y = rng.choice([-1.0, 1.0], size=m) if loss is HINGE else rng.uniform(-1.0, 1.0, size=m)
        lam = float(rng.uniform(0.05, 1.0))
        problems = [MklLayerProblem(form, y, lam=lam, loss=loss) for form in forms]
        beta = rng.random(p + 1) + 1e-3
        beta *= rng.uniform(0.5, 1.0) / beta.sum()
        lo, hi = problems[0].box
        start, order = rng.uniform(lo, hi), rng.permutation(m).tolist()
        dense, subset = (sdca_epochs(problem, beta, start, 1, order=order) for problem in problems)
        d, big_s, e = float(beta.sum()), float(np.maximum(np.abs(lo), np.abs(hi)).sum()), 32 * np.finfo(float).eps * 3.0**p
        assert np.abs(dense - subset).max() <= 2.0**m * e * (1.0 + 2.0 * d * big_s) / d**2

    def test_only_a_layer_within_the_block_bound_builds_a_dense_gram(self, monkeypatch):
        # u * u <= _BLOCK_ELEMS: a class form over the same rows to step on, built by the
        # first `at`, its only reader, at the subset form's c; above the bound no u x u
        # inner-product matrix is built at all
        rng = np.random.default_rng(0)
        pts = [HypercubePoint.from_indices(16, rng.choice(16, 4, replace=False)) for _ in range(2_000)]
        calls, blocks = [], learners.inner_product_blocks
        monkeypatch.setattr(learners, "inner_product_blocks", lambda *a: calls.append(a) or blocks(*a))
        beta = np.full(5, 0.2)
        big = learners.layer_vertex_grams(pts, 4)
        big.load(rng.normal(size=len(pts)))
        assert big.rows**2 > learners._BLOCK_ELEMS and big.at(beta) is big and big.gram is None and calls == []
        small, alpha = learners.layer_vertex_grams(pts[:300], 4), rng.normal(size=300)
        small.load(alpha)
        assert small.rows**2 <= learners._BLOCK_ELEMS and calls == []
        op = small.at(beta)
        assert op is small.gram and len(calls) == 1
        assert np.array_equal(op.c, np.bincount(small.where, alpha, small.rows))
        assert small.at(beta) is op and len(calls) == 1
        assert np.array_equal(small.gram.where, small.where)
        assert np.array_equal(small.gram.ip, class_vertex_grams(pts[:300], 4).ip)

    def test_forms_that_never_step_build_no_dense_gram(self, monkeypatch):
        # Rademacher and the containment check read only the quads: no layer of either
        # builds its class form, though every layer here is within the block bound
        calls, blocks = [], learners.inner_product_blocks
        monkeypatch.setattr(learners, "inner_product_blocks", lambda *a: calls.append(a) or blocks(*a))
        rng = np.random.default_rng(1)
        pts = [HypercubePoint.from_indices(16, rng.choice(16, w, replace=False)) for w in (3, 6, 12) for _ in range(50)]
        learners.rademacher_estimate(pts, B=1.0, trials=5)
        assert harness._check_containment(rng, triples=3)["passed"] and calls == []


@st.composite
def layer_problems(draw):
    """A layer problem on n <= 8 under either loss, and a beta on the capped simplex."""
    _, w, pts = draw(layer_samples(max_n=8))
    grams = learners.layer_vertex_grams(pts, w)
    if draw(st.booleans()):  # step on the subset sums, as a layer above the dense gate does
        grams.gram = None
    y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(pts), max_size=len(pts))))
    loss = draw(st.sampled_from([HINGE, ABSOLUTE]))
    problem = MklLayerProblem(grams, y, lam=draw(st.floats(1e-3, 1.0)), loss=loss)
    q = grams.vertices
    return problem, capped_simplex_point(draw(st.lists(st.floats(0.0, 1.0), min_size=q, max_size=q)))


# Shrunk from a draw that failed at a 10,000-epoch cap: beta = (0.75, 0.001, 0) leaves
# K_beta close to 0.75 J, with eigenvalues 8.3e-4, 1.9e-3 and 2.25, and coordinate ascent
# needs 10,900 epochs to certify its gap of 1e-13 (1 + |dual|).
ILL_CONDITIONED_DRAW = (
    MklLayerProblem(learners.layer_vertex_grams([HypercubePoint(5, b) for b in (3, 12, 20)], 2), -np.ones(3), lam=1e-3),
    np.array([0.75, 0.001, 0.0]),
)


def projected_gradient_oracle(problem, kb, tol, max_iter):
    """Plain projected gradient ascent from zero with step 1/(lam max_i sum_j |K_ij|),
    to projected-gradient norm ``tol``: a dual optimum found without coordinate steps.
    Returns the last iterate and whether it reached ``tol``."""
    lo, hi = learners._alpha_box(*problem.terms)
    step = 1.0 / (problem.lam * np.abs(kb).sum(axis=1).max())
    alpha = np.zeros(problem.m)
    for _ in range(max_iter):
        nxt = np.clip(alpha + step * problem.lam * (problem.labels - kb @ alpha), lo, hi)
        if np.linalg.norm(alpha - nxt) / step <= tol:
            return nxt, True
        alpha = nxt
    return alpha, False


def sdca_epochs(problem, beta, alpha, epochs, seed=0, order=None):
    """``epochs`` passes of ``learners._sdca_epoch`` on the problem's own form at
    beta, from ``alpha`` (each in ``order``, or a permutation drawn from
    ``default_rng(seed)``); returns the alphas."""
    form = problem.vertex_grams
    form.load(alpha)
    op = form.at(np.asarray(beta, dtype=float))
    points = learners._point_lists(problem.where, problem.labels, *problem.box)
    alpha, rng = list(alpha), np.random.default_rng(seed)
    for _ in range(epochs):
        learners._sdca_epoch(op, alpha, rng.permutation(problem.m).tolist() if order is None else order, points)
    return np.array(alpha)


def dense_dual(problem, beta, alpha) -> float:
    return dual_value(*problem.terms, dense_gram(problem, beta), alpha)


class TestInnerAscent:
    """The inner ascent is SDCA on the layer's operator (subset or class form)."""

    @settings(max_examples=100, deadline=None)
    @given(layer_problems())
    def test_step_bound_covers_top_eigenvalue(self, case):
        problem, beta = case
        dense = dense_gram(problem, beta)
        top = float(np.linalg.eigvalsh(dense).max())
        assume(top > 1e-6)
        # from alpha = 0 under the absolute loss, with a box too wide to clip,
        # one step on point i alone moves alpha_i by y_i / K_ii; K_ii <= top,
        # so a coordinate step is never shorter than a full-gradient step 1/top
        wide = MklLayerProblem(problem.vertex_grams, problem.labels, lam=1e-12, loss=ABSOLUTE)
        for i in range(problem.m):
            alpha = sdca_epochs(wide, beta, np.zeros(problem.m), 1, order=[i])
            assert np.count_nonzero(alpha) <= 1
            if dense[i, i] > 0.0:
                assert problem.labels[i] / alpha[i] == pytest.approx(dense[i, i], rel=1e-12)
            assert dense[i, i] <= top * (1.0 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(layer_problems(), st.integers(0, 2**32 - 1))
    def test_single_steps_never_lower_the_dual(self, case, seed):
        problem, beta = case
        lo, hi = learners._alpha_box(*problem.terms)
        alpha = np.random.default_rng(seed).uniform(lo, hi)
        val = dense_dual(problem, beta, alpha)
        for epoch in range(20):
            alpha = sdca_epochs(problem, beta, alpha, 1, seed=epoch)
            nxt = dense_dual(problem, beta, alpha)
            assert nxt >= val - 1e-12 * (1.0 + abs(val))
            val = nxt

    @settings(max_examples=150, deadline=None)
    @given(layer_problems(), st.integers(2, 50), st.integers(0, 2**32 - 1))
    def test_multi_step_calls_never_lower_the_dual(self, case, steps, seed):
        # a call of several epochs must not end below where it started (the
        # start drawn wide of the box, then clipped into it)
        problem, beta = case
        lo, hi = learners._alpha_box(*problem.terms)
        start = np.clip(np.random.default_rng(seed).uniform(lo - (hi - lo), hi + (hi - lo)), lo, hi)
        alpha = sdca_epochs(problem, beta, start, steps, seed=seed)
        assert np.all((alpha >= lo) & (alpha <= hi))
        before = dense_dual(problem, beta, start)
        after = dense_dual(problem, beta, alpha)
        assert after >= before - 1e-12 * (1.0 + abs(before))

    @example(ILL_CONDITIONED_DRAW)
    @settings(max_examples=40, deadline=None)
    @given(layer_problems())
    def test_reaches_the_dual_of_plain_projected_gradient(self, case):
        problem, beta = case
        kb = dense_gram(problem, beta)
        assume(np.abs(kb).max() > 1e-6)
        # plain projected gradient needs O(cond(K_beta)) steps: a draw like beta = (0.9, 1e-9)
        # leaves it far from 1e-10 after millions, so such draws have no oracle here
        oracle, reached = projected_gradient_oracle(problem, kb, 1e-10, 20_000)
        assume(reached)
        # coordinate ascent from zero runs until it certifies a dense gap of 1e-13 (1 + |dual|) or
        # for 20,000 epochs (the example needs 10,900), far inside the polish's _POLISH_STEPS // m
        alpha = np.zeros(problem.m)
        for chunk in range(400):
            alpha = sdca_epochs(problem, beta, alpha, 50, seed=chunk)
            gap, dual = duality_gap(problem, beta, alpha), dense_dual(problem, beta, alpha)
            if gap <= 1e-13 * (1.0 + abs(dual)):
                break
        certified = gap <= 1e-13 * (1.0 + abs(dual))
        # its linear rate falls with the least nonzero eigenvalue of K_beta over the largest: a
        # draw whose ratio is at least 1e-5 must certify (on 4,000 draws those needed at most
        # 5,950 epochs); one below it may not (8 of 59 did not; --hypothesis-seed 39 shrinks to one
        # with beta = (1, 1e-10, 0)).  K_beta's rank is that of the PSD vertex Grams with
        # beta_l > 0, read off their unit-scale entries: a cutoff on K_beta's own eigenvalues
        # takes beta = (0.5, 1e-12, 0, 0)'s eigenvalue 1.1e-12, 80 times eigvalsh's noise, for 0
        units = np.eye(len(beta))[np.flatnonzero(beta)]
        rank = np.linalg.matrix_rank(np.hstack([dense_gram(problem, unit) for unit in units]))
        eig = np.linalg.eigvalsh(kb)
        assert certified or eig[-rank] < 1e-5 * eig[-1]
        assert 20_000 <= learners._POLISH_STEPS // problem.m
        # on every draw, certified or not, each side's dual is at most the other's primal
        oracle_dual, slack = dense_dual(problem, beta, oracle), 1e-12 * (1.0 + abs(dual))
        assert oracle_dual <= dual + gap + slack and dual <= oracle_dual + duality_gap(problem, beta, oracle) + slack
        if certified:
            assert dual == pytest.approx(oracle_dual, rel=1e-9)

    def test_kernel_zero_to_working_precision_takes_the_box_corner(self):
        # a subnormal K_beta sends the step (y - z) / K_ii past the box; its dual is linear
        problem = two_point_problem(lam=0.5)
        alpha = [0.0, 0.0]
        op = learners._Gram(np.arange(2), np.full((2, 2), 5e-324)).at(np.ones(1))
        learners._sdca_epoch(op, alpha, [0, 1], learners._point_lists(np.arange(2), problem.labels, *problem.box))
        lo, hi = learners._alpha_box(*problem.terms)
        assert np.array_equal(alpha, np.where(problem.labels > 0, hi, lo))


def min_max_sdca_epoch(op, alpha, order, points):
    """``learners._sdca_epoch`` with its clip written ``min(max(x, lo), hi)``: the reference
    that the two plain ``if``s of the library must reproduce bit for bit."""
    row_of, y_of, lo_of, hi_of, corner_of = points
    for i in order:
        r = row_of[i]
        if op.diag[r] > 0.0:
            new = min(max(alpha[i] + (y_of[i] - op.margin(r)) / op.diag[r], lo_of[i]), hi_of[i])
        else:
            new = corner_of[i]
        delta = new - alpha[i]
        if delta:
            alpha[i] = new
            op.step(r, delta)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0]
SPECIAL_FLOATS += [math.inf, -math.inf, math.nan]


class _OneRow:
    """An SDCA operator of one row with a unit diagonal and a zero margin, recording its steps."""

    def __init__(self):
        self.diag, self.steps = [1.0], []

    def margin(self, r):
        return 0.0

    def step(self, r, delta):
        self.steps.append(delta)


@st.composite
def epoch_cases(draw):
    """``(make, beta, alpha, order, points)`` for an SDCA epoch: ``make()`` builds a fresh
    operator each call, a PSD ``_Gram`` with zero rows or a layer's form stepping on its
    subset sums or its class form; about a third of the boxes have ``lo == hi``, a zero
    beta gives a zero diagonal, and the order visits points more than once."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        u = draw(st.integers(1, 6))
        f = rng.normal(size=(u, 3)) * (rng.random((u, 1)) < 0.7)
        k, where = f @ f.T, rng.integers(0, u, size=draw(st.integers(1, 10)))
        make, beta = (lambda: learners._Gram(where, k)), learners._ONE
    else:
        _, w, pts = draw(layer_samples(max_n=8))
        on_subsets = draw(st.booleans())

        def make():
            form = learners.layer_vertex_grams(pts, w)
            if on_subsets:
                form.gram = None
            return form

        where, q = make().where, make().vertices
        beta = np.zeros(q) if draw(st.booleans()) else capped_simplex_point(rng.random(q))
    m = where.size
    y = rng.choice([-1.0, 1.0], size=m) if draw(st.booleans()) else rng.normal(size=m)
    lo = rng.normal(size=m)
    hi = lo + np.abs(rng.normal(size=m)) * (rng.random(m) < 0.7)
    points = tuple(v.tolist() for v in (where, y, lo, hi, learners._corner(y, lo, hi)))
    return make, beta, rng.uniform(lo, hi), rng.integers(0, m, size=3 * m).tolist(), points


class TestSdcaStepBits:
    """The SDCA step's clip is two plain ifs, bit for bit ``min(max(x, lo), hi)``."""

    def test_the_clip_matches_min_max_on_every_quadruple_of_special_floats(self):
        # alpha_0 + (y - 0) / 1 is y itself at alpha_0 = -0.0, so every special x meets
        # every special box, lo > hi included; the alpha written and the delta stepped
        # are compared as bytes
        runs = []
        for epoch in (learners._sdca_epoch, min_max_sdca_epoch):
            out = []
            for a0, y, lo, hi in itertools.product(SPECIAL_FLOATS, repeat=4):
                op, alpha = _OneRow(), [a0]
                epoch(op, alpha, [0], ([0], [y], [lo], [hi], [0.0]))
                out.append(np.array(alpha + op.steps).tobytes())
            runs.append(out)
        assert runs[0] == runs[1]

    @settings(max_examples=150, deadline=None)
    @given(epoch_cases())
    def test_an_epoch_matches_the_min_max_reference_byte_for_byte(self, case):
        make, beta, alpha, order, points = case
        runs = []
        for epoch in (learners._sdca_epoch, min_max_sdca_epoch):
            form = make()
            form.load(alpha)
            op, a = form.at(beta), alpha.tolist()
            epoch(op, a, order, points)
            runs.append((np.array(a).tobytes(), (op.w if isinstance(op, learners.SubsetForm) else op.z).tobytes()))
        assert runs[0] == runs[1]


class TestPolishStall:
    # Stated before running: at a beta with one weight in [1e-6, 1e-3], the polish's run from
    # zero alphas under an epoch budget of 2,000 stops at the first epoch e >= _STALL_EPOCHS
    # at which the best gap of the same run without the rule (its least primal so far minus
    # its dual) is no lower than at e - _STALL_EPOCHS, or where that run stops; and no such
    # epoch comes before that run converges, so both converge alike, with the same alphas.
    # On 14,400 draws of other seeds no converging run had one: the least fall of a window's
    # best gap was 2.2e-6 of the gap.
    @settings(max_examples=60, deadline=None)
    @given(layer_problems(), st.integers(0, 8), st.floats(1e-6, 1e-3))
    def test_an_ill_conditioned_polish_stops_only_on_a_flat_best_gap(self, case, vertex, weight):
        problem, beta = case
        beta = beta.copy()
        beta[vertex % beta.size] = weight
        tol, a0, run, bounds, seen = learners._POLISH_TOL, np.zeros(problem.m), learners._sdca_run, learners._bounds, []
        a, _, _, _, epochs, converged = run(problem, a0, beta, np.random.default_rng(0), tol, 2_000, stall=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(learners, "_bounds", lambda *args: seen.append(bounds(*args)) or seen[-1])
            capped = run(problem, a0, beta, np.random.default_rng(0), tol, 2_000)
        best = np.minimum.accumulate([b[0] for b in seen]) - np.array([b[1] for b in seen])
        k = learners._STALL_EPOCHS
        assert epochs == min([e for e in range(k, best.size) if best[e - k] <= best[e]] + [capped[4]])
        assert converged == capped[5]
        if converged:
            assert a.tobytes() == capped[0].tobytes()

    @pytest.mark.parametrize("fault", ["stale_step_gram", "half_box"])
    def test_a_polish_whose_gap_cannot_close_stops_after_one_window(self, monkeypatch, fault):
        # verify's 10-point layer may take 200,000 epochs; it stops once one window of
        # _STALL_EPOCHS epochs shows that its best gap cannot close, and says so
        rng = np.random.default_rng(0)
        pts = [HypercubePoint.from_indices(6, rng.choice(6, 2, replace=False)) for _ in range(10)]
        grams = learners.layer_vertex_grams(pts, 2)
        if fault == "stale_step_gram":
            grams.gram.at = lambda beta, mix=grams.gram.at: mix(beta / 2)
        else:
            box = HINGE.conjugate_domain
            half = dataclasses.replace(HINGE, conjugate_domain=lambda y: tuple(0.5 * v for v in box(y)))
            monkeypatch.setattr(learners, "HINGE", half)
        problem = MklLayerProblem(grams, rng.choice([-1.0, 1.0], size=10), lam=0.1, loss=learners.HINGE)
        sol = learners.mkl_layer_solve(problem, outer_iters=150)
        polish = sol.inner_iters - sol.outer_iters
        assert not sol.inner_converged and learners._STALL_EPOCHS <= polish <= 2 * learners._STALL_EPOCHS


class TestBetaStep:
    """The group-lasso beta step: beta_t proportional to beta_t sqrt(a' K_t a), summing to 1."""

    def test_step_is_proportional_to_the_group_norms(self):
        beta, quads = np.array([0.5, 0.3, 0.2]), np.array([4.0, 1.0, 9.0])
        got = learners._beta_step(beta, quads)
        assert np.allclose(got, np.array([1.0, 0.3, 0.6]) / 1.9, rtol=1e-15, atol=0.0)
        assert abs(got.sum() - 1.0) <= 1e-15

    def test_negative_rounding_quads_count_as_zero(self):
        assert np.array_equal(learners._beta_step(np.array([0.5, 0.5]), np.array([4.0, -1e-17])), [1.0, 0.0])

    @pytest.mark.parametrize("quads", [[0.0, 0.0], [-1e-18, 0.0]])
    def test_all_zero_quads_leave_beta_unchanged(self, quads):
        beta = np.array([0.25, 0.75])
        assert learners._beta_step(beta, np.array(quads)) is beta

    def test_a_dropped_vertex_returns_once_its_quad_grows(self):
        # a zero weight steps as _BETA_FLOOR, so a vertex that one step's zero quad
        # dropped is not lost for good
        beta = learners._beta_step(np.array([0.5, 0.5]), np.array([4.0, 0.0]))
        assert np.array_equal(beta, [1.0, 0.0])
        for _ in range(30):
            beta = learners._beta_step(beta, np.array([1.0, 16.0]))
        assert beta[1] > 0.99

    def test_mkl_cube_layers_converge_within_thirty_steps(self):
        # the benchmark's shape: layers 3, 6 and 12 of n = 16, 300 noisy conjunction
        # points each, B = 4, eps = 0.05; Frank-Wolfe on beta needed up to 88 steps here
        pts, labels = [], []
        for j, w in enumerate((3, 6, 12)):
            data = harness.gen_conjunction_dataset(16, [2, 9], "uniform_layer", w, 300, 0.1, seed=40 + j)
            pts += data.points
            labels += list(2.0 * data.labels - 1.0)
        model = learners.mkl_train(pts, np.array(labels), B=4.0, epsilon=0.05, outer_iters=30)
        for layer in model.report["per_layer"].values():
            assert layer["converged"] and layer["outer_steps"] <= 30
            assert layer["saddle_gap"] <= 1e-3 * (1.0 + abs(layer["objective"]))


class TestProjection:
    """The capped simplex {beta >= 0, sum beta <= 1}: the beta step keeps beta on it
    without a projection, and a hand-built class form must be finite to enter it."""

    @staticmethod
    def visited(monkeypatch, problem, outer_iters):
        # the layer's own form records each beta it is set to, once per beta
        # step and once for the polish (a subset form's dense Gram is not asked)
        betas, form = [], problem.vertex_grams
        at = form.at
        monkeypatch.setattr(form, "at", lambda beta: betas.append(beta.copy()) or at(beta))
        return learners.mkl_layer_solve(problem, outer_iters), betas

    def test_inside_untouched(self, monkeypatch):
        # one point on the single-point layer: the first epoch is exact, both
        # bounds meet, and the start beta = 1 is returned untouched
        pts = [HypercubePoint.from_string("111")]
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, 3), np.array([1.0]), lam=0.5)
        sol, betas = self.visited(monkeypatch, problem, 50)
        assert sol.outer_iters == 1 and sol.converged and sol.saddle_gap <= 1e-15
        assert np.array_equal(sol.beta, [1.0]) and all(np.array_equal(b, [1.0]) for b in betas)

    def test_negative_clipped(self, monkeypatch, rng):
        # a beta step scales each weight by a norm that is at least 0: none goes negative
        pts = pts_from_tuples(layer_points(6, 3))[:14]
        problem = MklLayerProblem(learners.layer_vertex_grams(pts, 3), rng.choice([-1.0, 1.0], size=14), lam=0.05)
        sol, betas = self.visited(monkeypatch, problem, 60)
        assert len(betas) == sol.outer_iters + 1 and min(b.min() for b in betas) >= 0.0
        assert np.array_equal(betas[0], np.full(4, 0.25))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_named(self, bad):
        where, ip, table = class_vertex_grams(pts_from_tuples(layer_points(5, 2))[:4], 2)
        table = table.copy()
        table[1, 0] = bad
        with pytest.raises(ValueError, match=rf"vertex tables must be finite, got table\[1, 0\] = {bad}"):
            MklLayerProblem(learners.ClassForm(where, ip, table), np.array([1.0, -1.0, 1.0, -1.0]), lam=0.1)

    def test_oversum_projects_to_simplex(self, monkeypatch, rng):
        for trial in range(10):
            n, p = 6, int(rng.integers(1, 4))
            rows = layer_points(n, p)
            pts = pts_from_tuples([rows[i] for i in rng.integers(0, len(rows), size=12)])
            problem = MklLayerProblem(
                learners.layer_vertex_grams(pts, p), rng.choice([-1.0, 1.0], size=12), lam=0.05,
                loss=HINGE if trial % 2 else ABSOLUTE,
            )
            sol, betas = self.visited(monkeypatch, problem, 40)
            for beta in [*betas, sol.beta]:
                assert beta.min() >= 0.0 and beta.sum() <= 1.0 + 1e-12


class TestMklTrain:
    def test_lambda_formula(self):
        pts = pts_from_tuples(layer_points(4, 2))[:4]
        y = np.array([1.0, -1.0, 1.0, -1.0])
        lam1 = learners.mkl_train(pts, y, B=1.0, epsilon=0.1, outer_iters=30).report["lambda"]
        lam2 = learners.mkl_train(pts, y, B=2.0, epsilon=0.1, outer_iters=30).report["lambda"]
        assert lam1 == pytest.approx(0.1 / 4)
        assert lam2 == pytest.approx(lam1 / 4)  # B doubled -> lambda quartered

    def test_regularization_weight(self):
        assert learners.regularization_weight(16, 2.0, 0.1) == 0.1 / (16 * 2.0 * 2.0)
        assert learners.regularization_weight(16, 2.0, 0.1, lam=0.03) == 0.03
        with pytest.raises(ValueError, match="n must be at least 1, got 0"):
            learners.regularization_weight(0, 2.0, 0.1)

    @pytest.mark.parametrize(
        "B, eps, lam, match",
        [
            (0.0, 0.1, None, "B must be positive and finite, got 0.0"),
            (-1.0, 0.1, None, "B must be positive and finite, got -1.0"),
            (math.nan, 0.1, None, "B must be positive and finite, got nan"),
            (math.inf, 0.1, None, "B must be positive and finite, got inf"),
            (0.0, 0.1, 0.5, "B must be positive and finite, got 0.0"),
            (1.0, 0.0, None, "epsilon must be in \\(0, 1\\), got 0.0"),
            (1.0, 1.0, 0.5, "epsilon must be in \\(0, 1\\), got 1.0"),
            (1.0, math.nan, None, "epsilon must be in \\(0, 1\\), got nan"),
            (1.0, 0.1, 0.0, "lam must be positive and finite, got 0.0"),
            (1.0, 0.1, math.nan, "lam must be positive and finite, got nan"),
            (1.0, 0.1, math.inf, "lam must be positive and finite, got inf"),
        ],
    )
    def test_regularization_weight_rejects_by_name(self, B, eps, lam, match):
        with pytest.raises(ValueError, match=match):
            learners.regularization_weight(16, B, eps, lam)
        pts = pts_from_tuples(layer_points(4, 2))
        with pytest.raises(ValueError, match=match):
            learners.mkl_train(pts, np.array([1.0, -1.0] * 3), B, eps, lam_override=lam)

    def test_hinge_labels(self):
        y, note = learners.hinge_labels([0.0, 1.0, 1.0])
        assert y.tolist() == [-1.0, 1.0, 1.0] and note == "mapped {0,1} -> {-1,+1}"
        y, note = learners.hinge_labels(np.array([-1.0, 1.0]))
        assert y.tolist() == [-1.0, 1.0] and note == "labels already in {-1,+1}"
        with pytest.raises(ValueError, match="hinge training expects labels in"):
            learners.hinge_labels([0.0, 2.0])

    def test_single_layer_matches_layer_solve(self):
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        report = learners.mkl_train(pts, y, B=1.0, epsilon=0.4, outer_iters=200).report
        problem = MklLayerProblem(
            learners.layer_vertex_grams(pts, 2), y, lam=report["lambda"], loss=HINGE
        )
        direct = learners.mkl_layer_solve(problem, outer_iters=200)
        assert report["objective"] == pytest.approx(direct.objective, rel=1e-6)
        assert list(report["per_layer"]) == ["2"]

    def test_two_separable_layers(self, rng):
        # each layer separable by its top vertex kernel (distinct intersections)
        n = 8
        rows2 = layer_points(n, 2)
        rows6 = layer_points(n, 6)
        pts = pts_from_tuples([rows2[i] for i in rng.integers(0, len(rows2), size=10)])
        pts += pts_from_tuples([rows6[i] for i in rng.integers(0, len(rows6), size=10)])
        c = HypercubePoint.from_string("11000000")
        y = np.array([1.0 if p.inner(c) == min(2, p.weight) else -1.0 for p in pts])
        model = learners.mkl_train(pts, y, B=4.0, epsilon=0.05, outer_iters=300)
        preds = model.predict_many(pts)
        hinge = np.maximum(0.0, 1.0 - y * preds).mean()
        assert hinge <= 0.1
        assert model.report["objective"] == pytest.approx(
            sum(s["objective"] for s in model.report["per_layer"].values())
        )

    def test_deterministic(self):
        pts = pts_from_tuples(layer_points(5, 2))[:6]
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        r1 = learners.mkl_train(pts, y, B=1.0, epsilon=0.2, outer_iters=60)
        r2 = learners.mkl_train(pts, y, B=1.0, epsilon=0.2, outer_iters=60)
        assert np.array_equal(r1.alphas, r2.alphas)
        for w, layer in r1.report["per_layer"].items():
            assert np.array_equal(layer["beta"], r2.report["per_layer"][w]["beta"])

    def test_ten_thousand_points_train_without_a_point_gram(self):
        # one weight-4 layer of n = 16 drawn 10,000 times has about 1,800 distinct
        # points; a per-point float Gram alone would be 763 MiB
        rng = np.random.default_rng(0)
        pts = [HypercubePoint.from_indices(16, rng.choice(16, 4, replace=False)) for _ in range(10_000)]
        y = np.array([1.0 if x.bits & 3 == 3 else -1.0 for x in pts])
        y[rng.random(y.size) < 0.1] *= -1.0
        tracemalloc.start()
        try:
            model = learners.mkl_train(pts, y, B=4.0, epsilon=0.05, outer_iters=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * 2**20
        sol = model.report["per_layer"]["4"]
        assert list(model.report["per_layer"]) == ["4"] and model.alphas.shape == (10_000,)
        assert np.isfinite(sol["objective"]) and sol["gap"] <= 1e-4 * (1.0 + abs(sol["objective"]))

    def test_ten_thousand_points_of_n64_train_in_bounded_time_and_memory(self):
        # one (64, 4) layer, about 9,700 distinct points: no u x u array on the
        # subset form.  Bounds stated before running, in a fresh process: 30 s
        # of mkl_train and 150 MiB of peak RSS for the whole process, read as
        # VmHWM (ru_maxrss would count the forking test process's pages too).
        script = """
import time
import numpy as np
from cubekern import learners
from cubekern.kernels import HypercubePoint
rng = np.random.default_rng(0)
pts = [HypercubePoint.from_indices(64, rng.choice(64, 4, replace=False)) for _ in range(10_000)]
y = np.array([1.0 if x.bits & 3 == 3 else -1.0 for x in pts])
y[rng.random(y.size) < 0.1] *= -1.0
start = time.perf_counter()
sol = learners.mkl_train(pts, y, B=4.0, epsilon=0.05, outer_iters=100).report["per_layer"]["4"]
seconds = time.perf_counter() - start
with open("/proc/self/status") as fh:
    rss_mib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
scale = 1 + abs(sol["objective"])
print(seconds, rss_mib, sol["gap"] / scale, sol["saddle_gap"] / scale, sol["inner_converged"])
"""
        env = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": ":".join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        seconds, rss_mib, rel_gap, rel_saddle, polished = out.stdout.split()
        assert float(seconds) <= 30.0 and float(rss_mib) <= 150.0
        assert polished == "True" and float(rel_gap) <= 1e-6 and 0.0 <= float(rel_saddle) <= 1e-3

    def test_label_length_mismatch(self):
        pts = pts_from_tuples(layer_points(4, 2))
        with pytest.raises(ValueError, match="labels have shape"):
            learners.mkl_train(pts, np.ones(5), B=1.0, epsilon=0.1, outer_iters=5)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-3.0, 3.0).filter(lambda v: abs(v) != 1.0), st.integers(0, 5))
    def test_hinge_labels_must_be_pm1(self, bad, where):
        pts = pts_from_tuples(layer_points(4, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        y[where] = bad
        with pytest.raises(ValueError, match="hinge-loss labels"):
            learners.mkl_train(pts, y, B=1.0, epsilon=0.1, outer_iters=5)
        learners.mkl_train(pts, y, B=1.0, epsilon=0.1, loss=ABSOLUTE, outer_iters=5)


def bad_point_lists():
    """Point lists each trainer must refuse, naming the entry at fault by its index."""
    a, b, c = (HypercubePoint.from_string(s) for s in ("1100", "11100", "0110"))
    return [
        ([a, b], ValueError, r"points\[1\] has n=5"),
        ([a, b, c], ValueError, r"points\[1\] has n=5"),
        ([a, "0110"], TypeError, r"points\[1\] is not a HypercubePoint \(got str\)"),
        (["1100", c], TypeError, r"points\[0\] is not a HypercubePoint \(got str\)"),
    ]


@pytest.mark.parametrize("points, error, match", bad_point_lists())
def test_mkl_train_names_a_bad_point(points, error, match):
    with pytest.raises(error, match=match):
        learners.mkl_train(points, np.ones(len(points)), B=1.0, epsilon=0.1, outer_iters=5)


@pytest.mark.parametrize("points, error, match", bad_point_lists())
def test_rademacher_estimate_names_a_bad_point(points, error, match):
    with pytest.raises(error, match=match):
        learners.rademacher_estimate(points, B=1.0, trials=5)


class TestRademacher:
    def test_single_point_equals_B(self):
        est = learners.rademacher_estimate([HypercubePoint.from_string("1100")], B=2.5, trials=40, seed=0)
        assert est.mean == pytest.approx(2.5, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_identical_points_closed_form(self):
        m, trials, B = 12, 300, 1.0
        pts = [HypercubePoint.from_string("110000")] * m
        est = learners.rademacher_estimate(pts, B=B, trials=trials, seed=5)
        rng = np.random.default_rng(5)
        direct = np.empty(trials)
        for i in range(trials):
            sigma = rng.integers(0, 2, size=m) * 2.0 - 1.0
            direct[i] = (B / m) * abs(sigma.sum())
        assert est.mean == pytest.approx(direct.mean(), abs=1e-12)

    def test_bound_dominance_small(self, rng):
        n, m = 8, 100
        pts = [HypercubePoint(n, int(rng.integers(0, 1 << n))) for _ in range(m)]
        est = learners.rademacher_estimate(pts, B=1.0, trials=100, seed=2)
        assert est.bound == pytest.approx(math.sqrt(2 * math.e * math.log(n) / m))
        assert est.mean + 2 * est.stderr <= est.bound

    def test_trials_validation(self):
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            learners.rademacher_estimate([HypercubePoint.from_string("10")], B=1.0, trials=0)
        with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
            learners.rademacher_estimate([HypercubePoint.from_string("10")], B=1.0, trials=2.5)
        with pytest.raises(ValueError, match="trials must be an integer, got True"):
            learners.rademacher_estimate([HypercubePoint.from_string("10")], B=1.0, trials=True)

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty sample"):
            learners.rademacher_estimate([], B=1.0)

    @pytest.mark.parametrize("B", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_B_rejected(self, B):
        with pytest.raises(ValueError, match="B must be positive"):
            learners.rademacher_estimate([HypercubePoint.from_string("1100")], B=B)

    def test_bound_needs_two_coordinates(self):
        with pytest.raises(ValueError, match="n >= 2"):
            learners.rademacher_estimate([HypercubePoint.from_string("1")], B=1.0)

    def test_subset_and_class_forms_give_the_same_estimate(self, monkeypatch, rng):
        # Stated before running: a trial's quads on layer w agree within
        # 32 eps 3^p m_w^2 (m_w the layer's points, sum |sigma| over it), so each
        # layer_share within that and the mean within (B/m) sqrt(sum_w of it)
        n, m, B = 12, 150, 2.0
        pts = [HypercubePoint(n, int(rng.integers(0, 1 << n))) for _ in range(m)]
        subset = learners.rademacher_estimate(pts, B=B, trials=50, seed=4)
        monkeypatch.setattr(learners, "_SUBSET_MAX_P", -1)
        dense = learners.rademacher_estimate(pts, B=B, trials=50, seed=4)
        tol = {w: 32 * np.finfo(float).eps * 3.0 ** min(w, n - w) * sum(x.weight == w for x in pts) ** 2
               for w in subset.layer_share}
        assert subset.layer_share.keys() == dense.layer_share.keys()
        assert all(abs(subset.layer_share[w] - dense.layer_share[w]) <= tol[w] for w in tol)
        assert abs(subset.mean - dense.mean) <= (B / m) * math.sqrt(sum(tol.values()))

    def test_two_hundred_trials_on_ten_thousand_points_of_n64(self):
        # bound stated before running: 5 s for 200 trials at n = 64, 10^4 weight-4 points
        rng = np.random.default_rng(0)
        pts = [HypercubePoint.from_indices(64, rng.choice(64, 4, replace=False)) for _ in range(10_000)]
        start = time.perf_counter()
        est = learners.rademacher_estimate(pts, B=1.0, trials=200, seed=0)
        assert time.perf_counter() - start <= 5.0
        assert 0.0 < est.mean + 2 * est.stderr <= est.bound


# ---------------------------------------------------------------------------
# One input contract for every trainer

CONTRACT_POINTS = pts_from_tuples(layer_points(4, 2))
CONTRACT_LAYER = learners.layer_vertex_grams(CONTRACT_POINTS, 2)


def _cube_rows(points):
    return np.array([[float(c) for c in p.to_string()] for p in points]).reshape(-1, 4)


# each trainer as (points, labels, lam, loss, epochs); an epoch cap of None is
# left at the trainer's default, and a layer problem's points are its labels
CONTRACT_TRAINERS = {
    "pegasos_train": lambda pts, y, lam, loss, epochs: learners.pegasos_train(
        kernels.universal_kernel(4), pts, y, lam, 3 if epochs is None else epochs, loss=loss
    ),
    "sdca_solve": lambda pts, y, lam, loss, epochs: learners.sdca_solve(
        np.eye(len(pts)), np.arange(len(pts)), y, lam, loss, 3 if epochs is None else epochs
    ),
    "MklLayerProblem": lambda pts, y, lam, loss, epochs: MklLayerProblem(CONTRACT_LAYER, y, lam, loss),
    "mkl_train": lambda pts, y, lam, loss, epochs: learners.mkl_train(
        pts, y, 1.0, 0.1, loss, outer_iters=2, lam_override=lam
    ),
    "train_on_cube": lambda pts, y, lam, loss, epochs: embedding.train_on_cube(
        _cube_rows(pts), y, embedding.poly_g([0.5, 0.25], 0.25, 4.0), 1.0, 0.5, loss=loss,
        epochs=3 if epochs is None else epochs, lam_override=lam,
    ),
}
EPOCH_TRAINERS = ("pegasos_train", "sdca_solve", "train_on_cube")


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"loss": "hinge"}, TypeError, "loss must be a LossSpec (see get_loss), got str"),
        ({"pts": [], "y": np.zeros(0)}, ValueError, "empty dataset"),
        ({"lam": math.nan}, ValueError, "lam must be positive and finite, got nan"),
        ({"lam": "1"}, TypeError, "lam must be a number, got str '1'"),
        ({"epochs": -1}, ValueError, "epochs must be non-negative, got -1"),
        ({"epochs": 2.5}, ValueError, "epochs must be an integer, got 2.5"),
        ({"epochs": True}, ValueError, "epochs must be an integer, got True"),
        ({"y": np.ones((6, 1))}, ValueError, "labels have shape (6, 1), expected (6,) to match the points"),
        ({"y": np.array([1.0, -1.0, math.nan, -1.0, 1.0, -1.0])}, ValueError, "labels must be finite"),
        ({"y": np.array([1.0, -1.0, 0.5, -1.0, 1.0, -1.0])}, ValueError, "hinge-loss labels must be -1 or +1"),
    ],
    ids=["loss-name", "empty", "lam-nan", "lam-str", "epochs-negative", "epochs-float", "epochs-bool", "label-shape",
         "label-nan", "label-half"],
)
def test_every_trainer_refuses_a_bad_input_alike_before_building(monkeypatch, change, error, message):
    """pegasos_train, sdca_solve, MklLayerProblem, mkl_train and
    embedding.train_on_cube raise the same error for the same bad input, and
    none of them packs a Gram, builds vertex Grams or an embedder first."""
    built = []
    for module, name in [(learners, "gram"), (learners, "layer_vertex_grams"), (embedding, "build_pair")]:
        monkeypatch.setattr(module, name, lambda *a, _name=name, **kw: built.append(_name))
    args = {"pts": CONTRACT_POINTS, "y": np.array([1.0, -1.0] * 3), "lam": 0.1, "loss": HINGE, "epochs": None}
    args.update(change)
    trainers = EPOCH_TRAINERS if "epochs" in change else CONTRACT_TRAINERS
    for name in trainers:
        with pytest.raises(error) as exc:
            CONTRACT_TRAINERS[name](**args)
        assert str(exc.value) == message, name
    assert built == []


@pytest.mark.parametrize("name", CONTRACT_TRAINERS)
def test_every_trainer_runs_on_the_contract_input(name):
    CONTRACT_TRAINERS[name](CONTRACT_POINTS, np.array([1.0, -1.0] * 3), 0.1, HINGE, None)


@pytest.mark.parametrize(
    "outer_iters, message",
    [
        (-1, "outer_iters must be non-negative, got -1"),
        (2.5, "outer_iters must be an integer, got 2.5"),
        (True, "outer_iters must be an integer, got True"),
    ],
    ids=["negative", "float", "bool"],
)
def test_mkl_train_refuses_a_bad_outer_cap_before_building(monkeypatch, outer_iters, message):
    built = []
    monkeypatch.setattr(learners, "layer_vertex_grams", lambda *a, **kw: built.append(a))
    with pytest.raises(ValueError) as exc:
        learners.mkl_train(CONTRACT_POINTS, np.array([1.0, -1.0] * 3), 1.0, 0.1, outer_iters=outer_iters)
    assert str(exc.value) == message and built == []


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: learners.layer_vertex_grams(pts_from_tuples([(1, 1, 0, 0), (1, 1, 1, 0)]), 2), ValueError,
         "all points must have weight 2"),
        (lambda: learners.mkl_train([], [], 1.0, 0.1), ValueError, "empty dataset"),
        (lambda: learners.rademacher_estimate(pts_from_tuples([(1, 0)]), "1"), TypeError,
         "B must be a number, got str '1'"),
    ],
    ids=["vertex-grams-mixed-weights", "mkl-train-empty", "rademacher-B-str"],
)
def test_boundary_errors_named(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message

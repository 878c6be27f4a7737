"""Hypercube kernel specs: direct sums, universal mixture, conjunction kernels.

Core claims:
    - points parse, complement and inner-product correctly; from_array
      refuses arrays that are not 1-d or hold entries other than 0/1
    - layer kernel tables match hand-computed g values; bad coefficients,
      non-finite ones and non-finite mixture weights included, are rejected
      with the violated constraint named
    - the universal kernel matches the averaged vertices, has unit diagonal,
      zero cross-layer values, and exact complement symmetry; every table
      the spec derives is read-only and the exact binomial sum of its beta,
      rounded once (n = 63, 64 too), and a weight and its mirror share one
      table; a spec's layers and tables cannot be assigned, and changing the
      dict it was built from changes no score; specs and their layers
      compare and hash by identity
    - a kernel mirrored below n/2 has the exact Vandermonde coefficients
      sum_l C(n - 2p', l - r) beta_l, rounded once
    - one-layer Grams are PSD at oracle scale; two-layer Grams are block
      diagonal
    - vertex-mixture Grams satisfy the mixture identity and the
      (p+1)-inflation norm bound
    - conjunction kernels implement the truncated binomial sum with unit
      diagonal and refuse a t_scale that is not finite and non-negative;
      the sparse kernel reproduces conjunctions exactly with squared norm
      C(s, l), and its zero-padded, read-only table is the binomial sum up
      to k = n on n <= 64
    - specs round-trip through JSON; a missing key, an unknown kind, a
      sparse-conjunction beta of the wrong length and one inadmissible on
      its home layer (2s <= n) are rejected by name
    - a point of dimension 0, a mask or an index beyond n, a complement
      below n/2, a wrong number of mixture weights, a spec layer outside
      [0, n] or stored for another (n, p), and a kernel constructor's n or
      layer out of range are refused by name
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import layer_points

from cubekern import kernels, scheme
from cubekern.kernels import HypercubePoint, KernelSpec
from cubekern.scheme import BetaCoeffs, LayerParams


def pts_from_tuples(rows):
    return [HypercubePoint.from_array(np.array(r)) for r in rows]


class TestHypercubePoint:
    def test_parse_and_round_trip(self):
        pt = HypercubePoint.from_string("1100")
        assert (pt.n, pt.weight) == (4, 2)
        assert pt.to_string() == "1100"
        assert HypercubePoint.from_indices(4, [0, 1]) == pt
        assert HypercubePoint.from_array([1, 1, 0, 0]) == pt

    def test_inner_and_complement(self):
        a = HypercubePoint.from_string("1100")
        b = HypercubePoint.from_string("1010")
        assert a.inner(b) == 1
        assert a.complement().to_string() == "0011"
        assert a.inner(a) == a.weight

    def test_errors(self):
        with pytest.raises(ValueError):
            HypercubePoint.from_string("12")
        with pytest.raises(ValueError):
            HypercubePoint.from_string("")
        with pytest.raises(ValueError):
            HypercubePoint.from_string("110").inner(HypercubePoint.from_string("11"))

    @pytest.mark.parametrize(
        "arr, match",
        [
            ([0, 2, 1], "\\[0, 2, 1\\]"),
            ([0.5, 1], "\\[0.5, 1.0\\]"),
            (["0", "1"], "\\['0', '1'\\]"),
            ([[0, 1], [1, 0]], "\\[\\[0, 1\\], \\[1, 0\\]\\]"),
            (5, "5"),
        ],
        ids=["two", "fraction", "strings", "2-d", "0-d"],
    )
    def test_from_array_rejects_bad_input(self, arr, match):
        with pytest.raises(ValueError, match="from_array needs a 1-d array of 0/1 entries, got " + match):
            HypercubePoint.from_array(arr)
        assert HypercubePoint.from_array(np.array([True, False, True])).to_string() == "101"


class TestLayerKernel:
    def test_g_table_examples(self):
        layer = LayerParams(4, 2)
        table = lambda beta: scheme.d_from_p(kernels.make_layer_kernel(layer, beta).beta)
        assert table([1 / 3, -1 / 6, 1.0]) == pytest.approx([1 / 3, 1 / 6, 1.0])
        assert table([1.0, 0.0, 0.0]) == pytest.approx([1.0, 1.0, 1.0])
        assert table([-1.0, 1.0, 0.0]) == pytest.approx([-1.0, 0.0, 1.0])

    def test_rejects_with_named_constraint(self):
        layer = LayerParams(4, 2)
        with pytest.raises(ValueError, match="diagonal"):
            kernels.make_layer_kernel(layer, [0.0, 0.0, 2.0])
        with pytest.raises(ValueError, match="eigenvalue"):
            kernels.make_layer_kernel(layer, [1.0, -1.0, 0.0])
        with pytest.raises(ValueError, match="beta must be finite"):
            kernels.make_layer_kernel(layer, [np.nan, 0.0, 0.0])


class TestMixVertices:
    def test_single_vertex_is_constant_kernel(self):
        lk = kernels.mix_vertices(LayerParams(4, 2), [1.0, 0.0, 0.0])
        assert scheme.d_from_p(lk.beta) == pytest.approx([1.0, 1.0, 1.0])

    def test_uniform_equals_universal_layer(self):
        layer = LayerParams(4, 2)
        lk = kernels.mix_vertices(layer, np.full(3, 1 / 3))
        spec = kernels.universal_kernel(4)
        assert lk.beta == pytest.approx(spec.per_layer[2].beta)

    def test_zero_mixture(self):
        lk = kernels.mix_vertices(LayerParams(4, 2), np.zeros(3))
        profile = scheme.eigen_profile(BetaCoeffs(lk.layer, lk.beta))
        assert profile == pytest.approx(np.zeros(3), abs=1e-15)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="negative"):
            kernels.mix_vertices(LayerParams(4, 2), [-0.1, 0.5, 0.0])
        with pytest.raises(ValueError, match="sum"):
            kernels.mix_vertices(LayerParams(4, 2), [0.6, 0.6, 0.0])
        with pytest.raises(ValueError, match="mixture weights must be finite, got \\[nan, 0.0, 0.0\\]"):
            kernels.mix_vertices(LayerParams(4, 2), [np.nan, 0.0, 0.0])


class TestUniversalKernel:
    @pytest.mark.parametrize("n", [16, 63, 64])
    def test_tables_are_the_rounded_exact_values(self, n):
        spec = kernels.universal_kernel(n)
        for w, lk in spec.per_layer.items():
            want = [
                float(sum(Fraction(b) * math.comb(k, ell) for ell, b in enumerate(lk.beta)))
                for k in range(lk.layer.p + 1)
            ]
            assert spec.tables[w].tolist() == want
            assert not spec.tables[w].flags.writeable

    def test_one_table_per_layer_object(self):
        spec = kernels.universal_kernel(64)
        for w, lk in spec.per_layer.items():
            assert spec.tables[w] is spec.tables[64 - w]
            assert np.array_equal(spec.tables[w], scheme.d_from_p(lk.beta))

    def test_equality_is_identity(self):
        a, b = kernels.universal_kernel(6), kernels.universal_kernel(6)
        assert a == a and a != b and len({a, b, a}) == 2
        la, lb = a.per_layer[2], b.per_layer[2]
        assert la == la and la != lb and len({la, lb}) == 2

    def test_layers_fixed_at_construction(self):
        layers = dict(kernels.universal_kernel(6).per_layer)
        spec = KernelSpec(6, "universal", layers)
        constant = kernels.mix_vertices(LayerParams(6, 2), [1, 0, 0])
        for mapping in (spec.per_layer, spec.tables):
            with pytest.raises(TypeError):
                mapping[2] = constant
        x, y = HypercubePoint.from_string("110000"), HypercubePoint.from_string("001100")
        before = spec.evaluate(x, y)
        layers[2] = constant
        assert spec.evaluate(x, y) == before == pytest.approx(2 / 9)
        assert KernelSpec(6, "universal", layers).evaluate(x, y) == pytest.approx(1.0)

    def test_layer2_beta(self):
        spec = kernels.universal_kernel(4)
        assert spec.per_layer[2].beta == pytest.approx([1 / 3, -1 / 6, 1.0])

    def test_evaluate_examples(self):
        spec = kernels.universal_kernel(4)
        x = HypercubePoint.from_string("1100")
        assert spec.evaluate(x, HypercubePoint.from_string("0011")) == pytest.approx(1 / 3)
        assert spec.evaluate(x, HypercubePoint.from_string("1010")) == pytest.approx(1 / 6)
        assert spec.evaluate(x, HypercubePoint.from_string("1110")) == 0.0

    def test_unit_diagonal_everywhere(self, rng):
        for n in (3, 6, 9):
            spec = kernels.universal_kernel(n)
            for _ in range(40):
                bits = int(rng.integers(0, 1 << n))
                x = HypercubePoint(n, bits)
                assert spec.evaluate(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        spec = kernels.universal_kernel(4)
        with pytest.raises(ValueError, match="dimension"):
            spec.evaluate(HypercubePoint.from_string("110"), HypercubePoint.from_string("011"))


class TestEvaluateInvariants:
    def test_symmetry_and_bound(self, rng):
        for n in (4, 7):
            spec = kernels.universal_kernel(n)
            pts = [HypercubePoint(n, int(rng.integers(0, 1 << n))) for _ in range(30)]
            for x in pts[:10]:
                for y in pts[10:20]:
                    v = spec.evaluate(x, y)
                    assert v == spec.evaluate(y, x)
                    assert abs(v) <= 1.0 + 1e-9

    def test_complement_consistency_exhaustive(self):
        for n in range(2, 7):
            spec = kernels.universal_kernel(n)
            for w in range(n // 2 + 1, n + 1):
                pts = pts_from_tuples(layer_points(n, w))
                comp = [p.complement() for p in pts]
                assert np.array_equal(kernels.gram(spec, pts), kernels.gram(spec, comp))


class TestGram:
    def test_single_point(self):
        spec = kernels.universal_kernel(5)
        x = HypercubePoint.from_string("11000")
        assert kernels.gram(spec, [x]) == pytest.approx(np.array([[1.0]]))

    def test_one_layer_psd_unit_diagonal(self, rng):
        for n, p in ((6, 2), (8, 3)):
            spec = kernels.universal_kernel(n)
            rows = layer_points(n, p)
            idx = rng.integers(0, len(rows), size=25)
            pts = pts_from_tuples([rows[i] for i in idx])
            g = kernels.gram(spec, pts)
            assert np.allclose(np.diag(g), 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(g).min() >= -1e-8 * len(pts)

    def test_two_layers_block_diagonal(self):
        spec = kernels.universal_kernel(5)
        a = pts_from_tuples(layer_points(5, 1))
        b = pts_from_tuples(layer_points(5, 3))
        g = kernels.gram(spec, a + b)
        assert np.array_equal(g[: len(a), len(a) :], np.zeros((len(a), len(b))))
        assert np.array_equal(g[len(a) :, : len(a)], np.zeros((len(b), len(a))))

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(kernels, "_MAX_GRAM_POINTS", 5)
        spec = kernels.universal_kernel(4)
        x = HypercubePoint.from_string("1100")
        with pytest.raises(ValueError, match="Gram"):
            kernels.gram(spec, [x] * 10)

    def test_matches_evaluate(self, rng):
        spec = kernels.universal_kernel(6)
        pts = [HypercubePoint(6, int(rng.integers(0, 64))) for _ in range(12)]
        g = kernels.gram(spec, pts)
        for i in range(12):
            for j in range(12):
                assert g[i, j] == spec.evaluate(pts[i], pts[j])


class TestBoundedness:
    def test_random_admissible_specs_bounded(self, rng):
        # |k(x,y)| <= 1 + 1e-9 and k(x,x) <= 1 + 1e-12 for admissible kernels
        for n in (5, 8):
            per_layer = {}
            for p in range(n + 1):
                cp = min(p, n - p)
                lam = rng.random(cp + 1)
                lam = lam / lam.sum() * rng.uniform(0.5, 1.0)
                per_layer[p] = kernels.mix_vertices(LayerParams(n, cp), lam)
            spec = KernelSpec(n, "direct_sum", per_layer)
            pts = [HypercubePoint(n, int(rng.integers(0, 1 << n))) for _ in range(40)]
            g = kernels.gram(spec, pts)
            assert np.abs(g).max() <= 1.0 + 1e-9
            assert np.diag(g).max() <= 1.0 + 1e-12


class TestComplementConversion:
    def test_mirrored_kernel_same_values(self):
        # a kernel built on p=4 of n=6, mirrored to p=2, evaluates identically
        high = LayerParams(6, 4)
        beta = np.zeros(5)
        beta[:3] = np.array([0.2, 0.05, 0.01])
        table = np.array(
            [sum(beta[e] * scheme.binomial(k, e) for e in range(5)) for k in range(5)]
        )
        raw = BetaCoeffs(high, beta)
        mirrored = kernels.complement_layer_kernel(raw)
        assert mirrored.layer == LayerParams(6, 2)
        pts = pts_from_tuples(layer_points(6, 4))
        for a in pts[:8]:
            for b in pts[:8]:
                direct = float(table[a.inner(b)])
                via = float(scheme.d_from_p(mirrored.beta)[a.complement().inner(b.complement())])
                assert direct == pytest.approx(via, abs=1e-12)


    @pytest.mark.parametrize("n", [16, 63, 64])
    def test_mirrored_beta_is_the_rounded_vandermonde_sum(self, n):
        for p in range(n // 2 + 1, n + 1):
            beta = np.zeros(p + 1)
            beta[:3] = 1.0 / (1 + p + math.comb(p, 2))
            high = BetaCoeffs(LayerParams(n, p), beta)
            s = 2 * p - n
            want = [
                float(sum(math.comb(s, ell - r) * Fraction(beta[ell]) for ell in range(r, p + 1)))
                for r in range(n - p + 1)
            ]
            assert kernels.complement_layer_kernel(high).beta.tolist() == want


class TestContainment:
    def test_mixture_identity_and_norm_bound(self, rng):
        for n, p in ((6, 2), (6, 3), (8, 3)):
            layer = LayerParams(n, p)
            verts = scheme.vertex_betas(layer)
            rows = layer_points(n, p)
            for _ in range(30):
                m = int(rng.integers(2, 13))
                pts = np.array([rows[i] for i in rng.integers(0, len(rows), size=m)], dtype=np.int64)
                ip = pts @ pts.T
                grams = []
                for t in range(p + 1):
                    table = np.array(
                        [
                            sum(verts[t, e] * scheme.binomial(k, e) for e in range(p + 1))
                            for k in range(p + 1)
                        ]
                    )
                    grams.append(table[ip])
                lam = rng.random(p + 1)
                lam /= lam.sum()
                alpha = rng.normal(size=m)
                quads = np.array([float(alpha @ g @ alpha) for g in grams])
                mixed = float(lam @ quads)
                k_beta = sum(l * g for l, g in zip(lam, grams))
                direct = float(alpha @ k_beta @ alpha)
                scale = max(1.0, abs(mixed), abs(direct))
                assert abs(mixed - direct) <= 1e-10 * scale
                lhs = float(((p + 1) * lam) ** 2 @ quads)
                rhs = (p + 1) ** 2 * direct
                assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


class TestConjunctionKernel:
    def test_depth2_value(self):
        # sqrt(4)*ln(1/eps) = 2 at eps = 1/e -> T = 2, N = 1 + 2 + 1 = 4
        spec = kernels.conjunction_kernel(4, 2, math.exp(-1.0))
        x, y = HypercubePoint.from_string("1100"), HypercubePoint.from_string("0011")
        assert spec.evaluate(x, y) == pytest.approx(1 / 4)
        assert spec.evaluate(x, x) == pytest.approx(1.0)

    def test_depth1_value(self):
        # sqrt(4)*ln(1/eps) = 1 at eps = exp(-1/2) -> T = 1, N = 1 + 2 = 3
        spec = kernels.conjunction_kernel(4, 2, math.exp(-0.5))
        x, y = HypercubePoint.from_string("1100"), HypercubePoint.from_string("1010")
        assert spec.evaluate(x, y) == pytest.approx(2 / 3)

    def test_depth_clamped_to_layer(self):
        spec = kernels.conjunction_kernel(16, 2, 1e-6)
        lk = spec.per_layer[2]
        assert lk.beta.shape == (3,)
        assert spec.tables[2][-1] == pytest.approx(1.0)

    def test_high_layer_matches_raw_formula(self):
        # complement storage must not change values on a p > n/2 layer
        n, p, eps = 4, 3, math.exp(-1.0)
        depth = min(p, math.ceil(math.sqrt(n) * math.log(1 / eps)))
        norm = sum(math.comb(p, t) for t in range(depth + 1))
        spec = kernels.conjunction_kernel(n, p, eps)
        pts = pts_from_tuples(layer_points(n, p))
        for a in pts:
            for b in pts:
                raw = sum(math.comb(a.inner(b), t) for t in range(depth + 1)) / norm
                assert spec.evaluate(a, b) == pytest.approx(raw, abs=1e-12)

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            kernels.conjunction_kernel(4, 2, 1.5)

    @pytest.mark.parametrize("t_scale", [-1.0, -1e-9, math.nan, math.inf])
    def test_t_scale_must_be_finite_and_non_negative(self, t_scale):
        with pytest.raises(ValueError, match=f"t_scale must be finite and non-negative, got {t_scale}"):
            kernels.conjunction_kernel(6, 2, 0.1, t_scale=t_scale)
        assert kernels.conjunction_kernel(6, 2, 0.1, t_scale=0.0).per_layer[2].beta.tolist() == [1.0, 0.0, 0.0]


class TestSparseConjunction:
    def test_value_and_norm(self):
        spec = kernels.sparse_conjunction_kernel(6, 3, 2)
        a = HypercubePoint.from_string("111000")
        assert spec.evaluate(a, a) == pytest.approx(1.0)  # C(3,2)/C(3,2)
        model = kernels.analytic_weights(6, 3, [0, 1])
        assert model.norm_sq() == pytest.approx(math.comb(3, 2), abs=1e-9)

    def test_prediction_is_conjunction(self, rng):
        n, s = 10, 4
        for ell in range(0, s + 1):
            literals = sorted(rng.choice(n, size=ell, replace=False).tolist())
            model = kernels.analytic_weights(n, s, literals)
            mask = HypercubePoint.from_indices(n, literals).bits
            rows = layer_points(n, s)
            pts = pts_from_tuples([rows[i] for i in rng.integers(0, len(rows), size=50)])
            preds = model.predict_many(pts)
            truth = np.array([1.0 if (p.bits & mask) == mask else 0.0 for p in pts])
            assert np.abs(preds - truth).max() <= 1e-9

    def test_zero_when_partial_overlap(self):
        model = kernels.analytic_weights(6, 3, [0, 1])
        x = HypercubePoint.from_string("100110")  # contains literal 0 only
        assert model.predict(x) == pytest.approx(0.0, abs=1e-12)

    def test_padded_table_is_the_binomial_sum(self):
        # the table runs past the home layer to k = n, also when read back from JSON,
        # and each entry is the exact binomial sum of the stored beta, rounded once
        for n in (1, 2, 7, 16, 33, 62, 63, 64):
            for s in sorted({0, 1, n // 2, n - 1, n}):
                for ell in sorted({0, s // 2, s}):
                    spec = kernels.sparse_conjunction_kernel(n, s, ell)
                    beta = spec.per_layer[s].beta
                    want = [
                        float(sum(Fraction(beta[i]) * math.comb(k, i) for i in range(s + 1)))
                        for k in range(n + 1)
                    ]
                    assert np.array_equal(spec.tables[s], want)
                    assert not spec.tables[s].flags.writeable
                    loaded = KernelSpec.from_json_dict(spec.to_json_dict())
                    assert np.array_equal(loaded.tables[s], want)

    def test_errors(self):
        with pytest.raises(ValueError, match="ell"):
            kernels.sparse_conjunction_kernel(6, 2, 3)


class TestSerialization:
    def test_round_trip(self, rng):
        for build in (
            lambda: kernels.universal_kernel(5),
            lambda: kernels.conjunction_kernel(6, 3, 0.3),
            lambda: kernels.sparse_conjunction_kernel(6, 3, 2),
        ):
            spec = build()
            clone = KernelSpec.from_json_dict(spec.to_json_dict())
            assert clone.n == spec.n and clone.kind == spec.kind
            pts = [HypercubePoint(spec.n, int(rng.integers(0, 1 << spec.n))) for _ in range(15)]
            assert np.array_equal(kernels.gram(spec, pts), kernels.gram(clone, pts))

    @pytest.mark.parametrize(
        "obj, match",
        [
            (
                {"n": 4, "kind": "sparse_conjunction", "layers": [{"p": 2, "beta": [0, 0, 1, 0, 0, 0, 0]}]},
                "beta has length 7, expected p\\+1=3",
            ),
            ({"n": 4, "kind": "sparse_conjunction", "layers": [{"p": 2, "beta": [0, 1]}]}, "beta has length 2"),
            ({"n": 4, "kind": "sparse_conjunction", "layers": []}, "sparse_conjunction spec has one layer"),
            ({"n": 4, "kind": "bogus", "layers": [{"p": 2, "beta": [0, 0, 1]}]}, "unknown kernel kind 'bogus'"),
            ({"kind": "universal", "layers": []}, "missing key 'n'"),
            ({"n": 4, "layers": []}, "missing key 'kind'"),
            ({"n": 4, "kind": "universal"}, "missing key 'layers'"),
            ({"n": 4, "kind": "universal", "layers": [{"beta": [1.0]}]}, "missing key 'p'"),
            ({"n": 4, "kind": "universal", "layers": [{"p": 0}]}, "missing key 'beta'"),
            (
                {"n": 8, "kind": "sparse_conjunction", "layers": [{"p": 3, "beta": [5, -7, 0, 2]}]},
                "kernel spec layers\\[0\\]: inadmissible kernel on \\(n=8, p=3\\)",
            ),
        ],
    )
    def test_bad_json_rejected_by_name(self, obj, match):
        with pytest.raises(ValueError, match=match):
            KernelSpec.from_json_dict(obj)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: HypercubePoint(0, 0), "dimension must be positive"),
        (lambda: HypercubePoint(3, 8), "bit mask out of range for dimension"),
        (lambda: HypercubePoint.from_indices(4, [4]), "index 4 out of range for n=4"),
        (lambda: kernels.complement_layer_kernel(kernels.mix_vertices(LayerParams(6, 2), [0.5, 0.0, 0.0])),
         "complement_layer_kernel expects p >= n/2 to mirror downward"),
        (lambda: kernels.mix_vertices(LayerParams(6, 2), [0.5, 0.5]), "expected 3 mixture weights, got (2,)"),
        (lambda: KernelSpec(4, "direct_sum", {5: kernels.universal_kernel(4).per_layer[1]}),
         "layer weight 5 outside [0, 4]"),
        (lambda: KernelSpec(4, "direct_sum", {1: kernels.universal_kernel(6).per_layer[1]}),
         "layer 1: stored kernel is for (n=6, p=1), expected (n=4, p=1)"),
        (lambda: kernels.universal_kernel(0), "n=0 outside supported range [1, 64]"),
        (lambda: kernels.universal_kernel(65), "n=65 outside supported range [1, 64]"),
        (lambda: kernels.conjunction_kernel(6, 7, 0.1), "layer weight p=7 outside [0, 6]"),
        (lambda: kernels.sparse_conjunction_kernel(6, 7, 1), "sparsity s=7 exceeds dimension n=6"),
    ],
    ids=["point-n0", "point-mask", "from-indices", "complement-below-half", "mixture-count", "spec-weight",
         "spec-layer", "universal-0", "universal-65", "conjunction-p", "sparse-s"],
)
def test_boundary_errors_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message

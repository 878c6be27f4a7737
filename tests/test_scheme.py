"""Spectral algebra of layer kernels, cross-checked against dense oracles.

Core claims:
    - binomial() is the rounded exact integer (r = 63, 64 included, where
      eta agrees with d_from_p) and keeps the degenerate conventions
    - delta_matrix is upper triangular with positive diagonal, and its
      columns are exactly the spectra of the explicit basis matrices
    - eta gives the kernel diagonal
    - vertex kernels, as coefficients and as value tables, are the correctly
      rounded closed form of the Johnson scheme (checked in rationals, n = 64
      included) and have one-hot spectra
    - basis change between binomial and indicator coefficients is an exact
      involution on integers, correctly rounded on any floats (an infinity
      past the float range), and matches explicitly built matrices
    - is_admissible agrees with the dense PSD + diagonal oracle; for n up to
      64 it accepts every vertex, the universal mean, random capped-simplex
      mixes and conjunction kernels on both sides of n/2, and rejects
      1.01 * vertex (diagonal) and -vertex (negative eigenvalue)
    - coefficients that are not finite are refused by name
    - the scheme is commutative at oracle scale
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_layers, explicit_basis_matrices

from cubekern import kernels, scheme
from cubekern.scheme import BetaCoeffs, LayerParams

#: a canonical layer (n, p) with n <= 64
LAYERS = st.integers(1, 64).flatmap(lambda n: st.builds(LayerParams, st.just(n), st.integers(0, n // 2)))


def exact_vertex_table(layer, i):
    """Vertex i's value table g(k) = P_{p-k}(i) / v_{p-k}, in rationals."""
    n, p = layer.n, layer.p
    table = []
    for k in range(p + 1):
        j = p - k
        eberlein = sum(
            (-1) ** h * math.comb(i, h) * math.comb(p - i, j - h) * math.comb(n - p - i, j - h)
            for h in range(min(i, j) + 1)
        )
        table.append(Fraction(eberlein, math.comb(p, j) * math.comb(n - p, j)))
    return table


class TestBinomial:
    def test_elementary(self):
        assert scheme.binomial(4, 2) == 6.0
        assert scheme.binomial(0, 0) == 1.0

    def test_zero_outside_range(self):
        assert scheme.binomial(2, 5) == 0.0
        assert scheme.binomial(3, -1) == 0.0
        assert scheme.binomial(-2, 1) == 0.0

    def test_exact_up_to_62(self):
        for r in (10, 35, 62):
            for k in range(r + 1):
                assert scheme.binomial(r, k) == float(math.comb(r, k))

    def test_exact_at_63_and_64(self):
        # the diagonal functional agrees with the exact value tables of d_from_p
        for r in (63, 64):
            for k in range(r + 1):
                assert scheme.binomial(r, k) == float(math.comb(r, k))
            eye = np.eye(r // 2 + 1)
            eta = scheme.eta_vector(LayerParams(r, r // 2))
            assert np.array_equal(eta, [scheme.d_from_p(e)[-1] for e in eye])

    def test_log_domain_relative_error(self):
        for r, k in ((63, 31), (100, 50), (200, 13), (500, 250)):
            exact = math.comb(r, k)
            got = scheme.binomial(r, k)
            assert abs(got - exact) <= 1e-12 * exact


class TestLayerParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            LayerParams(4, 5)
        with pytest.raises(ValueError):
            LayerParams(4, -1)
        with pytest.raises(ValueError):
            LayerParams(65, 1)

    def test_complement(self):
        assert LayerParams(6, 4).complement() == LayerParams(6, 2)
        assert LayerParams(6, 4).is_canonical is False
        assert LayerParams(6, 3).is_canonical is True


class TestDeltaMatrix:
    def test_n4_p2_rows(self):
        delta = scheme.delta_matrix(LayerParams(4, 2))
        assert np.array_equal(delta, np.array([[6.0, 6.0, 1.0], [0.0, 2.0, 1.0], [0.0, 0.0, 1.0]]))

    def test_p0_scalar(self):
        for n in (1, 5, 12):
            assert np.array_equal(scheme.delta_matrix(LayerParams(n, 0)), np.array([[1.0]]))

    def test_rejects_noncanonical(self):
        with pytest.raises(ValueError, match="canonical"):
            scheme.delta_matrix(LayerParams(4, 3))

    def test_triangular_positive_diagonal(self):
        for layer in canonical_layers(10):
            delta = scheme.delta_matrix(layer)
            assert np.array_equal(delta, np.triu(delta))
            diag = np.diag(delta)
            assert np.all(diag > 0)
            # closed form of the diagonal
            expected = [scheme.binomial(layer.n - 2 * ell, layer.p - ell) for ell in range(layer.p + 1)]
            assert np.allclose(diag, expected, rtol=0, atol=0)


class TestEtaVector:
    def test_examples(self):
        assert np.array_equal(scheme.eta_vector(LayerParams(6, 2)), [1.0, 2.0, 1.0])
        assert np.array_equal(scheme.eta_vector(LayerParams(3, 0)), [1.0])
        assert np.array_equal(scheme.eta_vector(LayerParams(8, 3)), [1.0, 3.0, 3.0, 1.0])

    def test_diagonal_functional(self, rng):
        # <eta, beta> equals g(p), the kernel value at full intersection
        for layer in canonical_layers(8):
            beta = rng.normal(size=layer.p + 1)
            diag = sum(beta[ell] * math.comb(layer.p, ell) for ell in range(layer.p + 1))
            assert float(scheme.eta_vector(layer) @ beta) == pytest.approx(diag, rel=1e-12)


class TestEigenProfile:
    @pytest.mark.parametrize(
        "beta,expected",
        [
            ((1.0, 0.0, 0.0), (6.0, 0.0, 0.0)),
            ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)),
            ((-1.0, 1.0, 0.0), (0.0, 2.0, 0.0)),
        ],
    )
    def test_n4_p2_examples(self, beta, expected):
        layer = LayerParams(4, 2)
        profile = scheme.eigen_profile(BetaCoeffs(layer, np.array(beta)))
        assert profile == pytest.approx(np.array(expected), abs=1e-12)
        # oracle: dense eigendecomposition of the explicit 6x6 matrix
        gram = scheme.oracle_gram(BetaCoeffs(layer, np.array(beta)))
        observed = scheme.oracle_eigenvalues(gram)
        dims = scheme.eigen_multiplicities(layer)
        predicted = sorted(zip(profile, dims), key=lambda z: -z[0])
        flat_pred = sorted(np.repeat([v for v, _ in predicted], [d for _, d in predicted]))
        flat_obs = sorted(np.repeat([v for v, _ in observed], [d for _, d in observed]))
        assert np.allclose(flat_pred, flat_obs, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            BetaCoeffs(LayerParams(4, 2), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="beta must be finite"):
            BetaCoeffs(LayerParams(8, 3), np.array([bad, 0.0, 0.0, 0.0]))


class TestAdmissibility:
    def test_examples(self):
        layer = LayerParams(4, 2)
        assert scheme.is_admissible(BetaCoeffs(layer, np.array([1.0, 0.0, 0.0]))).ok
        report = scheme.is_admissible(BetaCoeffs(layer, np.array([0.0, 0.0, 2.0])))
        assert not report.ok
        assert "diagonal" in report.violation
        assert report.profile == pytest.approx([2.0, 2.0, 2.0])
        assert scheme.is_admissible(BetaCoeffs(layer, np.zeros(3))).ok

    def test_negative_eigenvalue_named(self):
        layer = LayerParams(4, 2)
        report = scheme.is_admissible(BetaCoeffs(layer, np.array([1.0, -1.0, 0.0])))
        assert not report.ok
        assert "eigenvalue" in report.violation


class TestVertices:
    def test_n4_p2_exact(self):
        verts = scheme.vertex_betas(LayerParams(4, 2))
        expected = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [1.0, -1.5, 3.0]])
        assert np.abs(verts - expected).max() < 1e-9

    def test_n2_p1_hand_solve(self):
        # back-substitution on [[2,1],[0,1]]: raw=(-1/2,1), xi=1/2, vertex=(-1,2)
        verts = scheme.vertex_betas(LayerParams(2, 1))
        assert np.abs(verts - np.array([[1.0, 0.0], [-1.0, 2.0]])).max() < 1e-12

    @pytest.mark.parametrize("n", [8, 16, 33, 63, 64])
    def test_correctly_rounded_closed_form(self, n):
        for p in sorted({0, 1, n // 4, n // 2 - 1, n // 2}):
            layer = LayerParams(n, p)
            verts = scheme.vertex_betas(layer)
            assert not verts.flags.writeable
            for i in range(p + 1):
                table = exact_vertex_table(layer, i)
                assert table[p] == 1
                want = [
                    float(sum((-1) ** (r - ell) * math.comb(r, ell) * table[ell] for ell in range(r + 1)))
                    for r in range(p + 1)
                ]
                assert verts[i].tolist() == want, (layer, i)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_vertex_tables_are_the_correctly_rounded_closed_form(self, n):
        for p in range(n // 2 + 1):
            layer = LayerParams(n, p)
            tables = scheme.vertex_tables(layer)
            assert not tables.flags.writeable and tables.shape == (p + 1, p + 1)
            for i in range(p + 1):
                assert tables[i].tolist() == [float(g) for g in exact_vertex_table(layer, i)], (layer, i)

    def test_validity_sweep(self):
        for layer in canonical_layers(8):
            verts = scheme.vertex_betas(layer)
            eta = scheme.eta_vector(layer)
            for i in range(layer.p + 1):
                assert abs(float(eta @ verts[i]) - 1.0) <= 1e-12
                profile = scheme.eigen_profile(BetaCoeffs(layer, verts[i]))
                peak = abs(profile[i])
                assert peak > 0
                off = np.abs(np.delete(profile, i)).max(initial=0.0)
                assert off <= 1e-9 * max(1.0, peak)
                assert scheme.is_admissible(BetaCoeffs(layer, verts[i])).ok

    def test_vertex_grams_psd(self):
        # explicit-Gram PSD certificate for the (4,2) vertices
        layer = LayerParams(4, 2)
        for row in scheme.vertex_betas(layer):
            gram = scheme.oracle_gram(BetaCoeffs(layer, row))
            assert np.linalg.eigvalsh(gram.matrix).min() >= -1e-9
            assert np.allclose(np.diag(gram.matrix), 1.0, atol=1e-12)


class TestBasisChange:
    def test_round_trip_integers_exact(self, rng):
        for size in range(1, 21):
            vec = rng.integers(-50, 50, size=size).astype(float)
            assert np.array_equal(scheme.d_from_p(scheme.p_from_d(vec)), vec)
            assert np.array_equal(scheme.p_from_d(scheme.d_from_p(vec)), vec)

    def test_spec_examples(self):
        # the top basis kernel on p=2 is the intersection-2 indicator
        assert np.array_equal(scheme.d_from_p(np.array([0.0, 0.0, 1.0])), [0.0, 0.0, 1.0])
        # the all-ones kernel is the sum of both indicators on p=1
        assert np.array_equal(scheme.d_from_p(np.array([1.0, 0.0])), [1.0, 1.0])

    def test_against_explicit_matrices(self, rng):
        for n, p in ((4, 2), (5, 2), (6, 3)):
            d_mats, b_mats = explicit_basis_matrices(n, p)
            coeffs = rng.integers(-4, 5, size=p + 1).astype(float)
            from_p = sum(c * b for c, b in zip(coeffs, b_mats))
            d_coeffs = scheme.d_from_p(coeffs)
            from_d = sum(c * d for c, d in zip(d_coeffs, d_mats))
            assert np.array_equal(from_p, from_d)

    def test_correctly_rounded_on_floats(self, rng):
        for size in (1, 5, 17, 33, 65):
            vec = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size=size)
            exact = [Fraction(v) for v in vec]
            table = [sum(math.comb(ell, r) * exact[r] for r in range(ell + 1)) for ell in range(size)]
            diffs = [
                sum((-1) ** (r - ell) * math.comb(r, ell) * exact[ell] for ell in range(r + 1)) for r in range(size)
            ]
            assert scheme.d_from_p(vec).tolist() == [float(x) for x in table]
            assert scheme.p_from_d(vec).tolist() == [float(x) for x in diffs]

    def test_overflow_is_infinite(self):
        assert scheme.d_from_p([1e308, 1e308]).tolist() == [1e308, math.inf]
        assert scheme.p_from_d([1e308, -1e308]).tolist() == [1e308, -math.inf]
        report = scheme.is_admissible(BetaCoeffs(LayerParams(8, 3), np.array([1e307, 0.0, 0.0, 0.0])))
        assert report.profile[0] == math.inf and "diagonal" in report.violation

    def test_length_preserved(self):
        with pytest.raises(Exception):
            scheme.p_from_d(np.zeros((2, 2)))


class TestOracles:
    def test_gram_examples(self):
        layer = LayerParams(4, 2)
        ones = scheme.oracle_gram(BetaCoeffs(layer, np.array([1.0, 0.0, 0.0])))
        assert np.array_equal(ones.matrix, np.ones((6, 6)))
        ident = scheme.oracle_gram(BetaCoeffs(layer, np.array([0.0, 0.0, 1.0])))
        assert np.array_equal(ident.matrix, np.eye(6))
        inner = scheme.oracle_gram(BetaCoeffs(layer, np.array([0.0, 1.0, 0.0])))
        pts = ident.points.astype(int)
        assert np.array_equal(inner.matrix, pts @ pts.T)

    def test_gram_refuses_large_n(self):
        with pytest.raises(ValueError, match="refused"):
            scheme.enumerate_layer(LayerParams(13, 2))

    def test_eigenvalue_clusters(self):
        assert scheme.oracle_eigenvalues(np.eye(6)) == [(1.0, 6)]
        ones = scheme.oracle_eigenvalues(np.ones((6, 6)))
        assert len(ones) == 2
        assert ones[0] == pytest.approx((6.0, 1))
        assert ones[1][1] == 5

    def test_multiplicity_example(self):
        layer = LayerParams(4, 2)
        gram = scheme.oracle_gram(BetaCoeffs(layer, np.array([-1.0, 1.0, 0.0])))
        clusters = scheme.oracle_eigenvalues(gram)
        assert clusters[0][0] == pytest.approx(2.0)
        assert clusters[0][1] == 3  # C(4,1) - C(4,0)
        assert clusters[1][0] == pytest.approx(0.0, abs=1e-12)
        assert clusters[1][1] == 3


class TestSpectralSweep:
    def test_formula_matches_oracle(self):
        # acceptance covers n <= 8; keep the unit-test sweep at n <= 6
        for layer in canonical_layers(6):
            delta = scheme.delta_matrix(layer)
            dims = scheme.eigen_multiplicities(layer)
            for ell in range(layer.p + 1):
                beta = np.zeros(layer.p + 1)
                beta[ell] = 1.0
                observed = scheme.oracle_eigenvalues(scheme.oracle_gram(BetaCoeffs(layer, beta)))
                flat_obs = np.sort(np.repeat([v for v, _ in observed], [d for _, d in observed]))
                flat_pred = np.sort(np.repeat(delta[:, ell], dims))
                scale = max(1.0, np.abs(flat_pred).max())
                assert np.abs(flat_obs - flat_pred).max() <= 1e-8 * scale, (layer, ell)

    def test_dimension_count_exact(self):
        for layer in canonical_layers(8):
            dims = scheme.eigen_multiplicities(layer)
            assert int(dims.sum()) == math.comb(layer.n, layer.p)


class TestCharacterization:
    def test_agreement_with_dense_oracle(self, rng):
        for layer in canonical_layers(6):
            verts = scheme.vertex_betas(layer)
            for trial in range(200):
                if trial % 2 == 0:
                    beta = rng.normal(size=layer.p + 1)
                else:
                    lam = rng.random(layer.p + 1)
                    lam = lam / lam.sum() * rng.uniform(0.0, 1.3)
                    beta = lam @ verts
                coeffs = BetaCoeffs(layer, beta)
                fast = bool(scheme.is_admissible(coeffs, tol=1e-8))
                matrix = scheme.oracle_gram(coeffs).matrix
                eigs = np.linalg.eigvalsh(matrix)
                scale = max(1.0, float(np.abs(eigs).max()))
                slow = bool(eigs.min() >= -1e-8 * scale and matrix[0, 0] <= 1.0 + 1e-8)
                assert fast == slow, (layer, beta)


class TestCommutativity:
    def test_random_grams_commute(self, rng):
        for layer in canonical_layers(6, min_n=2):
            b1 = rng.normal(size=layer.p + 1)
            b2 = rng.normal(size=layer.p + 1)
            g1 = scheme.oracle_gram(BetaCoeffs(layer, b1)).matrix
            g2 = scheme.oracle_gram(BetaCoeffs(layer, b2)).matrix
            lhs = g1 @ g2
            rhs = g2 @ g1
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-8 * scale


@settings(max_examples=60, deadline=None)
@given(LAYERS, st.data())
def test_certificate_on_the_polytope_up_to_n64(layer, data):
    verts = scheme.vertex_betas(layer)
    i = data.draw(st.integers(0, layer.p), label="vertex")
    assert scheme.is_admissible(BetaCoeffs(layer, verts[i])).ok
    report = scheme.is_admissible(BetaCoeffs(layer, 1.01 * verts[i]))
    assert not report.ok and report.violation.startswith("diagonal bound")
    report = scheme.is_admissible(BetaCoeffs(layer, -verts[i]))
    assert not report.ok and report.violation == f"negative eigenvalue at index {i}"
    uniform = kernels.mix_vertices(layer, np.full(layer.p + 1, 1.0 / (layer.p + 1)))
    assert scheme.is_admissible(BetaCoeffs(layer, uniform.beta)).ok
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    lam = rng.random(layer.p + 1)
    mixed = kernels.mix_vertices(layer, lam / lam.sum() * rng.uniform(0.0, 1.0))
    assert scheme.is_admissible(BetaCoeffs(layer, mixed.beta)).ok
    for p in (layer.p, layer.n - layer.p):
        spec = kernels.conjunction_kernel(layer.n, p, data.draw(st.floats(0.01, 0.99), label="eps"))
        assert scheme.is_admissible(BetaCoeffs(layer, spec.per_layer[p].beta)).ok


def test_every_vertex_and_universal_layer_certified_up_to_n64():
    for layer in canonical_layers(64):
        for row in scheme.vertex_betas(layer):
            assert scheme.is_admissible(BetaCoeffs(layer, row)).ok, layer
    for n in range(1, 65):
        kernels.universal_kernel(n)

"""Randomized cube embeddings and kernel lifting.

Core claims:
    - grid rounding loses at most eps/3 * (x + y) per coordinate product,
      and the build's cell lookup equals searchsorted on the grid, at exact
      grid points, their neighbours and in the last cell
    - certified builds preserve inner products within eps on random pairs
    - builds are deterministic in (n, eps, seed); roles are independent
    - bits-per-coordinate scales as promised and the width guard reports a
      feasible accuracy
    - coordinates outside [0, 1], NaN included, are refused
    - embedded bit vectors agree with the certified inner-product tables
    - lifting a constant is exact; Lipschitz profiles deviate by at most
      2 L eps; declared constants are validated, and poly_g names
      coefficients that are not a non-empty 1-d finite sequence, a
      domain_max that is not finite and positive and a lipschitz that is
      not finite and non-negative
    - lifted Grams read from the tables equal the bit-level products
      exactly, transpose across roles and reject same-role products
    - each role's rows are nested thresholds 1[c <= i] of one cell vector
      c: the cumulative-histogram table equals the bit-level popcount of the
      rows, and the cells are recovered from how many rows set each bit;
      that table is derived state, which the constructor refuses
    - a pair file is the header, the build attempts and the cell vectors,
      40 + 2n + 4nt bytes: save -> load round-trips cells and attempts and
      save -> load -> save is byte-identical; a loaded file is certified
      again, so a cell above K, an attempt of BUILD_RETRIES or more and cells
      beyond eps/n are rejected by coordinate, every malformed header field
      is named, and a version-1 file (rows, nested or not) is refused with
      the rebuild command; the grids of built and loaded pairs are read-only
    - end-to-end training on real inputs fits margined linear data, on a
      training Gram certified within eps of the grid inner products, and
      dual coordinate ascent trains on it, one row per point, with the
      diagonal raised to make it PSD; its report is deterministic per seed,
      converged, and its gap (within the solver's tolerance) is the primal
      minus the dual of that shifted problem;
      batch prediction validates its input and equals single queries
      bit for bit, for n from 1 to 10 and at 0, 1, grid values and 1e-12
      outside [0, 1]; against a numpy row sum of the summary terms it is
      exact for n < 8 and within n eps (|c0 sum(alpha)| + sum_c |w_c[x_c]|)
      from n = 8 on; a single point that is not a length-n vector is named
      as one, on either path; a profile of degree <= 1 with domain_max >= n
      is scored from the support summary within 1e-12 (1 + sum|alpha| (|c0|
      + n |c1|)) of the lifted cross_gram, on built and drawn pairs alike,
      and any other profile (degree 2, domain_max < n, queries past
      domain_max) equals it exactly; the support must be role 1; a model is
      frozen; a B that is not finite and positive, a point outside [0, 1] or
      NaN, an empty sample, bad labels, a bad epoch cap or a profile that is
      not a StronglyEuclideanG (a TypeError, in lift_kernel too) is refused
      before any build; a model's pair is its kernel's, and alphas that are
      not a finite 1-d vector with one entry per support point are refused
      at construction
    - every script under demos/ runs to exit 0 against this checkout's src/
    - build_pair names an epsilon outside (0, 1) and an n below 1, embed a
      role other than 1 or 2, and train_on_cube 1-d points and a B that is
      not a number
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dual_value, nested_v1_pair_file, primal_value
from cubekern import embedding, learners
from cubekern.learners import HINGE


class TestGridSoundness:
    def test_rounding_error_bound(self, rng):
        eps = 0.3
        grid = embedding._interval_grid(eps)
        for _ in range(500):
            x, y = rng.random(2)
            xb = grid[np.searchsorted(grid, x, side="right") - 1]
            yb = grid[np.searchsorted(grid, y, side="right") - 1]
            err = x * y - xb * yb
            assert 0.0 <= err <= eps / 3 * (x + y) + 1e-12
            assert err <= eps

    def test_grid_contains_endpoints(self):
        for eps in (0.5, 0.21, 0.037):
            grid = embedding._interval_grid(eps)
            assert grid[0] == 0.0
            assert grid[-1] == 1.0
            assert np.all(np.diff(grid) > 0)


    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(1e-3, 0.9), st.sampled_from([0.3, 0.1 / 5, 0.1 / 16, 3 / 7])), st.data())
    def test_grid_cells_equal_searchsorted(self, eps, data):
        grid = embedding._interval_grid(eps)
        k = grid.shape[0]
        near = st.integers(0, k - 1).map(lambda j: float(grid[j]))  # exact points and the 1.0 end
        point = st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            near,
            near.map(lambda v: float(np.nextafter(v, 0.0))),
            near.map(lambda v: float(np.nextafter(v, 1.0))),
            st.floats(float(grid[-2]), 1.0, exclude_max=True),  # the last cell
        ).filter(lambda v: 0.0 <= v < 1.0)
        u = np.array(data.draw(st.lists(point, min_size=1, max_size=50)))
        got = embedding._grid_cells(grid, eps / 3.0, u)
        assert got.dtype == np.uint16
        assert np.array_equal(got, np.searchsorted(grid, u, side="right"))


class TestBuild:
    def test_bits_formula(self):
        assert embedding.required_bits(0.1) == math.ceil(8 * math.log(10) / 0.01)

    def test_eps_halved_quadruples_bits(self):
        t1 = embedding.required_bits(0.2)
        t2 = embedding.required_bits(0.1)
        # 4x from the 1/eps^2 term plus a log factor, never less than 4x
        assert 4.0 <= t2 / t1 <= 8.0

    def test_width_guard_reports_feasible_eps(self):
        with pytest.raises(ValueError, match="feasible epsilon") as err:
            embedding.build_pair(50, 0.05, seed=0)
        feasible = float(str(err.value).rsplit("about", 1)[1])
        assert 0.0 < feasible < 1.0
        assert 50 * embedding.required_bits(feasible / 50) <= embedding.WIDTH_CAP

    def test_determinism(self):
        a = embedding.build_pair(2, 0.3, seed=11)
        b = embedding.build_pair(2, 0.3, seed=11)
        for ca, cb in zip(a.coords, b.coords):
            assert np.array_equal(ca.packed[0], cb.packed[0])
            assert np.array_equal(ca.packed[1], cb.packed[1])
        c = embedding.build_pair(2, 0.3, seed=12)
        assert any(
            not np.array_equal(ca.packed[0], cc.packed[0]) for ca, cc in zip(a.coords, c.coords)
        )

    def test_roles_differ(self):
        pair = embedding.build_pair(2, 0.3, seed=0)
        x = np.array([0.41, 0.77])
        assert embedding.embed(pair, 1, x).bits != embedding.embed(pair, 2, x).bits

    def test_certified_deviation(self):
        pair = embedding.build_pair(1, 0.35, seed=3)
        assert pair.coords[0].max_deviation() <= 0.35
        one = np.array([1.0])
        ip = (embedding.embed(pair, 1, one).bits & embedding.embed(pair, 2, one).bits).bit_count()
        assert abs(1.0 - ip / pair.t) <= 0.35


class TestEmbed:
    def test_zero_vector_embeds_to_zero(self):
        pair = embedding.build_pair(3, 0.3, seed=0)
        assert embedding.embed(pair, 1, np.zeros(3)).bits == 0
        assert embedding.embed(pair, 2, np.zeros(3)).bits == 0

    def test_same_cell_same_embedding(self):
        pair = embedding.build_pair(1, 0.3, seed=0)
        step = pair.grid[1]
        a = embedding.embed(pair, 1, np.array([step * 1.1]))
        b = embedding.embed(pair, 1, np.array([step * 1.9]))
        assert a.bits == b.bits

    def test_grid_point_deterministic_row(self):
        pair = embedding.build_pair(1, 0.3, seed=0)
        v = float(pair.grid[2])
        pt = embedding.embed(pair, 2, np.array([v]))
        assert pt.bits == pair.coords[0].row_int(2, 2)

    def test_out_of_range_rejected(self):
        pair = embedding.build_pair(2, 0.4, seed=0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            embedding.embed(pair, 1, np.array([0.5, 1.01]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            embedding.embed(pair, 1, np.array([-0.2, 0.5]))
        # 1e-12 slop is clamped, not rejected
        embedding.embed(pair, 1, np.array([1.0 + 5e-13, 0.0]))

    def test_nan_rejected(self):
        pair = embedding.build_pair(2, 0.3, seed=5)
        nan = np.array([np.nan, 0.5])
        for refuse in (
            lambda: pair.grid_indices(nan),
            lambda: embedding.embed(pair, 2, nan),
            lambda: embedding.embed(pair, 1, np.array([[0.5, 0.5], nan])),
            lambda: pair.table_inner(nan, np.array([0.5, 0.5])),
        ):
            with pytest.raises(ValueError, match=r"\[0, 1\], got nan"):
                refuse()

    def test_bits_match_certified_tables(self, rng):
        pair = embedding.build_pair(3, 0.25, seed=4)
        for _ in range(20):
            x, y = rng.random(3), rng.random(3)
            u = embedding.embed(pair, 1, x)
            v = embedding.embed(pair, 2, y)
            assert (u.bits & v.bits).bit_count() == pair.table_inner(x, y)

    def test_inner_product_preservation(self, rng):
        eps = 0.15
        pair = embedding.build_pair(3, eps, seed=0)
        worst = 0.0
        for _ in range(1000):
            x, y = rng.random(3), rng.random(3)
            dev = abs(float(x @ y) - pair.table_inner(x, y) / pair.t)
            worst = max(worst, dev)
        assert worst <= eps


class TestProfiles:
    def test_poly_lipschitz_validated(self):
        embedding.poly_g([0.0, 1.0 / 3.0], lipschitz=1 / 3, domain_max=3.0)
        with pytest.raises(ValueError, match="Lipschitz"):
            embedding.poly_g([0.0, 1.0], lipschitz=0.5, domain_max=3.0)

    @pytest.mark.parametrize(
        "coeffs, lipschitz, domain_max, match",
        [
            ([], 0.0, 3.0, r"coeffs must be a non-empty 1-d sequence, got shape \(0,\)"),
            ([[1.0, 2.0]], 5.0, 3.0, r"coeffs must be a non-empty 1-d sequence, got shape \(1, 2\)"),
            ([1.0, math.nan], 1.0, 3.0, r"coeffs must be finite, got \[1.0, nan\]"),
            ([math.inf], 0.0, 3.0, r"coeffs must be finite, got \[inf\]"),
            ([1.0, 1.0], 1.0, -5.0, "domain_max must be positive and finite, got -5.0"),
            ([1.0, 1.0], 1.0, 0.0, "domain_max must be positive and finite, got 0.0"),
            ([1.0, 1.0], 1.0, math.nan, "domain_max must be positive and finite, got nan"),
            ([1.0, 1.0], 1.0, math.inf, "domain_max must be positive and finite, got inf"),
            ([1.0, 1.0], math.nan, 3.0, "lipschitz must be non-negative and finite, got nan"),
            ([1.0, 1.0], math.inf, 3.0, "lipschitz must be non-negative and finite, got inf"),
            ([1.0], -1.0, 3.0, "lipschitz must be non-negative and finite, got -1.0"),
        ],
    )
    def test_bad_profiles_named(self, coeffs, lipschitz, domain_max, match):
        with pytest.raises(ValueError, match=match):
            embedding.poly_g(coeffs, lipschitz=lipschitz, domain_max=domain_max)


class TestLift:
    def test_constant_profile_exact(self, rng):
        pair = embedding.build_pair(2, 0.4, seed=1)
        g = embedding.poly_g([0.7], lipschitz=0.0, domain_max=2.0)
        k = embedding.lift_kernel(g, pair)
        for _ in range(10):
            u = embedding.embed(pair, 1, rng.random(2))
            v = embedding.embed(pair, 2, rng.random(2))
            assert k.evaluate(u, v) == 0.7

    def test_linear_profile_tracks_inner_product(self, rng):
        n, eps = 3, 0.12
        pair = embedding.build_pair(n, eps, seed=2)
        g = embedding.poly_g([0.0, 1.0 / n], lipschitz=1.0 / n, domain_max=float(n))
        k = embedding.lift_kernel(g, pair)
        for _ in range(200):
            x, y = rng.random(n), rng.random(n)
            u, v = embedding.embed(pair, 1, x), embedding.embed(pair, 2, y)
            true = float(g(np.array(x @ y)))
            assert abs(k.evaluate(u, v) - true) <= g.lipschitz * eps + 1e-12

    def test_quadratic_profile_within_2Leps(self, rng):
        n, eps = 3, 0.1
        pair = embedding.build_pair(n, eps, seed=3)
        # ((a/n) + 1)^2 / 4, expanded in ascending powers of a
        g = embedding.poly_g(
            [0.25, 0.5 / n, 0.25 / n**2], lipschitz=1.0 / n, domain_max=float(n)
        )
        k = embedding.lift_kernel(g, pair)
        worst = 0.0
        for _ in range(300):
            x, y = rng.random(n), rng.random(n)
            u, v = embedding.embed(pair, 1, x), embedding.embed(pair, 2, y)
            worst = max(worst, abs(k.evaluate(u, v) - float(g(np.array(x @ y)))))
        assert worst <= 2 * g.lipschitz * eps


@st.composite
def small_pairs(draw, drawn_cells=False, max_n=3):
    """Built pairs of n <= max_n; with ``drawn_cells``, pairs of t <= 40 bits
    whose cells in [0, K] and build attempts are drawn directly, so they need
    not certify."""
    n, eps, seed = draw(st.integers(1, max_n)), draw(st.floats(0.2, 0.5)), draw(st.integers(0, 2**16))
    if not drawn_cells:
        return embedding.build_pair(n, eps, seed=seed)
    t, grid = draw(st.integers(1, 40)), embedding._interval_grid(eps / n)
    cells = st.lists(st.integers(0, grid.shape[0]), min_size=t, max_size=t).map(
        lambda v: np.array(v, dtype=np.uint16)
    )
    attempts = st.integers(0, embedding.BUILD_RETRIES - 1)
    coords = [
        embedding.IntervalEmbedderPair(t, grid, (draw(cells), draw(cells)), draw(attempts)) for _ in range(n)
    ]
    return embedding.CubeEmbedderPair(n, eps, t, seed, coords)


class TestLiftedGram:
    @settings(max_examples=30, deadline=None)
    @given(small_pairs(), st.data())
    def test_tables_equal_bit_products(self, pair, data):
        n = pair.n
        g = embedding.poly_g([0.5, 1.0 / n], lipschitz=1.0 / n, domain_max=float(n))
        k = embedding.lift_kernel(g, pair)
        vectors = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
        rows = [embedding.embed(pair, 1, x) for x in data.draw(st.lists(vectors, max_size=6))]
        cols = [embedding.embed(pair, 2, y) for y in data.draw(st.lists(vectors, max_size=6))]
        want = np.array(
            [[g(np.clip((u.bits & v.bits).bit_count() / pair.t, 0.0, n)) for v in cols] for u in rows]
        ).reshape(len(rows), len(cols))
        assert np.array_equal(k.cross_gram(rows, cols), want)
        assert np.array_equal(k.cross_gram(cols, rows), want.T)
        if rows:
            with pytest.raises(ValueError, match="not certified"):
                k.cross_gram(rows, rows)
        if cols:
            with pytest.raises(ValueError, match="not certified"):
                k.cross_gram(cols, cols)

    def test_mixed_roles_or_pairs_rejected(self):
        pair, other = embedding.build_pair(2, 0.4, seed=0), embedding.build_pair(2, 0.4, seed=1)
        k = embedding.lift_kernel(embedding.poly_g([1.0], 0.0, 2.0), pair)
        x = np.array([0.3, 0.6])
        u, v = embedding.embed(pair, 1, x), embedding.embed(pair, 2, x)
        with pytest.raises(ValueError, match="one role"):
            k.cross_gram([u, v], [v])
        with pytest.raises(ValueError, match="pair"):
            k.cross_gram([u], [embedding.embed(other, 2, x)])


class TestNestedRows:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 0.9), st.integers(1, 300), st.data())
    def test_histogram_rows_and_recovery(self, eps, t, data):
        grid = embedding._interval_grid(eps)
        k = grid.shape[0]
        cells = tuple(
            np.array(data.draw(st.lists(st.integers(0, k), min_size=t, max_size=t)), dtype=np.uint16)
            for _role in (1, 2)
        )
        coord = embedding.IntervalEmbedderPair(t, grid, cells, 0)
        bits = [np.unpackbits(rows, axis=1, count=t, bitorder="little") for rows in coord.packed]
        popcount = bits[0].astype(np.int64) @ bits[1].astype(np.int64).T
        assert np.array_equal(coord.ensure_pair_inner(), popcount)
        for role, rows in enumerate(bits):
            assert np.all(rows[:-1] <= rows[1:])
            assert np.array_equal(k - rows.sum(axis=0), cells[role])
            for i in (0, k - 1):
                assert coord.row_int(role + 1, i) == int.from_bytes(coord.packed[role][i], "little")

    def test_pair_table_is_derived_not_passed(self):
        grid = embedding._interval_grid(0.5)
        cells = (np.zeros(4, dtype=np.uint16), np.zeros(4, dtype=np.uint16))
        with pytest.raises(TypeError, match="pair_inner"):
            embedding.IntervalEmbedderPair(4, grid, cells, 0, pair_inner=np.zeros((1, 1)))
        assert embedding.IntervalEmbedderPair(4, grid, cells, 0).pair_inner is None


def _pre_change_file(pair, path):
    """A version-1 pair file whose rows are independent Bernoulli(v) samples."""
    rng = np.random.default_rng(0)
    k, nb = pair.grid.shape[0], (pair.t + 7) // 8
    with open(path, "wb") as fh:
        fh.write(embedding._HEADER.pack(b"JKEM", 1, pair.n, pair.t, pair.epsilon, pair.seed, k, nb))
        for _ in range(2 * pair.n):
            for v in pair.grid:
                fh.write(np.packbits(rng.random(pair.t) < v, bitorder="little").tobytes())


class TestPairFile:
    def test_round_trip(self, tmp_path, rng):
        pair = embedding.build_pair(3, 0.2, seed=9)
        path = str(tmp_path / "pair.bin")
        embedding.save_pair(pair, path)
        clone = embedding.load_pair(path)
        assert (clone.n, clone.t, clone.epsilon, clone.seed) == (
            pair.n,
            pair.t,
            pair.epsilon,
            pair.seed,
        )
        for ca, cb in zip(pair.coords, clone.coords):
            assert np.array_equal(ca.packed[0], cb.packed[0])
            assert np.array_equal(ca.packed[1], cb.packed[1])
            assert ca.attempt == cb.attempt
        x = rng.random(3)
        assert embedding.embed(pair, 1, x).bits == embedding.embed(clone, 1, x).bits

    def test_grids_are_read_only(self, tmp_path):
        pair = embedding.build_pair(2, 0.3, seed=4)
        path = str(tmp_path / "pair.bin")
        embedding.save_pair(pair, path)
        for built in (pair, embedding.load_pair(path)):
            for grid in (built.grid, *(coord.grid for coord in built.coords)):
                with pytest.raises(ValueError, match="read-only"):
                    grid[1] = 0.5

    @settings(max_examples=10, deadline=None)
    @given(small_pairs())
    def test_save_load_save_byte_identical(self, tmp_path_factory, pair):
        first = tmp_path_factory.mktemp("pair") / "first.bin"
        again = first.with_name("again.bin")
        embedding.save_pair(pair, str(first))
        clone = embedding.load_pair(str(first))
        for ca, cb in zip(pair.coords, clone.coords):
            assert np.array_equal(ca.cells[0], cb.cells[0])
            assert np.array_equal(ca.cells[1], cb.cells[1])
            assert np.array_equal(ca.ensure_pair_inner(), cb.ensure_pair_inner())
        embedding.save_pair(clone, str(again))
        assert first.read_bytes() == again.read_bytes()

    def test_cell_above_k_rejected(self, tmp_path):
        pair = embedding.build_pair(2, 0.3, seed=5)
        path = tmp_path / "pair.bin"
        embedding.save_pair(pair, str(path))
        k = pair.grid.shape[0]
        raw = bytearray(path.read_bytes())
        at = embedding._HEADER.size + 2 * pair.n  # coordinate 0's first role-1 cell
        raw[at : at + 2] = (k + 1).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"coordinate 0: .*at most K = {k}, got {k + 1}; rebuild it"):
            embedding.load_pair(str(path))

    def test_attempt_out_of_range_rejected(self, tmp_path):
        pair = embedding.build_pair(2, 0.3, seed=5)
        pair.coords[1].attempt = embedding.BUILD_RETRIES
        path = str(tmp_path / "pair.bin")
        embedding.save_pair(pair, path)
        with pytest.raises(ValueError, match="coordinate 1: build attempt 10 must be below 10"):
            embedding.load_pair(path)

    def test_independently_sampled_rows_rejected(self, tmp_path):
        pair = embedding.build_pair(2, 0.3, seed=5)
        for name, write in (("old.bin", _pre_change_file), ("nested.bin", nested_v1_pair_file)):
            path = str(tmp_path / name)
            write(pair, path)
            with pytest.raises(ValueError) as err:
                embedding.load_pair(path)
            rebuild = "rebuild it with `cubekern embed build`"
            assert str(err.value) == f"not a version-2 embedder file: {path}; {rebuild}"

    def test_nested_rows_beyond_eps_rejected(self, tmp_path):
        pair = embedding.build_pair(2, 0.3, seed=5)
        coord = pair.coords[1]
        coord.cells = (np.ones_like(coord.cells[0]), coord.cells[1])  # every row from 1 on all ones
        path = str(tmp_path / "loose.bin")
        embedding.save_pair(pair, path)
        with pytest.raises(ValueError, match=r"coordinate 1: worst grid-pair deviation .* exceeds eps/n"):
            embedding.load_pair(path)

    def test_header_mismatch_rejected(self, tmp_path):
        pair = embedding.build_pair(1, 0.4, seed=0)
        path = tmp_path / "pair.bin"
        embedding.save_pair(pair, str(path))
        raw = bytearray(path.read_bytes())
        fields = list(embedding._HEADER.unpack_from(raw))
        fields[-1] += 1  # bytes per stored value
        raw[: embedding._HEADER.size] = embedding._HEADER.pack(*fields)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="value width 3 bytes, expected 2"):
            embedding.load_pair(str(path))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            (2, 0, "n = 0, t = "),
            (3, 0, "t = 0, eps = "),
            (4, 0.0, r"eps = 0.0; need n, t >= 1 and 3n/65535 < eps < 1"),
            (4, math.nan, "eps = nan; need"),
            (4, math.inf, "eps = inf; need"),
            (4, 1.0, "eps = 1.0; need"),
            (4, 1e-6, "eps = 1e-06; need"),
            (6, 10, "K = 10, but the grid of eps/n = 0.4 has 9 values"),
        ],
        ids=["n", "t", "eps-zero", "eps-nan", "eps-inf", "eps-one", "eps-too-fine", "K"],
    )
    def test_bad_header_field_named(self, tmp_path, field, value, match):
        path = tmp_path / "pair.bin"
        embedding.save_pair(embedding.build_pair(1, 0.4, seed=0), str(path))
        raw = bytearray(path.read_bytes())
        fields = list(embedding._HEADER.unpack_from(raw))
        fields[field] = value
        raw[: embedding._HEADER.size] = embedding._HEADER.pack(*fields)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=match):
            embedding.load_pair(str(path))

    @pytest.mark.parametrize(
        "keep, extra",
        [(0, b""), (39, b""), (None, b"\x00"), (-1, b"")],
        ids=["empty", "39-bytes", "one-extra", "one-short"],
    )
    def test_bad_length_named(self, tmp_path, keep, extra):
        pair = embedding.build_pair(1, 0.4, seed=0)
        path = tmp_path / "pair.bin"
        embedding.save_pair(pair, str(path))
        raw = path.read_bytes()[:keep] + extra
        path.write_bytes(raw)
        assert len(path.read_bytes()) != 40 + 2 + 4 * pair.t
        if len(raw) < 40:
            match = f"{len(raw)} bytes is shorter than the 40-byte header"
        else:
            match = f"{len(raw)} bytes, not 40 \\+ 2n \\+ 4nt for n = 1, t = {pair.t}"
        with pytest.raises(ValueError, match=match):
            embedding.load_pair(str(path))

    @settings(max_examples=40, deadline=None)
    @given(small_pairs(drawn_cells=True), st.data())
    def test_drawn_cells_round_trip_or_are_named(self, tmp_path_factory, pair, data):
        first = tmp_path_factory.mktemp("pair") / "first.bin"
        embedding.save_pair(pair, str(first))
        assert first.stat().st_size == 40 + 2 * pair.n + 4 * pair.n * pair.t
        eps_int = pair.epsilon / pair.n
        failing = [c for c, coord in enumerate(pair.coords) if coord.max_deviation() > eps_int]
        if failing:
            with pytest.raises(ValueError, match=f"coordinate {failing[0]}: worst grid-pair deviation"):
                embedding.load_pair(str(first))
        else:
            clone = embedding.load_pair(str(first))
            for ca, cb in zip(pair.coords, clone.coords):
                assert np.array_equal(ca.cells[0], cb.cells[0]) and np.array_equal(ca.cells[1], cb.cells[1])
                assert ca.attempt == cb.attempt
            again = first.with_name("again.bin")
            embedding.save_pair(clone, str(again))
            assert first.read_bytes() == again.read_bytes()
        c, role, b = (data.draw(st.integers(0, m - 1)) for m in (pair.n, 2, pair.t))
        raw = bytearray(first.read_bytes())
        at = 40 + 2 * pair.n + 2 * ((2 * c + role) * pair.t + b)
        raw[at : at + 2] = (pair.grid.shape[0] + 1).to_bytes(2, "little")
        first.write_bytes(bytes(raw))
        named = min([c, *failing])  # coordinates are checked in order
        with pytest.raises(ValueError, match=f"coordinate {named}: "):
            embedding.load_pair(str(first))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="embedder file"):
            embedding.load_pair(str(path))


class TestTrainOnCube:
    def _margined_data(self, rng, m=60):
        xs, ys = [], []
        while len(xs) < m:
            x = rng.random(3)
            margin = x.sum() / 3.0 - 0.5
            if abs(margin) >= 0.25:
                xs.append(x)
                ys.append(1.0 if margin > 0 else -1.0)
        return np.array(xs), np.array(ys)

    def test_realizable_margin_data(self, rng):
        xs, ys = self._margined_data(rng)
        g = embedding.poly_g([0.5, 1.0 / 6.0], lipschitz=1 / 6, domain_max=3.0)
        model = embedding.train_on_cube(
            xs, ys, g, B=4.0, epsilon=0.08, seed=0, loss=HINGE, epochs=400, lam_override=2e-3
        )
        preds = model.predict_many(xs)
        assert np.maximum(0.0, 1.0 - ys * preds).mean() <= 0.1

    def test_prediction_deterministic(self, rng):
        xs, ys = self._margined_data(rng, m=20)
        g = embedding.poly_g([0.5, 1.0 / 6.0], lipschitz=1 / 6, domain_max=3.0)
        model = embedding.train_on_cube(
            xs, ys, g, B=1.0, epsilon=0.15, seed=1, epochs=100, lam_override=1e-2
        )
        q = xs[0]
        assert model.predict(q) == model.predict(q)

    def test_training_gram_certified(self, rng):
        xs, ys = self._margined_data(rng, m=40)
        eps = 0.1
        g = embedding.poly_g([0.5, 1.0 / 6.0], lipschitz=1 / 6, domain_max=3.0)
        model = embedding.train_on_cube(xs, ys, g, B=1.0, epsilon=eps, seed=2, epochs=5)
        assert model.report["gram_max_deviation"] <= eps
        u = model.pair.grid[model.pair.grid_indices(xs)]
        gram = model.kernel.gram(list(model.support))
        assert np.abs(gram - g(u @ u.T)).max() <= g.lipschitz * eps * (1 + 1e-9)
        assert np.array_equal(gram, gram.T)
        assert model.report["gram_min_eigenvalue"] == np.linalg.eigvalsh(gram)[0]
        assert model.report["gram_diagonal_shift"] == max(0.0, -model.report["gram_min_eigenvalue"])

    @pytest.mark.parametrize("B, lam", [(0.0, None), (-1.0, 0.01), (math.nan, None)])
    def test_bad_B_refused_before_building(self, rng, monkeypatch, B, lam):
        monkeypatch.setattr(embedding, "build_pair", None)  # never reached
        xs, ys = self._margined_data(rng, m=4)
        g = embedding.poly_g([0.5, 1.0 / 6.0], lipschitz=1 / 6, domain_max=3.0)
        with pytest.raises(ValueError, match=f"B must be positive and finite, got {B}"):
            embedding.train_on_cube(xs, ys, g, B=B, epsilon=0.1, lam_override=lam)

    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_bad_points_refused_before_building(self, rng, monkeypatch, bad):
        monkeypatch.setattr(embedding, "build_pair", None)  # never reached
        xs, ys = self._margined_data(rng, m=4)
        xs[2, 1] = bad
        g = embedding.poly_g([0.5, 1.0 / 6.0], lipschitz=1 / 6, domain_max=3.0)
        with pytest.raises(ValueError, match=rf"coordinates must lie in \[0, 1\], got {bad}"):
            embedding.train_on_cube(xs, ys, g, B=1.0, epsilon=0.1)

    def test_empty_sample_refused_before_building(self, monkeypatch):
        monkeypatch.setattr(embedding, "build_pair", None)  # never reached
        g = embedding.poly_g([0.5, 1.0 / 6.0], lipschitz=1 / 6, domain_max=3.0)
        with pytest.raises(ValueError, match="empty dataset"):
            embedding.train_on_cube(np.zeros((0, 3)), np.zeros(0), g, B=1.0, epsilon=0.1)

    @pytest.mark.parametrize(
        "change, error, match",
        [
            (dict(g=lambda a: a), TypeError, "StronglyEuclideanG profile .*, got function"),
            (dict(g=[0.5, 1.0]), TypeError, "StronglyEuclideanG profile .*, got list"),
            (dict(labels=np.ones(3)), ValueError, r"labels have shape \(3,\), expected \(4,\)"),
            (dict(labels=np.array([1.0, -1.0, 0.5, 1.0])), ValueError, "hinge-loss labels must be -1 or \\+1"),
            (dict(labels=np.array([1.0, -1.0, np.nan, 1.0])), ValueError, "labels must be finite"),
            (dict(epochs=-1), ValueError, "epochs must be non-negative, got -1"),
            (dict(epochs=2.5), ValueError, "epochs must be an integer, got 2.5"),
        ],
        ids=["lambda", "list", "label-count", "label-value", "label-nan", "epochs-negative", "epochs-float"],
    )
    def test_bad_inputs_refused_before_building(self, rng, monkeypatch, change, error, match):
        calls = []
        monkeypatch.setattr(embedding, "build_pair", lambda *args, **kw: calls.append(args))
        xs, ys = self._margined_data(rng, m=4)
        g = embedding.poly_g([0.5, 1.0 / 6.0], lipschitz=1 / 6, domain_max=3.0)
        args = dict(points=xs, labels=ys, g=g, B=1.0, epsilon=0.1, epochs=5)
        with pytest.raises(error, match=match):
            embedding.train_on_cube(**{**args, **change})
        assert calls == []

    def test_lift_kernel_refuses_a_bare_function(self):
        pair = embedding.build_pair(2, 0.4, seed=0)
        with pytest.raises(TypeError, match="StronglyEuclideanG profile .*, got function"):
            embedding.lift_kernel(lambda a: a, pair)

    def test_sdca_trains_on_a_psd_gram(self, rng, monkeypatch):
        trained = []
        sdca_solve = learners.sdca_solve

        def spy(k, where, *args):
            trained.append((np.array(k), np.array(where)))
            return sdca_solve(k, where, *args)

        monkeypatch.setattr(learners, "sdca_solve", spy)
        xs, ys = self._margined_data(rng, m=60)
        g = embedding.poly_g([0.25, 0.5 / 3, 0.25 / 9], lipschitz=1 / 3, domain_max=3.0)
        model = embedding.train_on_cube(xs, ys, g, B=1.0, epsilon=0.1, seed=0, epochs=5)
        gram = model.kernel.gram(list(model.support))
        ((shifted, where),) = trained
        assert np.array_equal(where, np.arange(len(xs)))  # one row per point
        assert model.report["gram_diagonal_shift"] > 0.0  # this sample's Gram is indefinite
        eig = np.linalg.eigvalsh(shifted)
        assert eig[0] >= -1e-9 * eig[-1]
        off = ~np.eye(len(xs), dtype=bool)
        assert np.array_equal(shifted[off], gram[off])
        assert np.array_equal(np.diag(shifted), np.diag(gram) + model.report["gram_diagonal_shift"])

    def test_report_certifies_the_shifted_problem(self, rng):
        xs, ys = self._margined_data(rng, m=60)
        g = embedding.poly_g([0.25, 0.5 / 3, 0.25 / 9], lipschitz=1 / 3, domain_max=3.0)
        model, again = (embedding.train_on_cube(xs, ys, g, B=1.0, epsilon=0.1, seed=3) for _ in range(2))
        assert model.alphas.tobytes() == again.alphas.tobytes() and model.report == again.report
        report = model.report
        assert report["algo"] == "sdca" and report["converged"] and 0 < report["epochs"] <= 200
        objective, lam = report["objective"], report["lambda"]
        assert report["gap"] <= learners._SDCA_TOL * (1.0 + abs(objective))
        shifted = model.kernel.gram(list(model.support)) + report["gram_diagonal_shift"] * np.eye(len(xs))
        primal = primal_value(HINGE, ys, lam, shifted, model.alphas)
        dual = dual_value(HINGE, ys, lam, shifted, model.alphas)
        assert primal == pytest.approx(objective, rel=1e-12)
        assert primal - dual == pytest.approx(report["gap"], rel=1e-9, abs=1e-12)


def summary_tolerance(model):
    """The stated bound on |summary - alphas @ cross_gram|: 1e-12 (1 + sum|alpha| (|c0| + n |c1|))."""
    c0, c1 = (*model.kernel.g.coeffs, 0.0)[:2]
    return 1e-12 * (1.0 + np.abs(model.alphas).sum() * (abs(c0) + model.pair.n * abs(c1)))


class TestEmbeddedPrediction:
    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(5)
        xs = rng.random((20, 2))
        ys = np.where(xs.sum(axis=1) > 1.0, 1.0, -1.0)
        g = embedding.poly_g([0.5, 0.25], lipschitz=0.25, domain_max=2.0)
        return embedding.train_on_cube(xs, ys, g, B=1.0, epsilon=0.3, seed=0, epochs=20)

    def test_single_equals_batch(self, model):
        @settings(max_examples=40, deadline=None)
        @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), max_size=8))
        def check(rows):
            batch = model.predict_many(np.array(rows).reshape(-1, 2))
            assert batch.shape == (len(rows),)
            for j, x in enumerate(rows):
                assert model.predict(x) == model.predict_many([x])[0] == batch[j]

        check()

    def test_batch_equals_lifted_cross_gram(self, model):
        @settings(max_examples=40, deadline=None)
        @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), max_size=8))
        def check(rows):
            xs = np.array(rows).reshape(-1, 2)
            queries = embedding.embed(model.pair, 2, xs)
            want = model.alphas @ model.kernel.cross_gram(model.support, queries)
            assert model._summary is not None  # g = 0.5 + a/4 on [0, n]
            assert np.abs(model.predict_many(xs) - want).max(initial=0.0) <= summary_tolerance(model)

        check()

    @pytest.mark.parametrize(
        "coeffs, lipschitz, domain_max",
        [([0.5, 0.25, 0.125], 0.75, 2.0), ([0.5, 0.25], 0.25, 0.5), ([0.5, 0.25, -0.5], 0.75, 1.0)],
        ids=["degree-2", "domain_max-below-n", "both"],
    )
    def test_other_profiles_equal_lifted_cross_gram_exactly(self, model, coeffs, lipschitz, domain_max):
        g = embedding.poly_g(coeffs, lipschitz=lipschitz, domain_max=domain_max)
        other = embedding.EmbeddedModel(embedding.lift_kernel(g, model.pair), model.support, model.alphas, {})
        assert other._summary is None
        corner = embedding.embed(model.pair, 2, np.ones(2))  # reaches past the two domain_max below n
        assert model.pair.cell_inner(other._cells, corner.cells[None, :]).max() / model.pair.t > 1.0

        @settings(max_examples=40, deadline=None)
        @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), max_size=8))
        def check(rows):
            xs = np.array([[1.0, 1.0], *rows])
            queries = embedding.embed(model.pair, 2, xs)
            want = other.alphas @ other.kernel.cross_gram(other.support, queries)
            assert np.array_equal(other.predict_many(xs), want)
            for x in xs:
                assert other.predict(x) == other.predict_many([x])[0]

        check()

    @settings(max_examples=60, deadline=None)
    @given(small_pairs(drawn_cells=True), st.data())
    def test_summary_within_tolerance_on_drawn_pairs(self, pair, data):
        n, coef = pair.n, st.floats(-8.0, 8.0)
        c0, c1 = data.draw(coef), data.draw(st.just(0.0) | coef)
        coeffs = data.draw(st.sampled_from([(c0,), (c0, c1)]))
        g = embedding.poly_g(coeffs, lipschitz=abs(c1), domain_max=data.draw(st.floats(n, n + 2.0)))
        vectors = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        xs = np.array(data.draw(st.lists(vectors, min_size=1, max_size=6)))
        alphas = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(xs), max_size=len(xs)))
        model = embedding.EmbeddedModel(
            embedding.lift_kernel(g, pair), tuple(embedding.embed(pair, 1, xs)), np.array(alphas), {}
        )
        assert model._summary is not None
        ys = np.array(data.draw(st.lists(vectors, max_size=6))).reshape(-1, n)
        want = model.alphas @ model.kernel.cross_gram(model.support, embedding.embed(pair, 2, ys))
        got = model.predict_many(ys)
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= summary_tolerance(model)
        for y in ys:
            assert model.predict(y) == model.predict_many([y])[0]

    @settings(max_examples=80, deadline=None)
    @given(small_pairs(drawn_cells=True, max_n=10), st.data())
    def test_single_and_batch_sum_in_one_order(self, pair, data):
        """predict and predict_many agree bit for bit, past numpy's 8-wide
        pairwise row sum too; against that row sum (the earlier batch form)
        they are exact for n < 8 and within n eps (|c0 sum(alpha)| + sum_c
        |w_c[x_c]|) from n = 8 on."""
        n, grid = pair.n, pair.grid.tolist()
        c0, c1 = data.draw(st.floats(-8.0, 8.0)), data.draw(st.floats(-8.0, 8.0))
        g = embedding.poly_g([c0, c1], lipschitz=abs(c1), domain_max=float(n))
        xs = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), min_size=1)))
        alphas = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=len(xs), max_size=len(xs)))
        model = embedding.EmbeddedModel(
            embedding.lift_kernel(g, pair), tuple(embedding.embed(pair, 1, xs)), np.array(alphas), {}
        )
        edges = [0.0, 1.0, -1e-12, 1.0 + 1e-12]
        coord = st.floats(0.0, 1.0) | st.sampled_from(edges) | st.sampled_from(grid)
        queries = data.draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=12))
        ys = np.array([*queries, [0.0] * n, [1.0] * n])
        batch = model.predict_many(ys)
        for y, want in zip(ys, batch):
            assert np.float64(model.predict(y)).tobytes() == want.tobytes()
        const, w = model._summary[:2]
        terms = w[np.arange(n), pair.grid_indices(ys)]
        row_sum = const + terms.sum(axis=1)
        if n < 8:
            assert batch.tobytes() == row_sum.tobytes()
        else:
            bound = n * np.finfo(float).eps * (abs(const) + np.abs(terms).sum(axis=1))
            assert np.all(np.abs(batch - row_sum) <= bound)

    def test_model_is_frozen(self, model):
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.alphas = -model.alphas
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.kernel = None

    def test_support_must_be_role_1(self, model):
        support = embedding.embed(model.pair, 2, np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="role 1"):
            embedding.EmbeddedModel(model.kernel, tuple(support), np.ones(1), {})

    def test_pair_is_the_kernels(self, model):
        assert model.pair is model.kernel.pair
        other = embedding.build_pair(2, 0.3, seed=1)  # same shape, other cells
        support = tuple(embedding.embed(other, 1, np.array([[0.5, 0.5]])))
        with pytest.raises(ValueError, match="this kernel's pair"):
            embedding.EmbeddedModel(model.kernel, support, np.ones(1), {})

    @pytest.mark.parametrize(
        "alphas, match",
        [
            (np.ones(19), "support and alphas length mismatch: 20 points, 19 alphas"),
            (np.ones((20, 1)), r"alphas must be a 1-d vector, got shape \(20, 1\)"),
            (np.r_[np.ones(19), np.nan], r"alphas must be finite, got alphas\[19\] = nan"),
        ],
        ids=["length", "2-d", "nan"],
    )
    def test_bad_alphas_refused_at_construction(self, model, alphas, match):
        with pytest.raises(ValueError, match=match):
            embedding.EmbeddedModel(model.kernel, model.support, alphas, {})

    def test_empty_batch(self, model):
        assert model.predict_many([]).shape == (0,)
        assert model.predict_many(np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.array([0.5, 0.5]), r"\(m, 2\) batch"),
            (np.full((3, 3), 0.5), r"\(m, 2\) batch"),
            (np.full((2, 2, 2), 0.5), r"\(m, 2\) batch"),
            (np.array([[0.5, 1.2]]), r"\[0, 1\]"),
            (np.array([[-0.1, 0.5]]), r"\[0, 1\]"),
            (np.array([[0.5, np.nan]]), r"\[0, 1\], got nan"),
        ],
    )
    def test_bad_batch_rejected(self, model, bad, match):
        with pytest.raises(ValueError, match=match):
            model.predict_many(bad)
        if bad.shape == (1, 2):
            with pytest.raises(ValueError, match=match):
                model.predict(bad[0])

    @pytest.mark.parametrize(
        "bad, match",
        [
            (0.5, r"length-2 vector, got shape \(\)"),
            ([0.1, 0.2, 0.3], r"length-2 vector, got shape \(3,\)"),
            ([[0.1, 0.2]], r"length-2 vector, got shape \(1, 2\)"),
            ([[[0.1, 0.2]]], r"length-2 vector, got shape \(1, 1, 2\)"),
            ([0.5, 1.0 + 2e-12], r"\[0, 1\], got 1.000000000002"),
            ([-2e-12, 0.5], r"\[0, 1\], got -2e-12"),
            ([np.nan, 0.5], r"\[0, 1\], got nan"),
        ],
        ids=["scalar", "length-3", "one-row", "nested-row", "above", "below", "nan"],
    )
    @pytest.mark.parametrize("summary", [True, False], ids=["summary", "tables"])
    def test_bad_point_rejected_as_a_vector(self, model, bad, match, summary):
        if not summary:
            g = embedding.poly_g([0.5, 0.25, 0.125], lipschitz=0.75, domain_max=2.0)
            model = embedding.EmbeddedModel(embedding.lift_kernel(g, model.pair), model.support, model.alphas, {})
        assert (model._summary is not None) == summary
        with pytest.raises(ValueError, match=match):
            model.predict(bad)

    def test_range_edges_accepted(self, model):
        low, high = np.array([-1e-12, 0.5]), np.array([0.5, 1.0 + 1e-12])
        assert model.predict(low) == model.predict([0.0, 0.5]) == model.predict_many([low])[0]
        assert model.predict(high) == model.predict([0.5, 1.0]) == model.predict_many([high])[0]


DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    # against this checkout's src/, whatever PYTHONPATH or cwd the suite itself was run with
    src = os.path.abspath(os.path.join(DEMOS, os.pardir, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: embedding.build_pair(2, 1.5), ValueError, "epsilon must be in (0, 1)"),
        (lambda: embedding.build_pair(0, 0.3), ValueError, "n must be positive"),
        (lambda: embedding.embed(embedding.build_pair(2, 0.4), 3, [0.5, 0.5]), ValueError, "role must be 1 or 2"),
        (lambda: embedding.train_on_cube([0.5, 0.2], [1.0, -1.0], embedding.poly_g([1.0], 0.0, 2.0), 1.0, 0.5),
         ValueError, "points must be an (m, n) array"),
        (lambda: embedding.train_on_cube([[0.5, 0.2]], [1.0], embedding.poly_g([1.0], 0.0, 2.0), "1", 0.5),
         TypeError, "B must be a number, got str '1'"),
    ],
    ids=["pair-epsilon", "pair-n", "embed-role", "train-1d-points", "train-B-str"],
)
def test_boundary_errors_named(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message

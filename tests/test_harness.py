"""Datasets, file round-trips, verification suite, benchmarks, CLI surface.

Core claims:
    - conjunction datasets have exact labels, honest noise, warn on
      layers the conjunction can never fire on, and refuse an m below 1 or
      not an integer by name; at
      n = 64 every draw succeeds, with int bit masks, also through bench
    - the bulk uint32 draw gives the points, label bytes, meta and generator
      state of one rng.choice per point, across chunks, through a Lemire
      rejection and above numpy's Floyd population, and pegasos-cube- and
      mkl-cube-shaped dataset files keep their golden sha256
    - save -> load is bit-exact for both point flavors and for analytic
      conjunction models; reports regenerate their datasets exactly
    - load_model names the file and the key of a model file that is not an
      object, lacks spec, support or alphas, whose support is not a list
      of bitstrings, whose alphas are not a list of numbers or whose report
      is not an object, and names
      the file and the layer of a malformed spec; evaluate_losses refuses
      predictions and labels of different shapes
    - verify_suite passes clean and names (module, check, params) under each
      documented fault injection, and refuses a max_n or trial count that
      is not an integer; a wrong conjugate box swapped into learners.HINGE
      fails its fenchel_young check, naming the loss and y
    - bench: the analytic conjunction model has zero test error noiseless,
      and nothing beats coin flipping at noise 1/2; Pegasos runs report the
      trainer's own objective and gap
    - the model file's per-layer report is the one mkl_train returns, and
      no edit through the model's read-only report reaches the file
    - the CLI emits the promised JSON schemas, is byte-deterministic for a
      fixed seed, and uses exit codes 0/1/2; train reports each layer's
      saddle gap, its converged and inner_converged flags, beta
      steps and SDCA epochs, and train and bench warn on stderr, even with
      --quiet, when either flag is false; embed build reports each coordinate's build
      attempts and worst deviation (within eps/n); embed apply writes the
      role-1 table rows of each point's grid cells; a bad kernel spec (not
      an object, layers not a list of objects, a layer weight above n, a
      weight given twice, a non-finite beta, a non-integral n or p), a
      dataset record without "x" or "y", a bad dataset
      value, negative epochs or outer steps, a B that is not finite and
      positive or an eps outside (0, 1) for train, bench and rademacher, a
      non-finite lam, a bench literal count outside [0, n], a conjunction
      t_scale that is not finite and non-negative, a verify run
      with nothing to check, a non-finite scheme beta, a c_t that is not
      finite and positive or too small for the build's self-check, an embed
      apply line without "x", not JSON or with an x of the wrong shape or
      width (leaving no output file), an embed apply pair file shorter than
      its header or in the version-1 layout, rademacher on real vectors, and
      output or a model file holding a non-finite number exit 2 (or raise)
      with a named error
    - load_dataset names the line and the key a record lacks, a label that
      is not a number, an x that is neither a bitstring nor a list of
      numbers, a point of another dimension, and a line that is not JSON
    - Dataset names a point/label count mismatch and non-finite labels,
      gen_conjunction_dataset a literal or a layer weight out of range, a
      literal, weight, n or seed that is not an integer, an n below 1 and a
      negative seed,
      regenerate an unknown generator, save_dataset a non-finite coordinate
      and load_dataset a file of blank lines
"""

import dataclasses
import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nested_v1_pair_file
from cubekern import cli, embedding, harness, kernels, learners
from cubekern.harness import gen_conjunction_dataset
from cubekern.kernels import HypercubePoint


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "cubekern.cli", *argv],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


class TestDatasetGeneration:
    def test_empty_conjunction_all_ones(self):
        data = gen_conjunction_dataset(8, [], "sparse", 3, 50, 0.0, seed=0)
        assert np.array_equal(data.labels, np.ones(50))

    def test_exact_labels(self):
        data = gen_conjunction_dataset(8, [0, 1], "sparse", 3, 100, 0.0, seed=1)
        for pt, y in zip(data.points, data.labels):
            bits = pt.to_string()
            assert y == (1.0 if bits[0] == "1" and bits[1] == "1" else 0.0)
            assert pt.weight == 3

    def test_uniform_layer_mode(self):
        data = gen_conjunction_dataset(6, [2], "uniform_layer", 4, 60, 0.0, seed=2)
        assert all(pt.weight == 4 for pt in data.points)

    def test_full_noise_decorrelates(self):
        m = 400
        data = gen_conjunction_dataset(8, [0], "sparse", 3, m, 0.5, seed=3)
        truth = np.array([1.0 if pt.to_string()[0] == "1" else 0.0 for pt in data.points])
        corr = np.corrcoef(truth, data.labels)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(m)

    def test_top_coordinate_of_64_bits(self):
        # numpy indices once made 1 << 63 negative, so most n = 64 draws failed
        assert HypercubePoint.from_indices(64, np.array([63, 0])).bits == (1 << 63) | 1
        for seed in range(20):
            data = gen_conjunction_dataset(64, [0, 1], "sparse", 4, 30, 0.0, seed=seed)
            assert all(type(pt.bits) is int and pt.weight == 4 for pt in data.points)
        run_cli("bench", "--n", "64", "--s", "4", "--literals", "2", "--m", "50", "--algo", "universal")

    def test_infeasible_layer_warns(self):
        with pytest.warns(UserWarning, match="below literal count"):
            data = gen_conjunction_dataset(8, [0, 1, 2], "sparse", 2, 30, 0.0, seed=4)
        assert np.array_equal(data.labels, np.zeros(30))

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            gen_conjunction_dataset(8, [0], "weird", 3, 10, 0.0, seed=0)
        with pytest.raises(ValueError, match="noise"):
            gen_conjunction_dataset(8, [0], "sparse", 3, 10, 1.5, seed=0)
        for m in (0, -1):
            with pytest.raises(ValueError, match=f"m must be at least 1, got {m}"):
                gen_conjunction_dataset(8, [0], "sparse", 3, m, 0.0, seed=0)
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            gen_conjunction_dataset(8, [0], "sparse", 3, 2.5, 0.0, seed=0)


def _per_point_dataset(n, literals, mode, weight, m, noise_rate, seed):
    """gen_conjunction_dataset as it was before its bulk draw: one
    ``rng.choice`` per point, the reference the bulk draw must equal."""
    rng = np.random.default_rng(seed)
    lits = sorted(set(literals))
    mask = HypercubePoint.from_indices(n, lits).bits if lits else 0
    points = []
    base = np.empty(m)
    for i in range(m):
        pt = HypercubePoint.from_indices(n, rng.choice(n, size=weight, replace=False))
        points.append(pt)
        base[i] = 1.0 if (pt.bits & mask) == mask else 0.0
    flips = rng.random(m) < noise_rate
    meta = {"generator": "conjunction", "seed": seed, "parameters": {
        "n": n, "literals": lits, "mode": mode, "weight": weight, "m": m, "noise_rate": noise_rate}}
    return points, np.where(flips, 1.0 - base, base), meta


def _assert_same_as_per_point(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # layers below the literal count are part of the draw
        got = gen_conjunction_dataset(*args)
    points, labels, meta = _per_point_dataset(*args)
    assert [(pt.n, pt.bits) for pt in got.points] == [(pt.n, pt.bits) for pt in points]
    assert got.labels.tobytes() == labels.tobytes()
    assert got.meta == meta


def _assert_masks_and_state_as_choice(n, weight, m, seed):
    bulk, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    masks = harness._choice_masks(bulk, n, weight, m)
    assert masks == [HypercubePoint.from_indices(n, ref.choice(n, size=weight, replace=False)).bits for _ in range(m)]
    assert bulk.bit_generator.state == ref.bit_generator.state


class TestBulkDraw:
    """The bulk uint32 draw against the per-point ``rng.choice`` it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_datasets_equal_the_per_point_draw(self, data):
        n = data.draw(st.one_of(st.integers(1, 64), st.sampled_from([65, 100])), label="n")
        literals = data.draw(st.lists(st.integers(0, n - 1), max_size=min(n, 4), unique=True), label="literals")
        _assert_same_as_per_point(
            n,
            literals,
            data.draw(st.sampled_from(["uniform_layer", "sparse"]), label="mode"),
            data.draw(st.integers(0, n), label="weight"),
            data.draw(st.integers(1, 40), label="m"),
            data.draw(st.floats(0.0, 1.0), label="noise_rate"),
            data.draw(st.integers(0, 2**64 - 1), label="seed"),
        )

    @pytest.mark.parametrize("n", [*range(1, 10), 31, 32, 63, 64, 65, 100])
    def test_every_weight_leaves_the_generator_where_choice_does(self, n):
        for weight in range(n + 1):
            _assert_masks_and_state_as_choice(n, weight, 9, n)

    def test_above_the_floyd_population_choice_draws_each_point(self):
        # numpy's choice tail-shuffles once w > n // 50 above 10,000 values
        for weight in (3, 250):
            _assert_same_as_per_point(10_001, [0, 9_999], "sparse", weight, 3, 0.5, 7)

    @pytest.mark.parametrize("block", [None, 63 * 250])
    def test_a_rejected_draw_is_redrawn_as_choice_does(self, monkeypatch, block):
        # point 1630's 17th draw, over range 49, is one Lemire rejects; with
        # the smaller block it falls in the 7th of 40 chunks
        if block is not None:
            monkeypatch.setattr(kernels, "_BLOCK_ELEMS", block)
        _assert_same_as_per_point(64, [3, 40], "uniform_layer", 32, 10_000, 0.2, 568)
        for m in (1631, 1700):  # ending on the redrawn point, and past it
            _assert_masks_and_state_as_choice(64, 32, m, 568)

    def test_draws_spanning_many_chunks(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", 100)  # 14 points of 7 draws a chunk
        _assert_same_as_per_point(16, [2, 7], "sparse", 4, 200, 0.1, 3)

    @pytest.mark.parametrize(
        "parts, digest",
        [
            ([(16, [2, 7], "sparse", 4, 3000, 0.1, 101)],
             "582671f8db80ed5617cbfa32c4ad688546779c0ea38fb2a752a5b1e853e3577c"),
            ([(16, [2, 7], "sparse", 4, 2000, 0.1, 102)],
             "3a7898d8f1b51959f0e02903de1bae03f602a3994ed2f4234083a4dd14f3cff6"),
            ([(16, [5, 9], "uniform_layer", w, 300, 0.1, 201 + j) for j, w in enumerate((3, 6, 12))],
             "2aef04d6c049084282b0b1c7dab7424488e66a36a2d143845a3d3b8b40ec4058"),
        ],
        ids=["pegasos-cube-train", "pegasos-cube-holdout", "mkl-cube-train"],
    )
    def test_golden_dataset_files(self, tmp_path, parts, digest):
        # a numpy release that changes Generator.choice or the PCG64 stream
        # changes these bytes: NEP 19 fixes streams, not Generator methods
        datasets = [gen_conjunction_dataset(*args) for args in parts]
        points = [pt for d in datasets for pt in d.points]
        path = tmp_path / "d.jsonl"
        harness.save_dataset(harness.Dataset(16, points, np.concatenate([d.labels for d in datasets])), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestRoundTrips:
    def test_hypercube_dataset(self, tmp_path):
        data = gen_conjunction_dataset(10, [1, 5], "sparse", 4, 40, 0.3, seed=7)
        path = str(tmp_path / "d.jsonl")
        harness.save_dataset(data, path)
        back = harness.load_dataset(path)
        assert back.n == data.n
        assert all(a.bits == b.bits for a, b in zip(back.points, data.points))
        assert np.array_equal(back.labels, data.labels)

    def test_real_vector_dataset(self, tmp_path, rng):
        pts = [rng.random(3) for _ in range(20)]
        labels = rng.normal(size=20)
        data = harness.Dataset(3, pts, labels, meta={})
        path = str(tmp_path / "r.jsonl")
        harness.save_dataset(data, path)
        back = harness.load_dataset(path)
        assert all(np.array_equal(a, b) for a, b in zip(back.points, data.points))
        assert np.array_equal(back.labels, data.labels)

    @pytest.mark.parametrize("bad, key", [('{"y": 1}', "x"), ('{"x": "0110"}', "y"), ("[1, 2]", "x")])
    def test_record_without_key_rejected(self, tmp_path, bad, key):
        path = str(tmp_path / "d.jsonl")
        with open(path, "w") as fh:
            fh.write(f'{{"x": "1100", "y": 1}}\n\n{bad}\n')
        with pytest.raises(ValueError, match=f"d.jsonl:3: record has no '{key}' key"):
            harness.load_dataset(path)

    def test_model_round_trip(self, tmp_path):
        data = gen_conjunction_dataset(6, [0], "sparse", 2, 12, 0.0, seed=5)
        y = 2.0 * data.labels - 1.0
        model = learners.pegasos_train(
            kernels.universal_kernel(6), list(data.points), y, lam=0.1, epochs=30, seed=0
        )
        path = str(tmp_path / "m.json")
        harness.save_model(model, path)
        back = harness.load_model(path)
        assert np.array_equal(back.alphas, model.alphas)
        assert np.array_equal(back.predict_many(data.points), model.predict_many(data.points))

    @pytest.mark.parametrize("n, s, literals", [(6, 2, [0]), (12, 4, [1, 5]), (8, 6, [0, 2, 7]), (64, 40, [63])])
    def test_analytic_model_round_trip(self, tmp_path, n, s, literals):
        # sparse-conjunction layers are certified on load when 2s <= n
        model = kernels.analytic_weights(n, s, literals)
        path = str(tmp_path / "m.json")
        harness.save_model(model, path)
        back = harness.load_model(path)
        data = gen_conjunction_dataset(n, literals, "sparse", s, 20, 0.0, seed=3)
        assert np.array_equal(back.spec.tables[s], model.spec.tables[s])
        assert np.array_equal(back.predict_many(data.points), model.predict_many(data.points))

    def test_model_file_refuses_non_finite_numbers(self, tmp_path):
        model = kernels.analytic_weights(6, 2, [0])
        bad = kernels.TrainedModel(model.spec, model.support, model.alphas, {"objective": math.nan})
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            harness.save_model(bad, str(path))
        assert not path.exists()

    def test_model_file_with_non_finite_beta_rejected(self, tmp_path):
        model = kernels.analytic_weights(6, 2, [0])
        obj = harness.model_json_dict(model, model.report)
        obj["spec"]["layers"][0]["beta"][1] = math.nan
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="kernel spec layers\\[0\\]: beta must be finite"):
            harness.load_model(str(path))

    @staticmethod
    def assert_model_file_refused(tmp_path, obj, match):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"m.json: {match}"):
            harness.load_model(str(path))

    @pytest.mark.parametrize("key", ["spec", "support", "alphas"])
    def test_model_file_without_key_named(self, tmp_path, key):
        obj = harness.model_json_dict(kernels.analytic_weights(6, 2, [0]), {})
        del obj[key]
        self.assert_model_file_refused(tmp_path, obj, f"model has no '{key}' key")

    def test_model_file_of_the_wrong_shape_named(self, tmp_path):
        obj = harness.model_json_dict(kernels.analytic_weights(6, 2, [0]), {})
        self.assert_model_file_refused(tmp_path, [obj], "model has no 'spec' key")
        for support in ([3], "1100"):
            obj["support"] = support
            self.assert_model_file_refused(tmp_path, obj, "model 'support' must be a list of bitstrings")

    @pytest.mark.parametrize("alphas", [{"a": 1}, ["x"]])
    def test_model_file_with_malformed_alphas_named(self, tmp_path, alphas):
        obj = harness.model_json_dict(kernels.analytic_weights(6, 2, [0]), {})
        obj["alphas"] = alphas
        self.assert_model_file_refused(tmp_path, obj, "model 'alphas' must be a list of numbers")

    @pytest.mark.parametrize("report", ["converged", [1.0]])
    def test_model_file_with_a_report_not_an_object_named(self, tmp_path, report):
        obj = harness.model_json_dict(kernels.analytic_weights(6, 2, [0]), {})
        obj["report"] = report
        self.assert_model_file_refused(tmp_path, obj, "model 'report' must be a JSON object")

    def test_a_trained_report_is_read_only(self, tmp_path):
        data = gen_conjunction_dataset(6, [0], "uniform_layer", 2, 16, 0.0, seed=2)
        model = learners.mkl_train(list(data.points), 2.0 * data.labels - 1.0, 1.0, 0.3, outer_iters=40)
        harness.save_model(model, str(tmp_path / "a.json"))
        layer = model.report["per_layer"]["2"]
        for target, key in ((model.report, "gap"), (model.report["per_layer"], "2"), (layer, "converged")):
            with pytest.raises(TypeError):
                target[key] = "edited"
        with pytest.raises(TypeError):
            layer["beta"][0] = 9.0
        harness.save_model(model, str(tmp_path / "b.json"))
        assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()
        # the model keeps a copy: editing the dict it was built from changes nothing
        report = {"per_layer": {"2": {"converged": True}}}
        copy = kernels.TrainedModel(model.spec, model.support, model.alphas, report)
        report["per_layer"]["2"]["converged"] = "edited"
        assert copy.report["per_layer"]["2"]["converged"] is True

    def test_model_file_with_malformed_spec_names_the_file(self, tmp_path):
        obj = harness.model_json_dict(kernels.analytic_weights(6, 2, [0]), {})
        obj["spec"]["layers"][0]["p"] = 1.5
        self.assert_model_file_refused(tmp_path, obj, r"kernel spec layers\[0\]: 'p' must be an integer")

    def test_report_regenerates_dataset(self):
        report = harness.bench_conjunction(8, 3, 2, 25, "sparse-analytic", 1.0, 0.1, seed=11)
        regen = harness.regenerate(report["train_meta"])
        original = gen_conjunction_dataset(
            8,
            report["config"]["literals"],
            "sparse",
            3,
            25,
            0.0,
            harness.stream_seed(11, 1),
        )
        assert all(a.bits == b.bits for a, b in zip(regen.points, original.points))
        assert np.array_equal(regen.labels, original.labels)


class TestVerifySuite:
    def test_clean_build_passes(self):
        verdict = harness.verify_suite(max_n=5, trials=30, seed=0)
        assert verdict["passed"]
        assert verdict["failures"] == []
        assert len(verdict["checks"]) == 8

    @pytest.mark.parametrize("fault", harness.FAULT_TAGS)
    def test_fault_injection_named(self, fault):
        verdict = harness.verify_suite(max_n=4, trials=10, seed=0, fault=fault)
        assert not verdict["passed"]
        assert len(verdict["failures"]) == 1
        failure = verdict["failures"][0]
        assert failure["module"]
        assert failure["check"]
        assert failure["params"]

    def test_beta_off_the_capped_simplex_named(self, monkeypatch):
        # a beta off the capped simplex bounds nothing: 1.5 beta is refused before any
        # bound is compared, in mix_vertices' words, and so is a negative weight
        verdict = harness.verify_suite(max_n=4, trials=10, seed=0, fault="unnormalized_beta")
        check = next(c for c in verdict["checks"] if c["check"] == "mkl_saddle")
        assert not check["passed"] and check["detail"] == "mixture weights sum to 1.5 > 1"
        solve = learners.mkl_layer_solve

        def negative_weight(*args, **kwargs):
            sol = solve(*args, **kwargs)
            sol.beta[0] = -1e-9
            return sol

        monkeypatch.setattr(learners, "mkl_layer_solve", negative_weight)
        verdict = harness.verify_suite(max_n=4, trials=10, seed=0)
        check = next(c for c in verdict["checks"] if c["check"] == "mkl_saddle")
        assert not check["passed"] and check["detail"] == "negative mixture weight"

    def test_a_wrong_conjugate_box_fails_fenchel_young(self, monkeypatch):
        # half the hinge box: sup_a a (z - y) over it is half the hinge loss
        box = learners.HINGE.conjugate_domain

        def half_box(y):
            lo, hi = box(y)
            return 0.5 * lo, 0.5 * hi

        monkeypatch.setattr(learners, "HINGE", dataclasses.replace(learners.HINGE, conjugate_domain=half_box))
        verdict = harness.verify_suite(max_n=4, trials=10, seed=0)
        assert not verdict["passed"]
        failure = next(f for f in verdict["failures"] if f["check"] == "fenchel_young")
        assert failure["module"] == "learners"
        assert failure["params"]["loss"] == "hinge" and failure["params"]["y"] == -1.0

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="fault"):
            harness.verify_suite(fault="nope")

    @pytest.mark.parametrize("name", ["max_n", "trials"])
    def test_non_integral_counts_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 2.5"):
            harness.verify_suite(**{name: 2.5})

    @pytest.mark.parametrize("name", ["max_n", "trials"])
    def test_boolean_counts_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
            harness.verify_suite(**{name: True})


class TestLossEvaluation:
    def test_pm1_convention(self):
        losses = harness.evaluate_losses(np.array([1.0, -1.0]), np.array([1.0, 1.0]), "pm1")
        assert losses["hinge"] == pytest.approx(1.0)  # (0 + 2)/2
        assert losses["zero_one"] == 0.5
        assert losses["absolute"] == 1.0

    def test_zero_one_convention(self):
        losses = harness.evaluate_losses(np.array([1.0, 0.0]), np.array([1.0, 1.0]), "zero_one")
        assert losses["zero_one"] == 0.5
        assert losses["absolute"] == 0.5

    @pytest.mark.parametrize("preds", [[1.0], [1.0, 0.0, 1.0], [[1.0, 0.0]]])
    def test_mismatched_lengths_refused(self, preds):
        with pytest.raises(ValueError, match="predictions have shape"):
            harness.evaluate_losses(np.array(preds), np.array([1.0, 0.0]), "pm1")


class TestBench:
    def test_sparse_analytic_exact(self):
        report = harness.bench_conjunction(12, 4, 3, 80, "sparse-analytic", 1.0, 0.1, seed=0)
        assert report["test_losses"]["zero_one"] == 0.0
        assert report["train_losses"]["zero_one"] == 0.0

    def test_full_noise_information_null(self):
        m = 200
        report = harness.bench_conjunction(
            10, 3, 2, m, "sparse-analytic", 1.0, 0.1, seed=5, noise_rate=0.5
        )
        assert report["test_losses"]["zero_one"] >= 0.5 - 3.0 / math.sqrt(m)

    def test_mkl_bench_reports_layers(self):
        report = harness.bench_conjunction(
            6, 2, 1, 24, "mkl", 1.0, 0.3, seed=2, outer_iters=60
        )
        assert report["per_layer"]
        assert report["gap"] is not None
        assert "wall_seconds" not in report
        json.dumps(report)  # serializable

    @pytest.mark.parametrize("algo", ["universal", "conjunction"])
    def test_pegasos_bench_reports_the_trainer_s_own_certificate(self, algo):
        n, s, m, seed = 8, 3, 30, 4
        report = harness.bench_conjunction(n, s, 2, m, algo, 1.0, 0.2, seed=seed, epochs=20)
        literals = report["config"]["literals"]
        train = gen_conjunction_dataset(n, literals, "sparse", s, m, 0.0, harness.stream_seed(seed, 1))
        spec = kernels.universal_kernel(n) if algo == "universal" else kernels.conjunction_kernel(n, s, 0.2)
        y = 2.0 * train.labels - 1.0
        model = learners.pegasos_train(spec, list(train.points), y, report["lambda"], 20, harness.stream_seed(seed, 3))
        assert report["gap"] is not None
        assert (report["objective"], report["gap"]) == (model.report["objective"], model.report["gap"])
        assert report["per_layer"] == {}

    def test_unknown_algo(self):
        with pytest.raises(ValueError, match="algo"):
            harness.bench_conjunction(6, 2, 1, 10, "magic", 1.0, 0.1, seed=0)


class TestCli:
    def test_scheme_delta_json(self):
        proc = run_cli("scheme", "delta", "--n", "4", "--p", "2", "--json")
        obj = json.loads(proc.stdout)
        assert obj["delta"] == [6.0, 6.0, 1.0, 0.0, 2.0, 1.0, 0.0, 0.0, 1.0]
        assert obj["eta"] == [1.0, 2.0, 1.0]
        assert obj["admissible"] is None

    def test_scheme_vertices_and_check(self):
        obj = json.loads(run_cli("scheme", "vertices", "--n", "4", "--p", "2").stdout)
        assert np.allclose(obj["vertices"][2], [1.0, -1.5, 3.0])
        obj = json.loads(
            run_cli("scheme", "check", "--n", "4", "--p", "2", "--beta", "0,0,2").stdout
        )
        assert obj["admissible"] is False
        assert "diagonal" in obj["violation"]
        assert obj["eigen_profile"] == [2.0, 2.0, 2.0]

    def test_kernel_universal_and_eval(self, tmp_path):
        spec_path = str(tmp_path / "u4.json")
        run_cli("kernel", "universal", "--n", "4", "--out", spec_path)
        obj = json.loads(
            run_cli("kernel", "eval", "--spec", spec_path, "--x", "1100", "--y", "0011").stdout
        )
        assert obj["value"] == pytest.approx(1 / 3)

    def test_train_and_model_file(self, tmp_path):
        data = gen_conjunction_dataset(6, [0], "sparse", 2, 20, 0.0, seed=3)
        data_path = str(tmp_path / "d.jsonl")
        harness.save_dataset(data, data_path)
        model_path = str(tmp_path / "model.json")
        run_cli(
            "train",
            "--algo",
            "pegasos",
            "--data",
            data_path,
            "--loss",
            "hinge",
            "--B",
            "1.0",
            "--eps",
            "0.2",
            "--seed",
            "0",
            "--epochs",
            "20",
            "--out",
            model_path,
        )
        obj = json.loads(open(model_path).read())
        assert set(obj) == {"spec", "support", "alphas", "report"}
        assert obj["report"]["label_mapping"].startswith("mapped")
        model = harness.load_model(model_path)
        assert len(model.support) == 20

    def test_train_deterministic_bytes(self, tmp_path):
        data = gen_conjunction_dataset(5, [1], "sparse", 2, 12, 0.0, seed=4)
        data_path = str(tmp_path / "d.jsonl")
        harness.save_dataset(data, data_path)
        outs = []
        for name in ("a.json", "b.json"):
            path = str(tmp_path / name)
            run_cli(
                "train", "--algo", "mkl", "--data", data_path, "--seed", "5",
                "--eps", "0.3", "--outer-iters", "40", "--out", path,
            )
            outs.append(open(path, "rb").read())
        assert outs[0] == outs[1]
        # the file's per-layer report is the one mkl_train returns
        y = 2.0 * data.labels - 1.0
        model = learners.mkl_train(list(data.points), y, 1.0, 0.3, outer_iters=40)
        assert harness.load_model(path).report["per_layer"] == model.report["per_layer"]

    def test_train_reports_inner_convergence(self, tmp_path, monkeypatch, capsys):
        data = gen_conjunction_dataset(6, [0], "uniform_layer", 2, 16, 0.0, seed=2)
        data_path = str(tmp_path / "d.jsonl")
        harness.save_dataset(data, data_path)
        argv = ["train", "--algo", "mkl", "--data", data_path, "--eps", "0.3", "--quiet"]
        ok_path = str(tmp_path / "ok.json")
        assert cli.main([*argv, "--outer-iters", "200", "--out", ok_path]) == 0
        per_layer = json.loads(open(ok_path).read())["report"]["per_layer"]
        assert per_layer and all(v["inner_converged"] is True for v in per_layer.values())
        assert all(v["converged"] is True and 0 < v["outer_steps"] < 200 for v in per_layer.values())
        assert all(v["inner_iters"] > v["outer_steps"] for v in per_layer.values())
        assert all(0.0 <= v["saddle_gap"] <= 1e-3 * (1.0 + abs(v["objective"])) for v in per_layer.values())
        assert "warning" not in capsys.readouterr().err

        # one beta step leaves the saddle gap above its tolerance: warned even with --quiet
        short_path = str(tmp_path / "short.json")
        assert cli.main([*argv, "--outer-iters", "1", "--out", short_path]) == 0
        per_layer = json.loads(open(short_path).read())["report"]["per_layer"]
        assert all(v["converged"] is False and v["outer_steps"] == 1 for v in per_layer.values())
        warnings = capsys.readouterr().err.strip().splitlines()
        assert len(warnings) == len(per_layer)
        assert all(w.startswith("warning: layer") and "saddle gap" in w for w in warnings)

        monkeypatch.setattr(learners, "_POLISH_TOL", 0.0)
        monkeypatch.setattr(learners, "_POLISH_STEPS", 0)
        capped_path = str(tmp_path / "capped.json")
        assert cli.main([*argv, "--outer-iters", "200", "--out", capped_path]) == 0
        per_layer = json.loads(open(capped_path).read())["report"]["per_layer"]
        assert all(v["inner_converged"] is False and v["inner_iters"] == v["outer_steps"] for v in per_layer.values())
        warnings = capsys.readouterr().err.strip().splitlines()
        assert len(warnings) == len(per_layer)
        assert all(w.startswith("warning: layer") and "polish" in w for w in warnings)

    def test_bench_warns_of_unconverged_layers_even_when_quiet(self, capsys):
        argv = ["bench", "--n", "10", "--s", "3", "--literals", "2", "--m", "60", "--algo", "mkl", "--quiet"]
        assert cli.main([*argv, "--outer-iters", "5"]) == 0
        out, err = capsys.readouterr()
        missed = [w for w, v in json.loads(out)["per_layer"].items() if not v["converged"]]
        warnings = err.splitlines()
        assert missed and len(warnings) == len(missed)
        assert all(line.startswith(f"warning: layer {w}: saddle gap") for line, w in zip(warnings, missed))
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_rademacher_fields(self, tmp_path):
        data = gen_conjunction_dataset(8, [0], "sparse", 3, 30, 0.0, seed=6)
        data_path = str(tmp_path / "d.jsonl")
        harness.save_dataset(data, data_path)
        obj = json.loads(
            run_cli("rademacher", "--data", data_path, "--B", "1.0", "--trials", "50").stdout
        )
        assert set(obj) == {"mean", "stderr", "bound", "trials", "layer_share"}
        assert obj["mean"] + 2 * obj["stderr"] <= obj["bound"]

    def test_embed_build_and_apply(self, tmp_path):
        pair_path = str(tmp_path / "pair.bin")
        obj = json.loads(
            run_cli(
                "embed", "build", "--n", "2", "--eps", "0.4", "--seed", "1", "--out", pair_path
            ).stdout
        )
        assert obj["width"] == obj["n"] * obj["t"]
        assert len(obj["attempts"]) == len(obj["max_deviation"]) == obj["n"]
        assert all(a >= 1 for a in obj["attempts"])
        assert all(0.0 <= d <= obj["eps"] / obj["n"] for d in obj["max_deviation"])
        pts_path = str(tmp_path / "pts.jsonl")
        with open(pts_path, "w") as fh:
            fh.write('{"x": [0.25, 0.75]}\n{"x": [1.0, 0.0]}\n')
        bits_path = str(tmp_path / "bits.jsonl")
        out = json.loads(
            run_cli(
                "embed", "apply", "--pair", pair_path, "--role", "1",
                "--in", pts_path, "--out", bits_path,
            ).stdout
        )
        assert out["count"] == 2
        lines = open(bits_path).read().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])["x"]
        assert set(first) <= {"0", "1"} and len(first) == obj["width"]
        # each bitstring is the role-1 rows of the point's grid cells, in
        # coordinate order, each row's bits in little-endian order
        pair = embedding.load_pair(pair_path)
        for line, x in zip(lines, ([0.25, 0.75], [1.0, 0.0])):
            rows = [
                np.unpackbits(coord.packed[0][cell], bitorder="little")[: pair.t]
                for coord, cell in zip(pair.coords, pair.grid_indices(x))
            ]
            assert json.loads(line)["x"] == "".join(map(str, np.concatenate(rows)))
        with open(pts_path, "w") as fh:
            fh.write('{"x": [[0.25, 0.75]]}\n')
        bad = run_cli(
            "embed", "apply", "--pair", pair_path, "--role", "1", "--in", pts_path, "--out", bits_path,
            check=False,
        )
        assert bad.returncode == 2 and "one vector per line" in bad.stderr

    def test_bench_cli(self):
        proc = run_cli(
            "bench", "--n", "8", "--s", "3", "--literals", "2", "--m", "30",
            "--algo", "sparse-analytic", "--seed", "0", "--quiet",
        )
        obj = json.loads(proc.stdout)
        assert obj["test_losses"]["zero_one"] == 0.0
        assert "wall_seconds" not in obj

    def test_verify_cli_clean_and_faulted(self):
        proc = run_cli("verify", "--max-n", "3", "--trials", "5", "--json")
        assert json.loads(proc.stdout)["passed"] is True
        bad = run_cli(
            "verify", "--max-n", "3", "--trials", "5", "--fault", "delta_sign", check=False
        )
        assert bad.returncode == 1
        verdict = json.loads(bad.stdout)
        failure = verdict["failures"][0]
        assert failure["check"] == "spectral_correctness"
        assert {"n", "p", "ell", "j"} <= set(failure["params"])

    def test_bad_inputs_exit_2_with_named_error(self, tmp_path, capsys):
        files = {
            "no_n.json": '{"kind": "universal", "layers": []}',
            "bogus.json": '{"n": 4, "kind": "bogus", "layers": []}',
            "d.jsonl": '{"x": "1100", "y": 1}\n{"x": "0011", "y": 0}\n',
            "no_y.jsonl": '{"x": "1100", "y": 1}\n{"x": "0011"}\n',
            "list.json": "[1, 2]",
            "null_n.json": '{"n": null, "kind": "universal", "layers": []}',
            "layers_obj.json": '{"n": 8, "kind": "universal", "layers": {"p": 1}}',
            "layer_int.json": '{"n": 8, "kind": "universal", "layers": [3]}',
            "p9.json": '{"n": 8, "kind": "direct_sum", "layers": [{"p": 9, "beta": [1.0]}]}',
            "dup.json": '{"n": 8, "kind": "direct_sum", "layers": '
            '[{"p": 1, "beta": [1.0, 0.0]}, {"p": 1, "beta": [0.5, 0.0]}]}',
            "nan.json": '{"n": 8, "kind": "direct_sum", "layers": [{"p": 1, "beta": [NaN, 0.0]}]}',
            "p_frac.json": '{"n": 8, "kind": "direct_sum", "layers": [{"p": 1.7, "beta": [1.0, 0.0]}]}',
            "n_frac.json": '{"n": 8.9, "kind": "direct_sum", "layers": [{"p": 1, "beta": [1.0, 0.0]}]}',
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        path = {name: str(tmp_path / name) for name in files}
        pair = ["--x", "1100", "--y", "0011"]
        train = ["train", "--data", path["d.jsonl"], "--quiet", "--algo"]
        bench = ["bench", "--n", "8", "--s", "3", "--literals", "2", "--m", "10", "--quiet", "--algo"]
        spec = {name: ["kernel", "eval", "--spec", path[name], *pair] for name in files if name.endswith(".json")}
        cases = [
            (spec["no_n.json"], "missing key 'n'"),
            (spec["bogus.json"], "unknown kernel kind 'bogus'"),
            (spec["list.json"], "kernel spec must be a JSON object, got list"),
            (spec["null_n.json"], "kernel spec 'n' must be an integer, got None"),
            (spec["layers_obj.json"], "kernel spec 'layers' must be a list of layer objects"),
            (spec["layer_int.json"], "kernel spec layers[0] is not an object"),
            (spec["p9.json"], "kernel spec layers[0]: layer weight p=9 outside [0, 8]"),
            (spec["dup.json"], "kernel spec layers[1]: weight p=1 appears twice"),
            (spec["nan.json"], "kernel spec layers[0]: beta must be finite, got [nan, 0.0]"),
            (spec["p_frac.json"], "kernel spec layers[0]: 'p' must be an integer, got 1.7"),
            (spec["n_frac.json"], "kernel spec 'n' must be an integer, got 8.9"),
            (["train", "--algo", "pegasos", "--data", path["no_y.jsonl"]], "no_y.jsonl:2: record has no 'y' key"),
            ([*train, "pegasos", "--epochs", "-2"], "epochs must be non-negative, got -2"),
            ([*train, "mkl", "--outer-iters", "-1"], "outer_iters must be non-negative, got -1"),
            ([*train, "pegasos", "--B", "0"], "B must be positive and finite, got 0.0"),
            ([*train, "mkl", "--B", "0"], "B must be positive and finite, got 0.0"),
            ([*train, "pegasos", "--B", "-1"], "B must be positive and finite, got -1.0"),
            ([*train, "pegasos", "--B", "nan"], "B must be positive and finite, got nan"),
            ([*train, "mkl", "--B", "nan"], "B must be positive and finite, got nan"),
            ([*train, "pegasos", "--B", "0", "--lam", "0.1"], "B must be positive and finite, got 0.0"),
            ([*train, "pegasos", "--lam", "nan"], "lam must be positive and finite, got nan"),
            ([*train, "mkl", "--lam", "nan"], "lam must be positive and finite, got nan"),
            ([*train, "pegasos", "--eps", "2"], "epsilon must be in (0, 1), got 2.0"),
            ([*bench, "universal", "--B", "0"], "B must be positive and finite, got 0.0"),
            ([*bench, "conjunction", "--B", "0"], "B must be positive and finite, got 0.0"),
            ([*bench, "sparse-analytic", "--B", "0"], "B must be positive and finite, got 0.0"),
            ([*bench, "mkl", "--B", "0"], "B must be positive and finite, got 0.0"),
            ([*bench, "universal", "--B", "-2"], "B must be positive and finite, got -2.0"),
            ([*bench, "universal", "--eps", "nan"], "epsilon must be in (0, 1), got nan"),
            ([*bench, "sparse-analytic", "--eps", "1.5"], "epsilon must be in (0, 1), got 1.5"),
            ([*bench, "universal", "--literals", "9"], "literals_size must lie in [0, n=8], got 9"),
            ([*bench, "universal", "--literals", "-1"], "literals_size must lie in [0, n=8], got -1"),
            ([*bench, "sparse-analytic", "--m", "0"], "m must be at least 1, got 0"),
            ([*bench, "conjunction", "--t-scale", "-1"], "t_scale must be finite and non-negative, got -1.0"),
            ([*bench, "conjunction", "--t-scale", "nan"], "t_scale must be finite and non-negative, got nan"),
            (["bench", "--n", "0", "--s", "0", "--literals", "0", "--m", "4", "--algo", "universal"], "n must be at least 1, got 0"),
            (["rademacher", "--data", path["d.jsonl"], "--B", "nan"], "B must be positive and finite, got nan"),
            (["verify", "--max-n", "0"], "max_n must be at least 1, got 0"),
            (["verify", "--max-n", "-3"], "max_n must be at least 1, got -3"),
            (["verify", "--trials", "0"], "trials must be at least 1, got 0"),
            (["scheme", "check", "--n", "8", "--p", "3", "--beta", "nan,0,0,0"], "beta must be finite, got [nan,"),
        ]
        for argv, msg in cases:
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and msg in err

    @pytest.mark.parametrize(
        "text, msg",
        [
            ('{"x": "1100", "y": null}\n', "d.jsonl:1: label 'y' must be a number, got None"),
            ('{"x": "1100", "y": 1}\n\n{"x": 5, "y": 1}\n', "d.jsonl:3: 'x' is not a bitstring or a list"),
            ('{"x": "1100", "y": 1}\n{"x": "0011", "y": 1,\n', "d.jsonl:2: invalid JSON (Expecting"),
        ],
        ids=["null_label", "scalar_x", "bad_json"],
    )
    def test_bad_dataset_value_exits_2(self, tmp_path, capsys, text, msg):
        path = tmp_path / "d.jsonl"
        path.write_text(text)
        assert cli.main(["train", "--algo", "pegasos", "--data", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and msg in err

    def test_non_finite_output_exits_2(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.jsonl"
        data.write_text('{"x": "1100", "y": 1}\n{"x": "0011", "y": 0}\n')
        estimate = learners.RademacherEstimate(math.nan, 0.0, 1, 1.0, {2: math.nan})
        monkeypatch.setattr(learners, "rademacher_estimate", lambda *args, **kwargs: estimate)
        for flags in (["--json"], ["--out", str(tmp_path / "r.json")]):
            assert cli.main(["rademacher", "--data", str(data), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: Out of range float values are not JSON compliant")
        assert not (tmp_path / "r.json").exists()

    def test_bad_c_t_exits_2_before_sampling(self, tmp_path, capsys):
        for c_t in ("0", "-1", "nan"):
            argv = ["embed", "build", "--n", "2", "--eps", "0.3", "--c-t", c_t]
            assert cli.main([*argv, "--out", str(tmp_path / "pair.bin"), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and f"c_t must be a finite positive number, got {c_t}" in err
        assert not (tmp_path / "pair.bin").exists()

    def test_c_t_too_small_to_certify_exits_2(self, tmp_path, capsys):
        # a positive c_t whose t bits cannot meet eps/n: build_pair raises RuntimeError
        with pytest.raises(RuntimeError, match="failed its self-check"):
            embedding.build_pair(2, 0.3, c_t=0.05)
        argv = ["embed", "build", "--n", "2", "--eps", "0.3", "--c-t", "0.05"]
        assert cli.main([*argv, "--out", str(tmp_path / "pair.bin"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: interval embedder failed its self-check 10 times (coord 0")
        assert "Traceback" not in err
        assert not (tmp_path / "pair.bin").exists()

    @pytest.mark.parametrize(
        "text, msg",
        [
            ('{"x": [0.5, 0.5]}\n{"y": 1}\n', "pts.jsonl:2: record has no 'x' key"),
            ('{"x": [0.5, 0.5]}\n[0.5, 0.5\n', "pts.jsonl:2: invalid JSON (Expecting"),
            ('{"x": [[0.25, 0.75]]}\n', "pts.jsonl:1: embed apply takes one vector per line"),
            ('\n{"x": [0.25, 0.75, 0.5]}\n', "pts.jsonl:2: expected a length-2 vector, got shape (3,)"),
        ],
        ids=["no_x", "bad_json", "nested_x", "wrong_width"],
    )
    def test_bad_embed_apply_line_exits_2(self, tmp_path, capsys, text, msg):
        pair_path = str(tmp_path / "pair.bin")
        embedding.save_pair(embedding.build_pair(2, 0.4, seed=1), pair_path)
        (tmp_path / "pts.jsonl").write_text(text)
        argv = ["embed", "apply", "--pair", pair_path, "--role", "1", "--quiet"]
        argv += ["--in", str(tmp_path / "pts.jsonl"), "--out", str(tmp_path / "bits.jsonl")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and msg in err
        assert not (tmp_path / "bits.jsonl").exists()

    @pytest.mark.parametrize("kind", ["two-bytes", "version-1"])
    def test_bad_pair_file_exits_2(self, tmp_path, capsys, kind):
        pair_path = tmp_path / "pair.bin"
        if kind == "two-bytes":
            pair_path.write_bytes(b"JK")
            msg = f"{pair_path}: 2 bytes is shorter than the 40-byte header"
        else:
            nested_v1_pair_file(embedding.build_pair(2, 0.4, seed=1), str(pair_path))
            msg = f"not a version-2 embedder file: {pair_path}; rebuild it with `cubekern embed build`"
        (tmp_path / "pts.jsonl").write_text('{"x": [0.25, 0.75]}\n')
        argv = ["embed", "apply", "--pair", str(pair_path), "--role", "1", "--quiet"]
        argv += ["--in", str(tmp_path / "pts.jsonl"), "--out", str(tmp_path / "bits.jsonl")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {msg}\n"
        assert not (tmp_path / "bits.jsonl").exists()

    def test_rademacher_on_real_vectors_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text('{"x": [0.25, 0.5], "y": 1}\n{"x": [0.5, 0.75], "y": -1}\n')
        assert cli.main(["rademacher", "--data", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rademacher expects a hypercube (bitstring) dataset" in err

    def test_mixed_dimensions_exit_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        path.write_text('{"x": "1100", "y": 1}\n\n{"x": "10100", "y": 0}\n')
        assert cli.main(["train", "--algo", "pegasos", "--data", str(path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d.jsonl:3: inconsistent point dimensions" in err

    def test_usage_errors_exit_2(self):
        assert run_cli("scheme", "delta", "--n", "4", check=False).returncode == 2
        assert run_cli("scheme", "delta", "--n", "4", "--p", "3", check=False).returncode == 2
        assert (
            run_cli("train", "--algo", "pegasos", "--data", "/nope.jsonl", check=False).returncode
            == 2
        )


def _blank_file(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n\n  \n")
    return str(path)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: harness.Dataset(2, [HypercubePoint(2, 1)], [1.0, 0.0]), ValueError,
         "points and labels length mismatch: 1 points, 2 labels"),
        (lambda tmp: harness.Dataset(2, [HypercubePoint(2, 1)], [math.inf]), ValueError, "labels must be finite"),
        (lambda tmp: harness.Dataset(8, [HypercubePoint(8, 3), HypercubePoint(6, 3)], [1.0, 0.0]), ValueError,
         "point dimension mismatch: points[1] has n=6, expected n=8"),
        (lambda tmp: harness.Dataset(3, [np.zeros(3), np.zeros(2)], [1.0, 0.0]), ValueError,
         "point dimension mismatch: points[1] has n=2, expected n=3"),
        (lambda tmp: gen_conjunction_dataset(8, [9], "uniform_layer", 3, 10, 0.0, 0), ValueError,
         "literal index out of range: literal 9 for n=8"),
        (lambda tmp: gen_conjunction_dataset(8, [1], "uniform_layer", 9, 10, 0.0, 0), ValueError,
         "layer weight 9 outside [0, 8]"),
        (lambda tmp: gen_conjunction_dataset(8, [1], "sparse", -1, 10, 0.0, 0), ValueError,
         "layer weight -1 outside [0, 8]"),
        (lambda tmp: gen_conjunction_dataset(8, [1], "sparse", 2.5, 10, 0.0, 0), ValueError,
         "weight must be an integer, got 2.5"),
        (lambda tmp: gen_conjunction_dataset(8, [1], "sparse", True, 10, 0.0, 0), ValueError,
         "weight must be an integer, got True"),
        (lambda tmp: gen_conjunction_dataset(8, [0.5], "sparse", 3, 10, 0.0, 0), ValueError,
         "literal must be an integer, got 0.5"),
        (lambda tmp: gen_conjunction_dataset(0, [], "sparse", 0, 10, 0.0, 0), ValueError,
         "n must be at least 1, got 0"),
        (lambda tmp: gen_conjunction_dataset(8.0, [1], "sparse", 3, 10, 0.0, 0), ValueError,
         "n must be an integer, got 8.0"),
        (lambda tmp: gen_conjunction_dataset(8, [1], "sparse", 3, 10, 0.0, -1), ValueError,
         "seed must be non-negative, got -1"),
        (lambda tmp: gen_conjunction_dataset(8, [1], "sparse", 3, 10, 0.0, 1.5), ValueError,
         "seed must be an integer, got 1.5"),
        (lambda tmp: harness.regenerate({"generator": "x"}), ValueError, "unknown generator 'x'"),
        (lambda tmp: harness.save_dataset(harness.Dataset(2, list(np.array([[0.5, 0.5], [0.25, math.nan]])), [1.0, 1.0]),
                                         str(tmp / "d")),
         ValueError, "cannot serialize non-finite float nan at point 1"),
        (lambda tmp: harness.load_dataset(_blank_file(tmp)), ValueError, "empty dataset file: "),
    ],
    ids=["dataset-count", "dataset-label", "dataset-dimension", "dataset-vector-length", "literal", "weight-high",
         "weight-negative", "weight-fraction", "weight-bool", "literal-fraction", "n-zero", "n-float", "seed-negative",
         "seed-float", "generator", "save-nan", "load-blank"],
)
def test_boundary_errors_named(tmp_path, call, error, message):
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert str(exc.value).startswith(message)

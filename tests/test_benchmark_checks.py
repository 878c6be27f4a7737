"""The benchmark's MKL checks, fed from the model's report.

``perfbench/tests/test_checks.py`` holds the only fault-injection tests of
``checks.check_mkl_layer``: a certificate that passes, an alpha outside the
hinge conjugate box, scaled alphas that break the gap, and vertex weights
that no longer sum to the kernel's diagonal.  Its ``mkl_layer`` fixture
still reads the result wrapper that ``mkl_train`` returned before it
returned its ``TrainedModel``.  This module runs those same five tests on a
fixture that reads the layer's certificate from ``model.report``, so they
keep running in this suite until that fixture is re-pointed.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from cubekern import harness, learners

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_test_checks():
    sys.path.insert(0, BENCH)  # test_checks imports perfbench/checks.py by bare name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_test_checks", os.path.join(BENCH, "tests", "test_checks.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH)
    return module


bench_tests = load_test_checks()
checks = bench_tests.checks
test_mkl_certificate_passes = bench_tests.test_mkl_certificate_passes
test_mkl_alpha_outside_box_is_caught = bench_tests.test_mkl_alpha_outside_box_is_caught
test_mkl_perturbed_alpha_breaks_gap = bench_tests.test_mkl_perturbed_alpha_breaks_gap
test_mkl_wrong_vertex_weights_are_caught = bench_tests.test_mkl_wrong_vertex_weights_are_caught
test_hinge_gap_matches_library = bench_tests.test_hinge_gap_matches_library


@pytest.fixture(scope="module")
def mkl_layer():
    n, w = 8, 3
    data = harness.gen_conjunction_dataset(n, [0, 2], "uniform_layer", w, 40, 0.1, 7)
    y = 2 * data.labels - 1
    model = learners.mkl_train(list(data.points), y, B=4.0, epsilon=0.05, outer_iters=60)
    reported = model.report["per_layer"][str(w)]
    assert {pt.weight for pt in data.points} == {w}  # so every alpha is layer w's
    pts = checks.masks(pt.to_string() for pt in data.points)
    return dict(
        weight=w, n=n, pts=pts, alpha=np.array(model.alphas), y=y, lam=model.report["lambda"],
        mix_beta=np.array(model.spec.per_layer[w].beta), vertex_weights=np.array(reported["beta"]),
        reported={"objective": reported["objective"], "gap": reported["gap"]},
    )

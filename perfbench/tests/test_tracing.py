import pytest

import tracing
import workloads
from tracing import Span


def tree():
    """setup[0,10] > gen[1,4]; train[10,30] > pegasos[10,29] > gram[10,15] > cross_gram[11,14] > pack[11,12];
    predict[30,40] > cross_gram[31,39] > pack[31,33]."""
    return [
        Span("bench.setup", 0, 10),
        Span("harness.gen", 1, 4, parent=0),
        Span("bench.train", 10, 30),
        Span("learners.pegasos", 10, 29, parent=2, counts={"steps": 100}),
        Span("kernels.gram", 10, 15, parent=3),
        Span("kernels.cross_gram", 11, 14, parent=4, counts={"evals": 9}),
        Span("kernels.pack", 11, 12, parent=5, counts={"points": 3}),
        Span("bench.predict", 30, 40),
        Span("kernels.cross_gram", 31, 39, parent=7, counts={"evals": 6}),
        Span("kernels.pack", 31, 33, parent=8, counts={"points": 5}),
    ]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(tree()) == [7, 3, 1, 14, 2, 2, 1, 2, 6, 2]


def test_layer_metrics_on_hand_built_tree():
    m = tracing.round_metrics(tree())
    assert m["harness.gen_s"] == 3
    assert m["learners.pegasos_self_s"] == 14  # 19 minus the 5 of the Gram inside it
    assert m["learners.pegasos_steps"] == 100
    assert m["learners.pegasos_us_per_step"] == pytest.approx(1e6 * 14 / 100)
    assert m["kernels.gram_s"] == 4  # gram and the cross_gram it makes, less packing
    assert m["kernels.cross_gram_s"] == 6  # only the prediction's cross_gram
    assert m["kernels.pack_s"] == 3
    assert m["kernels.points_packed"] == 8
    assert m["kernels.kernel_evals"] == 15
    assert m["learners.mkl_outer_steps"] == 0 and m["learners.mkl_ms_per_outer_step"] == 0.0


def test_nested_spans_of_one_layer_are_counted_once_in_totals():
    spans = [
        Span("embedding.build", 0, 10, counts={"width_bits": 7}),
        Span("embedding.pair_inner", 2, 6, parent=0),
        Span("embedding.build", 3, 5, parent=1),
    ]
    self_sum, total, counts = tracing.layer_totals(spans)
    assert total["embedding.build"] == 10
    assert self_sum["embedding.build"] == 6 + 2
    assert self_sum["embedding.pair_inner"] == 2
    assert counts["embedding.build"]["width_bits"] == 7


def test_top_level_share():
    spans = tree()
    assert tracing.top_level_share(spans) == 1.0
    spans[2] = Span("bench.train", 12, 30)
    assert tracing.top_level_share(spans) == pytest.approx(38 / 40)


def test_wrapped_calls_nest_and_pause():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap(lambda x: [x] * x, "inner", counts=lambda r: {"n": len(r)})
    outer = tr.wrap(lambda x: inner(x) + inner(1), "outer")
    assert outer(3) == [3, 3, 3, 1]
    with tr.paused():
        inner(2)
    assert [(s.name, s.parent, s.counts) for s in tr.spans] == [
        ("outer", None, {}),
        ("inner", 0, {"n": 3}),
        ("inner", 0, {"n": 1}),
    ]
    assert tracing.self_times(tr.spans) == [5 - 2, 1, 1]


def test_install_traces_calls_made_inside_the_library():
    ck = workloads.fresh_import(("scheme", "kernels", "learners", "harness"))
    tr = tracing.Tracer()
    tracing.install(tr, ck)
    spec = ck["kernels"].universal_kernel(6)
    pts = ck["harness"].gen_conjunction_dataset(6, [0], "sparse", 2, 8, 0.0, 1).points
    ck["learners"].pegasos_train(spec, list(pts), [1.0] * 8, 0.1, epochs=1)
    names = [s.name for s in tr.spans]
    assert names[0] == "kernels.spec" and "scheme.vertex_betas" in names
    parents = {s.name: tr.spans[s.parent].name for s in tr.spans if s.parent is not None}
    assert parents["kernels.cross_gram"] == "kernels.gram"
    assert parents["kernels.gram"] == "learners.pegasos"
    assert parents["kernels.pack"] == "kernels.cross_gram"
    m = tracing.round_metrics(tr.spans)
    assert m["learners.pegasos_steps"] == 8
    assert m["kernels.points_packed"] == 16
    assert m["kernels.kernel_evals"] == 64

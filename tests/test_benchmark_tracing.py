"""The benchmark's library contract: the names, return values and files it uses.

``perfbench/tracing.py`` replaces public functions of a freshly imported
cubekern with wrappers and reads counts off what they return.  Installing it
here and training a tiny MKL model checks that ``learners.layer_vertex_grams``
and ``learners.mkl_layer_solve`` are still wrapped and that every
``learners.mkl_layer`` span carries the counts the benchmark reads.  One
traced round of each workload in ``perfbench/workloads.py`` then runs with no
failed operation and no failed check, and its tracer's counts, read off what
the wrapped functions return, match the workload.  So a change in ``src/``
that breaks the benchmark fails this suite rather than a benchmark run.
"""

import contextlib
import importlib
import importlib.util
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("scheme", "kernels", "learners", "embedding", "harness", "cli")
BENCH_MODULES = ("workloads", "checks", "tracing")  # perfbench/ imports these by bare name


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def is_fresh(name):
    """A module the benchmark imports afresh: cubekern's, or one of perfbench/'s own."""
    return name == "cubekern" or name.startswith("cubekern.") or name in BENCH_MODULES


@contextlib.contextmanager
def fresh_modules():
    """Drop the imported cubekern and perfbench modules, and restore them afterwards."""
    saved = {name: mod for name, mod in sys.modules.items() if is_fresh(name)}
    for name in saved:
        del sys.modules[name]
    try:
        yield
    finally:
        for name in [name for name in sys.modules if is_fresh(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_tracer_wraps_the_mkl_stages_and_reads_their_counts():
    tracing = load_tracing()
    with fresh_modules():
        ck = {name: importlib.import_module(f"cubekern.{name}") for name in MODULES}
        learners = ck["learners"]
        wrapped = ("layer_vertex_grams", "mkl_layer_solve")
        originals = {name: getattr(learners, name) for name in wrapped}
        tr = tracing.Tracer()
        tracing.install(tr, ck)
        for name in wrapped:
            assert getattr(learners, name).__wrapped__ is originals[name], name
        h = ck["harness"]
        parts = [h.gen_conjunction_dataset(8, [0], "uniform_layer", w, 12, 0.1, seed=w) for w in (2, 6)]
        points = [pt for d in parts for pt in d.points]
        labels = np.concatenate([d.labels for d in parts]) * 2.0 - 1.0
        learners.mkl_train(points, labels, B=1.0, epsilon=0.3, outer_iters=30)
        layers = [s for s in tr.spans if s.name == "learners.mkl_layer"]
        assert len(layers) == 2
        for span in layers:
            assert set(span.counts) == {"outer_steps", "unconverged", "rel_gap"}
            assert 0 < span.counts["outer_steps"] <= 30 and span.counts["unconverged"] == 0
            assert 0.0 <= span.counts["rel_gap"] <= 1e-4
            assert tr.spans[span.parent].name == "learners.mkl_train"
        grams = [s for s in tr.spans if s.name == "learners.vertex_grams"]
        assert len(grams) == 2 and all(s.counts["mib"] > 0 for s in grams)
        metrics = tracing.round_metrics(tr.spans)
        assert metrics["learners.mkl_outer_steps"] == sum(s.counts["outer_steps"] for s in layers)
        assert metrics["learners.mkl_unconverged_layers"] == 0


def test_one_round_of_each_workload_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    with fresh_modules():
        workloads = importlib.import_module("workloads")
        monkeypatch.setattr(workloads, "OUT_DIR", str(tmp_path))
        for wl in workloads.WORKLOADS.values():
            tracer = workloads.tracing.Tracer()
            rd = workloads.run_round(wl, 0, 0, tracer)
            assert rd.attempted > 0 and rd.failed == 0, (wl.name, rd.errors)
            assert rd.check_failures == [], (wl.name, rd.check_failures)
            metrics = workloads.tracing.round_metrics(tracer.spans)
            if wl.name == "pegasos-cube":
                assert metrics["learners.pegasos_steps"] == wl.EPOCHS * wl.M_TRAIN
            if wl.name == "mkl-cube":
                assert metrics["learners.mkl_outer_steps"] > 0

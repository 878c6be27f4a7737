"""Spans around cubekern's public functions, and the per-layer metrics
derived from them.

Tracing is installed only in traced runs (``--trace 1``): :func:`install`
replaces public functions and methods of a freshly imported ``cubekern``
with wrappers that open a span, call through, and read counts from the
returned object.  Spans live in memory and are written out when the run
ends.  The library itself is never edited.

A span's self time is its duration minus the durations of its direct
children.  Every per-layer time is a sum of self times over the spans of
that layer, so a layer's time never includes the layers it calls.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder with an explicit stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._paused = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside record no spans (used by the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def wrap(self, func, name: str, counts=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._paused:
                return func(*args, **kwargs)
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if counts is not None:
                self.spans[idx].counts.update(counts(result))
            return result

        return traced


def _mkl_counts(sol) -> dict:
    return {
        "outer_steps": sol.outer_iters,
        "unconverged": int(not sol.inner_converged),
        "rel_gap": sol.gap / (1.0 + abs(sol.objective)),
    }


# (module, attribute, span name, counts from the returned object)
_FUNCTIONS = [
    ("harness", "gen_conjunction_dataset", "harness.gen", None),
    ("harness", "save_dataset", "harness.io", None),
    ("harness", "load_dataset", "harness.io", None),
    ("harness", "save_model", "harness.io", None),
    ("harness", "load_model", "harness.io", None),
    ("cli", "main", "cli.train", None),
    ("scheme", "vertex_betas", "scheme.vertex_betas", None),
    ("kernels", "universal_kernel", "kernels.spec", None),
    ("kernels", "mix_vertices", "kernels.spec", None),
    ("kernels", "make_layer_kernel", "kernels.spec", None),
    ("kernels", "complement_layer_kernel", "kernels.spec", None),
    ("kernels", "points_to_bits", "kernels.pack", lambda r: {"points": r.shape[0]}),
    ("kernels", "gram", "kernels.gram", None),
    ("kernels", "cross_gram", "kernels.cross_gram", lambda r: {"evals": r.size}),
    ("learners", "pegasos_train", "learners.pegasos", lambda r: {"steps": r.report["iters"]}),
    (
        "learners",
        "layer_vertex_grams",
        "learners.vertex_grams",
        lambda r: {"mib": sum(g.nbytes for g in r) / 2**20},
    ),
    ("learners", "mkl_layer_solve", "learners.mkl_layer", _mkl_counts),
    ("learners", "mkl_train", "learners.mkl_train", None),
    ("embedding", "build_pair", "embedding.build", lambda r: {"width_bits": r.width}),
    ("embedding", "embed", "embedding.embed", lambda r: {"calls": 1}),
    ("embedding", "train_on_cube", "embedding.train_on_cube", None),
]

# (module, class, method, span name, counts)
_METHODS = [
    ("kernels", "KernelSpec", "from_json_dict", "kernels.spec", None),
    ("embedding", "IntervalEmbedderPair", "ensure_pair_inner", "embedding.pair_inner", None),
    ("embedding", "LiftedKernel", "cross_gram", "embedding.lifted_gram", lambda r: {"evals": r.size}),
]


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap the public functions of freshly imported cubekern modules.

    A function imported by name into another module (``from .kernels import
    points_to_bits``) is bound there too; every binding of the same object
    is replaced, so calls from inside the library are traced as well.
    """
    for mod_name, attr, span_name, counts in _FUNCTIONS:
        if mod_name not in modules:
            continue
        original = getattr(modules[mod_name], attr)
        traced = tracer.wrap(original, span_name, counts)
        for mod in modules.values():
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    for mod_name, cls_name, attr, span_name, counts in _METHODS:
        if mod_name not in modules:
            continue
        cls = getattr(modules[mod_name], cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, span_name, counts)))
        else:
            setattr(cls, attr, tracer.wrap(raw, span_name, counts))


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_of(spans: list[Span], i: int) -> str:
    """The layer a span's self time is charged to.

    A ``cross_gram`` made by ``gram`` is Gram work, not prediction work.
    """
    s = spans[i]
    if s.name == "kernels.cross_gram" and s.parent is not None:
        if spans[s.parent].name == "kernels.gram":
            return "kernels.gram"
    return s.name


def layer_totals(spans: list[Span]) -> tuple[dict, dict, dict]:
    """Per layer: summed self time, summed outermost duration, summed counts."""
    selfs = self_times(spans)
    self_sum: dict[str, float] = {}
    total: dict[str, float] = {}
    counts: dict[str, dict] = {}
    for i, s in enumerate(spans):
        layer = layer_of(spans, i)
        self_sum[layer] = self_sum.get(layer, 0.0) + selfs[i]
        p = s.parent
        while p is not None and layer_of(spans, p) != layer:
            p = spans[p].parent
        if p is None:
            total[layer] = total.get(layer, 0.0) + s.duration
        bucket = counts.setdefault(layer, {})
        for key, val in s.counts.items():
            if key in ("rel_gap", "mib"):
                bucket[key] = max(bucket.get(key, 0.0), val)
            else:
                bucket[key] = bucket.get(key, 0) + val
    return self_sum, total, counts


def round_metrics(spans: list[Span]) -> dict:
    """Every per-layer metric for the spans of one benchmark round."""
    self_sum, total, counts = layer_totals(spans)

    def self_s(layer):
        return self_sum.get(layer, 0.0)

    def count(layer, key):
        return counts.get(layer, {}).get(key, 0)

    steps = count("learners.pegasos", "steps")
    outer = count("learners.mkl_layer", "outer_steps")
    return {
        "harness.gen_s": self_s("harness.gen"),
        "harness.io_s": self_s("harness.io"),
        "cli.train_s": self_s("cli.train"),
        "scheme.vertex_betas_s": self_s("scheme.vertex_betas"),
        "kernels.spec_s": self_s("kernels.spec"),
        "kernels.pack_s": self_s("kernels.pack"),
        "kernels.points_packed": count("kernels.pack", "points"),
        "kernels.gram_s": self_s("kernels.gram"),
        "kernels.cross_gram_s": self_s("kernels.cross_gram"),
        "kernels.kernel_evals": count("kernels.cross_gram", "evals")
        + count("kernels.gram", "evals"),
        "learners.pegasos_self_s": self_s("learners.pegasos"),
        "learners.pegasos_steps": steps,
        "learners.pegasos_us_per_step": 1e6 * self_s("learners.pegasos") / steps if steps else 0.0,
        "learners.vertex_grams_s": self_s("learners.vertex_grams"),
        "learners.vertex_gram_mib": count("learners.vertex_grams", "mib"),
        "learners.mkl_layer_s": self_s("learners.mkl_layer"),
        "learners.mkl_outer_steps": outer,
        "learners.mkl_ms_per_outer_step": 1e3 * self_s("learners.mkl_layer") / outer if outer else 0.0,
        "learners.mkl_unconverged_layers": count("learners.mkl_layer", "unconverged"),
        "learners.mkl_max_rel_gap": count("learners.mkl_layer", "rel_gap"),
        "embedding.build_s": total.get("embedding.build", 0.0),
        "embedding.pair_inner_s": self_s("embedding.pair_inner"),
        "embedding.sample_s": self_s("embedding.build"),
        "embedding.embed_s": self_s("embedding.embed"),
        "embedding.embed_calls": count("embedding.embed", "calls"),
        "embedding.lifted_gram_s": self_s("embedding.lifted_gram"),
        "embedding.lifted_evals": count("embedding.lifted_gram", "evals"),
        "embedding.width_bits": count("embedding.build", "width_bits"),
    }


#: metrics that certify a solve: the run reports their worst round, not the median
WORST_OF_ROUNDS = ("learners.mkl_unconverged_layers", "learners.mkl_max_rel_gap")


def top_level_share(spans: list[Span]) -> float:
    """Share of the traced wall time covered by spans that have no parent."""
    if not spans:
        return 0.0
    tops = [s for s in spans if s.parent is None]
    wall = max(s.end for s in tops) - min(s.start for s in tops)
    return sum(s.duration for s in tops) / wall if wall > 0 else 0.0


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "counts": s.counts}
        for s in spans
    ]

"""The benchmark's workloads and the loop that runs them.

A run repeats whole rounds until ``--seconds`` have passed.  A round is one
user session on fresh inputs: set up (import cubekern afresh, generate the
inputs, write the dataset where the workload reads one, build the kernel
spec), train once, score the holdout in ``BATCH_REPS`` ``predict_many``
batches, query ``QUERIES`` holdout points one ``predict`` call at a time,
then check the outputs (untimed).  Each round draws its inputs from its
own seed streams, so a run's medians pool several independent draws.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np

import checks
import tracing

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def stream_seed(seed: int, round_index: int, stream: int, part: int = 0) -> int:
    """Seed of one derived stream: 0 concept, 1 training data, 2 holdout, 3 trainer."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(round_index, stream, part))
    return int(ss.generate_state(1)[0])


def fresh_import(names) -> dict:
    """Import cubekern from scratch, so each round pays its import again."""
    for mod in [m for m in sys.modules if m == "cubekern" or m.startswith("cubekern.")]:
        del sys.modules[mod]
    importlib.import_module("cubekern")
    return {name: importlib.import_module("cubekern." + name) for name in names}


def literals(seed: int, r: int, n: int, k: int) -> list[int]:
    """The conjunction's literals, drawn from the concept stream."""
    rng = np.random.default_rng(stream_seed(seed, r, 0))
    return sorted(rng.choice(n, size=k, replace=False).tolist())


def pm1(labels01) -> np.ndarray:
    return 2.0 * np.asarray(labels01, dtype=float) - 1.0


# Probes: fixed work shaped like what dominates each workload, run outside
# cubekern between timed phases to track how fast the machine runs right now.
_PROBE_RNG = np.random.default_rng(0)
_PROBE_ROWS = _PROBE_RNG.random((128, 3000))
_PROBE_SQUARE = _PROBE_RNG.random((300, 300)) / 300.0
_PROBE_UNIFORM = _PROBE_RNG.random(78_241)
_PROBE_INTS = [int.from_bytes(_PROBE_RNG.bytes(48_901), "little") for _ in range(2)]


def _probe_packing():
    """Interpreter work like ``points_to_bits``: shifts and masks over small ints."""
    return [[(m >> i) & 1 for i in range(16)] for m in range(150)]


def probe_pegasos():
    """Gram-row dot products and iterate updates on 3000-vectors, as in a Pegasos step."""
    a, a_bar = np.zeros(3000), np.zeros(3000)
    for t in range(1, 161):
        float(_PROBE_ROWS[(37 * t) % 128] @ a)
        a *= 1.0 - 1.0 / t
        a[t % 3000] -= 0.5 / t
        a_bar += (a - a_bar) / t
    _probe_packing()


def probe_mkl():
    """Projected gradient steps on a 300x300 matrix, as in the MKL inner ascent."""
    alpha = np.zeros(300)
    for _ in range(100):
        alpha = np.clip(alpha + 0.5 * (1.0 - _PROBE_SQUARE @ alpha), -1.0, 1.0)
    _probe_packing()


def probe_embed():
    """Big-int AND and popcount of 391k-bit rows, and packing one sampled row."""
    x, y = _PROBE_INTS
    for _ in range(80):
        (x & y).bit_count()
    np.packbits(_PROBE_UNIFORM < 0.5, bitorder="little")


class PegasosCube:
    """Universal-kernel Pegasos on a noisy two-literal conjunction over weight-4 points."""

    name = "pegasos-cube"
    modules = ("scheme", "kernels", "learners", "embedding", "harness")
    N, WEIGHT, LITERALS = 16, 4, 2
    M_TRAIN, M_HOLDOUT = 3000, 2000
    NOISE = 0.1
    LAM, EPOCHS = 1e-3, 40
    BATCH_REPS, QUERIES = 5, 100
    CHECKED = 200  # holdout predictions recomputed per round
    probe, PROBE_S = staticmethod(probe_pegasos), 2.5e-3  # typical in-run probe time here

    def setup(self, ck, seed, r):
        h = ck["harness"]
        args = (self.N, literals(seed, r, self.N, self.LITERALS), "sparse", self.WEIGHT)
        train = h.gen_conjunction_dataset(*args, self.M_TRAIN, self.NOISE, stream_seed(seed, r, 1))
        hold = h.gen_conjunction_dataset(*args, self.M_HOLDOUT, self.NOISE, stream_seed(seed, r, 2))
        return SimpleNamespace(
            spec=ck["kernels"].universal_kernel(self.N),
            points=list(train.points),
            y=pm1(train.labels),
            holdout=list(hold.points),
            holdout_y01=hold.labels,
            trainer_seed=stream_seed(seed, r, 3),
        )

    def train(self, ck, st):
        return ck["learners"].pegasos_train(
            st.spec, st.points, st.y, self.LAM, epochs=self.EPOCHS, seed=st.trainer_seed
        )

    def check(self, ck, st, model, batch):
        out = []
        betas = {w: lk.beta for w, lk in model.spec.per_layer.items()}
        for w, beta in betas.items():
            p = min(w, self.N - w)
            diag = checks.comb_table(beta, p)[p]
            if abs(diag - 1.0) > 1e-9:
                out.append(f"universal kernel layer {w}: diagonal {diag!r} != 1")
        sup = checks.masks(pt.to_string() for pt in model.support)
        qry = checks.masks(pt.to_string() for pt in st.holdout[: self.CHECKED])
        want = checks.direct_sum_predictions(betas, self.N, sup, model.alphas, qry)
        return out + checks.close("batch predictions vs recomputed", batch[: self.CHECKED], want)


class MklCube:
    """``cubekern train --algo mkl`` on a JSONL dataset over three layers of n=16."""

    name = "mkl-cube"
    modules = ("scheme", "kernels", "learners", "embedding", "harness", "cli")
    N, LITERALS = 16, 2
    LAYERS = (3, 6, 12)  # 12 > n/2 runs the complement path
    PER_LAYER, HOLDOUT_PER_LAYER = 300, 1000
    NOISE = 0.1
    B, EPS, OUTER = 4.0, 0.05, 100
    BATCH_REPS, QUERIES = 10, 400
    probe, PROBE_S = staticmethod(probe_mkl), 2.5e-3

    def setup(self, ck, seed, r):
        h = ck["harness"]
        lits = literals(seed, r, self.N, self.LITERALS)
        parts = {"train": ([], []), "hold": ([], [])}
        for j, w in enumerate(self.LAYERS):
            for key, stream, m in (("train", 1, self.PER_LAYER), ("hold", 2, self.HOLDOUT_PER_LAYER)):
                d = h.gen_conjunction_dataset(
                    self.N, lits, "uniform_layer", w, m, self.NOISE, stream_seed(seed, r, stream, j)
                )
                parts[key][0].extend(d.points)
                parts[key][1].extend(d.labels)
        stem = os.path.join(OUT_DIR, f"mkl-cube-{os.getpid()}-{r}")
        st = SimpleNamespace(
            data_path=stem + ".jsonl",
            model_path=stem + ".model.json",
            bitstrings=[pt.to_string() for pt in parts["train"][0]],
            y=pm1(parts["train"][1]),
            holdout=parts["hold"][0],
            holdout_y01=np.asarray(parts["hold"][1]),
        )
        h.save_dataset(h.Dataset(self.N, parts["train"][0], parts["train"][1]), st.data_path)
        return st

    def train(self, ck, st):
        argv = ["train", "--algo", "mkl", "--data", st.data_path, "--B", str(self.B)]
        argv += ["--eps", str(self.EPS), "--outer-iters", str(self.OUTER)]
        argv += ["--out", st.model_path, "--json", "--quiet"]
        rc = ck["cli"].main(argv)
        if rc != 0:
            raise RuntimeError(f"cubekern train exited with {rc}")
        return st.model_path

    def load(self, ck, st, trained):
        return ck["harness"].load_model(trained)

    def check(self, ck, st, model, batch):
        with open(st.model_path) as fh:
            written = json.load(fh)
        out = []
        if written["support"] != st.bitstrings:
            return ["model support differs from the training points"]
        lam = written["report"]["lambda"]
        out += checks.close("lambda", lam, self.EPS / (self.N * self.B**2))
        sup = checks.masks(written["support"])
        weights = np.bitwise_count(sup)
        alphas = np.asarray(written["alphas"], dtype=float)
        betas = {layer["p"]: layer["beta"] for layer in written["spec"]["layers"]}
        if sorted(betas) != sorted(self.LAYERS):
            return out + [f"model layers {sorted(betas)} != {sorted(self.LAYERS)}"]
        for w in self.LAYERS:
            idx = np.nonzero(weights == w)[0]
            reported = written["report"]["per_layer"][str(w)]
            out += checks.check_mkl_layer(
                w, self.N, sup[idx], alphas[idx], st.y[idx], lam, betas[w], reported["beta"], reported
            )
        qry = checks.masks(pt.to_string() for pt in st.holdout)
        want = checks.direct_sum_predictions(betas, self.N, sup, alphas, qry)
        return out + checks.close("batch predictions vs recomputed", batch, want)

    def cleanup(self, st):
        for path in (st.data_path, st.model_path):
            if os.path.exists(path):
                os.remove(path)


class EmbedReal:
    """``train_on_cube`` with eps=0.1 on points of [0,1]^5 labelled by a halfspace."""

    name = "embed-real"
    modules = ("scheme", "kernels", "learners", "embedding", "harness")
    N = 5
    M_TRAIN, M_HOLDOUT = 200, 150
    NOISE = 0.0
    EPS, B, EPOCHS = 0.1, 1.0, 50
    LIPSCHITZ = 1.0  # of g(a) = 1 + a on [0, n]
    BATCH_REPS, QUERIES = 1, 80
    LIFT_CHECKED = 20  # holdout points whose lifted values come from the program
    probe, PROBE_S = staticmethod(probe_embed), 2.4e-3

    @staticmethod
    def g(a):
        return 1.0 + np.clip(a, 0.0, EmbedReal.N)

    def setup(self, ck, seed, r):
        normal = np.random.default_rng(stream_seed(seed, r, 0)).uniform(-1.0, 1.0, self.N)
        offset = 0.5 * normal.sum()  # the hyperplane passes through the cube's centre
        xs = np.random.default_rng(stream_seed(seed, r, 1)).random((self.M_TRAIN, self.N))
        hold = np.random.default_rng(stream_seed(seed, r, 2)).random((self.M_HOLDOUT, self.N))
        return SimpleNamespace(
            profile=ck["embedding"].poly_g([1.0, 1.0], lipschitz=self.LIPSCHITZ, domain_max=self.N),
            xs=xs,
            y=np.where(xs @ normal >= offset, 1.0, -1.0),
            holdout=hold,
            holdout_y01=(hold @ normal >= offset).astype(float),
            trainer_seed=stream_seed(seed, r, 3),
        )

    def train(self, ck, st):
        return ck["embedding"].train_on_cube(
            st.xs, st.y, st.profile, B=self.B, epsilon=self.EPS, seed=st.trainer_seed, epochs=self.EPOCHS
        )

    def check(self, ck, st, model, batch):
        pair = model.pair
        if (pair.n, pair.epsilon) != (self.N, self.EPS):
            return [f"embedder built for (n={pair.n}, eps={pair.epsilon})"]
        out, tables = checks.check_pair_tables(pair.coords, pair.t, self.EPS / self.N)
        grid = np.asarray(pair.coords[0].grid)
        sample = st.holdout[: self.LIFT_CHECKED]
        queries = [ck["embedding"].embed(pair, 2, x) for x in sample]
        lifted = model.kernel.cross_gram(list(model.support), queries)
        ip = checks.lifted_inner(tables, grid, st.xs, sample)
        out += checks.check_lifted(lifted, ip, pair.t, self.g, self.LIPSCHITZ, self.EPS, grid, st.xs, sample)
        ip_all = checks.lifted_inner(tables, grid, st.xs, st.holdout)
        want = np.asarray(model.alphas) @ self.g(ip_all / pair.t)
        return out + checks.close("batch predictions vs recomputed", batch, want)


WORKLOADS = {wl.name: wl for wl in (PegasosCube(), MklCube(), EmbedReal())}


# ---------------------------------------------------------------------------
# Running rounds


class Round:
    """Timings and outcomes of one round; opens a top-level span per phase when traced."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.times: dict[str, float] = {}
        self.train_s: float | None = None
        self.batch_qps: list[float] = []
        self.query_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_failures: list[str] = []
        self.correct = 0
        self.total = 0
        self.majority = 0
        self.probes: list[list[float]] = []  # one group per collect()

    @contextmanager
    def phase(self, name):
        with self.tracer.span("bench." + name) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            yield
            self.times[name] = time.perf_counter() - t0

    def collect(self):
        """Before a timed phase: collect garbage, so no phase pays for the last
        one's, and probe the machine's speed three times."""
        with self.phase("gc"):
            gc.collect()
            self.probes.append([_timed(self.probe) for _ in range(3)])

    def speed(self, phase_index: int) -> float:
        """Median probe time around a phase: the groups just before and after it."""
        return statistics.median(self.probes[phase_index] + self.probes[phase_index + 1])

    def attempt(self, func, *args):
        """One user operation: counted and timed; a raised error counts as a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = func(*args)
        except Exception:  # noqa: BLE001 - a failed operation is counted and the run goes on
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None, None
        return result, time.perf_counter() - t0


#: what the details file keeps of each round
ROUND_FIELDS = ("times", "train_s", "batch_qps", "query_s", "probes", "errors", "check_failures")


def run_round(wl, seed: int, r: int, tracer) -> Round:
    rd = Round(tracer, wl.probe)
    rd.collect()
    with rd.phase("setup"):
        with tracer.span("bench.import") if tracer else nullcontext():
            ck = fresh_import(wl.modules)
        if tracer:
            tracing.install(tracer, ck)
        st = wl.setup(ck, seed, r)
    try:
        rd.collect()
        with rd.phase("train"):
            model, rd.train_s = rd.attempt(wl.train, ck, st)
        if rd.train_s is None:  # nothing to predict with: the round's other operations fail too
            rd.failed += wl.BATCH_REPS + wl.QUERIES
            rd.attempted += wl.BATCH_REPS + wl.QUERIES
            return rd
        if hasattr(wl, "load"):
            with rd.phase("load"):
                model = wl.load(ck, st, model)
        rd.collect()
        batch = None
        with rd.phase("predict"):
            for _ in range(wl.BATCH_REPS):
                preds, dt = rd.attempt(model.predict_many, st.holdout)
                if dt is not None:
                    batch = np.asarray(preds)
                    rd.batch_qps.append(len(st.holdout) / dt)
        rd.collect()
        queries = {}
        with rd.phase("query"):
            for i, x in enumerate(st.holdout[: wl.QUERIES]):
                value, dt = rd.attempt(model.predict, x)
                if dt is not None:
                    queries[i] = value
                    rd.query_s.append(dt)
        rd.collect()
        with rd.phase("check"), tracer.paused() if tracer else nullcontext():
            if batch is not None:
                rd.check_failures += checks.check_queries_match_batch(queries, batch)
                rd.check_failures += wl.check(ck, st, model, batch)
                truth = np.asarray(st.holdout_y01) >= 0.5
                rd.correct = int(np.sum((batch >= 0.0) == truth))
                rd.total = int(truth.size)
                rd.majority = int(max(truth.sum(), truth.size - truth.sum()))
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup(st)
    return rd


def run(wl, seed: int, seconds: float, traced: bool) -> dict:
    """Run whole rounds for about ``seconds``; return end-to-end and per-layer results.

    A round starts only if, at the mean round length so far, it ends within
    ``seconds``; the first round always runs.

    The host slows this machine's execution by up to 1.8x, switching
    within seconds, alike for the probe and the program.  So every time
    sample is rescaled to the reference speed by ``PROBE_S`` over the
    median probe time just before and after its phase, and the four time
    metrics are medians of rescaled samples; the raw medians are kept
    beside them.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    rounds: list[Round] = []
    tracers: list[tracing.Tracer] = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced else None
        rounds.append(run_round(wl, seed, len(rounds), tracer))
        if tracer:
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    # probe groups: 0 before setup, 1 before train, 2 before predict, 3 before query, 4 after query
    ref = wl.PROBE_S
    done = [rd for rd in rounds if rd.train_s is not None]
    if not done or not any(rd.batch_qps for rd in done) or not any(rd.query_s for rd in done):
        raise RuntimeError("every training, batch or query operation failed; nothing to report")
    samples = {
        "setup_s": [(rd.times["setup"], rd.times["setup"] * ref / rd.speed(0)) for rd in rounds],
        "train_s": [(rd.train_s, rd.train_s * ref / rd.speed(1)) for rd in done],
        "predict_qps": [(q, q * rd.speed(2) / ref) for rd in done for q in rd.batch_qps],
        "query_s": [(q, q * ref / rd.speed(3)) for rd in done for q in rd.query_s],
    }
    raw = {k: statistics.median(m for m, _ in v) for k, v in samples.items()}
    scaled = {k: statistics.median(s for _, s in v) for k, v in samples.items()}
    raw["query_qps"] = 1.0 / raw.pop("query_s")
    scaled["query_qps"] = 1.0 / scaled.pop("query_s")
    correct = sum(rd.correct for rd in rounds)
    total = sum(rd.total for rd in rounds)
    failures = [f for rd in rounds for f in rd.check_failures]
    failures += checks.check_accuracy(correct, total, sum(rd.majority for rd in rounds), wl.NOISE)
    end_to_end = {
        **scaled,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "holdout_accuracy": correct / total,
    }
    per_layer = _per_layer(tracers) if traced else None
    details = {
        "workload": wl.name,
        "seed": seed,
        "rounds": [
            {k: getattr(rd, k) for k in ROUND_FIELDS}
            for rd in rounds
        ],
        "raw": raw,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": [tracing.to_json(tr.spans) for tr in tracers],
    }
    with open(os.path.join(OUT_DIR, f"{wl.name}-seed{seed}-trace{int(traced)}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    return {
        "correct": not failures,
        "attempted": sum(rd.attempted for rd in rounds),
        "failed": sum(rd.failed for rd in rounds),
        "failures": failures,
        "raw": raw,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _timed(func) -> float:
    t0 = time.perf_counter()
    func()
    return time.perf_counter() - t0


def _per_layer(tracers) -> dict:
    """Median over rounds of each per-layer metric; certificates take their worst round."""
    per_round = [tracing.round_metrics(tr.spans) for tr in tracers]
    out = {}
    for key in per_round[0]:
        vals = [m[key] for m in per_round]
        if key in tracing.WORST_OF_ROUNDS:
            out[key] = max(vals)
        elif all(isinstance(v, int) for v in vals):  # a count stays a whole number
            out[key] = statistics.median_low(vals)
        else:
            out[key] = statistics.median(vals)
    out["trace.top_level_share"] = tracing.top_level_share([s for tr in tracers for s in tr.spans])
    return out

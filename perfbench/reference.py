"""Reference figures for perfbench/README.md, printed as JSON lines.

    python3 perfbench/reference.py

Times the library's baseline operations one at a time (embedder build,
lifted cross-Gram, ``cubekern bench``, the Pegasos step, ``verify_suite``),
measures the accuracy an exact kernel reaches on the embed-real inputs,
and reproduces the faults listed in the README.  Run from the root of a
checkout; takes about two minutes and up to about 0.7 GB of memory (the
m=8000 Pegasos Gram).
"""

import json
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(name, **fields):
    print(json.dumps({"figure": name, **fields}), flush=True)


def timed(func, *args, **kwargs):
    t0 = time.perf_counter()
    out = func(*args, **kwargs)
    return out, time.perf_counter() - t0


class FixedGram:
    """A kernel whose Gram is given, so Pegasos is timed without building it."""

    def __init__(self, matrix):
        self.matrix = matrix

    def gram(self, points):
        return self.matrix


class ExactKernel:
    """g(<x, y>) on the raw real points: the kernel the embedding approximates."""

    def __init__(self, g):
        self.g = g

    def gram(self, xs):
        xs = np.asarray(xs)
        return self.g(xs @ xs.T)


def universal_gram(ck, points):
    """The universal kernel's Gram of weight-4 points of n=16, built in row chunks."""
    beta = ck["kernels"].universal_kernel(16).per_layer[4].beta
    table = checks.comb_table(beta, 4)
    bits = checks.masks(pt.to_string() for pt in points)
    out = np.empty((len(bits), len(bits)))
    for lo in range(0, len(bits), 500):
        out[lo : lo + 500] = table[np.bitwise_count(bits[lo : lo + 500, None] & bits[None, :])]
    return out


def main():
    ck = workloads.fresh_import(("scheme", "kernels", "learners", "embedding", "harness", "cli"))
    emb, h, learners = ck["embedding"], ck["harness"], ck["learners"]

    tracer = tracing.Tracer()
    tracing.install(tracer, ck)
    pair, wall = timed(emb.build_pair, 5, 0.1)
    m = tracing.round_metrics(tracer.spans)
    emit("build_pair(n=5, eps=0.1)", seconds=wall, sampling_s=m["embedding.sample_s"],
         pair_table_s=m["embedding.pair_inner_s"], t=pair.t)
    ck = workloads.fresh_import(("scheme", "kernels", "learners", "embedding", "harness", "cli"))
    emb, h, learners = ck["embedding"], ck["harness"], ck["learners"]

    rng = np.random.default_rng(0)
    xs = rng.random((100, 5))
    rows = [emb.embed(pair, 1, x) for x in xs]
    cols = [emb.embed(pair, 2, x) for x in xs]
    kernel = emb.lift_kernel(emb.poly_g([1.0, 1.0], 1.0, 5.0), pair)
    _, wall = timed(kernel.cross_gram, rows, cols)
    emit("lifted cross_gram 100x100", seconds=wall)

    # The baseline does not name s; the MKL time depends strongly on it.
    for flags in (
        "--algo universal --s 4 --m 500 --epochs 600",
        "--algo mkl --s 4 --m 200 --outer-iters 300",
        "--algo mkl --s 8 --m 200 --outer-iters 300",
    ):
        argv = ["bench", "--n", "16", "--literals", "2", *flags.split(), "--json", "--quiet"]
        argv += ["--out", os.path.join(workloads.OUT_DIR, "reference-bench.json")]
        rc, wall = timed(ck["cli"].main, argv)
        emit(f"cubekern bench --n 16 --literals 2 {flags}", seconds=wall, exit=rc)

    for m in (500, 2000, 8000):
        data = h.gen_conjunction_dataset(16, [2, 7], "sparse", 4, m, 0.1, m)
        fixed = FixedGram(universal_gram(ck, data.points))
        epochs = max(1, 40000 // m)
        y = 2 * data.labels - 1
        model, wall = timed(learners.pegasos_train, fixed, list(data.points), y, 1e-3, epochs=epochs)
        emit("pegasos step", m=m, steps=model.report["iters"], us_per_step=1e6 * wall / model.report["iters"])
        del fixed, model

    verdict, wall = timed(h.verify_suite)
    emit("verify_suite()", seconds=wall, passed=verdict["passed"])

    wl = workloads.EmbedReal()
    for seed in (1, 2, 3):
        for r in range(3):
            st = wl.setup(ck, seed, r)
            lam = wl.EPS / (wl.N * wl.B**2)
            exact = learners.pegasos_train(
                ExactKernel(wl.g), st.xs, st.y, lam, epochs=wl.EPOCHS, seed=st.trainer_seed
            )
            pred = exact.alphas @ wl.g(st.xs @ st.holdout.T)
            embedded = wl.train(ck, st).predict_many(st.holdout)
            truth = st.holdout_y01 >= 0.5
            emit("embed-real holdout accuracy", seed=seed, round=r,
                 exact_kernel=float(np.mean((pred >= 0) == truth)),
                 embedded=float(np.mean((embedded >= 0) == truth)))

    confirm_faults(ck)


def confirm_faults(ck):
    h, learners = ck["harness"], ck["learners"]
    data = h.gen_conjunction_dataset(16, [2, 7], "sparse", 4, 3000, 0.1, 1)
    spec = ck["kernels"].universal_kernel(16)
    model = learners.pegasos_train(spec, list(data.points), 2 * data.labels - 1, 1e-3, epochs=1)
    queries = h.gen_conjunction_dataset(16, [2, 7], "sparse", 4, 200, 0.1, 2).points
    _, wall = timed(lambda: [model.predict(x) for x in queries])
    emit("200 predict calls, 3000-point support", seconds=wall)

    layer = h.gen_conjunction_dataset(16, [2, 7], "uniform_layer", 3, 500, 0.1, 3)
    y = 2 * layer.labels - 1
    lam = 0.05 / (16 * 4.0**2)
    problem = learners.MklLayerProblem(learners.layer_vertex_grams(list(layer.points), 3), y, lam)
    sol = learners.mkl_layer_solve(problem, outer_iters=100)
    kb = problem.combine(sol.beta)
    _, polished, iters = learners._inner_max(problem, kb, sol.alphas, 1e-8, 100_000)
    emit("mkl_layer_solve weight 3, m=500", inner_converged=sol.inner_converged, gap=sol.gap,
         repolish_converged=polished, repolish_iters=iters)

    path = os.path.join(workloads.OUT_DIR, "reference-layer3.jsonl")
    h.save_dataset(layer, path)
    out = os.path.join(workloads.OUT_DIR, "reference-layer3.model.json")
    ck["cli"].main(["train", "--algo", "mkl", "--data", path, "--B", "4", "--eps", "0.05",
                    "--outer-iters", "100", "--out", out, "--json", "--quiet"])
    with open(out) as fh:
        emit("cubekern train per_layer keys", keys=sorted(json.load(fh)["report"]["per_layer"]["3"]))


if __name__ == "__main__":
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    main()

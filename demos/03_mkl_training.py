"""Learning the kernel and the classifier together, one layer at a time.

Instead of committing to a kernel up front, the layer MKL program searches
the vertex polytope {beta >= 0, sum beta <= 1} for the best mixture while
simultaneously fitting the dual classifier.  Saddle quality is certified by
the saddle gap between the best upper and lower bounds, and the returned
point's fit by the inner duality gap.  For comparison, the same data is fit with plain
kernelized SGD under the fixed universal kernel.
"""

import numpy as np

from cubekern import harness, kernels, learners

seed = 7
n, s, m = 10, 4, 120
data = harness.gen_conjunction_dataset(n, [0, 2], "sparse", s, m, noise_rate=0.05, seed=seed)
labels = 2.0 * data.labels - 1.0
print(f"task: noisy 2-literal conjunction on weight-{s} points of the {n}-cube, m={m}")

B, eps = 3.0, 0.1
model = learners.mkl_train(list(data.points), labels, B=B, epsilon=eps, outer_iters=250)
lam = model.report["lambda"]
print(f"\nregularization lambda = eps/(n B^2) = {lam:.5f}")
for w, layer in model.report["per_layer"].items():
    print(f"layer weight {w}: beta = {np.round(layer['beta'], 4)}, objective = {layer['objective']:.5f}, "
          f"saddle gap = {layer['saddle_gap']:.2e} after {layer['outer_steps']} beta steps "
          f"(converged = {layer['converged']}), inner duality gap = {layer['gap']:.2e}")

preds = model.predict_many(data.points)
hinge = np.maximum(0.0, 1.0 - labels * preds).mean()
err = np.mean((preds >= 0) != (labels > 0))
print(f"\nMKL train hinge = {hinge:.4f}, train 0-1 = {err:.4f}")

spec = kernels.universal_kernel(n)
pega = learners.pegasos_train(
    spec, list(data.points), labels, lam=lam, epochs=400, seed=seed
)
p_preds = pega.predict_many(data.points)
p_hinge = np.maximum(0.0, 1.0 - labels * p_preds).mean()
print(f"universal-kernel SGD train hinge = {p_hinge:.4f} "
      f"(objective {pega.report['objective']:.5f})")

holdout = harness.gen_conjunction_dataset(n, [0, 2], "sparse", s, m, 0.05, seed=seed + 1)
h_labels = 2.0 * holdout.labels - 1.0
h_preds = model.predict_many(holdout.points)
print(f"MKL holdout hinge = {np.maximum(0.0, 1.0 - h_labels * h_preds).mean():.4f}, "
      f"holdout 0-1 = {np.mean((h_preds >= 0) != (h_labels > 0)):.4f}")

"""Boolean conjunctions through kernel eyes.

Two constructions:

* on weight-s data, the single basis kernel C(<x,y>, l)/C(s, l) represents
  any l-literal conjunction *exactly* with squared norm C(s, l) - no
  training required;
* the truncated binomial sum (1/N) sum_{t<=T} C(<x,y>, t) is a trainable
  kernel whose depth T grows like sqrt(n) log(1/eps).
"""

import math

import numpy as np

from cubekern import harness, kernels, learners

n, s, m = 16, 4, 300
literals = [3, 7, 11]
print(f"target: x{literals[0]} AND x{literals[1]} AND x{literals[2]} "
      f"on weight-{s} points of the {n}-cube")

# exact analytic representation
model = kernels.analytic_weights(n, s, literals)
print(f"\nanalytic model: support = literal indicator, alpha = C({s},{len(literals)}) "
      f"= {model.alphas[0]:.0f}, norm^2 = {model.norm_sq():.6f}")
data = harness.gen_conjunction_dataset(n, literals, "sparse", s, m, 0.0, seed=1)
preds = model.predict_many(data.points)
print(f"noiseless sample of {m}: max |prediction - label| = "
      f"{np.abs(preds - data.labels).max():.1e}")

noisy = harness.gen_conjunction_dataset(n, literals, "sparse", s, m, 0.1, seed=2)
noisy_preds = model.predict_many(noisy.points)
err = np.mean((noisy_preds >= 0.5) != (noisy.labels >= 0.5))
print(f"10% label noise: 0-1 disagreement = {err:.3f} (noise floor 0.10)")

# trainable truncated kernel
eps = 0.1
spec = kernels.conjunction_kernel(n, s, eps)
depth = int(np.count_nonzero(spec.per_layer[s].beta))
print(f"\ntruncated kernel: depth T = {depth - 1} "
      f"(ceil(sqrt({n}) ln(1/{eps})) clamped to s={s}), unit diagonal "
      f"{spec.tables[s][-1]:.6f}")
labels = 2.0 * noisy.labels - 1.0
fit = learners.pegasos_train(
    spec, list(noisy.points), labels, lam=5e-4, epochs=500, seed=0
)
fit_preds = fit.predict_many(noisy.points)
print(f"SGD fit on the noisy sample: train 0-1 = "
      f"{np.mean((fit_preds >= 0) != (labels > 0)):.3f}")

clean_preds = fit.predict_many(data.points)
clean_labels = 2.0 * data.labels - 1.0
print(f"scored against clean labels:  0-1 = "
      f"{np.mean((clean_preds >= 0) != (clean_labels > 0)):.3f}")

print(f"\nmargin comparison: norm needed by the analytic route C(s,l) = "
      f"{math.comb(s, len(literals))}, versus the {n}-cube polynomial route "
      f"N = sum_t C({n},t) ~ {sum(math.comb(n, t) for t in range(depth))}")

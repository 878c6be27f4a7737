"""Dataset generation, file round-trips, the oracle verification suite and
benchmark orchestration.

File formats
------------

Datasets are JSON Lines with one object per example, either
``{"x": "BITSTRING", "y": 1.0}`` (hypercube points; character i of the
bitstring is coordinate i) or ``{"x": [0.25, 0.5], "y": -1.0}`` (real
vectors).  Floats are serialized with ``repr``, the shortest decimal that
round-trips exactly (at most 17 significant digits), so save -> load is
bit-exact.  Dataset metadata is not stored in the file; run reports record
the generator name, seed and parameters needed to regenerate a dataset
exactly.

Models are a single JSON object
``{"spec": ..., "support": [bitstrings], "alphas": [...], "report": ...}``.

Randomness
----------

Every operation takes one integer seed.  Derived streams are produced with
``numpy.random.SeedSequence(seed, spawn_key=(stream_id,))``; the stream ids
are 0 = literal choice, 1 = training data, 2 = holdout data, 3 = trainer.

``gen_conjunction_dataset`` draws its points bit for bit as one
``rng.choice(n, size=w, replace=False)`` per point would, from one bulk
``rng.integers(0, 2**32, dtype=np.uint32)`` call per chunk.  For n <= 10,000
numpy's ``choice`` is Floyd's sampling (Bentley & Floyd, CACM 1987): for
j = n-w, ..., n-1 it draws t on [0, j] and takes t, or j if t is taken
(j = 0 takes 0 with no draw); then it shuffles the picks with one draw on
[0, i] for each i = w-1, ..., 1, which moves no bit but uses up draws.  A
draw on r values is ``(u * r) >> 32`` of one ``next_uint32`` u (Lemire, ACM
TOMACS 2019), drawn again when ``(u * r) mod 2^32 < 2^32 mod r`` (under 1.5e-8
a draw for n <= 64).  So the masks and the state left for the label flips
are the per-point calls'.  A point holding a redraw, and every point above
n = 10,000 (where numpy shuffles a tail instead), is drawn by ``choice``.
NEP 19 fixes bit-generator streams, not ``Generator`` methods, so golden
dataset hashes in ``tests/test_harness.py`` guard both.
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import kernels, learners, scheme
from .kernels import HypercubePoint, KernelSpec, TrainedModel

__all__ = [
    "Dataset",
    "gen_conjunction_dataset",
    "save_dataset",
    "load_dataset",
    "read_records",
    "is_vector",
    "model_json_dict",
    "save_model",
    "load_model",
    "verify_suite",
    "FAULT_TAGS",
    "bench_conjunction",
    "evaluate_losses",
    "stream_seed",
]


def stream_seed(seed: int, stream: int) -> int:
    """Derive a child seed for one of the documented streams."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Datasets


@dataclass
class Dataset:
    n: int
    points: tuple
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=float)
        self.points = tuple(self.points)
        if len(self.points) != self.labels.shape[0]:
            raise ValueError(
                f"points and labels length mismatch: {len(self.points)} points, {self.labels.shape[0]} labels"
            )
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")
        for i, pt in enumerate(self.points):
            if (dim := pt.n if isinstance(pt, HypercubePoint) else len(pt)) != self.n:
                raise ValueError(f"point dimension mismatch: points[{i}] has n={dim}, expected n={self.n}")


def gen_conjunction_dataset(
    n: int,
    literals,
    mode: str,
    weight: int,
    m: int,
    noise_rate: float,
    seed: int,
) -> Dataset:
    """Uniform points on one layer, labeled by a conjunction, with label noise.

    ``mode`` is "uniform_layer" (weight names a layer p) or "sparse" (weight
    names the sparsity s); both draw uniformly from that layer.  Labels are
    the {0,1} conjunction value, each flipped independently with probability
    ``noise_rate``.  When the layer weight is below the literal count the
    conjunction can never fire; that is allowed but warned about.
    """
    learners.check_count("n", n, 1)
    if mode not in ("uniform_layer", "sparse"):
        raise ValueError(f"unknown mode {mode!r}")
    lits = tuple(literals)
    for i in lits:
        if not 0 <= i < n:
            raise ValueError(f"literal index out of range: literal {i} for n={n}")
        learners.check_count("literal", i)
    lits = tuple(sorted(set(int(i) for i in lits)))
    if not 0 <= weight <= n:
        raise ValueError(f"layer weight {weight} outside [0, {n}]")
    learners.check_count("weight", weight)
    learners.check_count("m", m, 1)
    learners.check_count("seed", seed)
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must be in [0, 1]")
    if weight < len(lits):
        warnings.warn(
            f"layer weight {weight} below literal count {len(lits)}: all clean labels are 0",
            stacklevel=2,
        )
    rng = np.random.default_rng(seed)
    mask = HypercubePoint.from_indices(n, lits).bits
    points = [HypercubePoint(n, bits) for bits in _choice_masks(rng, n, weight, m)]
    base = np.array([(pt.bits & mask) == mask for pt in points], dtype=float)
    flips = rng.random(m) < noise_rate
    labels = np.where(flips, 1.0 - base, base)
    meta = {
        "generator": "conjunction",
        "seed": int(seed),
        "parameters": {
            "n": n,
            "literals": list(lits),
            "mode": mode,
            "weight": weight,
            "m": m,
            "noise_rate": noise_rate,
        },
    }
    return Dataset(n, points, labels, meta)


_FLOYD_MAX_N = 10_000  # numpy's choice tail-shuffles a larger population instead of Floyd's sampling


def _choice_bits(rng, n: int, weight: int) -> int:
    return HypercubePoint.from_indices(n, rng.choice(n, size=weight, replace=False)).bits


def _choice_masks(rng, n: int, weight: int, m: int) -> list[int]:
    """The bit masks of ``m`` successive ``rng.choice(n, size=weight,
    replace=False)`` calls, leaving ``rng`` where they leave it, from one bulk
    draw per chunk of at most ``kernels._BLOCK_ELEMS`` uint32s (see
    "Randomness" in the module docstring).  A chunk holding a rejected draw is rewound to the
    point holding it, which ``rng.choice`` then draws."""
    if n > _FLOYD_MAX_N:
        return [_choice_bits(rng, n, weight) for _ in range(m)]
    first = max(n - weight, 1)  # Floyd's step j = 0 takes 0 without a draw
    ranges = np.concatenate([np.arange(first, n) + 1, np.arange(weight, 1, -1)]).astype(np.uint64)
    zone = (1 << 32) % ranges  # a draw u over range r is redrawn when (u * r) mod 2^32 < zone
    d = ranges.size
    rows = max(1, kernels._BLOCK_ELEMS // max(d, 1))
    out: list[int] = []
    while len(out) < m:
        state = rng.bit_generator.state
        prods = rng.integers(0, 1 << 32, size=(min(rows, m - len(out)), d), dtype=np.uint32) * ranges
        rejects = np.flatnonzero(((prods & 0xFFFFFFFF) < zone).any(axis=1))
        if rejects.size:
            rng.bit_generator.state = state
            rng.integers(0, 1 << 32, size=(rejects[0], d), dtype=np.uint32)
            prods = prods[: rejects[0]]
        out += _floyd_masks(prods[:, : n - first] >> 32, n, first, weight == n)
        if rejects.size:
            out.append(_choice_bits(rng, n, weight))
    return out


def _floyd_masks(picks: np.ndarray, n: int, first: int, take_zero: bool) -> list[int]:
    """Floyd's sampling on each row of ``picks``, whose column k is the draw
    ``t`` over ``[0, first + k]``: take t, or ``first + k`` when t is taken.
    Masks are held as ``ceil(n / 64)`` uint64 words per row."""
    words = (n + 63) >> 6
    rows = picks.shape[0]
    masks = np.zeros(rows * words, dtype=np.uint64)
    base = np.arange(rows, dtype=np.uint64) * words
    if take_zero:
        masks[base] = 1
    for j, t in enumerate(picks.T, first):
        t = np.where((masks[base + (t >> 6)] >> (t & 63)) & 1, j, t)
        masks[base + (t >> 6)] |= 1 << (t & 63)
    if words == 1:
        return masks.tolist()
    return [int.from_bytes(row.tobytes(), "little") for row in masks.astype("<u8").reshape(rows, words)]


def regenerate(meta: dict) -> Dataset:
    """Rebuild a dataset from the (generator, seed, parameters) record."""
    if meta.get("generator") != "conjunction":
        raise ValueError(f"unknown generator {meta.get('generator')!r}")
    p = meta["parameters"]
    return gen_conjunction_dataset(
        p["n"], p["literals"], p["mode"], p["weight"], p["m"], p["noise_rate"], meta["seed"]
    )


def _jfloat(v: float, i: int) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v} at point {i}")
    return repr(v)


def save_dataset(dataset: Dataset, path: str) -> None:
    with open(path, "w") as fh:
        for i, (pt, y) in enumerate(zip(dataset.points, dataset.labels)):
            if isinstance(pt, HypercubePoint):
                xs = json.dumps(pt.to_string())
            else:
                xs = "[" + ", ".join(_jfloat(v, i) for v in np.asarray(pt, dtype=float)) + "]"
            fh.write(f'{{"x": {xs}, "y": {_jfloat(y, i)}}}\n')


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def read_records(path: str, keys) -> list[tuple[str, dict]]:
    """``("path:line", record)`` per non-blank line of a JSON Lines file; a line
    that is not JSON or lacks one of ``keys`` raises a ValueError naming it."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON ({exc.msg}, column {exc.colno})") from None
            for key in keys:
                if not isinstance(obj, dict) or key not in obj:
                    raise ValueError(f"{where}: record has no {key!r} key")
            records.append((where, obj))
    return records


def is_vector(x) -> bool:
    """Whether a JSON value is a flat list of numbers."""
    return isinstance(x, list) and all(map(_is_number, x))


def load_dataset(path: str) -> Dataset:
    points = []
    labels = []
    n = None
    for where, obj in read_records(path, ("x", "y")):
        x, y = obj["x"], obj["y"]
        if not _is_number(y):
            raise ValueError(f"{where}: label 'y' must be a number, got {y!r}")
        if isinstance(x, str):
            pt = HypercubePoint.from_string(x)
            dim = pt.n
        elif is_vector(x):
            pt = np.asarray(x, dtype=float)
            dim = pt.shape[0]
        else:
            raise ValueError(f"{where}: 'x' is not a bitstring or a list of numbers")
        if n is None:
            n = dim
        elif n != dim:
            raise ValueError(f"{where}: inconsistent point dimensions in dataset file ({dim} after {n})")
        points.append(pt)
        labels.append(float(y))
    if n is None:
        raise ValueError(f"empty dataset file: {path}")
    return Dataset(n, points, np.array(labels), meta={})


def model_json_dict(model: TrainedModel, report: dict) -> dict:
    """The model file's object, with ``report`` (made JSON-safe) as its report."""
    return {
        "spec": model.spec.to_json_dict(),
        "support": [pt.to_string() for pt in model.support],
        "alphas": [float(a) for a in model.alphas],
        "report": _clean_report(report),
    }


def save_model(model: TrainedModel, path: str) -> None:
    """Write the model file; a non-finite number anywhere in it raises a
    ``ValueError`` before the file is opened."""
    text = json.dumps(model_json_dict(model, model.report), indent=1, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_model(path: str) -> TrainedModel:
    """The model of a :func:`save_model` file; a malformed one raises a
    ``ValueError`` naming the file and the key at fault."""
    with open(path) as fh:
        obj = json.load(fh)
    for key in ("spec", "support", "alphas"):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{path}: model has no {key!r} key")
    if not isinstance(obj["support"], list) or not all(isinstance(s, str) for s in obj["support"]):
        raise ValueError(f"{path}: model 'support' must be a list of bitstrings")
    try:
        alphas = np.asarray(obj["alphas"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: model 'alphas' must be a list of numbers") from None
    report = obj.get("report", {})
    if not isinstance(report, dict):
        raise ValueError(f"{path}: model 'report' must be a JSON object")
    try:
        spec = KernelSpec.from_json_dict(obj["spec"])
        support = tuple(HypercubePoint.from_string(s) for s in obj["support"])
        return TrainedModel(spec, support, alphas, report)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _clean_report(report: Mapping) -> dict:
    """JSON-safe copy of a report, its read-only mappings as dicts."""
    out = {}
    for key, val in report.items():
        if isinstance(val, np.ndarray):
            out[key] = [float(v) for v in val]
        elif isinstance(val, (np.floating, np.integer)):
            out[key] = val.item()
        elif isinstance(val, Mapping):
            out[key] = _clean_report(val)
        else:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# Verification suite

FAULT_TAGS = (
    "delta_sign", "vertex_norm", "conjunction_alpha", "stale_lower_bound", "stale_step_gram", "unnormalized_beta"
)


def _check(module: str, name: str, passed: bool, params: dict, detail: str = "") -> dict:
    return {
        "module": module,
        "check": name,
        "passed": bool(passed),
        "params": params,
        "detail": detail,
    }


def _merged_prediction(delta: np.ndarray, dims: np.ndarray, ell: int, tol: float):
    """Formula eigenvalues of basis kernel ell with multiplicities, merged clusters."""
    pairs = sorted(zip(delta[:, ell], dims), key=lambda z: -z[0])
    merged: list[list[float]] = []
    for val, dim in pairs:
        if merged and merged[-1][0] - val <= tol:
            merged[-1][1] += int(dim)
        else:
            merged.append([float(val), int(dim)])
    return [(v, d) for v, d in merged]


def _check_spectral(max_n: int, fault: str | None) -> dict:
    for n in range(1, max_n + 1):
        for p in range(0, n // 2 + 1):
            layer = scheme.LayerParams(n, p)
            delta = scheme.delta_matrix(layer)
            if fault == "delta_sign" and p >= 1:
                delta = delta.copy()
                delta[0, 1] = -delta[0, 1]
            dims = scheme.eigen_multiplicities(layer)
            for ell in range(p + 1):
                beta = np.zeros(p + 1)
                beta[ell] = 1.0
                gram = scheme.oracle_gram(scheme.BetaCoeffs(layer, beta))
                observed = scheme.oracle_eigenvalues(gram)
                scale = max(1.0, max(abs(v) for v, _ in observed))
                tol = 1e-8 * scale
                predicted = _merged_prediction(delta, dims, ell, tol)
                if len(predicted) != len(observed) or any(
                    abs(pv - ov) > tol or pd != od
                    for (pv, pd), (ov, od) in zip(predicted, observed)
                ):
                    # name the smallest eigenspace index whose formula value is
                    # missing from the oracle spectrum (or 0 on a pure
                    # multiplicity mismatch)
                    bad_j = 0
                    for j in range(p + 1):
                        if not any(abs(ov - delta[j, ell]) <= tol for ov, _ in observed):
                            bad_j = j
                            break
                    return _check(
                        "johnson_scheme",
                        "spectral_correctness",
                        False,
                        {"n": n, "p": p, "ell": ell, "j": bad_j},
                        f"formula spectrum {predicted} != oracle {observed}",
                    )
    return _check("johnson_scheme", "spectral_correctness", True, {"max_n": max_n})


def _check_characterization(max_n: int, trials: int, rng: np.random.Generator) -> dict:
    for n in range(1, max_n + 1):
        for p in range(0, n // 2 + 1):
            layer = scheme.LayerParams(n, p)
            verts = scheme.vertex_betas(layer)
            for trial in range(trials):
                if trial % 2 == 0:
                    beta = rng.normal(size=p + 1)
                else:
                    lam = rng.random(p + 1)
                    lam = lam / lam.sum() * rng.uniform(0.0, 1.3)
                    beta = lam @ verts
                coeffs = scheme.BetaCoeffs(layer, beta)
                fast = bool(scheme.is_admissible(coeffs, tol=1e-8))
                gram = scheme.oracle_gram(coeffs)
                eigs = np.linalg.eigvalsh(gram.matrix)
                scale = max(1.0, float(np.abs(eigs).max()))
                slow = bool(eigs.min() >= -1e-8 * scale and gram.matrix[0, 0] <= 1.0 + 1e-8)
                if fast != slow:
                    return _check(
                        "johnson_scheme",
                        "characterization_equivalence",
                        False,
                        {"n": n, "p": p, "trial": trial},
                        f"is_admissible={fast} but oracle={slow} for beta={beta.tolist()}",
                    )
    return _check(
        "johnson_scheme",
        "characterization_equivalence",
        True,
        {"max_n": max_n, "trials_per_layer": trials},
    )


def _check_vertices(max_n: int, fault: str | None) -> dict:
    for n in range(1, max_n + 1):
        for p in range(0, n // 2 + 1):
            layer = scheme.LayerParams(n, p)
            verts = scheme.vertex_betas(layer)
            if fault == "vertex_norm":
                verts = verts * 1.01
            for i in range(p + 1):
                beta = scheme.BetaCoeffs(layer, verts[i])
                diag = float(scheme.eta_vector(layer) @ verts[i])
                profile = scheme.eigen_profile(beta)
                off = np.delete(profile, i)
                peak = max(1.0, abs(profile[i]))
                if abs(diag - 1.0) > 1e-12 or np.abs(off).max(initial=0.0) > 1e-9 * peak:
                    return _check(
                        "johnson_scheme",
                        "vertex_validity",
                        False,
                        {"n": n, "p": p, "i": i},
                        f"diagonal {diag!r}, profile {profile.tolist()}",
                    )
    return _check("johnson_scheme", "vertex_validity", True, {"max_n": max_n})


def _check_complement(max_n: int) -> dict:
    for n in range(2, max_n + 1):
        spec = kernels.universal_kernel(n)
        for w in range(n // 2 + 1, n + 1):
            pts = [
                HypercubePoint.from_array(row)
                for row in scheme.enumerate_layer(scheme.LayerParams(n, w))
            ]
            comp = [pt.complement() for pt in pts]
            upper = kernels.gram(spec, pts)
            lower = kernels.gram(spec, comp)
            if not np.array_equal(upper, lower):
                return _check(
                    "kernels",
                    "complement_consistency",
                    False,
                    {"n": n, "p": w},
                    "gram on layer p differs from gram on complemented layer n-p",
                )
    return _check("kernels", "complement_consistency", True, {"max_n": max_n})


def _check_containment(rng: np.random.Generator, triples: int = 40) -> dict:
    for n, p in ((6, 2), (6, 3), (8, 3)):
        layer = scheme.LayerParams(n, p)
        points = [HypercubePoint.from_array(row) for row in scheme.enumerate_layer(layer)]
        for trial in range(triples):
            m = int(rng.integers(2, 13))
            idx = rng.integers(0, len(points), size=m)
            pts = [points[i] for i in idx]
            lam = rng.random(p + 1)
            lam /= lam.sum()
            alpha = rng.normal(size=m)
            op = learners.layer_vertex_grams(pts, p)
            op.load(alpha)
            quads = op.quads()
            mixed = float(lam @ quads)
            # the direct side is the mixed Gram of every pair of points, from their inner products
            ip = np.array([[x.inner(y) for y in pts] for x in pts])
            direct = float(alpha @ (lam @ scheme.vertex_tables(layer))[ip] @ alpha)
            scale = max(1.0, abs(mixed), abs(direct))
            if abs(mixed - direct) > 1e-10 * scale:
                return _check(
                    "kernels",
                    "universal_containment",
                    False,
                    {"n": n, "p": p, "trial": trial},
                    f"mixture identity violated: {mixed} vs {direct}",
                )
            lhs = float(((p + 1) * lam) ** 2 @ quads)
            rhs = (p + 1) ** 2 * direct
            if lhs > rhs + 1e-10 * max(1.0, abs(rhs)):
                return _check(
                    "kernels",
                    "universal_containment",
                    False,
                    {"n": n, "p": p, "trial": trial},
                    f"norm bound violated: {lhs} > {rhs}",
                )
    return _check("kernels", "universal_containment", True, {"triples": triples})


def _check_conjunction(rng: np.random.Generator, fault: str | None) -> dict:
    n, s = 12, 4
    for ell in range(0, s + 1):
        literals = sorted(rng.choice(n, size=ell, replace=False).tolist())
        model = kernels.analytic_weights(n, s, literals)
        if fault == "conjunction_alpha":
            model = TrainedModel(
                model.spec, model.support, model.alphas + 1e-3, dict(model.report)
            )
        data = gen_conjunction_dataset(n, literals, "sparse", s, 60, 0.0, seed=int(rng.integers(2**31)))
        preds = model.predict_many(data.points)
        if np.abs(preds - data.labels).max() > 1e-9:
            return _check(
                "kernels",
                "conjunction_exactness",
                False,
                {"n": n, "s": s, "ell": ell},
                f"max prediction error {np.abs(preds - data.labels).max():.3g}",
            )
    return _check("kernels", "conjunction_exactness", True, {"n": n, "s": s})


def _check_fenchel(max_err: float = 1e-6) -> dict:
    zs = np.linspace(-3.0, 3.0, 121)
    for loss in (learners.HINGE, learners.ABSOLUTE):
        for y in (-1.0, 1.0):
            ya = np.array(y)
            lo, hi = loss.conjugate_domain(np.array([y]))
            grid = np.linspace(float(lo[0]), float(hi[0]), 2001)
            for z in zs:
                direct = float(loss.value(np.array(z), ya))
                via_conj = float(np.max(grid * (z - y)))  # sup of a z - conj(a, y) over the box
                if abs(direct - via_conj) > max_err:
                    return _check(
                        "learners",
                        "fenchel_young",
                        False,
                        {"loss": loss.name, "y": y, "z": float(z)},
                        f"{direct} vs sup {via_conj}",
                    )
    return _check("learners", "fenchel_young", True, {"grid": "z in [-3,3], 121 points"})


def _check_mkl_gap(rng: np.random.Generator, fault: str | None) -> dict:
    """Solve two small layers and check each certificate on dense per-point Grams:
    a beta on the capped simplex, a best-upper trace that never rises, an inner gap at
    ``(beta, alphas)`` within 1e-4 (1 + |primal|), and a lower bound that is ``D(alpha)``
    at the alphas it names, in the box and at most the objective.  Fault
    ``stale_lower_bound`` names the zero start alphas; ``stale_step_gram`` mixes the Gram
    SDCA steps on at beta / 2; ``unnormalized_beta`` checks 1.5 beta, off the capped simplex."""
    n, p, m, lam = 6, 2, 10, 0.1
    layer = scheme.LayerParams(n, p)
    tables, rows = scheme.vertex_tables(layer), scheme.enumerate_layer(layer)
    layers = []
    for loss in (learners.HINGE, learners.ABSOLUTE):
        pts = [HypercubePoint.from_array(rows[i]) for i in rng.integers(0, rows.shape[0], size=m)]
        if loss.name == "hinge":
            labels = rng.integers(0, 2, size=m) * 2.0 - 1.0
        else:
            labels = rng.uniform(-1.0, 1.0, size=m)
        grams = learners.layer_vertex_grams(pts, p)
        if fault == "stale_step_gram":
            grams.gram.at = lambda beta, mix=grams.gram.at: mix(beta / 2)
        sol = learners.mkl_layer_solve(learners.MklLayerProblem(grams, labels, lam=lam, loss=loss), outer_iters=150)
        a = np.zeros(m) if fault == "stale_lower_bound" else sol.lower_alphas
        beta = sol.beta * 1.5 if fault == "unnormalized_beta" else sol.beta
        ip = np.array([[x.inner(y) for y in pts] for x in pts])
        lower = lam * float(a @ labels) - 0.5 * lam * max(0.0, max(float(a @ t[ip] @ a) for t in tables))
        ka = (beta @ tables)[ip] @ sol.alphas
        primal = 0.5 * lam * float(sol.alphas @ ka) + float(np.mean(loss.value(ka, labels)))
        gap = primal - lam * float(sol.alphas @ labels) + 0.5 * lam * float(sol.alphas @ ka)
        (lo, hi), tol = learners._alpha_box(loss, labels, lam), 1e-9 * (1.0 + abs(lower))
        for failed, detail in (
            (beta.min() < -1e-12, "negative mixture weight"),
            (beta.sum() > 1.0 + 1e-12, f"mixture weights sum to {beta.sum():.6g} > 1"),
            (np.any(np.diff(sol.trace) > 1e-12), "best-upper trace increased"),
            (gap > 1e-4 * (1.0 + abs(primal)), f"inner gap {gap:.3g} too large for primal {primal:.3g}"),
            (np.any((a < lo - tol) | (a > hi + tol)), "lower-bound alphas leave the conjugate box"),
            (abs(sol.lower - lower) > tol, f"lower bound {sol.lower!r} is not D(alpha) = {lower!r} at its alphas"),
            (sol.lower > sol.objective + tol, f"lower bound {sol.lower!r} above the objective {sol.objective!r}"),
        ):
            if failed:
                return _check("learners", "mkl_saddle", False, {"loss": loss.name}, detail)
        report = {"saddle_gap": sol.saddle_gap, "converged": sol.converged, "outer_steps": sol.outer_iters}
        layers.append({"loss": loss.name, **report})
    return _check("learners", "mkl_saddle", True, {"instances": 2, "layers": layers})


def verify_suite(
    max_n: int = 8, trials: int = 200, seed: int = 0, fault: str | None = None
) -> dict:
    """Run every oracle-backed invariant; returns a machine-readable verdict.

    ``fault`` injects one of six documented bugs into a check's inputs
    (see :data:`FAULT_TAGS`) so the suite's failure reporting can itself be
    tested; the library under test is never modified.
    """
    if fault is not None and fault not in FAULT_TAGS:
        raise ValueError(f"unknown fault {fault!r}; choose from {FAULT_TAGS}")
    learners.check_count("max_n", max_n, 1)
    learners.check_count("trials", trials, 1)
    rng = np.random.default_rng(seed)
    oracle_cap = min(max_n, scheme.MAX_ORACLE_N)
    checks = [
        _check_spectral(oracle_cap, fault),
        _check_characterization(oracle_cap, trials, rng),
        _check_vertices(oracle_cap, fault),
        _check_complement(oracle_cap),
        _check_containment(rng),
        _check_conjunction(rng, fault),
        _check_fenchel(),
        _check_mkl_gap(rng, fault),
    ]
    passed = all(c["passed"] for c in checks)
    return {
        "passed": passed,
        "max_n": max_n,
        "seed": seed,
        "fault": fault,
        "checks": checks,
        "failures": [
            {"module": c["module"], "check": c["check"], "params": c["params"]}
            for c in checks
            if not c["passed"]
        ],
    }


# ---------------------------------------------------------------------------
# Benchmarks


def evaluate_losses(preds: np.ndarray, labels01: np.ndarray, convention: str) -> dict:
    """Hinge, 0-1 and absolute losses of real-valued predictions.

    ``convention`` is "pm1" (predictions target labels mapped to +-1,
    threshold at 0) or "zero_one" (predictions target {0,1}, threshold at
    1/2).  All three losses are reported in the model's native convention.
    ``preds`` and ``labels01`` must have the same shape.
    """
    y01 = np.asarray(labels01, dtype=float)
    preds = np.asarray(preds, dtype=float)
    if preds.shape != y01.shape:
        raise ValueError(f"predictions have shape {preds.shape}, labels {y01.shape}")
    ypm, _ = learners.hinge_labels(y01)
    if convention == "pm1":
        hinge = float(np.mean(np.maximum(0.0, 1.0 - ypm * preds)))
        zero_one = float(np.mean((preds >= 0.0) != (y01 >= 0.5)))
        absolute = float(np.mean(np.abs(preds - ypm)))
    elif convention == "zero_one":
        hinge = float(np.mean(np.maximum(0.0, 1.0 - ypm * (2.0 * preds - 1.0))))
        zero_one = float(np.mean((preds >= 0.5) != (y01 >= 0.5)))
        absolute = float(np.mean(np.abs(preds - y01)))
    else:
        raise ValueError(f"unknown label convention {convention!r}")
    return {"hinge": hinge, "zero_one": zero_one, "absolute": absolute}


BENCH_ALGOS = ("universal", "conjunction", "sparse-analytic", "mkl")


def bench_conjunction(
    n: int,
    s: int,
    literals_size: int,
    m: int,
    algo: str,
    B: float,
    eps: float,
    seed: int,
    noise_rate: float = 0.0,
    epochs: int = 300,
    outer_iters: int = 300,
    t_scale: float = 1.0,
) -> dict:
    """Generate a conjunction task, train with the chosen kernel, report losses.

    Returns the JSON object ``cubekern bench`` prints: the ``config``, the
    trained model's ``lambda``, ``objective``, ``gap`` and ``per_layer``
    (from its report; null, null, null and empty for ``sparse-analytic``),
    the train and test losses, the ``seed`` and both datasets' metadata.
    The holdout is a fresh sample of the same size from an advanced seed
    stream.  Hinge-trained algorithms map {0,1} labels to {-1,+1}
    internally; the convention is recorded in the config.
    """
    if algo not in BENCH_ALGOS:
        raise ValueError(f"unknown algo {algo!r}; choose from {BENCH_ALGOS}")
    if not 0 <= literals_size <= n:
        raise ValueError(f"literals_size must lie in [0, n={n}], got {literals_size}")
    lam = learners.regularization_weight(n, B, eps)
    lit_rng = np.random.default_rng(stream_seed(seed, 0))
    literals = sorted(lit_rng.choice(n, size=literals_size, replace=False).tolist())
    train = gen_conjunction_dataset(n, literals, "sparse", s, m, noise_rate, stream_seed(seed, 1))
    test = gen_conjunction_dataset(n, literals, "sparse", s, m, noise_rate, stream_seed(seed, 2))
    trainer_seed = stream_seed(seed, 3)
    labels_pm, _ = learners.hinge_labels(train.labels)
    if algo == "sparse-analytic":
        convention = "zero_one"
        model = kernels.analytic_weights(n, s, literals)
    elif algo == "mkl":
        convention = "pm1"
        model = learners.mkl_train(list(train.points), labels_pm, B, eps, outer_iters=outer_iters)
    else:
        convention = "pm1"
        spec = (
            kernels.universal_kernel(n)
            if algo == "universal"
            else kernels.conjunction_kernel(n, s, eps, t_scale=t_scale)
        )
        model = learners.pegasos_train(
            spec, list(train.points), labels_pm, lam, epochs=epochs, seed=trainer_seed
        )
    config = {
        "n": n,
        "s": s,
        "literals_size": literals_size,
        "literals": literals,
        "m": m,
        "algo": algo,
        "B": B,
        "eps": eps,
        "seed": seed,
        "noise_rate": noise_rate,
        "epochs": epochs,
        "outer_iters": outer_iters,
        "t_scale": t_scale,
        "label_convention": convention,
    }
    return {
        "config": config,
        "lambda": model.report.get("lambda"),
        "objective": model.report.get("objective"),
        "gap": model.report.get("gap"),
        "per_layer": _clean_report(model.report.get("per_layer", {})),
        "train_losses": evaluate_losses(model.predict_many(train.points), train.labels, convention),
        "test_losses": evaluate_losses(model.predict_many(test.points), test.labels, convention),
        "seed": seed,
        "train_meta": train.meta,
        "test_meta": test.meta,
    }

"""Checks of the program's outputs against computations made apart from it.

Nothing here calls cubekern.  Kernel values are rebuilt from the points'
bit masks with popcounts and from value tables ``g(k) = sum_l beta_l C(k, l)``
built with ``math.comb``; MKL gaps from the loss and its conjugate written
out in numpy; embedder tables from the packed bit rows with
``np.unpackbits`` and a matmul.  Each check returns a list of failure
messages, empty when the check passes.
"""

from __future__ import annotations

import math

import numpy as np

#: share of holdout points the model may miss beyond the label-noise rate
ACCURACY_SLACK = 0.1

#: a duality gap passes when at most this times (1 + |objective|), as in verify_suite
GAP_CERTIFICATE = 1e-4


def comb_table(beta, upto: int) -> np.ndarray:
    """Values g(k) = sum_l beta_l C(k, l) for k = 0..upto."""
    return np.array(
        [sum(float(b) * math.comb(k, ell) for ell, b in enumerate(beta)) for k in range(upto + 1)]
    )


def masks(bitstrings) -> np.ndarray:
    """Bit masks (coordinate i at bit i) of bitstrings of length n <= 64, as uint64."""
    return np.array([int(s[::-1], 2) for s in bitstrings], dtype=np.uint64)


def layer_gram(rows: np.ndarray, cols: np.ndarray, n: int, weight: int, beta) -> np.ndarray:
    """Kernel values between same-weight points from masks and a beta vector.

    Above n/2 the stored beta belongs to the mirrored layer, so both sides are
    complemented first.
    """
    if 2 * weight > n:
        full = np.uint64((1 << n) - 1)
        rows, cols = rows ^ full, cols ^ full
    ip = np.bitwise_count(rows[:, None] & cols[None, :]).astype(np.int64)
    return comb_table(beta, min(weight, n - weight))[ip]


def direct_sum_predictions(betas: dict, n: int, sup: np.ndarray, alphas, qry: np.ndarray) -> np.ndarray:
    """f(x) = sum_i alpha_i k(x_i, x) for a direct-sum kernel, layer by layer.

    ``sup`` and ``qry`` are bit masks; ``betas`` maps a weight to its layer's
    coefficients.
    """
    sup_w = np.bitwise_count(sup)
    qry_w = np.bitwise_count(qry)
    alphas = np.asarray(alphas, dtype=float)
    out = np.zeros(len(qry))
    for w, beta in betas.items():
        si = np.nonzero(sup_w == w)[0]
        qi = np.nonzero(qry_w == w)[0]
        if si.size and qi.size:
            out[qi] = alphas[si] @ layer_gram(sup[si], qry[qi], n, w, beta)
    return out


def close(name: str, got, want, rtol: float = 1e-9, atol: float = 1e-12) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    bad = np.abs(got - want) > atol + rtol * np.abs(want)
    if bad.any():
        i = int(np.argmax(np.abs(got - want)))
        return [f"{name}: {int(bad.sum())} values differ, worst {got.flat[i]!r} vs {want.flat[i]!r}"]
    return []


def check_queries_match_batch(queries: dict, batch) -> list[str]:
    """Single-point predictions (holdout index -> value) must equal the batch's."""
    return close("single queries vs batch", list(queries.values()), np.asarray(batch)[list(queries)])


def check_accuracy(correct: int, total: int, majority: int, noise_rate: float) -> list[str]:
    """Holdout accuracy against the noise floor and the best constant classifier.

    With labels flipped at rate eta, no classifier expects more than 1 - eta.
    The model must reach 1 - eta - ACCURACY_SLACK and beat predicting the
    majority label.
    """
    if total == 0:
        return ["no holdout prediction was checked"]
    acc = correct / total
    floor = 1.0 - noise_rate - ACCURACY_SLACK
    out = []
    if acc < floor:
        out.append(f"holdout accuracy {acc:.4f} below floor {floor:.4f}")
    if correct <= majority:
        out.append(f"holdout accuracy {acc:.4f} does not beat the majority label {majority / total:.4f}")
    return out


# ---------------------------------------------------------------------------
# MKL certificates


def hinge_gap(gram: np.ndarray, alpha: np.ndarray, y: np.ndarray, lam: float) -> tuple[float, float]:
    """(primal, |primal - dual|) of the hinge program at w = sum_i alpha_i phi(x_i).

    The hinge conjugate is conj(a, y) = a y, so the dual term
    -(1/m) sum_i conj(-lam m alpha_i, y_i) is lam * sum_i alpha_i y_i.
    """
    z = gram @ alpha
    quad = float(alpha @ z)
    primal = 0.5 * lam * quad + float(np.mean(np.maximum(0.0, 1.0 - y * z)))
    dual = -0.5 * lam * quad + lam * float(alpha @ y)
    return primal, abs(primal - dual)


def check_mkl_layer(
    weight: int,
    n: int,
    pts: np.ndarray,
    alpha,
    y,
    lam: float,
    mix_beta,
    vertex_weights,
    reported: dict,
) -> list[str]:
    """Recompute one layer's saddle certificate from the written model.

    ``mix_beta`` is the layer's kernel in the binomial basis (the model's
    spec); ``vertex_weights`` the solver's weights over the vertex kernels.
    Every vertex kernel has diagonal 1, so the mixture's diagonal g(p) must
    equal the sum of the vertex weights.
    """
    tag = f"layer {weight}"
    out = []
    alpha = np.asarray(alpha, dtype=float)
    y = np.asarray(y, dtype=float)
    lam_vw = np.asarray(vertex_weights, dtype=float)
    m = y.shape[0]
    if lam_vw.min() < -1e-12 or lam_vw.sum() > 1.0 + 1e-12:
        out.append(f"{tag}: vertex weights {lam_vw.tolist()} outside the capped simplex")
    p = min(weight, n - weight)
    diag = comb_table(mix_beta, p)[p]
    if abs(diag - lam_vw.sum()) > 1e-9:
        out.append(f"{tag}: kernel diagonal {diag!r} != vertex-weight sum {lam_vw.sum()!r}")
    # hinge conjugate box: y_i alpha_i in [0, 1/(lam m)]
    ya = y * alpha
    hi = 1.0 / (lam * m)
    slack = 1e-9 * hi
    if ya.min() < -slack or ya.max() > hi + slack:
        out.append(
            f"{tag}: alpha leaves the conjugate box [0, {hi:.6g}]"
            f" (y*alpha in [{ya.min():.6g}, {ya.max():.6g}])"
        )
    gram = layer_gram(pts, pts, n, weight, mix_beta)
    eig_min = float(np.linalg.eigvalsh(gram).min())
    if eig_min < -1e-8 * max(1.0, float(np.abs(np.diag(gram)).max()) * m):
        out.append(f"{tag}: layer Gram not PSD (min eigenvalue {eig_min:.3g})")
    primal, gap = hinge_gap(gram, alpha, y, lam)
    bound = GAP_CERTIFICATE * (1.0 + abs(primal))
    if gap > bound:
        out.append(f"{tag}: recomputed gap {gap:.3g} above the certificate bound {bound:.3g}")
    out += close(f"{tag} objective", reported["objective"], primal, rtol=1e-8)
    out += close(f"{tag} gap", reported["gap"], gap, rtol=0.0, atol=1e-9 * (1.0 + abs(primal)))
    return out


# ---------------------------------------------------------------------------
# Embedding certificates


def pair_table(role1: np.ndarray, role2: np.ndarray, t: int, chunk_bytes: int = 1024) -> np.ndarray:
    """Role-1 x role-2 inner products of packed bit rows, from unpacked bits.

    Bits are unpacked a chunk of bytes at a time into float32 (exact: every
    partial sum is an integer below 2^24) and multiplied.
    """
    k1, k2 = role1.shape[0], role2.shape[0]
    nbytes = (t + 7) // 8
    out = np.zeros((k1, k2), dtype=np.float64)
    for lo in range(0, nbytes, chunk_bytes):
        hi = min(lo + chunk_bytes, nbytes)
        count = min(8 * hi, t) - 8 * lo
        a = np.unpackbits(role1[:, lo:hi], axis=1, count=count, bitorder="little")
        b = np.unpackbits(role2[:, lo:hi], axis=1, count=count, bitorder="little")
        out += a.astype(np.float32) @ b.astype(np.float32).T
    return out.astype(np.int64)


def check_pair_tables(coords, t: int, eps_int: float) -> tuple[list[str], list[np.ndarray]]:
    """Every coordinate's certified table equals the recount, within eps_int of u*v.

    Returns the failures and the recounted tables.
    """
    out = []
    tables = []
    for c, coord in enumerate(coords):
        grid = np.asarray(coord.grid)
        if grid[0] != 0.0 or grid[-1] != 1.0 or np.diff(grid).max() > eps_int / 3 + 1e-12:
            out.append(f"coord {c}: grid does not cover [0, 1] in steps of eps/3")
        table = pair_table(coord.packed[0], coord.packed[1], t)
        tables.append(table)
        if coord.pair_inner is None or not np.array_equal(table, coord.pair_inner):
            out.append(f"coord {c}: certified pair table differs from the recount")
        dev = float(np.abs(np.outer(grid, grid) - table / t).max())
        if dev > eps_int:
            out.append(f"coord {c}: worst grid-pair deviation {dev:.4g} > eps/n = {eps_int:.4g}")
    return out, tables


def grid_cells(grid: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Index of the grid cell each coordinate rounds down to."""
    return np.searchsorted(grid, np.clip(xs, 0.0, 1.0), side="right") - 1


def lifted_inner(tables, grid, support_x, query_x) -> np.ndarray:
    """<Psi_1(y), Psi_2(x)> for support y and queries x, summed over coordinates."""
    cs, cq = grid_cells(grid, support_x), grid_cells(grid, query_x)
    out = np.zeros((support_x.shape[0], query_x.shape[0]), dtype=np.int64)
    for c, table in enumerate(tables):
        out += table[cs[:, c][:, None], cq[:, c][None, :]]
    return out


def check_lifted(lifted, ip, t: int, g, lipschitz: float, eps: float, grid, support_x, query_x) -> list[str]:
    """Lifted kernel values on support x holdout pairs.

    ``lifted`` are the program's values, ``ip`` the recomputed bit inner
    products.  The program must return g(ip / t).  The certified embedder
    keeps ip / t within eps of <u, v> for the grid-rounded points u, v, so
    the lifted value is within L*eps of g(<u, v>), and within
    L*(eps + |<u, v> - <x, y>|) of g(<x, y>) on the raw points.
    """
    out = close("lifted values vs g(recounted ip / t)", lifted, g(np.clip(ip / t, 0.0, support_x.shape[1])))
    u = grid[grid_cells(grid, support_x)]
    v = grid[grid_cells(grid, query_x)]
    grid_ip = u @ v.T
    raw_ip = support_x @ query_x.T
    dev_grid = np.abs(lifted - g(grid_ip))
    if dev_grid.max() > lipschitz * eps * (1 + 1e-9):
        out.append(f"lifted value off g(<u,v>) by {dev_grid.max():.4g} > L*eps = {lipschitz * eps:.4g}")
    dev_raw = np.abs(lifted - g(raw_ip))
    allowed = lipschitz * (eps + np.abs(grid_ip - raw_ip)) * (1 + 1e-9)
    if np.any(dev_raw > allowed):
        out.append(f"lifted value off g(<x,y>) by {dev_raw.max():.4g}, beyond L*(eps + rounding)")
    return out

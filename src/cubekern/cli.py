"""Command-line entry point.

Subcommands: scheme, kernel, train, rademacher, embed, bench, verify.
Every subcommand accepts --seed, --json (compact output) and --quiet
(suppress stderr notes).  Output is a single JSON object on stdout unless
--out redirects it to a file.  Exit codes: 0 success, 1 check failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import embedding, harness, kernels, learners, scheme

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _common_flags(with_out: bool = True) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    common.add_argument("--json", action="store_true", help="compact single-line JSON output")
    common.add_argument("--quiet", action="store_true", help="suppress stderr notes")
    if with_out:
        common.add_argument("--out", default=None, help="write the JSON output to this file")
    return common


def _emit(args, obj) -> None:
    if args.json:
        text = json.dumps(obj, separators=(",", ":"), allow_nan=False)
    else:
        text = json.dumps(obj, indent=1, allow_nan=False)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _note(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _warn_unconverged(per_layer: dict) -> None:
    """Warn on stderr, even with --quiet, of each layer of an MKL report that missed a tolerance."""
    for w, s in per_layer.items():
        if not s["converged"]:
            gap = f"saddle gap {s['saddle_gap']:.3g} above its tolerance after {s['outer_steps']} beta steps"
            print(f"warning: layer {w}: {gap}", file=sys.stderr)
        if not s["inner_converged"]:
            print(f"warning: layer {w}: the SDCA polish hit its epoch cap", file=sys.stderr)


def _parse_beta(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"--beta expects comma-separated floats, got {text!r}") from None


def _cmd_scheme(args) -> int:
    layer = scheme.LayerParams(args.n, args.p)
    delta = scheme.delta_matrix(layer)
    eta = scheme.eta_vector(layer)
    out = {
        "n": args.n,
        "p": args.p,
        "delta": [float(v) for v in delta.reshape(-1)],
        "eta": eta.tolist(),
        "vertices": None,
        "eigen_profile": None,
        "admissible": None,
    }
    if args.scheme_cmd in ("vertices", "check"):
        out["vertices"] = [row.tolist() for row in scheme.vertex_betas(layer)]
    if args.scheme_cmd == "check":
        beta = _parse_beta(args.beta)
        if beta.shape[0] != args.p + 1:
            raise ValueError(f"--beta must have length p+1={args.p + 1}")
        report = scheme.is_admissible(scheme.BetaCoeffs(layer, beta))
        out["eigen_profile"] = report.profile.tolist()
        out["admissible"] = report.ok
        out["violation"] = report.violation
    _emit(args, out)
    return 0


def _cmd_kernel(args) -> int:
    if args.kernel_cmd == "universal":
        spec = kernels.universal_kernel(args.n)
        obj = spec.to_json_dict()
        _emit(args, obj)
        return 0
    with open(args.spec) as fh:
        spec = kernels.KernelSpec.from_json_dict(json.load(fh))
    x = kernels.HypercubePoint.from_string(args.x)
    y = kernels.HypercubePoint.from_string(args.y)
    value = spec.evaluate(x, y)
    _emit(args, {"n": spec.n, "kind": spec.kind, "x": args.x, "y": args.y, "value": value})
    return 0


def _cube_points(data, command: str) -> list:
    if not all(isinstance(p, kernels.HypercubePoint) for p in data.points):
        raise ValueError(f"{command} expects a hypercube (bitstring) dataset")
    return list(data.points)


def _cmd_train(args) -> int:
    data = harness.load_dataset(args.data)
    points = _cube_points(data, "train")
    loss = learners.get_loss(args.loss)
    labels = data.labels
    mapping = "native labels"
    if loss.name == "hinge":
        labels, mapping = learners.hinge_labels(labels)
    if args.algo == "pegasos":
        lam = learners.regularization_weight(data.n, args.B, args.eps, args.lam)
        spec = kernels.universal_kernel(data.n)
        model = learners.pegasos_train(
            spec, points, labels, lam, epochs=args.epochs, seed=args.seed, loss=loss
        )
    else:
        model = learners.mkl_train(
            points,
            labels,
            args.B,
            args.eps,
            loss=loss,
            outer_iters=args.outer_iters,
            lam_override=args.lam,
        )
    report = dict(model.report)
    per_layer = report.pop("per_layer", {})  # the model file keeps per_layer last, after label_mapping
    _warn_unconverged(per_layer)
    report["label_mapping"] = mapping
    report["per_layer"] = per_layer
    _emit(args, harness.model_json_dict(model, report))
    return 0


def _cmd_rademacher(args) -> int:
    points = _cube_points(harness.load_dataset(args.data), "rademacher")
    est = learners.rademacher_estimate(points, args.B, trials=args.trials, seed=args.seed)
    _emit(
        args,
        {
            "mean": est.mean,
            "stderr": est.stderr,
            "bound": est.bound,
            "trials": est.trials,
            "layer_share": {str(k): v for k, v in est.layer_share.items()},
        },
    )
    return 0


def _cmd_embed(args) -> int:
    if args.embed_cmd == "build":
        try:
            pair = embedding.build_pair(args.n, args.eps, seed=args.seed, c_t=args.c_t)
        except RuntimeError as exc:  # a --c-t too small for its self-check is a usage error
            raise ValueError(str(exc)) from None
        embedding.save_pair(pair, args.pair_out)
        _emit(
            args,
            {
                "n": pair.n,
                "t": pair.t,
                "eps": pair.epsilon,
                "seed": pair.seed,
                "width": pair.width,
                "out": args.pair_out,
                "attempts": [coord.attempt + 1 for coord in pair.coords],
                "max_deviation": [coord.max_deviation() for coord in pair.coords],
            },
        )
        return 0
    pair = embedding.load_pair(args.pair)
    records = harness.read_records(args.points, ("x",))
    embedded = []  # every record is checked before the output is opened
    for where, obj in records:
        if not harness.is_vector(obj["x"]):
            msg = "embed apply takes one vector per line; 'x' is not a flat list of numbers"
            raise ValueError(f"{where}: {msg}")
        try:
            embedded.append(embedding.embed(pair, args.role, obj["x"]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    with open(args.bits_out, "w") as fout:
        for pt in embedded:
            fout.write(json.dumps({"x": pt.to_string()}) + "\n")
    _emit(args, {"count": len(records), "width": pair.width, "out": args.bits_out})
    return 0


def _cmd_bench(args) -> int:
    t0 = time.perf_counter()
    report = harness.bench_conjunction(
        args.n,
        args.s,
        args.literals,
        args.m,
        args.algo,
        args.B,
        args.eps,
        args.seed,
        noise_rate=args.noise,
        epochs=args.epochs,
        outer_iters=args.outer_iters,
        t_scale=args.t_scale,
    )
    _note(args, f"bench wall time: {time.perf_counter() - t0:.2f}s")
    _warn_unconverged(report["per_layer"])
    _emit(args, report)
    return 0


def _cmd_verify(args) -> int:
    verdict = harness.verify_suite(
        max_n=args.max_n, trials=args.trials, seed=args.seed, fault=args.fault
    )
    _emit(args, verdict)
    return 0 if verdict["passed"] else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="cubekern",
        description="Kernels and multiple-kernel learning on hypercube layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scheme = sub.add_parser("scheme", help="layer spectral algebra")
    ssub = p_scheme.add_subparsers(dest="scheme_cmd", required=True)
    for name in ("delta", "vertices", "check"):
        sp = ssub.add_parser(name, parents=[common])
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--p", type=int, required=True)
        if name == "check":
            sp.add_argument("--beta", required=True, help="comma-separated coefficients")
        sp.set_defaults(func=_cmd_scheme)

    p_kernel = sub.add_parser("kernel", help="kernel construction and evaluation")
    ksub = p_kernel.add_subparsers(dest="kernel_cmd", required=True)
    ku = ksub.add_parser("universal", parents=[common])
    ku.add_argument("--n", type=int, required=True)
    ku.set_defaults(func=_cmd_kernel)
    ke = ksub.add_parser("eval", parents=[common])
    ke.add_argument("--spec", required=True)
    ke.add_argument("--x", required=True)
    ke.add_argument("--y", required=True)
    ke.set_defaults(func=_cmd_kernel)

    p_train = sub.add_parser("train", parents=[common], help="fit a model")
    p_train.add_argument("--algo", choices=("pegasos", "mkl"), required=True)
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--loss", choices=("hinge", "abs"), default="hinge")
    p_train.add_argument("--B", type=float, default=1.0)
    p_train.add_argument("--eps", type=float, default=0.1)
    p_train.add_argument("--lam", type=float, default=None, help="override lambda = eps/(n B^2)")
    p_train.add_argument("--epochs", type=int, default=100)
    p_train.add_argument(
        "--outer-iters", type=int, default=500,
        help="MKL: the most beta steps per layer, each one SDCA epoch; a layer stops"
        " sooner once its saddle gap is certified",
    )
    p_train.set_defaults(func=_cmd_train)

    p_rad = sub.add_parser("rademacher", parents=[common], help="complexity estimate")
    p_rad.add_argument("--data", required=True)
    p_rad.add_argument("--B", type=float, default=1.0)
    p_rad.add_argument("--trials", type=int, default=200)
    p_rad.set_defaults(func=_cmd_rademacher)

    # for embed subcommands, --out names the artifact (pair file / bit file)
    common_noout = _common_flags(with_out=False)
    p_embed = sub.add_parser("embed", help="randomized cube embeddings")
    esub = p_embed.add_subparsers(dest="embed_cmd", required=True)
    eb = esub.add_parser("build", parents=[common_noout])
    eb.add_argument("--n", type=int, required=True)
    eb.add_argument("--eps", type=float, required=True)
    eb.add_argument(
        "--c-t", dest="c_t", type=float, default=embedding.DEFAULT_CT,
        help="constant in the bits-per-coordinate formula c_t ln(1/eps)/eps^2",
    )
    eb.add_argument("--out", dest="pair_out", required=True, metavar="PAIR.bin")
    eb.set_defaults(func=_cmd_embed)
    ea = esub.add_parser("apply", parents=[common_noout])
    ea.add_argument("--pair", required=True)
    ea.add_argument("--role", type=int, choices=(1, 2), required=True)
    ea.add_argument("--in", dest="points", required=True, metavar="points.jsonl")
    ea.add_argument("--out", dest="bits_out", required=True, metavar="bits.jsonl")
    ea.set_defaults(func=_cmd_embed)

    p_bench = sub.add_parser("bench", parents=[common], help="conjunction benchmark")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--s", type=int, required=True)
    p_bench.add_argument("--literals", type=int, required=True)
    p_bench.add_argument("--m", type=int, required=True)
    p_bench.add_argument("--algo", choices=harness.BENCH_ALGOS, required=True)
    p_bench.add_argument("--B", type=float, default=1.0)
    p_bench.add_argument("--eps", type=float, default=0.1)
    p_bench.add_argument("--noise", type=float, default=0.0)
    p_bench.add_argument("--epochs", type=int, default=300)
    p_bench.add_argument("--outer-iters", type=int, default=300, help="MKL: the most beta steps per layer")
    p_bench.add_argument(
        "--t-scale", dest="t_scale", type=float, default=1.0,
        help="scale on the conjunction-kernel depth ceil(t_scale sqrt(n) ln(1/eps))",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify", parents=[common], help="oracle verification suite")
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument(
        "--fault",
        choices=harness.FAULT_TAGS,
        default=None,
        help="inject a documented bug to exercise failure reporting",
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

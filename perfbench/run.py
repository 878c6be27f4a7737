"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload pegasos-cube --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: cubekern is imported from ``src/`` and the
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``, with
the end-to-end metrics when ``--trace 0`` and the per-layer metrics from
traced spans when ``--trace 1``.  Details of every round, and the spans of
a traced run, go to ``perfbench/out/``; a summary goes to standard error.
Exit status 0 means every check passed.
"""

import argparse
import json
import os
import sys

# One process, one BLAS thread: the load stays within the machine's cores
# and timings do not depend on how a thread pool is scheduled.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)

import workloads  # noqa: E402  (after the thread settings, which numpy reads on import)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import cubekern  # fails before measuring when the checkout has no sources

    if not os.path.abspath(cubekern.__file__).startswith(_SRC + os.sep):
        sys.exit(f"cubekern was imported from {cubekern.__file__}, not from {_SRC}")

    result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for key, value in result["end_to_end"].items():
        raw = f" (measured {result['raw'][key]:.6g})" if key in result["raw"] else ""
        print(f"{args.workload} {key} = {value:.6g}{raw}", file=sys.stderr)
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    if {m["name"] for m in listed} != set(measured):
        sys.exit(f"measured metrics {sorted(measured)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed}
    line = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"]}
    print(json.dumps({**line, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of pciseg: one workload per process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload infer-768 --seed 0 --seconds 30 --trace 0

Workloads: infer-768, infer-4096, train-768 (see bench/README.md). With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written to .bench_out/. The lines before it
give the environment, every metric by name and unit, and the checks.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402  (pins BLAS threads before numpy loads)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="pciseg benchmark")
    parser.add_argument("--workload", required=True, choices=("infer-768", "infer-4096", "train-768"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.scene_seed(args.seed)  # rejects negative seeds
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy and scipy load before the set-up clock starts: no change to
    # pciseg moves their import time, which varies by a fifth between runs.
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.special  # noqa: F401

    deps_loaded = time.perf_counter()
    common.require_checkout_package()
    if not common.MODEL_PATH.is_file():
        raise SystemExit(f"bench: reference model {common.MODEL_PATH} is missing")

    import workloads

    run = workloads.Run(args, deps_loaded)
    env = workloads.environment()
    try:
        end_to_end, extra = workloads.WORKLOADS[args.workload](run)
        if args.trace:
            root = "bench.train_call" if args.workload.startswith("train") else "bench.scene"
            metrics, accounting = workloads.per_layer(run.tracer, extra, root)
            trace_path = common.OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
            run.tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "env": env})
        else:
            metrics = end_to_end
    finally:
        run.close()

    loop = extra["loop"]
    loaded = loop["cpu_share"] < workloads.LOADED_CPU_SHARE or loop["load_before"][0] >= env["nproc"]
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"numpy and scipy imports: {deps_loaded - STARTED:.3f} s (not in setup_s)")
    print(
        "load: before={:.2f},{:.2f},{:.2f} after={:.2f},{:.2f},{:.2f} cpu_share={:.3f} under_load={}".format(
            *loop["load_before"], *loop["load_after"], loop["cpu_share"], "YES" if loaded else "no"
        )
    )
    for line in run.lines:
        print(line)
    if args.trace:
        print("trace accounting: " + accounting)
        print(f"trace spans: {trace_path.relative_to(common.ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{'layer' if args.trace else 'end-to-end'} {name} = {value:.6g} {unit}")
    print(f"ops: attempted={run.attempted} failed={run.failed}")
    print(f"checks: {run.checks.passed} passed, {len(run.checks.failures)} failed")
    for failure in run.checks.failures:
        print(f"CHECK FAILED: {failure}")
    result = {
        "correct": not run.checks.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""DDCN benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload ref_train --seed 1 --seconds 15 --trace 0

Run from the repository root; the library is imported from ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it record the environment, the raw samples, and every metric
with its unit and the number of samples behind it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ref_train", "ablation_train", "verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may run on.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def import_library():
    """Import ``ddcn`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ddcn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {src / 'ddcn'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import ddcn

    if Path(ddcn.__file__).resolve().parent != (src / "ddcn").resolve():
        sys.exit(f"perfbench: imported ddcn from {ddcn.__file__}, not from {src}")


def environment(seed: int, workload: str, seconds: float, trace: bool) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "loop": "closed, one caller",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    import_library()
    import bench

    wl = bench.WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = environment(args.seed, wl.name, args.seconds, trace)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    result = bench.run_workload(wl, args.seed, args.seconds, trace, ROOT)

    spec = bench.PER_LAYER if trace else {**bench.END_TO_END, **bench.REPORTED}
    metrics = result["metrics"]
    samples = result["samples"]
    print("samples " + json.dumps({k: [float(f"{v:.6g}") for v in vals]
                                   for k, vals in samples.items()}), flush=True)
    for name, (unit, _) in spec.items():
        how = "mean" if name == "final_train_l1" else "median"
        suffix = f"  ({how} of {len(samples[name])})" if name in samples else ""
        print(f"{name:<42s} {metrics.get(name, math.nan):>16.6g} {unit}{suffix}")
    error_rate = result["failed"] / max(result["attempted"], 1)
    print(f"{'error_rate':<42s} {error_rate:>16.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps(summary(result, trace)), flush=True)
    return 0


def summary(result: dict, trace: bool) -> dict:
    """The result line: a run is correct when no operation failed and every
    metric was measured as a finite number."""
    import bench

    spec = bench.PER_LAYER if trace else bench.END_TO_END
    metrics = result["metrics"]
    finite = {name: metrics[name] for name in spec
              if name in metrics and math.isfinite(metrics[name])}
    return {
        "correct": result["failed"] == 0 and len(finite) == len(spec),
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"] if result["attempted"] else 1,
        "metrics": {name: {"value": value, "unit": spec[name][0]}
                    for name, value in finite.items()},
    }


if __name__ == "__main__":
    sys.exit(main())

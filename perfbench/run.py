"""Benchmark entry point: one workload (or all three) in one process.

Usage, from the repository root::

    python3 perfbench/run.py --workload search --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

BLAS is pinned to one thread before numpy loads: on a small box two
BLAS threads make the search slower and noisier, not faster.

Each run sets the workload up nine times and reports the median
set-up time, then repeats the workload's operation in a closed loop
until ``--seconds`` have passed.  A set-up imports the library and the
workload code afresh (numpy and scipy, imported once before, are not
part of it), builds the inputs and makes one warm-up call.  Like the
operation times, each set-up's time is divided by the reference time
around it (see workloads.reference_sample), here the median of samples
taken between the set-ups: ``setup_s`` is the set-up time on a host on
which the reference computation takes ``REFERENCE_NOMINAL_S``.
With ``--trace 1`` the first operation runs untraced and the rest
traced; the run reports per-layer metrics per traced operation and the
tracing overhead, and writes every span to ``.perfbench-out/``.

A human-readable report goes to standard output first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
SETUP_REFERENCE_SAMPLES = 3   # around each set-up
# The reference computation's time, rounded, on the 2-vCPU Xeon VM the
# benchmark was tuned on; setup_s is given in seconds of such a host.
REFERENCE_NOMINAL_S = 2e-3
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

# The workload-neutral end-to-end metrics of BENCHMARK.json: unit, and
# which named value of each workload they report.  op_ref and
# throughput_ref are in reference times, so that a shared host's speed
# changes cancel (see workloads.reference_sample).
END_TO_END = {
    "op_ref": ("ref", {"search": "search_ref", "decompose": "decompose_ref",
                       "space": "census_ref"}),
    "throughput_ref": ("1/ref", {"search": "infer_per_ref",
                                 "decompose": "points_per_ref",
                                 "space": "enum_per_ref"}),
    "size_frac": ("ratio", {"search": "params_frac",
                            "decompose": "params_frac",
                            "space": "value_frac"}),
    "fit": ("ratio", {"search": "accuracy", "decompose": "fit",
                      "space": "fit"}),
}
UNITS = {
    "setup_s": "s", "search_s": "s", "infer_sps": "samples/s",
    "params_frac": "ratio", "accuracy": "ratio", "decompose_s": "s",
    "rel_err_mean": "ratio", "census_s": "s", "enum_per_s": "solutions/s",
    "points_per_s": "points/s", "value_frac": "ratio", "census_miss": "ratio",
    "fit": "ratio", "reference_s": "s", "search_ref": "ref",
    "infer_per_ref": "1/ref", "decompose_ref": "ref",
    "points_per_ref": "1/ref", "census_ref": "ref", "enum_per_ref": "1/ref",
}
# With setup_s, the nine end-to-end metrics a run of all three workloads
# reports, and the workload each comes from.
NAMED = {"search_s": "search", "infer_sps": "search",
         "params_frac": "search", "accuracy": "search",
         "decompose_s": "decompose", "rel_err_mean": "decompose",
         "census_s": "space", "enum_per_s": "space"}


def environment(numpy, scipy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def fresh_workloads():
    """The workloads module, with the library it uses imported anew."""
    for module in [m for m in sys.modules if m.split(".")[0] in
                   ("lowrank", "workloads", "inputs")]:
        del sys.modules[module]
    return importlib.import_module("workloads")


def set_up(name: str, seed: int):
    """The workload from the last of SETUP_REPEATS set-ups, the seconds
    each took, and each one's seconds over the reference time around it
    (the geometric mean of the reference before and after it)."""
    from workloads import reference_sample

    def reference():
        return statistics.median(reference_sample()
                                 for _ in range(SETUP_REFERENCE_SAMPLES))

    times, scaled = [], []
    before = reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workloads = fresh_workloads()
        workload = workloads.WORKLOADS[name](seed)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
        after = reference()
        scaled.append(times[-1] / math.sqrt(before * after))
        before = after
    return workload, times, scaled


def measure(workload, seconds: float, tracer=None) -> list:
    """Closed loop of operations until ``seconds`` have passed."""
    ops = []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        start = time.perf_counter()
        if tracer is None:
            op = workload.run_once()
        else:
            with tracer.span("op"):
                op = workload.run_once(tracer)
        op.wall = time.perf_counter() - start
        ops.append(op)
    return ops


def summarize(workload, ops: list) -> dict:
    """The run's values from its operations, plus totals and problems."""
    from workloads import reference

    values = dict(ops[0].values)
    values.update(workload.rates(ops))
    values["reference_s"] = reference(ops)
    problems = sorted({p for op in ops for p in op.problems})
    digests = ops[0].digests
    if any(op.digests != digests for op in ops):
        problems.append("outputs differ between identical operations")
    return {"ops": len(ops), "values": values, "digests": digests,
            "attempted": sum(op.attempted for op in ops),
            "failed": sum(op.failed for op in ops),
            "counts": {k: sum(op.counts.get(k, 0) for op in ops) / len(ops)
                       for k in sorted({k for op in ops for k in op.counts})},
            "problems": problems,
            "op_wall_s": [round(op.wall, 4) for op in ops]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import per_layer
    import spans

    workload, setup_times, setup_scaled = set_up(name, seed)
    result = {"workload": name, "setup_raw_s": setup_times,
              "setup_s": statistics.median(setup_scaled) * REFERENCE_NOMINAL_S}
    if not trace:
        result.update(summarize(workload, measure(workload, seconds)))
        return result
    t0 = time.perf_counter()
    untraced = measure(workload, 0)[0]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        ops = measure(workload, seconds - (time.perf_counter() - t0), tracer)
    result.update(summarize(workload, [untraced] + ops))
    result["per_layer"] = per_layer.metrics(tracer, ops, untraced.wall)
    result["cp_sweeps_per_call"] = per_layer.als_sweeps(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    return result


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def final_line(results: list, trace: bool) -> dict:
    correct = all(not r["problems"] for r in results)
    line = {"correct": correct,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results)}
    if len(results) > 1:
        values = {r["workload"]: r["values"] for r in results}
        line["metrics"] = {"setup_s": _metric(
            sum(r["setup_s"] for r in results), "s")}
        for key, owner in NAMED.items():
            line["metrics"][key] = _metric(values[owner][key], UNITS[key])
        return line
    (r,) = results
    if trace:
        line["metrics"] = {k: _metric(v, u)
                           for k, (v, u) in r["per_layer"].items()}
        return line
    metrics = {"setup_s": _metric(r["setup_s"], "s")}
    for key, (unit, source) in END_TO_END.items():
        metrics[key] = _metric(r["values"][source[r["workload"]]], unit)
    line["metrics"] = metrics
    return line


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "decompose", "space", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "lowrank" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import numpy
    import scipy
    import lowrank
    if Path(lowrank.__file__).resolve().parent != (src / "lowrank").resolve():
        print(f"perfbench: imported lowrank from {lowrank.__file__}, not "
              f"{src}", file=sys.stderr)
        return 2
    import workloads  # noqa: F401  (the first import, with scipy's parts)
    first_import_s = time.perf_counter() - t0

    names = ("search", "decompose", "space") if args.workload == "all" \
        else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    report = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "first_import_s": first_import_s,
              "env": environment(numpy, scipy),
              "units": UNITS, "results": results}
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps(final_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

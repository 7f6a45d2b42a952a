"""blurshift benchmark: three closed-loop workloads over the public API.

    python3 bench/run.py --workload {mc_small,step_sweep,cluster_cli} \
        --seed N --seconds S --trace {0,1}

Run from a checkout: the package is imported from its ``src/`` directory
and nowhere else. Set-up (a fresh-interpreter import plus input generation
and writing) is repeated five times and its median reported. Passes over
the workload's op list repeat until about ``--seconds`` of pass time have
been measured; every pass's outputs are checked after its timer stops.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, with the tracing overhead as the
difference of the two median pass times; the spans are written to
``.bench_out/`` when the run ends. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import numpy, blurshift; "
    "print(time.perf_counter() - t)"
)


def cap_blas_threads() -> int:
    """Keep BLAS threads at or below the CPUs this process may use; must
    run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def environment(np, nproc: int, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_requested": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "seed": seed,
    }


def import_seconds() -> float:
    """Import time of numpy and the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-E", "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def run_ops(workload, tracer, op_name):
    outputs, latencies = [], []
    for k, op in enumerate(workload.ops):
        idx = tracer.open(op_name, k) if tracer else None
        t0 = time.perf_counter()
        outputs.append(op())
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(idx)
    return outputs, latencies


def measure(workload, package, tracing, seconds: float, traced: bool) -> dict:
    tracer = tracing.Tracer()
    op_name = tracer.name_id(tracing.OP)
    pass_name = tracer.name_id(tracing.PASS)
    walls = {False: [], True: []}
    untraced_ops, rates, layers, failures = [], [], [], []
    attempted = 0
    measured = 0.0
    for i in itertools.count():
        trace_this = traced and i % 2 == 1
        if trace_this:
            lo = len(tracer)
            with tracing.patched(package, tracer):
                root = tracer.open(pass_name)
                t0 = time.perf_counter()
                outputs, op_seconds = run_ops(workload, tracer, op_name)
                wall = time.perf_counter() - t0
                tracer.close(root)
            hi = len(tracer)
        else:
            t0 = time.perf_counter()
            outputs, op_seconds = run_ops(workload, None, op_name)
            wall = time.perf_counter() - t0
        pairs = 0
        for k, output in enumerate(outputs):
            error, op_pairs = workload.check(k, output)
            attempted += 1
            pairs += op_pairs
            if error:
                failures.append(f"pass {i}: {error}")
        walls[trace_this].append(wall)
        if trace_this:
            metrics = tracing.layer_metrics(tracer, lo, hi)
            metrics["engine.blurring_step.cliff_3000_3001"] = (
                tracing.cliff_ratio(tracer, lo, hi, workload.cliff_ops)
                if workload.cliff_ops
                else 0.0
            )
            layers.append(metrics)
        else:
            untraced_ops.append(op_seconds)
            rates.append(pairs / wall)
        measured += wall
        # stop when another pass of this length would mostly overrun
        if measured + wall / 2 >= seconds and walls[False] and (walls[True] or not traced):
            break
    return {
        "tracer": tracer,
        "walls": walls,
        "op_seconds": untraced_ops,
        "latencies": [s / workload.reps_per_op for ops in untraced_ops for s in ops],
        "rates": rates,
        "layers": layers,
        "attempted": attempted,
        "failures": failures,
    }


def end_to_end(run: dict, setups: list) -> dict:
    latencies = run["latencies"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["walls"][False]),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "pairs_per_s": statistics.median(run["rates"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: dict, defect) -> dict:
    layers = run["layers"]
    out = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    out["trace.overhead_s"] = statistics.median(run["walls"][True]) - statistics.median(
        run["walls"][False]
    )
    out["known_defect.extra_clusters"] = (
        defect["clusters"] - defect["single_linkage"] if defect else 0
    )
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blurshift" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'blurshift'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}

    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import blurshift
    import blurshift.cli  # noqa: F401  (loads every module the tracer patches)

    if Path(blurshift.__file__).resolve().parent != (SRC / "blurshift").resolve():
        print(f"bench: imported blurshift from {blurshift.__file__}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = tracing.LAYER_METRICS if args.trace else END_TO_END_UNITS
    if declared != units:
        print(f"bench: {spec_path.name} {section} does not match the benchmark", file=sys.stderr)
        return 2
    env = environment(np, nproc, args.seed)
    print("env " + json.dumps(env))

    workload = WORKLOADS[args.workload](blurshift)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{stem}-work{os.getpid()}"
    workdir.mkdir()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            setups.append(imported + time.perf_counter() - t0)
        run = measure(workload, blurshift, tracing, args.seconds, bool(args.trace))
        defect = workload.known_defect() if workload.known_defect else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer(run, defect) if args.trace else end_to_end(run, setups)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    failed = len(run["failures"])
    attempted = run["attempted"]
    report = {
        "workload": args.workload,
        "env": env,
        "passes": {"untraced_s": run["walls"][False], "traced_s": run["walls"][True]},
        "latency_samples": len(run["latencies"]),
        "untraced_op_seconds": run["op_seconds"],
        "attempted": attempted,
        "failed": failed,
        "failures": run["failures"],
        "known_defect": defect,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        run["tracer"].write(OUT / f"{stem}-spans.csv.gz", env)

    print(
        f"{args.workload} seed {args.seed}: {len(run['walls'][False])} untraced and "
        f"{len(run['walls'][True])} traced passes, {len(run['latencies'])} latency samples"
    )
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        traced = statistics.median(run["walls"][True])
        harness = values["trace.unattributed_s"]
        print(
            f"  traced pass {traced:.4f} s = layer self times {traced - harness:.4f} s"
            f" + benchmark {harness:.4f} s; untraced pass "
            f"{statistics.median(run['walls'][False]):.4f} s"
        )
    print(f"  {'failed_share':40s} {failed}/{attempted} = {failed / attempted:.4g}")
    for line in run["failures"][:5]:
        print(f"  check failed: {line}")
    if defect:
        print(
            f"  known defect: at merge tolerance {defect['merge_tolerance']:g} "
            f"extract_clusters gives {defect['clusters']} clusters "
            f"({defect['empty']} empty, {defect['nonfinite_centres']} with non-finite "
            f"centres) where single linkage gives {defect['single_linkage']}"
        )
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

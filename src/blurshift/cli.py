"""Command-line interface.

Five subcommands, one per module entry point: cluster, theory, experiment,
diagnose, counterexample. Each run prints a single JSON line to stdout with
the fully resolved configuration and the paths it wrote. Failures print
{"error": {"code", "message"}} to stderr and exit nonzero.

Environment: BLURSHIFT_SEED sets the experiment seed when --seed is not given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import fileio
from .diagnostics import (
    CounterexampleBreakdownError,
    UnsupportedDimensionError,
    directional_containment,
    hull_trace,
    influence_decay,
    radius_trace,
    run_counterexample,
)
from .engine import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_MERGE_TOLERANCE,
    DEFAULT_STOP_DISPLACEMENT,
    IsolatedCenterError,
    RunConfig,
    extract_clusters,
    run,
)
from .experiments import (
    AUTO,
    ExperimentConfig,
    TooFewConvergedError,
    run_convergence_rate,
    run_efficiency,
    run_robustness,
)
from .kernels import (
    GaussianKernel,
    Kernel,
    KernelConfigError,
    TabulatedKernel,
    TruncatedFlatKernel,
    kernel_to_config,
)
from .shrinkage import blurring_std_sequence, nonblurring_std_sequence

__all__ = ["main", "build_parser"]

# exception type -> stable machine-readable code; first match wins, so
# subclasses stay above their bases
_ERROR_CODES = (
    (KernelConfigError, "invalid-kernel"),
    (UnsupportedDimensionError, "unsupported-dimension"),
    (fileio.MalformedInputError, "malformed-input"),
    (fileio.EmptyInputError, "empty-input"),
    (fileio.DimensionMismatchError, "dimension-mismatch"),
    (IsolatedCenterError, "isolated-center"),
    (CounterexampleBreakdownError, "counterexample-breakdown"),
    (TooFewConvergedError, "too-few-converged"),
    (FileNotFoundError, "missing-input"),
    (IsADirectoryError, "missing-input"),
    (PermissionError, "missing-input"),
    (ValueError, "invalid-argument"),
)


def _error_code(exc: BaseException) -> str:
    for exc_type, code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal-error"


def _emit_error(exc: BaseException) -> None:
    payload = {"error": {"code": _error_code(exc), "message": str(exc)}}
    print(json.dumps(payload), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems in the same JSON shape."""

    def error(self, message):
        print(
            json.dumps({"error": {"code": "invalid-argument", "message": message}}),
            file=sys.stderr,
        )
        raise SystemExit(2)


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def _parse_pairs(text: str, what: str):
    """\"0:1,1:0.5\" -> [[0.0, 1.0], [1.0, 0.5]]"""
    pairs = []
    for chunk in text.split(","):
        left, sep, right = chunk.partition(":")
        if not sep:
            raise ValueError(f"{what} entry {chunk!r} is not 'distance:value'")
        try:
            pairs.append([float(left), float(right)])
        except ValueError as exc:
            raise ValueError(f"{what} entry {chunk!r}: {exc}") from exc
    return pairs


# kernel family -> its class and the one flag it reads besides
# --support-radius; the class takes that flag's value as its first argument
_FAMILIES = {
    "gaussian": (GaussianKernel, "tau"),
    "truncated_flat": (TruncatedFlatKernel, "levels"),
    "tabulated": (TabulatedKernel, "knots"),
}


def _add_kernel_flags(parser) -> None:
    group = parser.add_argument_group("kernel")
    group.add_argument("--kernel", choices=list(_FAMILIES), default="gaussian")
    group.add_argument("--tau", type=float, help="gaussian kernel width")
    group.add_argument(
        "--support-radius",
        type=float,
        help="force influence to zero beyond this distance",
    )
    group.add_argument(
        "--levels",
        help="truncated_flat steps as 'threshold:value,...', e.g. '1:0.5,2:0.25'",
    )
    group.add_argument(
        "--knots",
        help="tabulated profile as 'distance:value,...', e.g. '0:1,2:0.3'",
    )


def _kernel_from_args(args) -> Kernel:
    """The kernel the kernel flags describe. A flag of another family, a
    missing one, or a value the kernel rejects is a KernelConfigError that
    names the flag."""
    cls, own = _FAMILIES[args.kernel]
    for _, flag in _FAMILIES.values():
        if flag != own and getattr(args, flag) is not None:
            raise KernelConfigError(f"--{flag} does not apply to --kernel {args.kernel}")
    raw = getattr(args, own)
    if raw is None:
        raise KernelConfigError(f"--kernel {args.kernel} needs --{own}")
    value = raw if own == "tau" else _parse_pairs(raw, f"--{own}")
    given = f"--{own} {raw}"
    extra = {}
    if args.support_radius is not None:
        extra["support_radius"] = args.support_radius
        given += f" --support-radius {args.support_radius}"
    try:
        return cls(value, **extra)
    except ValueError as exc:
        raise KernelConfigError(f"{given}: {exc}") from exc


def _add_engine_flags(parser, with_mode: bool = True) -> None:
    group = parser.add_argument_group("engine")
    if with_mode:
        group.add_argument(
            "--mode", choices=["blurring", "nonblurring"], default="blurring"
        )
    group.add_argument(
        "--stop-displacement", type=float, default=DEFAULT_STOP_DISPLACEMENT
    )
    group.add_argument("--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS)
    group.add_argument(
        "--merge-tolerance", type=float, default=DEFAULT_MERGE_TOLERANCE
    )


def _echo(subcommand: str, config: dict, outputs: dict) -> None:
    print(json.dumps({"subcommand": subcommand, "config": config, "outputs": outputs}))


def _run_and_label(args, points, kernel, trace_level: str, data=None):
    """Run the engine as the engine flags say, then label the final
    positions. Returns (final, trace, clusters)."""
    config = RunConfig(
        kernel=kernel,
        mode=args.mode,
        stop_displacement=args.stop_displacement,
        max_iterations=args.max_iterations,
        trace_level=trace_level,
    )
    final, trace = run(points, config, data=data)
    return final, trace, extract_clusters(final, args.merge_tolerance)


def _cmd_cluster(args) -> None:
    points = fileio.read_points_csv(args.input)
    kernel = _kernel_from_args(args)
    data = None
    if args.data is not None:
        if args.mode != "nonblurring":
            raise ValueError("--data applies to nonblurring mode only")
        data = fileio.read_points_csv(args.data)
        if data.dimension != points.dimension:
            raise fileio.DimensionMismatchError(
                f"centers are {points.dimension}-d but data is {data.dimension}-d"
            )
    trace_level = args.trace_level
    if args.trace is not None and trace_level == "none":
        raise ValueError("--trace needs a trace level of summary or full")
    final, trace, clusters = _run_and_label(args, points, kernel, trace_level, data)
    resolved = {
        "input": args.input,
        "data": args.data,
        "mode": args.mode,
        "kernel": kernel_to_config(kernel),
        "stop_displacement": args.stop_displacement,
        "max_iterations": args.max_iterations,
        "merge_tolerance": args.merge_tolerance,
        "trace_level": trace_level,
    }
    fileio.write_result_json(args.output, final, clusters, trace, resolved)
    outputs = {"result": args.output}
    if args.trace is not None:
        fileio.write_trace_csv(args.trace, trace)
        outputs["trace"] = args.trace
    _echo("cluster", resolved, outputs)


def _cmd_theory(args) -> None:
    blur = blurring_std_sequence(args.sigma0, args.tau, args.steps)
    fixed = nonblurring_std_sequence(args.sigma0, args.tau, args.steps)
    fileio.write_theory_csv(args.output, blur, fixed)
    resolved = {"sigma0": args.sigma0, "tau": args.tau, "steps": args.steps}
    _echo("theory", resolved, {"table": args.output})


def _resolve_truncation(raw: str):
    lowered = raw.strip().lower()
    if lowered == "auto":
        return AUTO
    if lowered in ("none", "off"):
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(
            f"--truncation-multiple must be a number, 'none', or 'auto', got {raw!r}"
        ) from exc


def _cmd_experiment(args) -> None:
    kind = args.kind.replace("-", "_")
    if args.reps is None:
        # Fig-1 style series come from one sample; the tables need many
        reps = 1 if kind == "convergence_rate" else 2000
    elif kind == "convergence_rate" and args.reps != 1:
        raise ValueError(
            f"--reps must be 1 for convergence-rate, which runs one sample; "
            f"got {args.reps}"
        )
    else:
        reps = args.reps
    merge_tolerance = args.merge_tolerance
    if merge_tolerance is None:
        merge_tolerance = DEFAULT_MERGE_TOLERANCE
    elif kind == "convergence_rate":
        raise ValueError(
            f"--merge-tolerance does not apply to convergence-rate, which labels "
            f"no clusters; got {merge_tolerance}"
        )
    config = ExperimentConfig(
        kind=kind,
        tau=args.tau,
        n_points=args.n_points,
        replications=reps,
        seed=_env_int("BLURSHIFT_SEED", 0) if args.seed is None else args.seed,
        truncation_multiple=_resolve_truncation(args.truncation_multiple),
        stop_displacement=args.stop_displacement,
        max_iterations=args.max_iterations,
        merge_tolerance=merge_tolerance,
    )
    outputs = {"report": args.out}
    if kind == "convergence_rate":
        report = run_convergence_rate(config)
        fileio.write_convergence_report_json(args.out, report)
        if args.emit_csv is not None:
            fileio.write_convergence_csv(args.emit_csv, report)
            outputs["values"] = args.emit_csv
    else:
        runner = run_efficiency if kind == "efficiency" else run_robustness
        report = runner(config)
        fileio.write_experiment_report_json(args.out, report)
        if args.emit_csv is not None:
            fileio.write_experiment_values_csv(args.emit_csv, report)
            outputs["values"] = args.emit_csv
    _echo("experiment", fileio.config_dict(config), outputs)


def _cmd_diagnose(args) -> None:
    points = fileio.read_points_csv(args.input)
    kernel = _kernel_from_args(args)
    _, trace, clusters = _run_and_label(args, points, kernel, "full")
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    runners = {
        "radius": lambda: radius_trace(trace),
        "hull": lambda: hull_trace(trace),
        "directional": lambda: directional_containment(trace),
        "influence": lambda: influence_decay(trace, kernel, clusters),
    }
    unknown = set(checks) - set(runners) - {"auto"}
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if checks == ["auto"]:
        checks = ["radius", "directional", "influence"]
        if points.dimension <= 2:
            checks.append("hull")
    report = {
        "converged": trace.converged,
        "iterations": trace.iterations,
        "n_clusters": clusters.n_clusters,
    }
    for name, check in runners.items():
        if name in checks:
            # every report field but the per-iteration series, in field order
            found = check()
            report[name] = {
                f.name: getattr(found, f.name)
                for f in dataclasses.fields(found)
                if f.name not in ("radii", "hulls")
            }
    resolved = {
        "input": args.input,
        "mode": args.mode,
        "kernel": kernel_to_config(kernel),
        "stop_displacement": args.stop_displacement,
        "max_iterations": args.max_iterations,
        "merge_tolerance": args.merge_tolerance,
        "checks": checks,
    }
    report["config"] = resolved
    fileio._write_json(args.output, report)
    _echo("diagnose", resolved, {"report": args.output})


def _cmd_counterexample(args) -> None:
    try:
        deltas = tuple(float(v) for v in args.deltas.split(","))
    except ValueError as exc:
        raise ValueError(f"--deltas {args.deltas!r}: {exc}") from exc
    if len(deltas) != 3:
        raise ValueError("--deltas needs exactly three comma-separated values")
    trace = run_counterexample(
        deltas=deltas, iterations=args.iterations, delta_min=args.delta_min
    )
    fileio.write_counterexample_csv(args.output, trace.states, trace.weights)
    resolved = {
        "deltas": list(deltas),
        "iterations": args.iterations,
        "delta_min": args.delta_min,
        "flips": trace.flip_count(),
    }
    _echo("counterexample", resolved, {"trajectory": args.output})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blurshift", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cluster = sub.add_parser("cluster", help="run mean shift on a points CSV")
    cluster.add_argument("--input", required=True, help="points CSV")
    cluster.add_argument("--output", required=True, help="result JSON")
    cluster.add_argument("--trace", help="optional per-iteration trace CSV")
    cluster.add_argument(
        "--trace-level", choices=["none", "summary", "full"], default="summary"
    )
    cluster.add_argument(
        "--data", help="fixed data CSV for nonblurring mode (default: --input)"
    )
    _add_kernel_flags(cluster)
    _add_engine_flags(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    theory = sub.add_parser(
        "theory", help="closed-form per-iteration std sequences"
    )
    theory.add_argument("--sigma0", type=float, default=1.0)
    theory.add_argument("--tau", type=float, required=True)
    theory.add_argument("--steps", type=int, default=3)
    theory.add_argument("--output", required=True, help="CSV path")
    theory.set_defaults(func=_cmd_theory)

    experiment = sub.add_parser("experiment", help="Monte Carlo studies")
    experiment.add_argument(
        "--kind",
        required=True,
        choices=["efficiency", "robustness", "convergence-rate"],
    )
    experiment.add_argument("--tau", type=float, required=True)
    experiment.add_argument(
        "--reps",
        type=int,
        help="replications (default 2000; convergence-rate defaults to 1)",
    )
    experiment.add_argument(
        "--seed", type=int, help="master seed (default: BLURSHIFT_SEED, else 0)"
    )
    experiment.add_argument("--n-points", type=int, default=100)
    experiment.add_argument(
        "--truncation-multiple",
        default="auto",
        help="kernel cutoff as a multiple of tau; 'none' for pure gaussian, "
        "'auto' for the per-kind default",
    )
    experiment.add_argument("--out", required=True, help="report JSON")
    experiment.add_argument("--emit-csv", help="long-format raw values CSV")
    _add_engine_flags(experiment, with_mode=False)
    # None tells an explicit --merge-tolerance apart, which convergence-rate
    # rejects
    experiment.set_defaults(func=_cmd_experiment, merge_tolerance=None)

    diagnose = sub.add_parser(
        "diagnose", help="contraction checks on an engine run"
    )
    diagnose.add_argument("--input", required=True, help="points CSV")
    diagnose.add_argument("--output", required=True, help="report JSON")
    diagnose.add_argument(
        "--checks",
        default="auto",
        help="comma list from radius,hull,directional,influence; "
        "'auto' runs all that apply to the input dimension",
    )
    _add_kernel_flags(diagnose)
    _add_engine_flags(diagnose)
    diagnose.set_defaults(func=_cmd_diagnose)

    counterexample = sub.add_parser(
        "counterexample",
        help="adaptive-weight oscillation that never settles",
    )
    counterexample.add_argument("--deltas", default="0.1,0.1,0.1")
    counterexample.add_argument("--iterations", type=int, default=50)
    counterexample.add_argument("--delta-min", type=float, default=0.05)
    counterexample.add_argument("--output", required=True, help="trajectory CSV")
    counterexample.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        _emit_error(exc)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""File formats for the command-line surface.

Points come in as CSV, one point per row, with an optional header whose
last column may be named "weight". Everything written out uses 17
significant digits so a trace or table can be fed back in without losing a
bit.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math

import numpy as np

from .engine import ClusterResult, IterationTrace, PointSet
from .experiments import ConvergenceRateReport, ExperimentReport

__all__ = [
    "MalformedInputError",
    "EmptyInputError",
    "DimensionMismatchError",
    "read_points_csv",
    "config_dict",
    "write_result_json",
    "write_trace_csv",
    "write_theory_csv",
    "write_counterexample_csv",
    "write_experiment_report_json",
    "write_convergence_report_json",
    "write_experiment_values_csv",
    "write_convergence_csv",
]


class MalformedInputError(ValueError):
    """Input file exists but cannot be parsed into points."""


class EmptyInputError(ValueError):
    """Input file parses but contains no data rows."""


class DimensionMismatchError(ValueError):
    """Two point files that must share a dimension do not."""


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _looks_like_header(cells) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def read_points_csv(path) -> PointSet:
    """Load a points CSV.

    Rows are points; columns are coordinates. A non-numeric first row is
    treated as a header, and a header whose last column is "weight" (any
    case) marks per-point weights in that column.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    has_weights = False
    if rows and _looks_like_header(rows[0]):
        header = [cell.strip().lower() for cell in rows[0]]
        has_weights = bool(header) and header[-1] == "weight"
        rows = rows[1:]
    if not rows:
        raise EmptyInputError(f"no data rows in {path}")
    width = len(rows[0])
    if has_weights and width < 2:
        raise MalformedInputError(f"{path}: weight column leaves no coordinates")
    data = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise MalformedInputError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {width}"
            )
        try:
            data[i] = [float(cell) for cell in row]
        except ValueError as exc:
            raise MalformedInputError(f"{path}: row {i + 1}: {exc}") from exc
    try:
        if has_weights:
            return PointSet(data[:, :-1], data[:, -1])
        return PointSet(data)
    except ValueError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc


def write_result_json(
    path,
    final: PointSet,
    clusters: ClusterResult,
    trace: IterationTrace,
    config_echo: dict,
) -> None:
    """Clustering output: final positions, cluster assignment, how the run
    ended (from its trace), and the fully resolved configuration that
    produced them."""
    payload = {
        "final_positions": final.positions.tolist(),
        "weights": final.weights.tolist(),
        "labels": clusters.labels.tolist(),
        "centers": clusters.centers.tolist(),
        "sizes": clusters.sizes.tolist(),
        "n_clusters": clusters.n_clusters,
        "iterations_used": trace.iterations,
        "converged": trace.converged,
        "config": config_echo,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_trace_csv(path, trace: IterationTrace) -> None:
    """Per-iteration trace. Columns: iteration, max_displacement, radius,
    std_1..std_p, and for full traces the flattened positions pos{i}_{d}.
    The first row's displacement is nan: nothing moved yet."""
    if trace.trace_level == "none" or not trace.records:
        raise ValueError("trace was not recorded; rerun with a trace level")
    p = trace.dimension
    header = ["iteration", "max_displacement", "radius"]
    header += [f"std_{d + 1}" for d in range(p)]
    full = trace.trace_level == "full"
    if full:
        n = trace.records[0].positions.shape[0]
        header += [f"pos{i}_{d + 1}" for i in range(n) for d in range(p)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in trace.records:
            row = [str(rec.iteration), _fmt(rec.max_displacement), _fmt(rec.radius)]
            row += [_fmt(s) for s in rec.stds]
            if full:
                row += [_fmt(v) for v in rec.positions.ravel()]
            writer.writerow(row)


def write_theory_csv(path, blurring_stds, nonblurring_stds) -> None:
    """Predicted per-iteration stds for both modes, step 0 included."""
    blur = np.asarray(blurring_stds, dtype=float)
    fixed = np.asarray(nonblurring_stds, dtype=float)
    if blur.shape != fixed.shape or blur.ndim != 1:
        raise ValueError("std sequences must be 1-d and equally long")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "blurring_std", "nonblurring_std"])
        for step, (b, f) in enumerate(zip(blur, fixed)):
            writer.writerow([str(step), _fmt(b), _fmt(f)])


def write_counterexample_csv(path, states, weights) -> None:
    """Oscillation trajectory. Row t holds the state at t and the weights
    applied at t; the final state's weight cells are nan (no step taken)."""
    x = np.asarray(states, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3 or w.shape != (x.shape[0] - 1, 3):
        raise ValueError("states must be (T+1, 3) and weights (T, 3)")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "x1", "x2", "x3", "w1", "w2", "w3"])
        for t in range(x.shape[0]):
            row = [str(t)] + [_fmt(v) for v in x[t]]
            row += [_fmt(v) for v in w[t]] if t < w.shape[0] else ["nan"] * 3
            writer.writerow(row)


def config_dict(config) -> dict:
    out = dataclasses.asdict(config)
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[key] = repr(value)
    return out


def write_experiment_report_json(path, report: ExperimentReport) -> None:
    """Aggregate experiment report: resolved config, one SummaryStat per
    statistic, and the exclusion accounting."""
    excluded = sorted(
        set(range(report.config.replications)) - set(report.replication_indices.tolist())
    )
    payload = {
        "config": config_dict(report.config),
        "statistics": {
            name: dataclasses.asdict(getattr(report, name))
            for name in ("sample_mean", "blurring", "nonblurring")
        },
        "excluded_replications": report.excluded_replications,
        "excluded_indices": excluded,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_convergence_report_json(path, report: ConvergenceRateReport) -> None:
    payload = {"config": config_dict(report.config)}
    for series in (report.blurring, report.nonblurring):
        payload[series.mode] = {
            "means": series.means.tolist(),
            "stds": series.stds.tolist(),
            "log10_stds": [
                None if math.isinf(v) else v for v in series.log10_stds
            ],
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_experiment_values_csv(path, report: ExperimentReport) -> None:
    """Long-format raw values: statistic, replication, value. Replication
    numbers are the original indices, so excluded ones appear as gaps."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["statistic", "replication", "value"])
        for name in ("sample_mean", "blurring", "nonblurring"):
            for rep, value in zip(report.replication_indices, report.values[name]):
                writer.writerow([name, str(int(rep)), _fmt(value)])


def write_convergence_csv(path, report: ConvergenceRateReport) -> None:
    """Long-format per-iteration series: mode, iteration, mean, std,
    log10_std."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "iteration", "mean", "std", "log10_std"])
        for series in (report.blurring, report.nonblurring):
            logs = series.log10_stds
            for t in range(series.means.size):
                writer.writerow(
                    [
                        series.mode,
                        str(t),
                        _fmt(series.means[t]),
                        _fmt(series.stds[t]),
                        _fmt(logs[t]),
                    ]
                )

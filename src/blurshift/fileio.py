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
import os
import stat

import numpy as np

from .engine import ClusterResult, IterationTrace, PointSet
from .experiments import ConvergenceRateReport, ExperimentReport

__all__ = [
    "MalformedInputError",
    "EmptyInputError",
    "DimensionMismatchError",
    "UnwritableOutputError",
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


class UnwritableOutputError(OSError):
    """An output file cannot be opened for writing."""


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _open_output(path, newline=None, mode="w"):
    """``path`` opened for writing text; an OSError, such as a missing
    directory or a directory at the path, becomes an UnwritableOutputError."""
    try:
        return open(path, mode, newline=newline)
    except OSError as exc:
        raise UnwritableOutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_outputs(*paths) -> None:
    """Raise UnwritableOutputError on the first named output (None names
    none) that cannot be written, before any work is done. A regular file,
    or a path that names no file yet, must open for appending, which
    changes no byte of a file already there; a file the check made is
    removed again. Any other file there, a device or a pipe, is checked for
    write permission only, since opening a pipe waits for its reader."""
    for path in paths:
        if path is None:
            continue
        try:
            kind = os.stat(path).st_mode
        except OSError:
            kind = None
        if kind is None or stat.S_ISREG(kind):
            _open_output(path, mode="a").close()
            if kind is None:
                # through a symlink, the file made is its target
                os.remove(os.path.realpath(path))
        elif stat.S_ISDIR(kind):
            raise UnwritableOutputError(f"cannot write {path}: Is a directory")
        elif not os.access(path, os.W_OK):
            raise UnwritableOutputError(f"cannot write {path}: Permission denied")


def _write_csv(path, header, rows) -> None:
    """Header, then rows: strings verbatim, every other cell through ``_fmt``."""
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)


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


def _write_json(path, payload) -> None:
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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
    _write_json(path, payload)


def write_trace_csv(path, trace: IterationTrace) -> None:
    """Per-iteration trace. Columns: iteration, step_rows, max_displacement,
    radius, std_1..std_p, and for full traces the flattened positions
    pos{i}_{d}. The first row's displacement is nan: nothing moved yet."""
    if not trace.radii.size:
        raise ValueError("trace was not recorded; rerun with a trace level")
    if trace.step_rows is None:
        raise ValueError("trace has no step_rows column; record it with engine.run")
    p = trace.stds.shape[1]
    header = ["iteration", "step_rows", "max_displacement", "radius"]
    header += [f"std_{d + 1}" for d in range(p)]
    columns = [
        trace.step_rows[:, None],
        trace.max_displacements[:, None],
        trace.radii[:, None],
        trace.stds,
    ]
    if trace.positions is not None:
        n = trace.positions[0].shape[0]
        header += [f"pos{i}_{d + 1}" for i in range(n) for d in range(p)]
        columns.append(np.reshape(trace.positions, (len(trace.positions), -1)))
    _write_csv(path, header, ([t, *row] for t, row in enumerate(np.hstack(columns))))


def write_theory_csv(path, blurring_stds, nonblurring_stds) -> None:
    """Predicted per-iteration stds for both modes, step 0 included."""
    blur = np.asarray(blurring_stds, dtype=float)
    fixed = np.asarray(nonblurring_stds, dtype=float)
    if blur.shape != fixed.shape or blur.ndim != 1:
        raise ValueError("std sequences must be 1-d and equally long")
    rows = ([step, b, f] for step, (b, f) in enumerate(zip(blur, fixed)))
    _write_csv(path, ["step", "blurring_std", "nonblurring_std"], rows)


def write_counterexample_csv(path, states, weights) -> None:
    """Oscillation trajectory. Row t holds the state at t and the weights
    applied at t; the final state's weight cells are nan (no step taken)."""
    x = np.asarray(states, dtype=float)
    w = np.asarray(weights, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3 or w.shape != (x.shape[0] - 1, 3):
        raise ValueError("states must be (T+1, 3) and weights (T, 3)")
    table = np.hstack([x, np.vstack([w, np.full((1, 3), math.nan)])])
    _write_csv(
        path,
        ["iteration", "x1", "x2", "x3", "w1", "w2", "w3"],
        ([t, *row] for t, row in enumerate(table)),
    )


def config_dict(config) -> dict:
    out = dataclasses.asdict(config)
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[key] = repr(value)
    return out


def write_experiment_report_json(path, report: ExperimentReport) -> None:
    """Aggregate experiment report: resolved config, one SummaryStat per
    statistic, the exclusion accounting, and the median and largest
    iteration count of each mode over the replications that ran it."""
    excluded = sorted(
        set(range(report.config.replications)) - set(report.replication_indices.tolist())
    )
    iterations = {}
    for mode, counts in report.iterations.items():
        ran = counts[counts > 0]
        iterations[mode] = {"median": float(np.median(ran)), "max": int(ran.max())}
    payload = {
        "config": config_dict(report.config),
        "statistics": {
            name: dataclasses.asdict(getattr(report, name))
            for name in ("sample_mean", "blurring", "nonblurring")
        },
        "excluded_replications": report.excluded_replications,
        "excluded_indices": excluded,
        "iterations": iterations,
    }
    _write_json(path, payload)


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
    _write_json(path, payload)


def write_experiment_values_csv(path, report: ExperimentReport) -> None:
    """Long-format raw values: statistic, replication, value. Replication
    numbers are the original indices, so excluded ones appear as gaps."""
    rows = (
        [name, rep, value]
        for name in ("sample_mean", "blurring", "nonblurring")
        for rep, value in zip(report.replication_indices, report.values[name])
    )
    _write_csv(path, ["statistic", "replication", "value"], rows)


def write_convergence_csv(path, report: ConvergenceRateReport) -> None:
    """Long-format per-iteration series: mode, iteration, mean, std,
    log10_std."""
    rows = (
        [series.mode, t, *values]
        for series in (report.blurring, report.nonblurring)
        for t, values in enumerate(zip(series.means, series.stds, series.log10_stds))
    )
    _write_csv(path, ["mode", "iteration", "mean", "std", "log10_std"], rows)

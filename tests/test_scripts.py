"""Smoke tests for the table scripts under scripts/: each main runs with
tiny arguments, and its table rows must match the library's own report."""

import math
import runpy
import sys
from pathlib import Path

import pytest

from blurshift.experiments import (
    ExperimentConfig,
    run_convergence_rate,
    run_efficiency,
    run_robustness,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, capsys, *argv):
    """Run scripts/<name>.py as __main__ with argv; return its data rows,
    split into fields, without comment, header and blank lines."""
    path = SCRIPTS / f"{name}.py"
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.strip() and not line.startswith("#")]
    # the first row of every table is its column header
    return [row for row in rows if not row[0].isalpha()]


def test_efficiency_table(monkeypatch, capsys):
    rows = run_script(
        "run_efficiency", monkeypatch, capsys,
        "--taus", "1,2", "--reps", "3", "--n-points", "20", "--seed", "4",
    )
    assert [row[0] for row in rows] == ["1", "2"]
    for tau, row in zip((1.0, 2.0), rows):
        rep = run_efficiency(
            ExperimentConfig(kind="efficiency", tau=tau, n_points=20, replications=3, seed=4)
        )
        want = [rep.sample_mean.std, rep.blurring.std, rep.nonblurring.std]
        assert [float(v) for v in row[1:4]] == [round(v, 4) for v in want]
        assert int(row[4]) == rep.excluded_replications


def test_robustness_table(monkeypatch, capsys):
    rows = run_script(
        "run_robustness", monkeypatch, capsys, "--taus", "1", "--reps", "3", "--seed", "2"
    )
    rep = run_robustness(ExperimentConfig(kind="robustness", tau=1.0, replications=3, seed=2))
    want = [
        rep.sample_mean.mean, rep.blurring.mean, rep.blurring.std,
        rep.nonblurring.mean, rep.nonblurring.std,
    ]
    assert len(rows) == 1 and rows[0][0] == "1"
    assert [float(v) for v in rows[0][1:6]] == [round(v, 4) for v in want]
    assert int(rows[0][6]) == rep.excluded_replications


def test_convergence_rate_table(monkeypatch, capsys):
    rows = run_script(
        "run_convergence_rate", monkeypatch, capsys, "--tau", "2", "--n-points", "20"
    )
    report = run_convergence_rate(
        ExperimentConfig(kind="convergence_rate", tau=2.0, n_points=20, replications=1)
    )
    series = [report.blurring, report.nonblurring]
    assert len(rows) == sum(s.means.size for s in series)
    for s in series:
        table, rows = rows[: s.means.size], rows[s.means.size :]
        assert [int(row[0]) for row in table] == list(range(s.means.size))
        assert [float(row[1]) for row in table] == pytest.approx(s.means, abs=5e-7)
        for row, std in zip(table, s.stds):
            assert math.isclose(float(row[2]), std, rel_tol=1e-6, abs_tol=1e-300)
